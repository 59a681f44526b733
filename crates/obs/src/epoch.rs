//! Streamed per-epoch metric snapshots.

use bosim_stats::Json;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// One epoch's worth of derived metrics for core 0's workload.
///
/// The simulator derives one row at every boundary of its epoch clock
/// from core 0's epoch feedback — the record adaptive policies read —
/// plus the L3 residency gauge, so a long run becomes a time series
/// instead of a single aggregate. Rows are pure functions of simulated
/// state: identical across repeated runs and across the every-cycle and
/// event-wheel system loops.
// bosim-lint: schema(obs-epoch)
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRow {
    /// Zero-based epoch index.
    pub epoch: u64,
    /// First cycle of the epoch.
    pub start_cycle: u64,
    /// Epoch length in cycles.
    pub cycles: u64,
    /// Instructions retired by core 0 during the epoch.
    pub instructions: u64,
    /// Instructions per cycle over the epoch.
    pub ipc: f64,
    /// L2-site prefetch accuracy over the epoch (useful / fills).
    pub accuracy: f64,
    /// L2-site coverage over the epoch (useful / (useful + misses)).
    pub coverage: f64,
    /// L2-site lateness over the epoch (late promotions / issued) —
    /// see `docs/OBSERVABILITY.md` for the exact definitions.
    pub lateness: f64,
    /// DRAM bus occupancy over the epoch (busy transfer cycles per
    /// channel-cycle).
    pub occupancy: f64,
    /// Lines resident in the L3 that still carry the prefetch bit at
    /// the boundary — a direct cache-pollution gauge.
    pub l3_prefetch_resident: u64,
}

impl EpochRow {
    /// Renders the row as a compact JSON object — one line of the
    /// epoch JSONL stream.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("epoch", Json::UInt(self.epoch)),
            ("start_cycle", Json::UInt(self.start_cycle)),
            ("cycles", Json::UInt(self.cycles)),
            ("instructions", Json::UInt(self.instructions)),
            ("ipc", Json::Num(self.ipc)),
            ("accuracy", Json::Num(self.accuracy)),
            ("coverage", Json::Num(self.coverage)),
            ("lateness", Json::Num(self.lateness)),
            ("occupancy", Json::Num(self.occupancy)),
            (
                "l3_prefetch_resident",
                Json::UInt(self.l3_prefetch_resident),
            ),
        ])
    }
}

/// Renders a slice of rows as a JSON-lines document (one compact
/// object per line, trailing newline).
pub fn to_jsonl(rows: &[EpochRow]) -> String {
    let mut out = String::new();
    for row in rows {
        out.push_str(&row.to_json().to_string());
        out.push('\n');
    }
    out
}

/// An incremental JSON-lines writer for epoch rows.
///
/// Streaming is best-effort: the file is created up front, each row is
/// written and flushed at the boundary it describes (so a sweep can be
/// inspected mid-flight with `tail -f`), and I/O errors are swallowed
/// — observability must never fail or perturb a run.
#[derive(Debug)]
pub struct EpochStream {
    out: Option<BufWriter<File>>,
}

impl EpochStream {
    /// A stream that writes nowhere.
    pub fn disabled() -> Self {
        EpochStream { out: None }
    }

    /// Opens (truncates) `path` for streaming. Returns a disabled
    /// stream when the file cannot be created.
    pub fn create(path: &Path) -> Self {
        EpochStream {
            out: File::create(path).ok().map(BufWriter::new),
        }
    }

    /// Writes one row as a JSON line and flushes it.
    pub fn write_row(&mut self, row: &EpochRow) {
        if let Some(w) = &mut self.out {
            let _ = writeln!(w, "{}", row.to_json());
            let _ = w.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(epoch: u64) -> EpochRow {
        EpochRow {
            epoch,
            start_cycle: epoch * 100,
            cycles: 100,
            instructions: 250,
            ipc: 2.5,
            accuracy: 0.5,
            coverage: 0.25,
            lateness: 0.125,
            occupancy: 0.0625,
            l3_prefetch_resident: 7,
        }
    }

    #[test]
    fn rows_render_one_line_each() {
        let text = to_jsonl(&[row(0), row(1)]);
        assert_eq!(text.lines().count(), 2);
        let first = text.lines().next().unwrap();
        assert!(first.starts_with(r#"{"epoch":0,"start_cycle":0,"cycles":100"#));
        assert!(first.contains(r#""ipc":2.5"#));
        assert!(first.contains(r#""l3_prefetch_resident":7"#));
    }

    #[test]
    fn stream_writes_and_is_tailable() {
        let path =
            std::env::temp_dir().join(format!("bosim_obs_epochs_{}.jsonl", std::process::id()));
        let mut s = EpochStream::create(&path);
        s.write_row(&row(0));
        s.write_row(&row(1));
        // Flushed at each row: readable before the stream is dropped.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, to_jsonl(&[row(0), row(1)]));
        drop(s);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn disabled_stream_is_inert() {
        let mut s = EpochStream::disabled();
        s.write_row(&row(0));
    }
}

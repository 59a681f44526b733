//! The epoch series as JSON lines, in memory and streamed to a file.

use crate::EpochFeedback;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Renders epoch records as a JSON-lines document (one compact object
/// per line, trailing newline).
pub fn to_jsonl(rows: &[EpochFeedback]) -> String {
    let mut out = String::new();
    for row in rows {
        out.push_str(&row.to_json().to_string());
        out.push('\n');
    }
    out
}

/// An incremental JSON-lines writer for epoch records.
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

    /// Writes one record as a JSON line and flushes it.
    pub fn write_row(&mut self, row: &EpochFeedback) {
        if let Some(w) = &mut self.out {
            let _ = writeln!(w, "{}", row.to_json());
            let _ = w.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(epoch: u64) -> EpochFeedback {
        EpochFeedback {
            epoch,
            start_cycle: epoch * 100,
            cycles: 100,
            instructions: 250,
            bus_occupancy: 0.0625,
            l3_prefetch_resident: 7,
            ..Default::default()
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

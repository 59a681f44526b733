//! The `bosim serve` sweep service: a corpus-scale grid runner with a
//! persistent job queue, checkpointed resume and an incremental report
//! stream.
//!
//! # Lifecycle
//!
//! [`serve`] plans the experiment ([`Experiment::plan`]), opens (or
//! creates) the journal under the output directory
//! ([`Journal`]), and replays every row a
//! previous run already completed — those jobs are **never re-executed**
//! (dedup by [job key](bosim_bench::ExperimentPlan::job_key), guarded
//! by the plan [fingerprint](bosim_bench::ExperimentPlan::fingerprint)).
//! The remaining jobs run on the job runner's worker pool
//! ([`bosim::stream_jobs`]), taken in plan order. Each completion is
//! appended to the journal and echoed to the stream file on the calling
//! thread as it arrives, so a `SIGKILL` at any instant loses at most
//! the in-flight jobs.
//!
//! # Determinism
//!
//! The final report is **always** assembled from the journaled rows,
//! sorted by job index ([`ExperimentPlan::assemble`], the assembler
//! `bosim sweep` uses too) — an uninterrupted run and any kill+resume
//! sequence walk the exact same assembly path over the exact same row
//! set, so their report files are byte-identical. Completion order,
//! thread count and crash timing can only change *when* rows appear,
//! never what the report says.
//!
//! # Artifacts
//!
//! For an experiment named `N` under the output directory `D`:
//! `D/N.journal.jsonl` (the checkpoint journal), `D/N.stream.jsonl`
//! (one [`StreamEvent`] per resume/row/abort/report, flushed as it
//! happens), and `D/N.json` (the final report, written only when the
//! grid is complete). See `docs/SERVE.md`.

use crate::commands::CliError;
use crate::queue::Journal;
use bosim::{RunnerError, SimResult};
use bosim_bench::{Experiment, ExperimentPlan, JobRow};
use bosim_stats::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;

/// Tuning and test knobs for one [`serve`] invocation.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker thread count (clamped to at least 1).
    pub threads: usize,
    /// Soft-abort hook: stop handing out work after this many jobs have
    /// been journaled *by this process* (the crash/restart harness and
    /// the CI smoke test; `--abort-after`).
    pub abort_after: Option<u64>,
    /// Output directory for the journal, stream and report files.
    pub out_dir: PathBuf,
}

impl ServeOptions {
    /// Defaults: one thread per core, no abort hook, the standard
    /// report directory.
    pub fn new(out_dir: impl Into<PathBuf>) -> ServeOptions {
        ServeOptions {
            threads: bosim::default_threads(),
            abort_after: None,
            out_dir: out_dir.into(),
        }
    }
}

/// One line of the incremental stream file: progress as it happens.
///
/// `event` is `"resume"` (journal replayed; `done` jobs were already
/// complete), `"row"` (one job just completed; `row` carries its
/// journal row), `"abort"` (the abort hook fired) or `"report"` (grid
/// complete; the final report was written). `done`/`total` count
/// completed vs planned jobs at the moment of the event.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamEvent {
    /// Event kind: `resume`, `row`, `abort` or `report`.
    pub event: String,
    /// Jobs complete (journaled) at this moment.
    pub done: u64,
    /// Total jobs in the grid.
    pub total: u64,
    /// The completed job's journal row (for `row` events).
    pub row: Option<Json>,
}

impl StreamEvent {
    /// The compact JSON form written as one stream line.
    pub fn to_json(&self) -> Json {
        let StreamEvent {
            event,
            done,
            total,
            row,
        } = self;
        Json::obj([
            ("event", Json::from(event.as_str())),
            ("done", Json::UInt(*done)),
            ("total", Json::UInt(*total)),
            ("row", Json::from(row.clone())),
        ])
    }
}

/// What one [`serve`] invocation did.
#[derive(Debug)]
pub struct ServeSummary {
    /// Total jobs in the grid.
    pub total: usize,
    /// Jobs recovered from the journal (not re-executed).
    pub resumed: usize,
    /// Jobs executed by this process.
    pub ran: usize,
    /// Duplicate journal rows dropped on resume.
    pub duplicates: u64,
    /// Stale journal rows skipped on resume.
    pub stale: u64,
    /// Whether a torn final journal line was recovered on resume.
    pub torn_recovered: bool,
    /// Whether the abort hook stopped the sweep early.
    pub aborted: bool,
    /// The final report path (written only when the grid completed).
    pub report_path: Option<PathBuf>,
    /// The checkpoint journal path.
    pub journal_path: PathBuf,
    /// The incremental stream path.
    pub stream_path: PathBuf,
}

struct Stream {
    path: PathBuf,
    file: std::fs::File,
    total: u64,
}

impl Stream {
    fn open(path: PathBuf, total: u64) -> Result<Stream, CliError> {
        let file = std::fs::File::options()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| CliError::Failed(format!("cannot open {}: {e}", path.display())))?;
        Ok(Stream { path, file, total })
    }

    fn emit(&mut self, event: &str, done: u64, row: Option<Json>) -> Result<(), CliError> {
        let line = StreamEvent {
            event: event.to_string(),
            done,
            total: self.total,
            row,
        }
        .to_json()
        .to_string();
        self.file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.write_all(b"\n"))
            .and_then(|()| self.file.flush())
            .map_err(|e| CliError::Failed(format!("cannot write {}: {e}", self.path.display())))
    }
}

/// Runs `experiment` as a checkpointed sweep. See the [module
/// docs](self) for lifecycle and determinism.
///
/// # Errors
///
/// [`CliError::Failed`] on plan errors, journal/stream I/O failures, a
/// journal belonging to a different plan, or a panicking job. The
/// journal keeps every row completed before the failure, so a rerun
/// resumes instead of restarting.
pub fn serve(experiment: Experiment, opts: &ServeOptions) -> Result<ServeSummary, CliError> {
    let plan = experiment
        .plan()
        .map_err(|e| CliError::Failed(format!("cannot plan sweep: {e}")))?;
    serve_plan(&plan, opts)
}

fn serve_plan(plan: &ExperimentPlan, opts: &ServeOptions) -> Result<ServeSummary, CliError> {
    let total = plan.jobs().len();
    let journal_path = opts.out_dir.join(format!("{}.journal.jsonl", plan.name()));
    let stream_path = opts.out_dir.join(format!("{}.stream.jsonl", plan.name()));

    let (mut journal, load) = Journal::open(&journal_path, plan)
        .map_err(|e| CliError::Failed(format!("cannot resume sweep: {e}")))?;
    let mut rows: BTreeMap<usize, JobRow> = load.rows;
    if load.torn_recovered {
        eprintln!("[bosim serve] recovered a torn final journal line (crash mid-append)");
    }
    if load.duplicates > 0 || load.stale > 0 {
        eprintln!(
            "[bosim serve] journal replay: dropped {} duplicate and {} stale row(s)",
            load.duplicates, load.stale
        );
    }
    let resumed = rows.len();
    let mut stream = Stream::open(stream_path.clone(), total as u64)?;
    stream.emit("resume", resumed as u64, None)?;

    let pending: Vec<usize> = (0..total).filter(|i| !rows.contains_key(i)).collect();
    let threads = opts.threads.max(1).min(pending.len().max(1));
    eprintln!(
        "[bosim serve] {}: {} jobs total, {} resumed from journal, {} to run on {} thread(s)",
        plan.name(),
        total,
        resumed,
        pending.len(),
        threads,
    );

    let mut ran = 0usize;
    let mut aborted = false;
    // Journals and streams one completion; `Ok(false)` fires the abort
    // hook. Once the runner is told to stop it drops the completions
    // still in flight, exactly as a real crash would lose them: the
    // journal holds precisely the rows completed before the "kill",
    // which is what the crash/restart harness relies on.
    let mut checkpoint =
        |job: usize, result: Result<SimResult, RunnerError>| -> Result<bool, CliError> {
            let result = result.map_err(|e| {
                CliError::Failed(format!(
                    "sweep failed: {e} (completed rows are checkpointed in {}; rerun to resume)",
                    journal_path.display()
                ))
            })?;
            let row = plan.row(job, &result);
            journal
                .append(&row)
                .map_err(|e| CliError::Failed(format!("cannot checkpoint: {e}")))?;
            rows.insert(job, row.clone());
            ran += 1;
            stream.emit("row", rows.len() as u64, Some(row.to_json()))?;
            aborted = opts.abort_after.is_some_and(|n| (ran as u64) >= n);
            Ok(!aborted)
        };
    let mut failure = None;
    bosim::stream_jobs(plan.jobs(), &pending, threads, |job, result| {
        checkpoint(job, result).unwrap_or_else(|e| {
            failure = Some(e);
            false
        })
    });
    if let Some(e) = failure {
        return Err(e);
    }

    let complete = rows.len() == total;
    if aborted {
        stream.emit("abort", rows.len() as u64, None)?;
        eprintln!(
            "[bosim serve] abort hook fired after {ran} job(s); {} of {total} journaled",
            rows.len()
        );
    }
    let mut report_path = None;
    // The journal admits only in-range rows, one per job, so a complete
    // row set holds every job exactly once, in job order.
    if complete {
        let rows: Vec<JobRow> = rows.into_values().collect();
        let path = plan
            .assemble(&rows)
            .write_json(&opts.out_dir)
            .map_err(|e| {
                CliError::Failed(format!(
                    "cannot write the report under {}: {e}",
                    opts.out_dir.display()
                ))
            })?;
        stream.emit("report", total as u64, None)?;
        eprintln!("[bosim serve] report written to {}", path.display());
        report_path = Some(path);
    }

    Ok(ServeSummary {
        total,
        resumed,
        ran,
        duplicates: load.duplicates,
        stale: load.stale,
        torn_recovered: load.torn_recovered,
        aborted,
        report_path,
        journal_path,
        stream_path,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_events_round_trip() {
        let e = StreamEvent {
            event: "row".to_string(),
            done: 3,
            total: 12,
            row: Some(Json::obj([("job", Json::UInt(2))])),
        };
        let doc = Json::parse(&e.to_json().to_string()).unwrap();
        assert_eq!(doc.get("event").and_then(Json::as_str), Some("row"));
        assert_eq!(doc.get("done").and_then(Json::as_f64), Some(3.0));
        assert_eq!(doc.get("total").and_then(Json::as_f64), Some(12.0));
        assert!(doc.get("row").is_some());
        // Non-row events carry an explicit null row.
        let e = StreamEvent {
            event: "resume".to_string(),
            done: 0,
            total: 12,
            row: None,
        };
        assert!(e.to_json().to_string().contains("\"row\":null"));
    }
}

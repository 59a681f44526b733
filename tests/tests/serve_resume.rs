//! Crash/restart suite for `bosim serve`: kill a sweep after N
//! completed jobs (via the injected abort hook), resume it, and prove
//! the final report is **byte-identical** to an uninterrupted run's —
//! with zero finished jobs re-executed — across thread counts and kill
//! points — and that the same grid run in one process writes the same
//! report bytes. The child-process `SIGKILL` variant (a real dead
//! process, not a cooperative stop) lives in
//! `crates/cli/tests/serve_e2e.rs` where the built binary is available.

use bosim::{prefetchers, SimConfig};
use bosim_bench::Experiment;
use bosim_cli::{serve, ServeOptions};
use std::path::{Path, PathBuf};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bosim_serve_resume_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn tiny(cfg: SimConfig) -> SimConfig {
    SimConfig {
        warmup_instructions: 2_000,
        measure_instructions: 10_000,
        ..cfg
    }
}

/// The reference grid: 3 benchmarks × 2 paired arms = 12 jobs
/// (6 subject + 6 deduplicated baselines collapse to 9 distinct).
fn experiment(name: &str) -> Experiment {
    let base = tiny(SimConfig::default());
    let bo = base.clone().with_prefetcher(prefetchers::bo_default());
    let next = base.clone(); // the default stack is next-line at L2
    Experiment::new(name, "serve resume suite")
        .benchmark_ids(&["456", "444", "462"])
        .arm_vs("BO", bo, base.clone())
        .arm_vs("base/self", next, base)
}

fn opts(dir: &Path, threads: usize, abort_after: Option<u64>) -> ServeOptions {
    let mut o = ServeOptions::new(dir);
    o.threads = threads;
    o.abort_after = abort_after;
    o
}

fn report_bytes(dir: &Path, name: &str) -> Vec<u8> {
    let path = dir.join(format!("{name}.json"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn journal_rows(dir: &Path, name: &str) -> usize {
    let path = dir.join(format!("{name}.journal.jsonl"));
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
        .lines()
        .count()
        .saturating_sub(1) // header line
}

#[test]
fn killed_and_resumed_sweeps_are_byte_identical_across_shard_counts() {
    // The uninterrupted reference run.
    let ref_dir = scratch("ref");
    let summary = serve(experiment("resume_grid"), &opts(&ref_dir, 2, None)).expect("reference");
    let total = summary.total;
    assert!(total >= 6, "grid too small to interrupt meaningfully");
    assert_eq!(summary.resumed, 0);
    assert_eq!(summary.ran, total);
    assert!(!summary.aborted);
    let reference = report_bytes(&ref_dir, "resume_grid");

    // Acceptance: >= 2 thread-count configurations, kill mid-grid,
    // resume, byte-identical report, zero finished jobs re-executed.
    for threads in [1usize, 3] {
        for kill_after in [1u64, (total as u64) / 2] {
            let dir = scratch(&format!("kill_{threads}_{kill_after}"));
            let first = serve(
                experiment("resume_grid"),
                &opts(&dir, threads, Some(kill_after)),
            )
            .expect("aborted run still checkpoints cleanly");
            assert!(first.aborted, "abort hook must fire");
            assert_eq!(
                first.ran, kill_after as usize,
                "in-flight completions past the abort point are discarded"
            );
            assert!(first.ran < total, "abort must leave work undone");
            assert!(
                !dir.join("resume_grid.json").exists(),
                "no report before the grid completes"
            );
            let checkpointed = journal_rows(&dir, "resume_grid");
            assert_eq!(checkpointed, first.ran);

            // Resume: exactly the missing jobs run, none repeat.
            let second = serve(experiment("resume_grid"), &opts(&dir, threads, None))
                .expect("resume completes");
            assert_eq!(
                second.resumed, first.ran,
                "every checkpointed job must be trusted on resume"
            );
            assert_eq!(
                second.ran,
                total - first.ran,
                "zero finished jobs re-executed"
            );
            assert!(!second.aborted);
            assert_eq!(journal_rows(&dir, "resume_grid"), total);
            assert_eq!(
                report_bytes(&dir, "resume_grid"),
                reference,
                "threads={threads} kill_after={kill_after}: resumed report drifted"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// `bosim sweep` (`Experiment::run` + `Report::write_json`) and
/// `bosim serve` write the same report bytes for the same grid.
#[test]
fn run_and_serve_write_the_same_report() {
    let run_dir = scratch("run");
    experiment("run_vs_serve")
        .threads(2)
        .run()
        .expect("grid runs")
        .write_json(&run_dir)
        .expect("report written");
    let serve_dir = scratch("serve");
    serve(experiment("run_vs_serve"), &opts(&serve_dir, 2, None)).expect("sweep completes");
    assert_eq!(
        report_bytes(&run_dir, "run_vs_serve"),
        report_bytes(&serve_dir, "run_vs_serve")
    );
    let _ = std::fs::remove_dir_all(&run_dir);
    let _ = std::fs::remove_dir_all(&serve_dir);
}

#[test]
fn double_kill_then_resume_still_converges() {
    // Two crashes at different points before the grid completes.
    let ref_dir = scratch("ref2");
    serve(experiment("resume_twice"), &opts(&ref_dir, 2, None)).expect("reference");
    let reference = report_bytes(&ref_dir, "resume_twice");

    let dir = scratch("twice");
    let a = serve(experiment("resume_twice"), &opts(&dir, 2, Some(1))).expect("first abort");
    assert!(a.aborted);
    let b = serve(experiment("resume_twice"), &opts(&dir, 3, Some(2))).expect("second abort");
    assert_eq!(b.resumed, a.ran, "second run resumes the first's rows");
    let c = serve(experiment("resume_twice"), &opts(&dir, 2, None)).expect("final resume");
    assert_eq!(c.resumed, a.ran + b.ran);
    assert_eq!(c.resumed + c.ran, c.total);
    assert_eq!(report_bytes(&dir, "resume_twice"), reference);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

#[test]
fn completed_sweep_reruns_without_executing_anything() {
    let dir = scratch("idempotent");
    let first = serve(experiment("resume_idem"), &opts(&dir, 2, None)).expect("first");
    let bytes = report_bytes(&dir, "resume_idem");
    let again = serve(experiment("resume_idem"), &opts(&dir, 4, None)).expect("rerun");
    assert_eq!(
        again.resumed, first.total,
        "everything comes from the journal"
    );
    assert_eq!(again.ran, 0, "a finished sweep re-executes nothing");
    assert_eq!(
        report_bytes(&dir, "resume_idem"),
        bytes,
        "rewrite is stable"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_rejects_a_different_grid() {
    let dir = scratch("mismatch");
    serve(experiment("resume_guard"), &opts(&dir, 2, Some(1))).expect("abort");
    // Same name, different arms: the journal must refuse to mix grids.
    let other = Experiment::new("resume_guard", "different grid")
        .benchmark_ids(&["456"])
        .arm("raw", tiny(SimConfig::default()));
    let err = serve(other, &opts(&dir, 2, None)).expect_err("fingerprint mismatch");
    assert!(
        err.to_string().contains("does not match"),
        "unexpected error: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stream_file_narrates_the_whole_lifecycle() {
    use bosim_stats::Json;
    let dir = scratch("stream");
    serve(experiment("resume_stream"), &opts(&dir, 2, Some(2))).expect("abort");
    serve(experiment("resume_stream"), &opts(&dir, 2, None)).expect("resume");
    let text = std::fs::read_to_string(dir.join("resume_stream.stream.jsonl")).expect("stream");
    let events: Vec<Json> = text
        .lines()
        .map(|l| Json::parse(l).expect("stream lines are JSON"))
        .collect();
    let kinds: Vec<&str> = events
        .iter()
        .map(|e| e.get("event").and_then(Json::as_str).expect("event kind"))
        .collect();
    // Two process lifetimes: resume..rows..abort, resume..rows..report.
    assert_eq!(kinds.first(), Some(&"resume"));
    assert_eq!(kinds.last(), Some(&"report"));
    assert!(kinds.contains(&"abort"));
    assert_eq!(kinds.iter().filter(|k| **k == "resume").count(), 2);
    // Row events carry the journal row and a consistent done/total.
    let total = events[0]
        .get("total")
        .and_then(Json::as_f64)
        .expect("total");
    let rows = kinds.iter().filter(|k| **k == "row").count();
    assert_eq!(rows as f64, total, "every job streams exactly one row");
    for e in &events {
        let done = e.get("done").and_then(Json::as_f64).expect("done");
        assert!(done <= total);
        if e.get("event").and_then(Json::as_str) == Some("row") {
            assert!(e.get("row").is_some_and(|r| r.get("key").is_some()));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

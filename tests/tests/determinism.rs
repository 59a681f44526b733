//! End-to-end determinism: the same `SimConfig` must produce
//! byte-identical report JSON on every run — across the threaded
//! `Experiment` grid, adaptive epoch telemetry, and file-backed
//! ChampSim ingestion. This is the dynamic counterpart of the D-rules
//! (docs/ANALYSIS.md): clippy bans the usual sources of nondeterminism
//! in library code statically, this test pins the observable output.

use bosim::adapt::policies;
use bosim::{prefetchers, SimConfig};
use bosim_bench::Experiment;
use bosim_trace::{capture, champsim, suite, BenchmarkSpec, ExternalSpec, TraceFormat};
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bosim_determ_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn tiny(cfg: SimConfig) -> SimConfig {
    SimConfig {
        warmup_instructions: 5_000,
        measure_instructions: 25_000,
        ..cfg
    }
}

/// Builds and runs the synthetic grid, returning the pretty-printed
/// report JSON — the exact bytes `Report::write_json` would persist.
fn synthetic_report_json() -> String {
    let base = tiny(SimConfig::default());
    let mut adaptive = tiny(SimConfig::default());
    adaptive.adapt = Some(policies::tournament(["offset-8", "none"]));
    adaptive.epoch_cycles = 4_000;
    Experiment::new("determinism_synth", "byte-stable synthetic grid")
        .benchmarks(vec![
            suite::benchmark("462").expect("suite has 462"),
            suite::benchmark("433").expect("suite has 433"),
        ])
        .arm(
            "BO",
            base.clone().with_prefetcher(prefetchers::bo_default()),
        )
        .arm("none", base.clone().with_prefetcher(prefetchers::none()))
        .arm("adaptive", adaptive)
        .run()
        .expect("synthetic grid runs")
        .to_json()
        .to_pretty()
}

#[test]
fn synthetic_grid_report_is_byte_identical_across_runs() {
    let first = synthetic_report_json();
    let second = synthetic_report_json();
    assert!(
        first == second,
        "synthetic report JSON diverged across runs"
    );
    // The grid exercised what it claims to: per-run counters and the
    // adaptive telemetry block are present in the pinned bytes.
    assert!(first.contains("\"l2_prefetches_issued\""), "{first}");
    assert!(first.contains("\"adapt\""), "{first}");
    assert!(first.contains("\"epoch\""), "{first}");
}

#[test]
fn champsim_ingestion_report_is_byte_identical_across_runs() {
    let dir = scratch("champsim");
    let path = dir.join("libq.champsim");
    let uops = capture(&mut suite::benchmark("462").unwrap().build(), 60_000);
    std::fs::write(&path, champsim::encode(&uops)).unwrap();

    let report = |path: &PathBuf| -> String {
        let bench =
            BenchmarkSpec::from_trace(ExternalSpec::new(path, TraceFormat::ChampSim).named("libq"));
        let base = tiny(SimConfig::default());
        Experiment::new("determinism_ingest", "byte-stable ingested grid")
            .benchmarks(vec![bench])
            .arm_vs(
                "BO",
                base.clone().with_prefetcher(prefetchers::bo_default()),
                base.clone().with_prefetcher(prefetchers::none()),
            )
            .run()
            .expect("file-backed grid runs")
            .to_json()
            .to_pretty()
    };
    let first = report(&path);
    let second = report(&path);
    assert!(first == second, "ingested report JSON diverged across runs");
    assert!(first.contains("\"libq\""), "{first}");
    let _ = std::fs::remove_dir_all(&dir);
}

//! Experiment harness for the per-figure binaries.
//!
//! Every binary regenerates one table or figure of *Best-Offset Hardware
//! Prefetching* (HPCA 2016) by declaring an [`Experiment`]: benchmarks ×
//! labelled configuration arms, an optional per-arm baseline, a metric
//! and a table layout. The harness owns job deduplication, worker
//! threading, speedup pairing and structured [`Report`] output (TSV +
//! aligned text on stdout, JSON under `target/reports/`). The `adaptive`
//! binary compares static prefetcher configurations against the
//! `bosim-adapt` runtime tuning policies on the phase-shifting workload,
//! with per-epoch telemetry in its report JSON. Simulator throughput is
//! measured by the separate `bosim-benchmark` package.
//!
//! ```no_run
//! use bosim::{prefetchers, SimConfig};
//! use bosim_bench::six_baseline_speedup;
//!
//! six_baseline_speedup(
//!     "fig06_bo_speedup",
//!     "Figure 6: BO prefetcher speedup over next-line",
//!     |page, cores| {
//!         SimConfig::baseline(page, cores).with_prefetcher(prefetchers::bo_default())
//!     },
//! )
//! .run_and_emit();
//! ```
//!
//! Environment knobs (all optional):
//!
//! * `BOSIM_INSTRUCTIONS` — measured instructions per run (default 1M),
//! * `BOSIM_WARMUP` — warm-up instructions (default 200k),
//! * `BOSIM_BENCHMARKS` — comma-separated short ids (default: all 29),
//! * `BOSIM_THREADS` — worker threads (default: all cores),
//! * `BOSIM_CONFIGS` — subset of the six baselines, e.g. `4KB/1,4MB/2`,
//! * `BOSIM_REPORT_DIR` — JSON report directory (default `target/reports`).

#![warn(missing_docs)]

mod experiment;
pub mod journal;
mod report;

pub use experiment::{
    six_baseline_gm_variants, six_baseline_speedup, Experiment, ExperimentError, ExperimentPlan,
    Metric, PlannedArm, VariantFn,
};
pub use journal::{JobRow, JournalError};
pub use report::{ArmReport, Layout, Report, RunSummary};

use bosim_trace::{suite, BenchmarkSpec};
use bosim_types::PageSize;

/// The benchmarks selected for this invocation (honours
/// `BOSIM_BENCHMARKS`).
#[expect(
    clippy::panic,
    reason = "harness entry point; env-var benchmark lists fail fast by design"
)]
pub fn selected_benchmarks() -> Vec<BenchmarkSpec> {
    match std::env::var("BOSIM_BENCHMARKS") {
        Ok(list) if !list.trim().is_empty() => list
            .split(',')
            .map(|id| {
                suite::benchmark(id.trim()).unwrap_or_else(|| panic!("unknown benchmark id {id:?}"))
            })
            .collect(),
        _ => suite::suite(),
    }
}

/// Worker threads (honours `BOSIM_THREADS`).
pub fn threads() -> usize {
    std::env::var("BOSIM_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(bosim::default_threads)
}

/// The six baseline configurations of §5 (honours `BOSIM_CONFIGS`).
pub fn six_baselines() -> Vec<(PageSize, usize)> {
    let all = vec![
        (PageSize::K4, 1),
        (PageSize::K4, 2),
        (PageSize::K4, 4),
        (PageSize::M4, 1),
        (PageSize::M4, 2),
        (PageSize::M4, 4),
    ];
    match std::env::var("BOSIM_CONFIGS") {
        Ok(list) if !list.trim().is_empty() => {
            let wanted: Vec<String> = list.split(',').map(|s| s.trim().to_string()).collect();
            all.into_iter()
                .filter(|(p, n)| wanted.iter().any(|w| w == &format!("{}/{}", p.label(), n)))
                .collect()
        }
        _ => all,
    }
}

/// Configuration label like `4KB/2-core`.
pub fn cfg_label(page: PageSize, cores: usize) -> String {
    format!("{}/{}-core", page.label(), cores)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_baselines_default() {
        // Without the env var set, all six §5 baselines are returned.
        if std::env::var("BOSIM_CONFIGS").is_err() {
            assert_eq!(six_baselines().len(), 6);
        }
    }

    #[test]
    fn cfg_labels() {
        assert_eq!(cfg_label(PageSize::K4, 2), "4KB/2-core");
    }

    /// Rule S002: every key a record emits is documented in the report
    /// schema tables.
    #[test]
    fn schema_keys_are_documented() {
        let docs = include_str!("../../../docs/ARCHITECTURE.md");
        let summary = RunSummary {
            benchmark: String::new(),
            config: String::new(),
            ipc: 0.0,
            dram_per_ki: 0.0,
            l2_miss_per_ki: 0.0,
            instructions: 0,
            cycles: 0,
            l1_prefetches: 0,
            l1_prefetch_tlb_drops: 0,
            l2_prefetches_issued: 0,
            l2_prefetch_fills: 0,
            l3_prefetches_issued: 0,
            l3_prefetch_fills: 0,
            adapt: None,
        }
        .to_json();
        let row = JobRow {
            job: 0,
            key: String::new(),
            benchmark: String::new(),
            config: String::new(),
            ipc: 0.0,
            dram_per_ki: 0.0,
            summary: summary.clone(),
        };
        for record in [summary, row.to_json()] {
            let bosim_stats::Json::Obj(fields) = record else {
                panic!("a record renders as an object");
            };
            for (key, _) in fields {
                assert!(docs.contains(&format!("`{key}`")), "`{key}` undocumented");
            }
        }
    }
}

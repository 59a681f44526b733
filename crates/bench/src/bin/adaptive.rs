//! Static vs adaptive prefetch control (the `bosim-adapt` experiment).
//!
//! Runs the phase-shifting synthetic workload (plus a streaming and a
//! pointer-chasing SPEC-like benchmark for context) under four static
//! prefetcher configurations and the three built-in tuning policies,
//! reporting raw IPC per arm. The adaptive runs carry their full
//! per-epoch telemetry (accuracy / coverage / lateness / bus occupancy,
//! the active prefetcher, every directive) into the report JSON, and
//! the tournament's epoch history on the phase workload is printed as a
//! table.
//!
//! The binary is also the CI adaptive smoke arm: it re-checks the
//! telemetry counter invariants (cumulative `useful + unused-evicted <=
//! prefetch fills`, rates within `[0, 1]`, consecutive epochs) on every
//! adaptive run and exits non-zero on any violation.
//!
//! Run with: `cargo run --release -p bosim-bench --bin adaptive`

use best_offset::BoConfig;
use bosim::adapt::{policies, PolicySpec};
use bosim::{prefetchers, SimConfig};
use bosim_bench::{Experiment, Metric};
use bosim_trace::suite;
use bosim_types::PageSize;

/// Epoch length used by every adaptive arm (about 60–80 DRAM round
/// trips: long enough for usefulness counters to resolve, short enough
/// to track the workload's phases).
const EPOCH_CYCLES: u64 = 8_000;

fn main() {
    let base = SimConfig::baseline(PageSize::M4, 1);
    let adaptive = |cfg: SimConfig, policy: PolicySpec| {
        let mut c = cfg;
        c.adapt = Some(policy);
        c.epoch_cycles = EPOCH_CYCLES;
        c
    };
    let bo2 = prefetchers::bo(BoConfig {
        degree: 2,
        ..Default::default()
    });
    let report = Experiment::new(
        "adaptive",
        "Static vs adaptive prefetch control: IPC per arm",
    )
    .benchmarks(vec![
        suite::phase_shift(),
        suite::benchmark("462").expect("libquantum-like"),
        suite::benchmark("429").expect("mcf-like"),
    ])
    .metric(Metric::Ipc)
    .arm(
        "no-prefetch",
        base.clone().with_prefetcher(prefetchers::none()),
    )
    .arm(
        "offset-8",
        base.clone().with_prefetcher(prefetchers::fixed(8)),
    )
    .arm(
        "BO",
        base.clone().with_prefetcher(prefetchers::bo_default()),
    )
    .arm("BO-deg2", base.clone().with_prefetcher(bo2))
    .arm(
        "tournament",
        adaptive(
            base.clone().with_prefetcher(prefetchers::none()),
            policies::tournament(["offset-8", "none"]),
        ),
    )
    .arm(
        "governor",
        adaptive(
            base.clone().with_prefetcher(prefetchers::bo_default()),
            PolicySpec::DegreeGovernor,
        ),
    )
    .arm(
        "bw-throttle",
        adaptive(
            base.with_prefetcher(prefetchers::bo_default()),
            PolicySpec::BandwidthThrottle,
        ),
    )
    .run_and_emit();

    // Print the tournament's epoch history on the phase workload: the
    // human-readable view of what the policy did and why.
    if let Some(run) = report
        .arms
        .iter()
        .find(|a| a.series == "tournament")
        .and_then(|a| a.runs.iter().find(|r| r.benchmark.starts_with("phase")))
    {
        if let Some(telemetry) = &run.adapt {
            println!("# tournament on {}: epoch history", run.benchmark);
            println!("{}", telemetry.table());
        }
    }

    // CI smoke: telemetry invariants must hold on every adaptive run.
    let mut violations = 0;
    for arm in &report.arms {
        for run in &arm.runs {
            if let Some(telemetry) = &run.adapt {
                if let Err(e) = telemetry.check_invariants() {
                    eprintln!(
                        "[bosim] telemetry invariant violated ({} on {}): {e}",
                        arm.series, run.benchmark
                    );
                    violations += 1;
                }
            }
        }
    }
    if violations > 0 {
        std::process::exit(1);
    }
    eprintln!("[bosim] adaptive telemetry invariants hold on every adaptive run");
}

//! Multi-level prefetcher stacks (the `PrefetchSite` experiment).
//!
//! Sweeps prefetcher placements across the three sites of the hierarchy
//! — the Figure 4 shape (L1 on/off) crossed with the new L3 site — and
//! reports speedups over the paper's next-line baseline. Arms are
//! expressed with site-qualified prefetcher names (`l1:stride`, `l2:bo`,
//! `l3:next-line`), exactly what `SimConfig::with_site` accepts.
//!
//! The binary is also the CI multi-level smoke arm: after the grid it
//! re-runs the full three-site stack on one streaming benchmark and
//! checks the per-site telemetry invariants (`useful + unused_evicted
//! <= prefetch_fills` at the L2 and L3 sites), exiting non-zero on any
//! violation.
//!
//! Run with: `cargo run --release -p bosim-bench --bin multilevel`

use bosim::{SimConfig, System};
use bosim_bench::Experiment;
use bosim_trace::suite;

/// Builds a configuration from site-qualified prefetcher names.
fn sites(names: &[&str]) -> SimConfig {
    let mut cfg = SimConfig {
        l1_prefetcher: None,
        ..SimConfig::default()
    };
    for name in names {
        cfg = cfg.with_site(name).unwrap_or_else(|e| panic!("{e}"));
    }
    cfg.validate().unwrap_or_else(|e| panic!("{e}"));
    cfg
}

fn main() {
    let base = SimConfig::default();
    Experiment::new(
        "multilevel",
        "Multi-level prefetching: speedup over the next-line baseline",
    )
    .arm_vs("l2:bo", sites(&["l1:stride", "l2:bo"]), base.clone())
    .arm_vs(
        "l2:bo, no l1",
        sites(&["l2:bo"]), // L1 site left empty (Figure 4 shape)
        base.clone(),
    )
    .arm_vs(
        "l2:bo + l3:next-line",
        sites(&["l1:stride", "l2:bo", "l3:next-line"]),
        base.clone(),
    )
    .arm_vs(
        "l2:bo + l3:offset-8",
        sites(&["l1:stride", "l2:bo", "l3:offset-8"]),
        base,
    )
    .run_and_emit();

    // CI smoke: the full stack's per-site telemetry must satisfy the
    // resolution invariant at every site.
    let bench = suite::benchmark("462").expect("libquantum-like");
    let cfg = SimConfig {
        warmup_instructions: 20_000,
        measure_instructions: 100_000,
        ..sites(&["l1:stride", "l2:bo", "l3:next-line"])
    };
    let result = System::new(&cfg, &bench).run();
    if let Err(e) = result.check_site_invariants() {
        eprintln!("[bosim] per-site telemetry invariant violated: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "[bosim] per-site invariants hold: l1 issued {}, l2 issued {} (useful {}), l3 issued {} (useful {})",
        result.core.l1_prefetches,
        result.l2_site.issued,
        result.l2_site.useful,
        result.l3_site.issued,
        result.l3_site.useful,
    );
}

//! Compare every L2 prefetcher in the repo (none, next-line, fixed D=5,
//! SBP, AMPM, BO) on a selection of benchmarks — a miniature of the
//! paper's whole evaluation, expressed as one `Experiment`.
//!
//! Extra prefetchers can be named on the command line:
//! `BOSIM_EXTRA_PREFETCHERS=offset-12,offset-32` adds two more arms
//! without touching this file.
//!
//! Run with: `cargo run --release -p bosim-bench --example prefetcher_shootout`

use bosim::{prefetchers, PrefetcherSpec, SimConfig};
use bosim_bench::Experiment;

fn main() {
    let base = SimConfig {
        warmup_instructions: 100_000,
        measure_instructions: 400_000,
        ..SimConfig::default()
    };
    let mut variants: Vec<(String, PrefetcherSpec)> = vec![
        ("none".into(), prefetchers::none()),
        ("D=5".into(), prefetchers::fixed(5)),
        ("SBP".into(), prefetchers::sbp_default()),
        ("AMPM".into(), prefetchers::ampm_default()),
        ("BO".into(), prefetchers::bo_default()),
    ];
    if let Ok(extra) = std::env::var("BOSIM_EXTRA_PREFETCHERS") {
        for name in extra.split(',').filter(|s| !s.trim().is_empty()) {
            // A malformed family name like `offset-0` dies with the
            // parser's diagnosis, not a generic "unknown prefetcher".
            let spec = PrefetcherSpec::parse(name).unwrap_or_else(|e| panic!("{e}"));
            variants.push((spec.name(), spec));
        }
    }
    let mut e = Experiment::new(
        "prefetcher_shootout",
        "Prefetcher shootout: speedup over the next-line baseline",
    )
    .benchmark_ids(&["429", "433", "459", "462", "470", "471"]);
    for (label, spec) in variants {
        e = e.arm_vs(label, base.clone().with_prefetcher(spec), base.clone());
    }
    e.run_and_emit();
}

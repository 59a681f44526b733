//! Multi-level prefetcher shootout: place prefetchers at any
//! combination of the three `PrefetchSite`s — the DL1 (l1), the
//! private L2 (l2) and the shared L3 (l3) — and compare the stacks.
//!
//! Sites are addressed with site-qualified prefetcher names
//! (`l1:stride`, `l2:bo`, `l3:next-line`; a bare name means the L2
//! site). Every arm below is a stack of those names as
//! `SimConfig::with_stack` reads it, over an empty L1 site, so a stack
//! lists exactly the prefetchers it wants; add your own stack with
//! `BOSIM_EXTRA_STACKS='l2:sbp+l3:offset-4;l2:ampm'` (stacks separated
//! by `;`, sites within a stack by `+`, each site named once).
//!
//! After the grid, the example prints each stack's per-site telemetry
//! (issued / fills / useful / unused-evicted per site) for one
//! streaming benchmark — the raw counters behind the speedups.
//!
//! Run with: `cargo run --release -p bosim-bench --example multilevel_shootout`

use bosim::{SimConfig, System};
use bosim_bench::Experiment;
use bosim_trace::suite;

fn main() {
    let mut stacks: Vec<String> = [
        "l2:next-line",                 // L2 next-line alone (L1 ablated)
        "l1:stride+l2:next-line",       // the Table 1 baseline machine
        "l1:stride+l2:bo",              // the paper's headline config
        "l1:stride+l2:bo+l3:next-line", // + an L3 site
        "l1:stride+l2:bo+l3:offset-8",  // deeper L3 lookahead
        "l2:bo+l3:next-line",           // L1 ablated, L3 kept
    ]
    .map(String::from)
    .to_vec();
    if let Ok(extra) = std::env::var("BOSIM_EXTRA_STACKS") {
        stacks.extend(
            extra
                .split(';')
                .filter(|s| !s.trim().is_empty())
                .map(|s| s.trim().to_string()),
        );
    }

    let base = SimConfig {
        warmup_instructions: 100_000,
        measure_instructions: 400_000,
        ..SimConfig::default()
    };
    let empty_l1 = SimConfig {
        l1_prefetcher: None,
        ..base.clone()
    };
    let configs: Vec<SimConfig> = stacks
        .iter()
        .map(|s| {
            empty_l1
                .clone()
                .with_stack(s)
                .unwrap_or_else(|e| panic!("{e}"))
        })
        .collect();
    let mut e = Experiment::new(
        "multilevel_shootout",
        "Multi-level stacks: speedup over the next-line baseline",
    )
    .benchmark_ids(&["429", "433", "462", "470", "471"]);
    for (s, cfg) in stacks.iter().zip(&configs) {
        e = e.arm_vs(s.clone(), cfg.clone(), base.clone());
    }
    e.run_and_emit();

    // Per-site telemetry on one streaming benchmark: what each site
    // actually did.
    println!("\n# per-site telemetry on 462.libquantum-like");
    println!("stack\tsite\tissued\tfills\tuseful\tunused");
    let bench = suite::benchmark("462").expect("exists");
    for (s, cfg) in stacks.iter().zip(&configs) {
        let cfg = SimConfig {
            warmup_instructions: 50_000,
            measure_instructions: 200_000,
            ..cfg.clone()
        };
        let r = System::new(&cfg, &bench).run();
        r.check_site_invariants().unwrap_or_else(|e| panic!("{e}"));
        println!("{s}\tl1\t{}\t-\t-\t-", r.core.l1_prefetches);
        for (site, t) in [("l2", &r.l2_site), ("l3", &r.l3_site)] {
            println!(
                "{s}\t{site}\t{}\t{}\t{}\t{}",
                t.issued, t.prefetch_fills, t.useful, t.unused_evicted
            );
        }
    }
}

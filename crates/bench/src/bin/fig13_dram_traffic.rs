//! Figure 13: DRAM accesses per 1000 instructions for no-prefetch,
//! next-line, BO and SBP (4KB pages, 1 active core, memory-intensive
//! subset).
use bosim::{prefetchers, PrefetcherSpec, SimConfig};
use bosim_bench::{Experiment, Metric};
use bosim_trace::suite;
use bosim_types::PageSize;

fn main() {
    let base = SimConfig::baseline(PageSize::K4, 1);
    let variants: [(&str, PrefetcherSpec); 4] = [
        ("no-prefetch", prefetchers::none()),
        ("next-line", prefetchers::next_line()),
        ("BO", prefetchers::bo_default()),
        ("SBP", prefetchers::sbp_default()),
    ];
    let mut e = Experiment::new(
        "fig13_dram_traffic",
        "Figure 13: DRAM accesses per 1000 instructions (4KB, 1 core)",
    )
    .benchmark_ids(&suite::fig13_subset())
    .metric(Metric::DramPerKi)
    .gm(false)
    .decimals(1);
    for (name, spec) in variants {
        e = e.arm(name, base.clone().with_prefetcher(spec));
    }
    e.run_and_emit();
}

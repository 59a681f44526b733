//! Full-system run: one benchmark through the complete Table 1 machine
//! (OoO core, TLBs, TAGE, L1/L2/L3, fill queues, DDR3) with next-line vs
//! Best-Offset L2 prefetching.
//!
//! Run with: `cargo run --release -p bosim-bench --example full_system [id]`

use bosim::{prefetchers, SimConfig, System};
use bosim_trace::suite;

fn main() {
    let id = std::env::args().nth(1).unwrap_or_else(|| "470".to_string());
    let spec =
        suite::benchmark(&id).unwrap_or_else(|| panic!("unknown benchmark {id} (try 400..483)"));
    println!("benchmark: {}", spec.name);

    let mut results = Vec::new();
    for (name, kind) in [
        ("next-line", prefetchers::next_line()),
        ("BO", prefetchers::bo_default()),
    ] {
        let cfg = SimConfig {
            warmup_instructions: 200_000,
            measure_instructions: 1_000_000,
            ..SimConfig::default().with_prefetcher(kind)
        };
        let res = System::new(&cfg, &spec).run();
        println!(
            "{name:>10}: IPC {:.3} | DL1 miss/ki {:.1} | L2 miss/ki {:.1} | DRAM acc/ki {:.1} | prefetches issued {}",
            res.ipc(),
            res.core.dl1_misses as f64 * 1000.0 / res.instructions as f64,
            res.uncore.l2_misses as f64 * 1000.0 / res.instructions as f64,
            res.dram_accesses_per_ki(),
            res.uncore.l2_prefetches_issued,
        );
        results.push(res);
    }
    println!(
        "BO speedup over next-line: {:.3}",
        results[1].ipc() / results[0].ipc()
    );
}

//! Adaptive prefetch control on a phase-shifting workload.
//!
//! The paper fixes BO's parameters offline; this walkthrough shows the
//! `bosim-adapt` control loop closing at runtime instead. We run the
//! phase-shifting synthetic workload — sequential streams (prefetch
//! heaven), a huge random gather (prefetch poison that still trains an
//! offset learner), and a pointer chase — three times:
//!
//! 1. statically with no L2 prefetch,
//! 2. statically with an aggressive fixed offset,
//! 3. adaptively, with a tournament policy that samples both of those
//!    arms every few epochs, runs the IPC winner, and re-explores the
//!    moment an epoch's IPC says the phase has changed.
//!
//! The adaptive run should beat *both* statics, and its epoch log shows
//! why: the active prefetcher flips at the phase boundaries.
//!
//! Run with: `cargo run --release -p bosim-bench --example adaptive_phases`

use bosim::adapt::policies;
use bosim::{prefetchers, SimConfig, System};
use bosim_trace::suite;
use bosim_types::PageSize;

fn main() {
    let base = SimConfig {
        page: PageSize::M4,
        warmup_instructions: 20_000,
        measure_instructions: 180_000,
        ..Default::default()
    };
    let bench = suite::phase_shift();

    let ipc_none = System::new(&base.clone().with_prefetcher(prefetchers::none()), &bench)
        .run()
        .ipc();
    let ipc_off8 = System::new(&base.clone().with_prefetcher(prefetchers::fixed(8)), &bench)
        .run()
        .ipc();

    // The adaptive arm: epoch telemetry every 8k cycles feeds a
    // tournament between the two static configurations above.
    let mut adaptive_cfg = base.with_prefetcher(prefetchers::none());
    adaptive_cfg.adapt = Some(policies::tournament(["offset-8", "none"]));
    adaptive_cfg.epoch_cycles = 8_000;
    let adaptive = System::new(&adaptive_cfg, &bench).run();

    println!("static no-prefetch : IPC {ipc_none:.4}");
    println!("static offset-8    : IPC {ipc_off8:.4}");
    println!("adaptive tournament: IPC {:.4}", adaptive.ipc());
    println!();

    let telemetry = adaptive.adapt.expect("adaptive run records telemetry");
    println!("epoch history ({} epochs):", telemetry.epochs.len());
    println!("{}", telemetry.table());
    telemetry.check_invariants().expect("telemetry consistent");
}

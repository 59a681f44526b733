//! Pinned work: what the skipping run loop does for the four synthetic
//! configurations `golden_digest.rs` pins by result, and for the
//! two-core large-page run `golden_stats.rs` checks.
//!
//! `System::work` counts, over warm-up and measurement, the cycles on
//! which any source ticked, the core and uncore ticks, the DRAM channel
//! steps (and how many changed nothing), the L3 stall-queue retries
//! that ran the full L3 arrival, and the stall-queue entries visited in
//! searches for a line's stuck requests. Simulated results fix every
//! count exactly, on any host, so they catch what end-to-end timings
//! are too noisy to: a change that keeps every result but wakes a
//! source on cycles where it has no work (a sleep rule lost, a wake-up
//! bound loosened) or searches a queue it need not raises a count
//! here. The counts are kept out of `SimResult`, whose every-cycle
//! oracle steps every cycle by design.
//!
//! A change that is meant to move a count updates it here and says why
//! in its description; a count that rises needs a reason.

use bosim::{SimConfig, System, WorkCounts};
use bosim_tests::golden;
use bosim_trace::suite;

/// Runs `cfg` on `bench_id` under the skipping loop and checks its work
/// against `expected`.
fn assert_work(cfg: SimConfig, bench_id: &str, expected: WorkCounts) {
    assert!(cfg.fast_forward, "the skipping loop is the default");
    let bench = suite::benchmark(bench_id).expect("benchmark exists");
    let mut sys = System::new(&cfg, &bench);
    let result = sys.run();
    let work = sys.work();
    assert_eq!(work.steps, sys.steps_executed());
    assert_eq!(
        work,
        expected,
        "{bench_id} [{}]: the work of {} cycles",
        result.config,
        sys.cycle()
    );
}

#[test]
fn default_stack_444() {
    assert_work(
        golden::single_core(),
        "444",
        WorkCounts {
            steps: 30_012,
            core_ticks: 20_789,
            uncore_ticks: 19_383,
            dram_steps: 3_466,
            dram_idle_steps: 0,
            l3_retries: 0,
            unstick_visits: 0,
        },
    );
}

#[test]
fn best_offset_429() {
    assert_work(
        golden::best_offset_429(),
        "429",
        WorkCounts {
            steps: 97_823,
            core_ticks: 38_666,
            uncore_ticks: 67_314,
            dram_steps: 28_716,
            dram_idle_steps: 0,
            l3_retries: 0,
            unstick_visits: 0,
        },
    );
}

#[test]
fn four_cores_best_offset_462() {
    assert_work(
        golden::four_cores_best_offset_462(),
        "462",
        WorkCounts {
            steps: 57_074,
            core_ticks: 20_197,
            uncore_ticks: 54_415,
            dram_steps: 20_328,
            dram_idle_steps: 0,
            l3_retries: 7_401,
            unstick_visits: 94_241,
        },
    );
}

#[test]
fn two_cores_adapt_and_tracing_429() {
    assert_work(
        golden::two_cores_adapt_and_tracing_429(),
        "429",
        WorkCounts {
            steps: 133_684,
            core_ticks: 52_238,
            uncore_ticks: 127_352,
            dram_steps: 30_612,
            dram_idle_steps: 0,
            l3_retries: 17_640,
            unstick_visits: 26,
        },
    );
}

/// The multi-core run that steps the largest share of its cycles. Every
/// one of its DRAM channel steps issues a command, starts a write batch
/// or switches the served core: the memory system's wake-ups here are
/// real work, not re-polls of a channel whose bound was early.
#[test]
fn two_cores_large_pages_470() {
    assert_work(
        golden::two_cores_large_pages(),
        "470",
        WorkCounts {
            steps: 27_763,
            core_ticks: 19_699,
            uncore_ticks: 20_253,
            dram_steps: 4_318,
            dram_idle_steps: 0,
            l3_retries: 3_087,
            unstick_visits: 86,
        },
    );
}

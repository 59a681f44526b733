//! Pinned work: the cycles the skipping run loop steps for the four
//! synthetic configurations `golden_digest.rs` pins by result.
//!
//! `System::steps_executed` counts the cycles on which any source
//! ticked, over warm-up and measurement. Simulated results fix it
//! exactly, on any host, so it catches what end-to-end timings are too
//! noisy to: a change that keeps every result but wakes a source on
//! cycles where it has no work (a sleep rule lost, a wake-up bound
//! loosened) raises it here. The count is kept out of `SimResult`,
//! whose every-cycle oracle steps every cycle by design.
//!
//! A change that is meant to move a count updates it here and says why
//! in its description; a count that rises needs a reason.

use bosim::{SimConfig, System};
use bosim_tests::golden;
use bosim_trace::suite;

/// Runs `cfg` on `bench_id` under the skipping loop and checks the
/// cycles it stepped against `expected`.
fn assert_steps(cfg: SimConfig, bench_id: &str, expected: u64) {
    assert!(cfg.fast_forward, "the skipping loop is the default");
    let bench = suite::benchmark(bench_id).expect("benchmark exists");
    let mut sys = System::new(&cfg, &bench);
    let result = sys.run();
    let steps = sys.steps_executed();
    assert_eq!(
        steps,
        expected,
        "{bench_id} [{}]: stepped {steps} of {} cycles, pinned {expected}",
        result.config,
        sys.cycle()
    );
}

#[test]
fn default_stack_444() {
    assert_steps(golden::single_core(), "444", 30_012);
}

#[test]
fn best_offset_429() {
    assert_steps(golden::best_offset_429(), "429", 97_823);
}

#[test]
fn four_cores_best_offset_462() {
    assert_steps(golden::four_cores_best_offset_462(), "462", 57_074);
}

#[test]
fn two_cores_adapt_and_tracing_429() {
    assert_steps(golden::two_cores_adapt_and_tracing_429(), "429", 133_684);
}

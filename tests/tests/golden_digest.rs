//! Pinned simulated results: four configurations whose whole
//! `SimResult` is hashed and compared against a committed digest.
//!
//! `golden_stats.rs` proves the event-wheel loop equals the every-cycle
//! loop, but a change that moves both loops alike passes it. These
//! digests pin the results themselves, so any change to simulated
//! behaviour — a reordered wake-up, a different victim, a shifted bound
//! — fails here under `cargo test`. The hash is the benchmark's FNV-1a
//! 64 over `format!("{:?}", result)` (host profiling is off, so the
//! text is a pure function of the configuration), and each digest also
//! holds for the configuration's every-cycle run.
//!
//! A change that is *meant* to alter simulated results updates the
//! digests here and says why in its description.

use bosim::adapt::PolicySpec;
use bosim::{prefetchers, SimConfig, System};
use bosim_obs::ObsConfig;
use bosim_trace::suite;
use bosim_types::fnv64;

/// Runs `cfg` on `bench_id` in both loop modes and checks each run's
/// digest against `expected`.
fn assert_digest(cfg: SimConfig, bench_id: &str, expected: u64) {
    let bench = suite::benchmark(bench_id).expect("benchmark exists");
    for fast_forward in [true, false] {
        let cfg = SimConfig {
            fast_forward,
            ..cfg.clone()
        };
        let result = System::new(&cfg, &bench).run();
        let digest = fnv64(format!("{result:?}").as_bytes());
        assert_eq!(
            digest, expected,
            "{bench_id} [{}], fast_forward {fast_forward}: digest {digest:016x}, pinned {expected:016x}",
            result.config
        );
    }
}

fn single_core() -> SimConfig {
    SimConfig {
        warmup_instructions: 10_000,
        measure_instructions: 40_000,
        seed: 0xB05EED,
        ..Default::default()
    }
}

#[test]
fn default_stack_444() {
    assert_digest(single_core(), "444", 0x3a8b_060e_f1b6_513a);
}

#[test]
fn best_offset_429() {
    let cfg = SimConfig {
        l2_prefetcher: prefetchers::bo_default(),
        ..single_core()
    };
    assert_digest(cfg, "429", 0xe9bf_7ecc_4360_09fa);
}

#[test]
fn four_cores_best_offset_462() {
    let cfg = SimConfig {
        active_cores: 4,
        warmup_instructions: 5_000,
        measure_instructions: 15_000,
        l2_prefetcher: prefetchers::bo_default(),
        ..single_core()
    };
    assert_digest(cfg, "462", 0x8f2f_d7d6_479f_96f5);
}

#[test]
fn two_cores_adapt_and_tracing_429() {
    let cfg = SimConfig {
        active_cores: 2,
        warmup_instructions: 5_000,
        measure_instructions: 15_000,
        epoch_cycles: 5_000,
        adapt: Some(PolicySpec::DegreeGovernor),
        obs: ObsConfig {
            events: true,
            ..Default::default()
        },
        ..single_core()
    };
    assert_digest(cfg, "429", 0x6db8_7ed3_08df_333b);
}

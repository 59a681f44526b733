//! Pinned simulated results: five configurations whose whole
//! `SimResult` is hashed and compared against a committed digest.
//!
//! `golden_stats.rs` proves the skipping run loop equals the every-cycle
//! oracle, but a change that moves both alike passes it. These
//! digests pin the results themselves, so any change to simulated
//! behaviour — a reordered wake-up, a different victim, a shifted bound
//! — fails here under `cargo test`. The hash is the benchmark's FNV-1a
//! 64 over `format!("{:?}", result)` (host profiling is off, so the
//! text is a pure function of the configuration), and each digest also
//! holds for the configuration's every-cycle run.
//!
//! A change that is *meant* to alter simulated results updates the
//! digests here and says why in its description.
//!
//! The fifth configuration replays a ChampSim trace file, and the same
//! test pins the bytes both trace encoders write for its capture, so
//! the ChampSim decoder and both encoders are pinned along with the
//! machine. The configurations live in `bosim_tests::golden`, which
//! `golden_work.rs` shares.

use bosim::{prefetchers, SimConfig, System};
use bosim_tests::golden;
use bosim_trace::{capture, champsim, file, suite, BenchmarkSpec, ExternalSpec, TraceFormat};
use bosim_types::fnv64;

/// Runs `cfg` on `bench_id` in both loop modes and checks each run's
/// digest against `expected`.
fn assert_digest(cfg: SimConfig, bench_id: &str, expected: u64) {
    let bench = suite::benchmark(bench_id).expect("benchmark exists");
    assert_spec_digest(cfg, &bench, expected);
}

/// Runs `cfg` on `bench` in both loop modes and checks each run's
/// digest against `expected`.
fn assert_spec_digest(cfg: SimConfig, bench: &BenchmarkSpec, expected: u64) {
    for fast_forward in [true, false] {
        let cfg = SimConfig {
            fast_forward,
            ..cfg.clone()
        };
        let result = System::new(&cfg, bench).run();
        // A log that overflowed holds only a prefix of the event stream,
        // and the events past it would go unpinned.
        if let Some(obs) = &result.obs {
            assert_eq!(
                obs.dropped_events, 0,
                "{} [{}]: the event log overflowed",
                bench.name, result.config
            );
        }
        let digest = fnv64(format!("{result:?}").as_bytes());
        assert_eq!(
            digest, expected,
            "{} [{}], fast_forward {fast_forward}: digest {digest:016x}, pinned {expected:016x}",
            bench.name, result.config
        );
    }
}

#[test]
fn default_stack_444() {
    assert_digest(golden::single_core(), "444", 0x3a8b_060e_f1b6_513a);
}

#[test]
fn best_offset_429() {
    assert_digest(golden::best_offset_429(), "429", 0xe9bf_7ecc_4360_09fa);
}

#[test]
fn four_cores_best_offset_462() {
    assert_digest(
        golden::four_cores_best_offset_462(),
        "462",
        0x8f2f_d7d6_479f_96f5,
    );
}

#[test]
fn two_cores_adapt_and_tracing_429() {
    assert_digest(
        golden::two_cores_adapt_and_tracing_429(),
        "429",
        0x1e3c_d4c1_3e38_1c11,
    );
}

/// A 462 prefix written as a ChampSim trace and replayed from the file
/// under `l2:bo`. The two hashes pin the bytes of the ChampSim and the
/// native encoding of the same capture.
#[test]
fn champsim_replay_best_offset_462() {
    let uops = capture(
        &mut suite::benchmark("462").expect("benchmark exists").build(),
        60_000,
    );
    let champsim_bytes = champsim::encode(&uops);
    let champsim_hash = fnv64(&champsim_bytes);
    let native_hash = fnv64(&file::encode(&uops));
    assert_eq!(
        champsim_hash, 0x5ca9_ccb9_47ff_8265,
        "champsim::encode hash {champsim_hash:016x}"
    );
    assert_eq!(
        native_hash, 0xd3fe_d34c_4683_3f12,
        "file::encode hash {native_hash:016x}"
    );
    let path = std::env::temp_dir().join(format!(
        "bosim_golden_digest_{}.champsim",
        std::process::id()
    ));
    std::fs::write(&path, &champsim_bytes).expect("write the trace");
    let bench = BenchmarkSpec::from_trace(
        ExternalSpec::new(&path, TraceFormat::ChampSim).named("462.champsim"),
    );
    let cfg = SimConfig {
        l2_prefetcher: prefetchers::bo_default(),
        ..golden::single_core()
    };
    assert_spec_digest(cfg, &bench, 0x0f4b_c9f4_7a96_33a2);
    let _ = std::fs::remove_file(&path);
}

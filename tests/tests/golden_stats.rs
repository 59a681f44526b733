//! Golden-stats invariance: the event-wheel loop (each source ticks only
//! when it may have work, idle stretches are skipped) must produce
//! *bit-identical* `SimResult`s — instructions, cycles, every core,
//! uncore and DRAM counter — to the every-cycle loop
//! (`fast_forward: false`, every core and the uncore tick every cycle)
//! for fixed seeds across the synthetic suite. The every-cycle loop is
//! the oracle; scheduling is a pure wall-clock win, so any counter drift
//! here is a simulation bug, not a performance trade-off.

use bosim::{prefetchers, PrefetcherHandle, SimConfig, SimResult, System};
use bosim_trace::suite;
use bosim_types::PageSize;

fn run(cfg: &SimConfig, bench_id: &str) -> SimResult {
    let bench = suite::benchmark(bench_id).expect("benchmark exists");
    System::new(cfg, &bench).run()
}

fn assert_invariant(base: SimConfig, bench_id: &str) {
    let mut every_cycle = base.clone();
    every_cycle.fast_forward = false;
    let mut wheel = base;
    wheel.fast_forward = true;
    let a = run(&every_cycle, bench_id);
    let b = run(&wheel, bench_id);
    assert_eq!(
        a, b,
        "{bench_id} [{}]: event-wheel loop diverged from the every-cycle loop",
        b.config
    );
}

fn quick(prefetcher: PrefetcherHandle, seed: u64) -> SimConfig {
    SimConfig {
        warmup_instructions: 10_000,
        measure_instructions: 40_000,
        l2_prefetcher: prefetcher,
        seed,
        ..Default::default()
    }
}

/// A behaviour-diverse slice of the suite: streaming, pointer-chasing,
/// mixed, compute-bound and store-heavy benchmarks.
const BENCHES: &[&str] = &["462", "429", "433", "444", "470", "401"];

#[test]
fn golden_stats_across_the_suite() {
    for id in BENCHES {
        assert_invariant(quick(prefetchers::next_line(), 0xB05EED), id);
    }
}

#[test]
fn golden_stats_with_bo_prefetcher() {
    for id in &["462", "429"] {
        assert_invariant(quick(prefetchers::bo_default(), 0xB05EED), id);
    }
}

#[test]
fn golden_stats_second_seed() {
    for id in &["433", "471"] {
        assert_invariant(quick(prefetchers::next_line(), 0x0005_EED2), id);
    }
}

/// The adaptive-control path must not break the invariance: epoch
/// boundaries are processed before the tick of the cycle they fire on,
/// and a fast-forward skip only jumps provably idle cycles, so the
/// policy sees identical feedback and issues identical directives in
/// both modes — including the full per-epoch telemetry (`SimResult`'s
/// `PartialEq` covers `adapt`).
#[test]
fn golden_stats_adaptive_runs() {
    use bosim::adapt::{policies, AdaptConfig};
    let mut tournament = quick(prefetchers::bo_default(), 0xB05EED);
    tournament.page = PageSize::M4;
    tournament.adapt =
        Some(AdaptConfig::new(policies::tournament(["offset-8", "none"])).epoch_cycles(5_000));
    assert_invariant(tournament, "phase");

    let mut governor = quick(prefetchers::bo_default(), 0xB05EED);
    governor.adapt = Some(AdaptConfig::new(policies::degree_governor()).epoch_cycles(5_000));
    assert_invariant(governor, "462");
}

/// Multi-level prefetcher stacks must preserve the invariance too: the
/// new L3 prefetch site (its own lowest-priority queue, tag checks,
/// DRAM issue) and the registry-resolved L1 site introduce no
/// mode-dependent behaviour. The full l1:stride + l2:bo + l3:next-line
/// stack of the ISSUE's acceptance arm is pinned here, plus an
/// L1-ablated variant exercising the empty-site path.
#[test]
fn golden_stats_multilevel_sites() {
    let mut full = quick(prefetchers::bo_default(), 0xB05EED);
    full.l1_prefetcher = Some(prefetchers::stride_default());
    full.l3_prefetcher = Some(prefetchers::next_line());
    assert_invariant(full, "462");

    let mut no_l1 = quick(prefetchers::next_line(), 0xB05EED);
    no_l1.l1_prefetcher = None;
    no_l1.l3_prefetcher = Some(prefetchers::fixed(4));
    assert_invariant(no_l1, "429");
}

/// File-backed external traces must preserve the invariance too, with
/// trace sampling in play: the ingestion path (ChampSim decode + µop
/// lowering) and the `SampledSource` wrapper are deterministic pure
/// functions of the file, so every-cycle and event-wheel replays of the
/// same trace under the same warm-up sampling plan stay bit-identical.
#[test]
fn golden_stats_file_backed_trace_with_sampling() {
    use bosim_trace::{capture, champsim, BenchmarkSpec, ExternalSpec, SampleSpec, TraceFormat};
    let path = std::env::temp_dir().join(format!(
        "bosim_golden_external_{}.champsim",
        std::process::id()
    ));
    let uops = capture(&mut suite::benchmark("462").unwrap().build(), 100_000);
    std::fs::write(&path, champsim::encode(&uops)).unwrap();
    let bench = BenchmarkSpec::from_trace(
        ExternalSpec::new(&path, TraceFormat::ChampSim).named("462-file"),
    );
    let base = SimConfig {
        sample: Some(SampleSpec::periodic(10_000, 20_000, 30_000)),
        ..quick(prefetchers::bo_default(), 0xB05EED)
    };
    let mut every_cycle = base.clone();
    every_cycle.fast_forward = false;
    let a = System::new(&every_cycle, &bench).run();
    let b = System::new(&base, &bench).run();
    assert_eq!(a, b, "file-backed replay diverged between loops");
    let _ = std::fs::remove_file(&path);
}

/// Observability must not break the invariance — with event tracing,
/// epoch snapshots and host profiling all enabled, the every-cycle and
/// event-wheel loops must produce bit-identical `SimResult`s
/// *including* the event stream and the epoch series (`SimResult`'s
/// `PartialEq` covers `obs`; only the wall-clock profile is excluded).
/// Epoch boundaries are processed before the boundary cycle's tick and
/// fast-forward skips only provably idle cycles, so every event lands
/// on the same cycle in both modes.
#[test]
fn golden_stats_with_tracing_enabled() {
    use bosim_obs::ObsConfig;
    let obs = ObsConfig {
        events: true,
        epochs: true,
        epoch_cycles: 5_000,
        profile: true,
        ..ObsConfig::default()
    };

    let mut traced = quick(prefetchers::bo_default(), 0xB05EED);
    traced.l1_prefetcher = Some(prefetchers::stride_default());
    traced.l3_prefetcher = Some(prefetchers::next_line());
    traced.obs = obs.clone();
    assert_invariant(traced, "462");

    // Tracing combined with adaptive control: directive and epoch
    // events ride on top of the adapt machinery without perturbing it.
    use bosim::adapt::{policies, AdaptConfig};
    let mut adaptive = quick(prefetchers::bo_default(), 0xB05EED);
    adaptive.adapt = Some(AdaptConfig::new(policies::degree_governor()).epoch_cycles(5_000));
    adaptive.obs = obs.clone();
    assert_invariant(adaptive, "429");

    // Two cores under adaptive epochs and tracing: core 1's L1 events
    // and directives must merge into the shared log in the same order
    // and on the same cycles in both loops, and the DRAM scheduler must
    // switch between the two cores' read queues on the same cycles.
    let mut two_core = SimConfig {
        active_cores: 2,
        warmup_instructions: 5_000,
        measure_instructions: 15_000,
        ..Default::default()
    };
    two_core.adapt = Some(AdaptConfig::new(policies::degree_governor()).epoch_cycles(5_000));
    two_core.obs = obs;
    assert_invariant(two_core, "429");
}

#[test]
fn golden_stats_multicore_large_pages() {
    let cfg = SimConfig {
        active_cores: 2,
        page: PageSize::M4,
        warmup_instructions: 5_000,
        measure_instructions: 20_000,
        ..Default::default()
    };
    assert_invariant(cfg, "470");
}

/// Four active cores under the event-wheel loop: maximum interleaving
/// of per-core posts, mid-cycle fill wake-ups and uncore re-posting,
/// with the shared L3 and DRAM fairness machinery fully engaged.
#[test]
fn golden_stats_four_cores() {
    let cfg = SimConfig {
        active_cores: 4,
        warmup_instructions: 5_000,
        measure_instructions: 15_000,
        ..Default::default()
    };
    for id in ["429", "470"] {
        assert_invariant(cfg.clone(), id);
    }
}

#[test]
fn golden_stats_no_prefetch_small_l3_queue() {
    // Small L3 fill queue: exercises the stall/retry paths under
    // back-pressure, where the bugfixed bookkeeping matters most.
    let cfg = SimConfig {
        l3_fill_queue: 2,
        l2_fill_queue: 4,
        l2_prefetcher: prefetchers::none(),
        warmup_instructions: 5_000,
        measure_instructions: 20_000,
        ..Default::default()
    };
    assert_invariant(cfg, "429");
}

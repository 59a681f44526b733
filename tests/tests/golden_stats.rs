//! Golden-stats invariance: the skipping run loop (each source ticks
//! only when it may have work, idle stretches are skipped) must produce
//! *bit-identical* `SimResult`s — instructions, cycles, every core,
//! uncore and DRAM counter — to the every-cycle oracle
//! (`fast_forward: false`, the same loop waking every core and the
//! uncore every cycle) for fixed seeds across the synthetic suite.
//! Skipping is a pure wall-clock win, so any counter drift here is a
//! simulation bug, not a performance trade-off. Both arms share one
//! step function, so each comparison also checks that the oracle steps
//! every cycle and that the skipping arm skips where it must: on every
//! multi-core run and on single-core 429, it steps fewer than three
//! fifths of the cycles.

use bosim::{prefetchers, PrefetcherSpec, SimConfig, SimResult, System};
use bosim_tests::golden;
use bosim_trace::suite;
use bosim_types::PageSize;

/// One run's result with the cycles it stepped and simulated.
fn run(cfg: &SimConfig, bench_id: &str) -> (SimResult, u64, u64) {
    let bench = suite::benchmark(bench_id).expect("benchmark exists");
    let mut sys = System::new(cfg, &bench);
    let res = sys.run();
    (res, sys.steps_executed(), sys.cycle())
}

fn assert_invariant(base: SimConfig, bench_id: &str) {
    let single_core = base.active_cores == 1;
    let mut every_cycle = base.clone();
    every_cycle.fast_forward = false;
    let mut skipping = base;
    skipping.fast_forward = true;
    let (a, a_steps, a_cycles) = run(&every_cycle, bench_id);
    let (b, b_steps, b_cycles) = run(&skipping, bench_id);
    assert_eq!(
        a, b,
        "{bench_id} [{}]: the skipping loop diverged from the every-cycle oracle",
        b.config
    );
    assert_eq!(
        a_steps, a_cycles,
        "{bench_id} [{}]: the every-cycle oracle skipped cycles",
        a.config
    );
    // Pointer-chasing 429 on one core waits on DRAM most of the time.
    // On several cores, the thrashers spend most cycles asleep: each
    // with a full store buffer behind an MSHR-blocked head store, and
    // their misses stuck behind the full L3 fill queue. The busiest of
    // these runs, 470 on two cores with 4 MB pages, steps 51% of its
    // cycles; a skipping arm that steps three fifths or more has stopped
    // skipping.
    if !single_core || bench_id == "429" {
        assert!(
            b_steps * 5 < b_cycles * 3,
            "{bench_id} [{}]: the skipping loop stepped {b_steps} of {b_cycles} cycles",
            b.config
        );
    }
}

fn quick(prefetcher: PrefetcherSpec, seed: u64) -> SimConfig {
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
    use bosim::adapt::{policies, PolicySpec};
    let mut tournament = quick(prefetchers::bo_default(), 0xB05EED);
    tournament.page = PageSize::M4;
    tournament.adapt = Some(policies::tournament(["offset-8", "none"]));
    tournament.epoch_cycles = 5_000;
    assert_invariant(tournament, "phase");

    let mut governor = quick(prefetchers::bo_default(), 0xB05EED);
    governor.adapt = Some(PolicySpec::DegreeGovernor);
    governor.epoch_cycles = 5_000;
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
/// functions of the file, so every-cycle and skipping replays of the
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
        sample: SampleSpec::periodic(10_000, 20_000, 30_000),
        ..quick(prefetchers::bo_default(), 0xB05EED)
    };
    let mut every_cycle = base.clone();
    every_cycle.fast_forward = false;
    let a = System::new(&every_cycle, &bench).run();
    let b = System::new(&base, &bench).run();
    assert_eq!(a, b, "file-backed replay diverged between the two modes");
    let _ = std::fs::remove_file(&path);
}

/// Observability must not break the invariance — with event tracing,
/// epoch snapshots and host profiling all enabled, the every-cycle and
/// skipping runs must produce bit-identical `SimResult`s
/// *including* the event stream and the epoch series (`SimResult`'s
/// `PartialEq` covers `obs`; only the wall-clock profile is excluded).
/// Epoch boundaries are processed before the boundary cycle's tick and
/// fast-forward skips only provably idle cycles, so every event lands
/// on the same cycle in both modes.
#[test]
fn golden_stats_with_tracing_enabled() {
    use bosim_obs::ObsConfig;
    let obs = ObsConfig::all();

    let mut traced = quick(prefetchers::bo_default(), 0xB05EED);
    traced.epoch_cycles = 5_000;
    traced.l1_prefetcher = Some(prefetchers::stride_default());
    traced.l3_prefetcher = Some(prefetchers::next_line());
    traced.obs = obs.clone();
    assert_invariant(traced, "462");

    // Tracing combined with adaptive control: directive and epoch
    // events ride on top of the adapt machinery without perturbing it.
    use bosim::adapt::PolicySpec;
    let mut adaptive = quick(prefetchers::bo_default(), 0xB05EED);
    adaptive.adapt = Some(PolicySpec::DegreeGovernor);
    adaptive.epoch_cycles = 5_000;
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
        epoch_cycles: 5_000,
        ..Default::default()
    };
    two_core.adapt = Some(PolicySpec::DegreeGovernor);
    two_core.obs = obs;
    assert_invariant(two_core, "429");
}

#[test]
fn golden_stats_multicore_large_pages() {
    assert_invariant(golden::two_cores_large_pages(), "470");
}

/// Four active cores under the skipping loop: maximum interleaving of
/// per-core wake-ups, mid-cycle fill wake-ups and uncore re-arming,
/// with the shared L3 and DRAM fairness machinery fully engaged. The
/// last run has the shape of the benchmark's multicore-thrash workload
/// (462 beside three thrashers, best-offset at every L2).
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
    let thrash = SimConfig {
        l2_prefetcher: prefetchers::bo_default(),
        ..cfg
    };
    assert_invariant(thrash, "462");
}

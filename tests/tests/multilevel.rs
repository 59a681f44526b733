//! Multi-level prefetching, end to end: site-qualified name
//! resolution, the l1:stride + l2:bo + l3:next-line acceptance arm
//! through the `Experiment` harness, per-site telemetry invariants, an
//! empty L3 site, and a multi-level stack on two cores.

use bosim::{prefetchers, PrefetchSite, PrefetcherSpec, SimConfig, System};
use bosim_bench::{Experiment, RunSummary};
use bosim_trace::suite;

fn quick(cfg: SimConfig) -> SimConfig {
    SimConfig {
        warmup_instructions: 5_000,
        measure_instructions: 30_000,
        ..cfg
    }
}

fn multilevel_cfg() -> SimConfig {
    let cfg = SimConfig::default()
        .with_site("l1:stride")
        .and_then(|c| c.with_site("l2:bo"))
        .and_then(|c| c.with_site("l3:next-line"))
        .expect("every site resolves");
    cfg.validate().expect("multi-level config validates");
    quick(cfg)
}

/// The acceptance arm: a three-site stack runs through the declarative
/// `Experiment` harness end to end, its label names every site, and the
/// per-site telemetry passes `check_invariants`/`check_site_invariants`.
#[test]
fn multilevel_arm_runs_through_the_experiment_harness() {
    let base = quick(SimConfig::default());
    let report = Experiment::new("multilevel_e2e", "multi-level acceptance arm")
        .benchmark_ids(&["462", "429"])
        .arm_vs("l1+l2+l3", multilevel_cfg(), base.clone())
        .arm_vs(
            "l2 only",
            base.clone().with_prefetcher(prefetchers::bo_default()),
            base,
        )
        .run()
        .expect("grid runs");
    assert_eq!(report.arms.len(), 2);
    assert_eq!(
        report.arms[0].config,
        "4KB/1-core/l1:stride+l2:BO+l3:next-line"
    );
    // Per-site issue/fill counters are visible in the experiment output.
    let run: &RunSummary = &report.arms[0].runs[0];
    assert!(run.ipc > 0.0);
    assert!(
        run.l3_prefetches_issued > 0,
        "the L3 site must actually prefetch on a streaming benchmark: {run:?}"
    );
    let json = report.to_json().to_string();
    for key in [
        "l1_prefetches",
        "l1_prefetch_tlb_drops",
        "l2_prefetches_issued",
        "l2_prefetch_fills",
        "l3_prefetches_issued",
        "l3_prefetch_fills",
    ] {
        assert!(json.contains(&format!("\"{key}\":")), "{key} missing");
    }
}

/// Satellite: per-site telemetry invariant — at every site,
/// `useful + unused_evicted <= prefetch_fills` (each prefetch-filled
/// line resolves at most once), checked on a run where all three sites
/// are active and issuing.
#[test]
fn per_site_telemetry_invariants_hold() {
    let bench = suite::benchmark("462").expect("exists");
    let mut sys = System::new(&multilevel_cfg(), &bench);
    let result = sys.run();
    result
        .check_site_invariants()
        .unwrap_or_else(|e| panic!("{e}"));
    // All three sites were genuinely exercised.
    assert!(result.core.l1_prefetches > 0, "{:?}", result.core);
    assert!(result.l2_site.issued > 0, "{:?}", result.l2_site);
    assert!(result.l3_site.issued > 0, "{:?}", result.l3_site);
    assert!(
        result.l3_site.useful > 0,
        "L3-site prefetches must catch some L3 accesses: {:?}",
        result.l3_site
    );
    // The L3 site's resolution counters include L2 prefetches that
    // filled the L3 on their way up, so fills dominate the site's own
    // issue count.
    assert!(result.l3_site.prefetch_fills >= result.uncore.l3_prefetch_fills);
}

/// The L3 site is observational-only when empty: a default
/// (single-level) run must report zero L3-site issues and fills from
/// the site's own engine.
#[test]
fn empty_l3_site_is_inert() {
    let bench = suite::benchmark("462").expect("exists");
    let result = System::new(&quick(SimConfig::default()), &bench).run();
    assert_eq!(result.uncore.l3_prefetches_queued, 0);
    assert_eq!(result.uncore.l3_prefetches_issued, 0);
    assert_eq!(result.uncore.l3_prefetch_fills, 0);
    assert_eq!(result.l3_site.issued, 0);
    result.check_site_invariants().expect("invariants hold");
}

/// Site-qualified names resolve to their sites, with descriptive errors
/// for unknown sites and site/spec mismatches.
#[test]
fn site_qualified_resolution_via_global_registry() {
    for (name, site) in [
        ("l1:stride", PrefetchSite::L1D),
        ("l2:bo", PrefetchSite::L2),
        ("l3:next-line", PrefetchSite::L3),
        ("l3:offset-8", PrefetchSite::L3),
    ] {
        let (s, _) = PrefetcherSpec::parse_site(name).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(s, site, "{name}");
    }
    let err = PrefetcherSpec::parse_site("l4:bo").unwrap_err().to_string();
    assert!(err.contains("unknown prefetch site"), "{err}");
    let err = PrefetcherSpec::parse_site("l2:stride")
        .unwrap_err()
        .to_string();
    assert!(err.contains("does not attach to site l2"), "{err}");
}

/// Multi-core multi-level: the shared L3 site serves every core's
/// stream without breaking any invariant.
#[test]
fn multilevel_stack_on_two_cores() {
    let mut cfg = multilevel_cfg();
    cfg.active_cores = 2;
    cfg.page = bosim_types::PageSize::M4;
    let bench = suite::benchmark("470").expect("exists");
    let result = System::new(&cfg, &bench).run();
    assert!(result.ipc() > 0.01);
    result
        .check_site_invariants()
        .unwrap_or_else(|e| panic!("{e}"));
}

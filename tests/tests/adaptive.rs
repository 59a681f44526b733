//! Adaptive prefetch control, end to end: epoch telemetry invariants and
//! the headline acceptance result — on the phase-shifting workload an
//! adaptive policy beats every static configuration it is allowed to
//! switch between.

use bosim::adapt::{policies, PolicySpec};
use bosim::{prefetchers, PrefetcherSpec, SimConfig, System};
use bosim_trace::suite;
use bosim_types::PageSize;

fn phase_cfg(prefetcher: PrefetcherSpec) -> SimConfig {
    SimConfig {
        page: PageSize::M4,
        warmup_instructions: 20_000,
        measure_instructions: 180_000,
        l2_prefetcher: prefetcher,
        ..Default::default()
    }
}

fn run_phase(cfg: SimConfig) -> bosim::SimResult {
    System::new(&cfg, &suite::phase_shift()).run()
}

/// The headline: a tournament switching between `offset-8` and `none`
/// must beat *both* of those run statically, on IPC, on the
/// phase-shifting workload. No static point in its decision space wins
/// every phase: the stream phases want aggressive offset prefetch, the
/// gather/chase phases punish it.
#[test]
fn tournament_beats_every_static_arm_it_switches_between() {
    let ipc_none = run_phase(phase_cfg(prefetchers::none())).ipc();
    let ipc_off8 = run_phase(phase_cfg(prefetchers::fixed(8))).ipc();

    let mut cfg = phase_cfg(prefetchers::none());
    cfg.adapt = Some(policies::tournament(["offset-8", "none"]));
    cfg.epoch_cycles = 8_000;
    let adaptive = run_phase(cfg);
    let ipc_adaptive = adaptive.ipc();

    assert!(
        ipc_adaptive > ipc_off8,
        "adaptive {ipc_adaptive:.4} must beat static offset-8 {ipc_off8:.4}"
    );
    assert!(
        ipc_adaptive > ipc_none,
        "adaptive {ipc_adaptive:.4} must beat static no-prefetch {ipc_none:.4}"
    );

    // The phases really do disagree about the best static arm — the
    // telemetry must show the tournament running both candidates for
    // substantial stretches (not just during trials).
    let telemetry = adaptive.adapt.as_ref().expect("adaptive run has telemetry");
    let count = |name: &str| {
        telemetry
            .epochs
            .iter()
            .filter(|e| e.prefetcher == name)
            .count()
    };
    assert!(count("fixed-offset") >= 10, "ran offset-8 phases");
    assert!(count("none") >= 10, "ran no-prefetch phases");
}

/// Epoch telemetry invariants, pinned for CI: counters consistent
/// (cumulative useful + unused-evicted ≤ prefetch fills), rates in
/// range, epochs consecutive — across all three built-in policies.
#[test]
fn epoch_telemetry_invariants_hold_for_all_policies() {
    let policies = [
        PolicySpec::DegreeGovernor,
        PolicySpec::BandwidthThrottle,
        policies::tournament(["offset-8", "none"]),
    ];
    for policy in policies {
        let name = policy.name();
        let mut cfg = phase_cfg(prefetchers::bo_default());
        cfg.measure_instructions = 60_000;
        cfg.adapt = Some(policy);
        cfg.epoch_cycles = 6_000;
        let result = run_phase(cfg);
        let telemetry = result.adapt.as_ref().expect("telemetry present");
        assert!(!telemetry.epochs.is_empty(), "{name}: epochs recorded");
        telemetry
            .check_invariants()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        // Epoch instruction counts must account for the whole run up to
        // the last boundary (feedback is a partition, not a sample).
        let epoch_instructions: u64 = telemetry
            .epochs
            .iter()
            .map(|e| e.feedback.instructions)
            .sum();
        assert!(
            epoch_instructions >= result.instructions,
            "{name}: epochs cover the measured window"
        );
    }
}

/// The degree governor visibly reconfigures BO between degrees on the
/// phase-shifting workload and never worsens the static degree-1 BO it
/// starts from by more than a whisker.
#[test]
fn degree_governor_reconfigures_bo_at_runtime() {
    let mut cfg = phase_cfg(prefetchers::bo_default());
    cfg.adapt = Some(PolicySpec::DegreeGovernor);
    cfg.epoch_cycles = 8_000;
    let adaptive = run_phase(cfg);
    let telemetry = adaptive.adapt.as_ref().expect("telemetry");
    assert!(
        telemetry.applied >= 2,
        "degree switched at least up and down"
    );
    assert_eq!(telemetry.rejected, 0, "BO supports degree directives");
    let directives: Vec<&str> = telemetry
        .epochs
        .iter()
        .flat_map(|e| e.directives.iter())
        .map(|d| d.directive.as_str())
        .collect();
    // Directives are recorded with their addressed site.
    assert!(directives.contains(&"l2:degree=2"), "{directives:?}");

    let ipc_static = run_phase(phase_cfg(prefetchers::bo_default())).ipc();
    assert!(
        adaptive.ipc() > ipc_static * 0.98,
        "governor {:.4} must not wreck static BO {ipc_static:.4}",
        adaptive.ipc()
    );
}

/// Static runs carry no adapt telemetry; adaptive labels name the
/// policy so report rows are self-describing.
#[test]
fn telemetry_presence_matches_configuration() {
    let mut static_cfg = phase_cfg(prefetchers::none());
    static_cfg.measure_instructions = 20_000;
    let r = run_phase(static_cfg);
    assert!(r.adapt.is_none());
    assert_eq!(r.config, "4MB/1-core/no-prefetch");

    let mut cfg = phase_cfg(prefetchers::bo_default());
    cfg.measure_instructions = 20_000;
    cfg.adapt = Some(PolicySpec::BandwidthThrottle);
    let r = run_phase(cfg);
    assert!(r.adapt.is_some());
    assert_eq!(r.config, "4MB/1-core/BO+bw-throttle");
}

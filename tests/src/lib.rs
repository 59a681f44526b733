//! Integration-test host package. The tests live in `tests/tests/`;
//! this library holds what more than one of them runs.

/// The golden configurations. `golden_digest.rs` pins each one's whole
/// `SimResult` by digest, and `golden_work.rs` pins the work the
/// skipping run loop does for the four on synthetic benchmarks and for
/// the two-core large-page run `golden_stats.rs` checks.
pub mod golden {
    use bosim::adapt::PolicySpec;
    use bosim::{prefetchers, SimConfig};
    use bosim_obs::ObsConfig;
    use bosim_types::PageSize;

    /// The one-core machine the others start from, run as it is on 444
    /// (the default stack).
    pub fn single_core() -> SimConfig {
        SimConfig {
            warmup_instructions: 10_000,
            measure_instructions: 40_000,
            seed: 0xB05EED,
            ..Default::default()
        }
    }

    /// Best-offset at the L2 on one core, run on 429.
    pub fn best_offset_429() -> SimConfig {
        SimConfig {
            l2_prefetcher: prefetchers::bo_default(),
            ..single_core()
        }
    }

    /// Best-offset at every L2 of four cores, run on 462 beside three
    /// thrashers.
    pub fn four_cores_best_offset_462() -> SimConfig {
        SimConfig {
            active_cores: 4,
            warmup_instructions: 5_000,
            measure_instructions: 15_000,
            l2_prefetcher: prefetchers::bo_default(),
            ..single_core()
        }
    }

    /// Two cores under the degree governor with event tracing, run on
    /// 429. The window is short enough that the event log keeps every
    /// event (62,706 of at most 65,536), so the whole stream is pinned.
    pub fn two_cores_adapt_and_tracing_429() -> SimConfig {
        SimConfig {
            active_cores: 2,
            warmup_instructions: 5_000,
            measure_instructions: 10_000,
            epoch_cycles: 5_000,
            adapt: Some(PolicySpec::DegreeGovernor),
            obs: ObsConfig {
                events: true,
                ..Default::default()
            },
            ..single_core()
        }
    }

    /// Two cores with 4 MB pages and the default stack, run on 470: the
    /// multi-core run whose skipping loop steps the largest share of its
    /// cycles.
    pub fn two_cores_large_pages() -> SimConfig {
        SimConfig {
            active_cores: 2,
            page: PageSize::M4,
            warmup_instructions: 5_000,
            measure_instructions: 20_000,
            ..Default::default()
        }
    }
}

//! # bosim — the evaluation platform of *Best-Offset Hardware Prefetching*
//!
//! A trace-driven, cycle-approximate multi-core simulator reproducing the
//! baseline micro-architecture of Michaud's HPCA 2016 paper (§5, Table 1):
//! out-of-order cores with TAGE/ITTAGE and two-level TLBs, private 512KB
//! L2s with configurable prefetchers, a shared 8MB L3 with the 5P
//! replacement policy, MSHR-less fill queues with late-prefetch promotion
//! (§5.4), and a dual-channel DDR3 memory system with FR-FCFS scheduling
//! and fairness counters (§5.3).
//!
//! The Table 1 machine is fixed: cache geometries, latencies and the
//! prefetch- and fill-queue depths are constants ([`L2_SIZE`],
//! [`L3_LATENCY`], [`L3_FILL_QUEUE`], ...; the core's live in
//! [`bosim_cpu`], the DDR3 timings and controller geometry in
//! [`bosim_dram`]). A [`SimConfig`] carries what the
//! evaluation varies — page size, active cores, the prefetchers, the L3
//! policy, run lengths — and is built as a struct literal or from
//! [`SimConfig::baseline`], then checked with [`SimConfig::validate`].
//! Each prefetch *site* of the hierarchy (L1D / L2 / L3, see
//! [`PrefetchSite`]) holds a [`PrefetcherSpec`]: one of the paper's
//! prefetchers with its parameters, built through the [`prefetchers`]
//! constructors or parsed from an (optionally site-qualified, e.g.
//! `"l1:stride"`, `"l3:next-line"`) name with
//! [`PrefetcherSpec::parse_site`].
//!
//! # Examples
//!
//! ```no_run
//! use bosim::{prefetchers, SimConfig, System};
//! use bosim_trace::suite;
//!
//! let spec = suite::benchmark("462").expect("libquantum-like");
//! let cfg = SimConfig::default().with_prefetcher(prefetchers::bo_default());
//! cfg.validate().expect("Table 1 defaults with BO are valid");
//! let result = System::new(&cfg, &spec).run();
//! println!("{}: IPC {:.3}", result.benchmark, result.ipc());
//! ```

#![warn(missing_docs)]

mod config;
mod runner;
mod spec;
mod system;
mod uncore;

pub use config::{
    default_instructions, default_warmup, ConfigError, SimConfig, L2_FILL_QUEUE, L2_LATENCY,
    L2_SIZE, L2_WAYS, L3_FILL_QUEUE, L3_LATENCY, L3_SIZE, L3_WAYS, MAX_CORES, PREFETCH_QUEUE,
};
pub use runner::{default_threads, run_job, run_jobs, stream_jobs, Job, RunnerError};
pub use spec::{prefetchers, PrefetcherSpec, ResolveError};
pub use system::{SimResult, System, WorkCounts};
pub use uncore::UncoreStats;

pub use best_offset::{PrefetchSite, TuneDirective};

/// The adaptive-control crate, re-exported for policy construction
/// (`bosim::adapt::policies::tournament([..])`).
pub use bosim_adapt as adapt;

#[cfg(test)]
mod tests {
    use super::*;
    use bosim_adapt::{policies, PolicySpec};

    #[test]
    fn config_defaults_and_validation() {
        // One epoch clock serves adaptive control and the obs epoch
        // series: 50 000 cycles unless set, and never zero.
        let mut cfg = SimConfig {
            adapt: Some(PolicySpec::DegreeGovernor),
            ..Default::default()
        };
        assert_eq!(cfg.epoch_cycles, 50_000);
        assert!(cfg.validate().is_ok());
        cfg.epoch_cycles = 0;
        let err = cfg.validate().unwrap_err();
        assert_eq!(err, ConfigError::ZeroEpochCycles);
        assert!(err.to_string().contains("epoch_cycles"), "{err}");
    }

    #[test]
    fn single_candidate_tournament_is_rejected() {
        let with = |policy| SimConfig {
            adapt: Some(policy),
            ..Default::default()
        };
        for candidates in [vec!["bo"], vec![]] {
            let err = with(policies::tournament(candidates))
                .validate()
                .unwrap_err();
            match &err {
                ConfigError::InvalidAdapt { reason } => {
                    assert!(reason.contains("at least 2 candidates"), "{reason}");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(with(policies::tournament(["bo", "none"]))
            .validate()
            .is_ok());
    }
}

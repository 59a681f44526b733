//! # bosim — the evaluation platform of *Best-Offset Hardware Prefetching*
//!
//! A trace-driven, cycle-approximate multi-core simulator reproducing the
//! baseline micro-architecture of Michaud's HPCA 2016 paper (§5, Table 1):
//! out-of-order cores with TAGE/ITTAGE and two-level TLBs, private 512KB
//! L2s with pluggable prefetchers, a shared 8MB L3 with the 5P
//! replacement policy, MSHR-less fill queues with late-prefetch promotion
//! (§5.4), and a dual-channel DDR3 memory system with FR-FCFS scheduling
//! and fairness counters (§5.3).
//!
//! Machine configurations are built with the validating
//! [`SimConfig::builder`]; every prefetch *site* of the hierarchy (L1D /
//! L2 / L3, see [`PrefetchSite`]) is *open*: anything implementing
//! [`PrefetcherSpec`] plugs in, and the built-in specs are available
//! through the [`prefetchers`] constructors or by (optionally
//! site-qualified, e.g. `"l1:stride"`, `"l3:next-line"`) name from the
//! [`registry`].
//!
//! # Examples
//!
//! ```no_run
//! use bosim::{prefetchers, SimConfig, System};
//! use bosim_trace::suite;
//!
//! let spec = suite::benchmark("462").expect("libquantum-like");
//! let cfg = SimConfig::builder()
//!     .prefetcher(prefetchers::bo_default())
//!     .build()
//!     .expect("Table 1 defaults with BO are valid");
//! let result = System::new(&cfg, &spec).run();
//! println!("{}: IPC {:.3}", result.benchmark, result.ipc());
//! ```
//!
//! Prefetchers are registered from outside this crate by implementing
//! [`PrefetcherSpec`] and calling [`registry()`]`.register(..)` — see the
//! [`registry`] module docs for a complete third-party example.

#![warn(missing_docs)]

mod config;
mod registry;
mod runner;
mod spec;
mod system;
mod uncore;
mod wheel;

pub use config::{
    default_instructions, default_warmup, ConfigError, SimConfig, SimConfigBuilder, MAX_CORES,
};
pub use registry::{
    registry, PrefetcherRegistry, PrefetcherResolver, ResolveError, ResolverOutcome,
};
pub use runner::{default_threads, run_job, run_jobs, speedups, Job, RunnerError};
pub use spec::{
    prefetchers, AdaptiveSpec, AmpmSpec, BoSpec, FixedOffsetSpec, NextLineSpec, NoPrefetchSpec,
    PrefetcherHandle, PrefetcherSpec, SbpSpec, StrideSpec, LINE_ADDRESS_SITES,
};
pub use system::{SimResult, System};
pub use uncore::{PrefetchTelemetry, Uncore, UncoreStats};

pub use best_offset::{PrefetchSite, SiteDirective, TuneDirective};

/// The adaptive-control crate, re-exported for policy construction
/// (`bosim::adapt::policies::tournament([..])`).
pub use bosim_adapt as adapt;
pub use bosim_adapt::AdaptConfig;

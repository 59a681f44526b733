//! # bosim-adapt — adaptive prefetch control
//!
//! The paper fixes the Best-Offset parameters offline (Table 2); its only
//! runtime feedback is the BADSCORE throttle. This crate supplies the
//! missing control loop: an **epoch feedback monitor** plus a **policy
//! engine** that reconfigures the L2 prefetcher while the simulation
//! runs, in the spirit of runtime-guided prefetch reconfiguration
//! (Prat et al.) and online-learned prefetch control (Pythia).
//!
//! The pieces, bottom to top:
//!
//! * [`EpochFeedback`] — one epoch's per-core usefulness counters
//!   (useful / unused-evicted / late prefetch fills, issue counts) plus
//!   the shared DRAM-bus occupancy, with derived accuracy / coverage /
//!   lateness rates;
//! * [`TunePolicy`] / [`PolicySpec`] — the per-core policy state
//!   machine and the enum naming its three kinds, with shorthands under
//!   [`policies`]: a BO degree governor, a bandwidth-aware throttle and
//!   a prefetcher tournament;
//! * [`AdaptTelemetry`] — the per-run epoch log (feedback, active
//!   prefetcher, directives) with JSON/table rendering and the counter
//!   invariants CI pins down.
//!
//! The simulator side (uncore counters, epoch boundaries in the system
//! loop, directive application) lives in `bosim-sim`: a configuration
//! carries the [`PolicySpec`] (`SimConfig::adapt`) and the epoch
//! length (`SimConfig::epoch_cycles`) separately. Policies
//! themselves never see a simulator, only [`EpochFeedback`] values —
//! which keeps them deterministic and unit-testable in isolation.

#![warn(missing_docs)]

mod feedback;
mod policy;
mod telemetry;

pub use best_offset::{PrefetchSite, SiteDirective, TuneDirective};
pub use feedback::{EpochFeedback, SiteFeedback};
pub use policy::{
    policies, BandwidthThrottleSpec, DegreeGovernorSpec, PolicySpec, TournamentSpec, TunePolicy,
};
pub use telemetry::{AdaptTelemetry, DirectiveRecord, EpochRecord};

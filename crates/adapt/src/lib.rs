//! # bosim-adapt — adaptive prefetch control
//!
//! The paper fixes the Best-Offset parameters offline (Table 2); its only
//! runtime feedback is the BADSCORE throttle. This crate supplies the
//! missing control loop's **policy engine**, which reconfigures the
//! prefetchers while the simulation runs, in the spirit of
//! runtime-guided prefetch reconfiguration (Prat et al.) and
//! online-learned prefetch control (Pythia). Every [`TuneDirective`] a
//! policy emits goes to its own core's L2 prefetcher, where the paper's
//! throttle acts too.
//!
//! Policies read [`EpochFeedback`]: one core's epoch of L2 and L3 site
//! counters ([`PrefetchTelemetry`] deltas, whose accuracy, coverage and
//! lateness are defined there once) plus the shared DRAM-bus
//! occupancy. Both records live in `bosim-obs`, and the observability
//! epoch series is core 0's copy of the same records. On top of them
//! this crate supplies:
//!
//! * [`TunePolicy`] / [`PolicySpec`] — the per-core policy state
//!   machine and the enum naming its three kinds: a BO degree governor,
//!   a bandwidth-aware throttle and a prefetcher tournament (built from
//!   a name list by [`policies::tournament`]). Their thresholds and
//!   pacing are constants ([`GOVERNOR_ACCURACY_UP`],
//!   [`THROTTLE_OCCUPANCY_HIGH`], [`EXPLOIT_EPOCHS`], ...);
//! * [`AdaptTelemetry`] — the per-run epoch log (feedback, active
//!   prefetcher, directives) with JSON/table rendering and the counter
//!   invariants CI pins down.
//!
//! The simulator side (uncore counters, epoch boundaries in the system
//! loop, directive application at the L2) lives in `bosim-sim`: a
//! configuration carries the [`PolicySpec`] (`SimConfig::adapt`) and
//! the epoch length (`SimConfig::epoch_cycles`) separately. Policies
//! themselves never see a simulator, only [`EpochFeedback`] values —
//! which keeps them deterministic and unit-testable in isolation.
//!
//! [`EpochFeedback`]: bosim_obs::EpochFeedback
//! [`PrefetchTelemetry`]: bosim_obs::PrefetchTelemetry

#![warn(missing_docs)]

mod policy;
mod telemetry;

pub use best_offset::TuneDirective;
pub use policy::{
    policies, PolicySpec, TunePolicy, EXPLOIT_EPOCHS, GOVERNOR_ACCURACY_DOWN, GOVERNOR_ACCURACY_UP,
    GOVERNOR_MIN_FILLS, GOVERNOR_OCCUPANCY_CAP, RETRIGGER_DELTA, THROTTLE_ACCURACY_FLOOR,
    THROTTLE_MIN_FILLS, THROTTLE_OCCUPANCY_HIGH, THROTTLE_OCCUPANCY_LOW,
};
pub use telemetry::{AdaptTelemetry, DirectiveRecord, EpochRecord};

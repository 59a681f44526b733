//! Observability layer for the `bosim` simulator.
//!
//! This crate defines the records every view of a run reads, and
//! records *when* things happen. Its pieces, all zero-dependency and,
//! apart from the counter records, inert unless switched on by an
//! [`ObsConfig`]:
//!
//! * [`PrefetchTelemetry`] / [`EpochFeedback`] — one prefetch site's
//!   usefulness counters with their accuracy, coverage and lateness,
//!   and one core's epoch of them. Run results, adaptive policies,
//!   report JSON, the epoch series and Perfetto all read these.
//! * [`Recorder`] — a bounded, keep-first log of cycle-stamped
//!   [`Event`]s whose [`EventKind`] vocabulary covers the prefetch
//!   lifecycle (issue, fill-queue entry, late merge, fill, first demand
//!   hit, unused eviction) and the learning/adaptation machinery (BO
//!   round and phase ends with score snapshots, epoch boundaries,
//!   tuning directives). Prefetchers and cores buffer `EventKind`s
//!   directly; the simulator stamps them.
//! * [`ObsReport::epochs`] — core 0's epoch series (IPC, the L2 and L3
//!   site blocks, bus occupancy), rendered as JSON lines by
//!   [`ObsReport::epochs_jsonl`].
//! * [`HostProfiler`] — wall-clock attribution per simulator phase
//!   (decode, core tick, uncore tick, DRAM, fast-forward scanning),
//!   sampled deterministically so the measurement never perturbs
//!   simulated state. This is the only module in the workspace outside
//!   `bosim-bench` allowed to read the wall clock (lint rule D002).
//! * [`perfetto`] — rendering of all of the above as Chrome/Perfetto
//!   trace-event JSON (`chrome://tracing`, <https://ui.perfetto.dev>).
//!
//! Everything that lands in a `SimResult` ([`ObsReport`]) is a pure
//! function of simulated state, so golden-stats equality between the
//! naive and fast-forwarding system loops extends to the event trace.
//! The one exception — the host profile — is quarantined behind
//! [`ProfileSlot`], whose `PartialEq` ignores wall-clock data.

#![warn(missing_docs)]

mod config;
mod epoch;
mod event;
mod feedback;
mod log;
pub mod perfetto;
mod profile;
mod report;

pub use config::ObsConfig;
pub use event::{Event, EventKind, ObsSite};
pub use feedback::{EpochFeedback, PrefetchTelemetry};
pub use log::{Recorder, MAX_EVENTS};
pub use profile::{
    HostProfile, HostProfiler, Phase, PhaseCost, PhaseTimer, ProfileSlot, PROFILE_SAMPLE_SHIFT,
};
pub use report::ObsReport;

#[cfg(test)]
mod tests {
    use super::*;
    use bosim_stats::Json;

    /// Rule S002: every key a record emits is documented in the report
    /// schema tables.
    #[test]
    fn schema_keys_are_documented() {
        let docs = include_str!("../../../docs/ARCHITECTURE.md");
        let profile = HostProfile {
            total_nanos: 0,
            phases: vec![PhaseCost {
                phase: "decode".into(),
                nanos: 0,
                calls: 0,
                samples: 0,
                share: 0.0,
            }],
        }
        .to_json();
        let records = [
            PrefetchTelemetry::default().to_json(),
            EpochFeedback::default().to_json(),
            profile.get("phases").and_then(Json::as_arr).unwrap()[0].clone(),
            profile,
        ];
        for record in records {
            let Json::Obj(fields) = record else {
                panic!("a record renders as an object");
            };
            for (key, _) in fields {
                assert!(docs.contains(&format!("`{key}`")), "`{key}` undocumented");
            }
        }
    }
}

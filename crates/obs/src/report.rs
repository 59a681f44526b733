//! The per-run observability bundle.

use crate::epoch::to_jsonl;
use crate::event::Event;
use crate::feedback::EpochFeedback;
use crate::profile::ProfileSlot;

/// Everything observability collected over one run, attached to the
/// simulator's `SimResult`.
///
/// The struct derives `PartialEq`, so golden-stats equality between
/// the naive and fast-forwarding loops extends to the event stream and
/// the epoch series. The host profile is wall-clock data and is
/// excluded from equality via [`ProfileSlot`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ObsReport {
    /// The cycle-domain event log (empty unless event tracing was on).
    pub events: Vec<Event>,
    /// Events that arrived after the log filled up.
    pub dropped_events: u64,
    /// Core 0's epoch records (empty unless event tracing was on).
    pub epochs: Vec<EpochFeedback>,
    /// The host profile (present only when profiling was on; never
    /// part of equality).
    pub profile: ProfileSlot,
}

impl ObsReport {
    /// The epoch series as a JSON-lines document.
    pub fn epochs_jsonl(&self) -> String {
        to_jsonl(&self.epochs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, ObsSite};

    #[test]
    fn empty_report_renders() {
        assert_eq!(ObsReport::default().epochs_jsonl(), "");
    }

    #[test]
    fn equality_covers_events_but_not_profile() {
        let ev = Event {
            cycle: 5,
            core: 0,
            site: ObsSite::L2,
            kind: EventKind::FirstHit { line: 9 },
        };
        let a = ObsReport {
            events: vec![ev.clone()],
            ..Default::default()
        };
        let mut b = a.clone();
        assert_eq!(a, b);
        b.profile = ProfileSlot(Some(crate::HostProfile {
            total_nanos: 42,
            phases: vec![],
        }));
        assert_eq!(a, b, "profile must not participate in equality");
        b.events.clear();
        assert_ne!(a, b, "events must participate in equality");
    }
}

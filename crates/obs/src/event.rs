//! The cycle-domain event model.
//!
//! Every event is stamped with the simulated cycle it happened on, the
//! core it belongs to and the hierarchy site that produced it. Events
//! are pure functions of simulated state — no wall-clock data — so two
//! runs of the same configuration produce identical streams, and the
//! naive and fast-forwarding system loops produce identical streams.

use bosim_stats::Json;
use std::fmt;

/// The hierarchy site an event belongs to.
///
/// This mirrors the simulator's prefetch sites plus a `Sys` track for
/// whole-system events (epoch boundaries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ObsSite {
    /// Whole-system events (epochs).
    Sys,
    /// The first-level data cache site.
    L1d,
    /// The private L2 site.
    L2,
    /// The shared L3 site.
    L3,
}

impl ObsSite {
    /// Short track label (`"sys"`, `"l1d"`, `"l2"`, `"l3"`).
    pub fn label(self) -> &'static str {
        match self {
            ObsSite::Sys => "sys",
            ObsSite::L1d => "l1d",
            ObsSite::L2 => "l2",
            ObsSite::L3 => "l3",
        }
    }

    /// Stable per-site track index (0..4) used by the Perfetto export.
    pub fn track_index(self) -> u32 {
        match self {
            ObsSite::Sys => 0,
            ObsSite::L1d => 1,
            ObsSite::L2 => 2,
            ObsSite::L3 => 3,
        }
    }
}

impl fmt::Display for ObsSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What happened — the one event vocabulary. Best-offset buffers its
/// learning events and the core its L1D-site events as `EventKind`s;
/// the simulator stamps them with cycle, core and site. Line addresses
/// are raw physical line numbers.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A prefetch request left the site's prefetcher and was accepted
    /// into the request path.
    PrefetchIssued {
        /// Target line address.
        line: u64,
    },
    /// A proposed prefetch was dropped before issue (L1: TLB probe
    /// miss; L2/L3: queue or MSHR back-pressure).
    PrefetchDropped {
        /// Target line address (0 when the address never materialised,
        /// e.g. an L1 TLB drop before translation).
        line: u64,
    },
    /// A line was accepted into the site's fill queue.
    FillQueued {
        /// Line address.
        line: u64,
    },
    /// A demand miss merged into an in-flight prefetch of the same
    /// line — the prefetch was issued but *late* (§5.4 lateness).
    LateMerge {
        /// Line address.
        line: u64,
    },
    /// A prefetched line completed and was inserted into the site's
    /// cache, still carrying its prefetch class.
    PrefetchFill {
        /// Line address.
        line: u64,
    },
    /// First demand hit on a resident prefetched line — the moment the
    /// prefetch became *useful* (accuracy numerator).
    FirstHit {
        /// Line address.
        line: u64,
    },
    /// A prefetched line was evicted without ever serving a demand hit.
    UnusedEvict {
        /// Line address.
        line: u64,
    },
    /// A best-offset learning round ended (every candidate offset was
    /// tested once); reports the current leader.
    RoundEnd {
        /// Rounds completed in the current phase.
        round: u32,
        /// Best-scoring offset so far.
        leader_offset: i64,
        /// Its score.
        leader_score: u32,
    },
    /// A best-offset learning phase ended and a new offset was adopted
    /// (§4.1/§4.3), with the full score table at the decision point.
    PhaseEnd {
        /// The adopted offset D.
        best_offset: i64,
        /// Its winning score.
        best_score: u32,
        /// Whether prefetch stays on (best score above BADSCORE).
        prefetch_on: bool,
        /// The `(offset, score)` table as it stood when the phase
        /// closed, in candidate-list order.
        scores: Vec<(i64, u32)>,
    },
    /// An observability epoch boundary was crossed (the matching
    /// record is in the run's [`crate::EpochFeedback`] series).
    EpochEnd {
        /// Zero-based epoch index that just ended.
        epoch: u64,
    },
    /// An adaptive tuning directive was applied to a core's L2
    /// prefetcher, or rejected by it (recorded at the L2 site).
    Directive {
        /// The directive, prefixed with its site (e.g. `"l2:degree=2"`).
        directive: String,
        /// Whether the prefetcher (or the simulator, for switches)
        /// accepted it.
        applied: bool,
    },
}

impl EventKind {
    /// Stable event name, used as the Perfetto event name.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::PrefetchIssued { .. } => "prefetch_issued",
            EventKind::PrefetchDropped { .. } => "prefetch_dropped",
            EventKind::FillQueued { .. } => "fill_queued",
            EventKind::LateMerge { .. } => "late_merge",
            EventKind::PrefetchFill { .. } => "prefetch_fill",
            EventKind::FirstHit { .. } => "first_hit",
            EventKind::UnusedEvict { .. } => "unused_evict",
            EventKind::RoundEnd { .. } => "round_end",
            EventKind::PhaseEnd { .. } => "phase_end",
            EventKind::EpochEnd { .. } => "epoch_end",
            EventKind::Directive { .. } => "directive",
        }
    }

    /// Kind-specific payload as a JSON object (the Perfetto `args`).
    pub fn args(&self) -> Json {
        match self {
            EventKind::PrefetchIssued { line }
            | EventKind::PrefetchDropped { line }
            | EventKind::FillQueued { line }
            | EventKind::LateMerge { line }
            | EventKind::PrefetchFill { line }
            | EventKind::FirstHit { line }
            | EventKind::UnusedEvict { line } => Json::obj([("line", Json::UInt(*line))]),
            EventKind::RoundEnd {
                round,
                leader_offset,
                leader_score,
            } => Json::obj([
                ("round", Json::UInt(u64::from(*round))),
                ("leader_offset", Json::Int(*leader_offset)),
                ("leader_score", Json::UInt(u64::from(*leader_score))),
            ]),
            EventKind::PhaseEnd {
                best_offset,
                best_score,
                prefetch_on,
                scores,
            } => Json::obj([
                ("best_offset", Json::Int(*best_offset)),
                ("best_score", Json::UInt(u64::from(*best_score))),
                ("prefetch_on", Json::Bool(*prefetch_on)),
                (
                    "scores",
                    Json::arr(scores.iter().map(|(offset, score)| {
                        Json::arr([Json::Int(*offset), Json::UInt(u64::from(*score))])
                    })),
                ),
            ]),
            EventKind::EpochEnd { epoch } => Json::obj([("epoch", Json::UInt(*epoch))]),
            EventKind::Directive { directive, applied } => Json::obj([
                ("directive", Json::from(directive.as_str())),
                ("applied", Json::Bool(*applied)),
            ]),
        }
    }
}

/// One cycle-stamped observability event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Simulated cycle the event happened on.
    pub cycle: u64,
    /// Owning core (requesting core for shared-L3 events; 0 for
    /// whole-system events).
    pub core: u32,
    /// Hierarchy site that produced the event.
    pub site: ObsSite,
    /// What happened.
    pub kind: EventKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sites_label_and_order() {
        assert_eq!(ObsSite::Sys.label(), "sys");
        assert_eq!(ObsSite::L3.to_string(), "l3");
        assert!(ObsSite::Sys < ObsSite::L1d && ObsSite::L2 < ObsSite::L3);
        assert_eq!(ObsSite::L1d.track_index(), 1);
    }

    #[test]
    fn phase_end_snapshots_the_score_table() {
        let k = EventKind::PhaseEnd {
            best_offset: 2,
            best_score: 31,
            prefetch_on: true,
            scores: vec![(1, 4), (2, 31)],
        };
        assert_eq!(k.name(), "phase_end");
        assert_eq!(
            k.args().to_string(),
            r#"{"best_offset":2,"best_score":31,"prefetch_on":true,"scores":[[1,4],[2,31]]}"#
        );
        // A line event's only argument is its line.
        let k = EventKind::PrefetchIssued { line: 77 };
        assert_eq!(k.name(), "prefetch_issued");
        assert_eq!(k.args().to_string(), r#"{"line":77}"#);
    }
}

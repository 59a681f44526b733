//! Tuning policies: epoch feedback in, reconfiguration directives out.
//!
//! A [`TunePolicy`] is a per-core state machine invoked once per epoch
//! with that core's [`EpochFeedback`]; the directives it emits are
//! applied to the core's L2 prefetcher by the simulator. A
//! [`PolicySpec`] names one of the three policies; it is a plain value,
//! so simulation configurations stay `Clone` and experiment grids can
//! deduplicate on the `Debug` rendering:
//!
//! * [`PolicySpec::DegreeGovernor`] — switches BO between degree 1 and
//!   2 from observed accuracy and bus pressure;
//! * [`PolicySpec::BandwidthThrottle`] — gates prefetch off under
//!   DRAM-bus contention (and back on when pressure clears);
//! * [`PolicySpec::Tournament`] — samples a list of prefetchers for an
//!   epoch each, then runs the IPC winner, re-exploring periodically to
//!   track phase changes.
//!
//! The thresholds and pacing are fixed constants beside each policy.
//! They are not the paper's — its only runtime feedback is BO's
//! BADSCORE throttle (§4.3) — but this simulator's own choices for a
//! runtime-guided reconfiguration loop in the spirit of Prat et al.

use best_offset::TuneDirective;
use bosim_obs::EpochFeedback;
use std::fmt;

/// A per-core tuning policy (see the crate docs for the control
/// loop it plugs into).
pub trait TunePolicy: fmt::Debug {
    /// Observes one finished epoch and appends any reconfiguration
    /// directives for the core's L2 prefetcher to `out`. Called once
    /// per epoch per core, in epoch order; the policy owns whatever
    /// state it needs between calls.
    fn on_epoch(&mut self, feedback: &EpochFeedback, out: &mut Vec<TuneDirective>);
}

/// A tuning policy. The `Debug` rendering includes the tournament's
/// candidates (experiment-grid deduplication relies on it).
#[derive(Debug, Clone, PartialEq)]
pub enum PolicySpec {
    /// The BO degree governor.
    DegreeGovernor,
    /// The bandwidth-aware throttle.
    BandwidthThrottle,
    /// The prefetcher tournament over these prefetcher names (at least
    /// two; build one with [`policies::tournament`]).
    Tournament(Vec<String>),
}

impl PolicySpec {
    /// Label used in configuration labels and reports.
    pub fn name(&self) -> String {
        match self {
            PolicySpec::DegreeGovernor => "degree-governor".into(),
            PolicySpec::BandwidthThrottle => "bw-throttle".into(),
            PolicySpec::Tournament(candidates) => format!("tournament[{}]", candidates.join(",")),
        }
    }

    /// Builds one core's policy state machine.
    pub fn build(&self) -> Box<dyn TunePolicy> {
        match self {
            PolicySpec::DegreeGovernor => Box::new(DegreeGovernor {
                degree: 1,
                initialized: false,
            }),
            PolicySpec::BandwidthThrottle => Box::new(BandwidthThrottle { enabled: true }),
            PolicySpec::Tournament(candidates) => Box::new(Tournament {
                candidates: candidates.clone(),
                state: TournamentState::Start,
                scores: vec![0.0; candidates.len()],
            }),
        }
    }
}

// ---------------------------------------------------------------------
// Degree governor
// ---------------------------------------------------------------------

/// The degree governor promotes to degree 2 at or above this epoch
/// accuracy.
pub const GOVERNOR_ACCURACY_UP: f64 = 0.70;
/// The degree governor demotes to degree 1 at or below this epoch
/// accuracy.
pub const GOVERNOR_ACCURACY_DOWN: f64 = 0.40;
/// The degree governor never runs degree 2 at or above this DRAM-bus
/// occupancy.
pub const GOVERNOR_OCCUPANCY_CAP: f64 = 0.60;
/// Resolved L2 fills an epoch needs before the degree governor acts
/// on its accuracy.
pub const GOVERNOR_MIN_FILLS: u64 = 64;

/// Switches the BO prefetch degree between 1 and 2 at runtime.
///
/// Degree 2 (prefetching with the best *and* second-best offset, §4.3)
/// buys coverage at the price of extra traffic — worth it only while the
/// prefetches are overwhelmingly accurate and the DRAM bus has headroom.
/// The governor promotes to degree 2 when epoch accuracy reaches
/// [`GOVERNOR_ACCURACY_UP`] with occupancy under
/// [`GOVERNOR_OCCUPANCY_CAP`], and demotes back when accuracy falls to
/// [`GOVERNOR_ACCURACY_DOWN`] or the bus saturates.
#[derive(Debug)]
struct DegreeGovernor {
    /// The degree last commanded.
    degree: u32,
    /// Whether the initial SetDegree was emitted. The prefetcher may
    /// have been *configured* at degree 2; the first boundary forces it
    /// to the governor's starting state so the two can never desync.
    initialized: bool,
}

impl TunePolicy for DegreeGovernor {
    fn on_epoch(&mut self, fb: &EpochFeedback, out: &mut Vec<TuneDirective>) {
        if !self.initialized {
            self.initialized = true;
            out.push(TuneDirective::SetDegree(self.degree));
        }
        if fb.l2.resolved_fills() < GOVERNOR_MIN_FILLS {
            return;
        }
        let Some(acc) = fb.l2.accuracy() else { return };
        let occ = fb.bus_occupancy;
        if self.degree == 1 && acc >= GOVERNOR_ACCURACY_UP && occ < GOVERNOR_OCCUPANCY_CAP {
            self.degree = 2;
            out.push(TuneDirective::SetDegree(2));
        } else if self.degree == 2
            && (acc <= GOVERNOR_ACCURACY_DOWN || occ >= GOVERNOR_OCCUPANCY_CAP)
        {
            self.degree = 1;
            out.push(TuneDirective::SetDegree(1));
        }
    }
}

// ---------------------------------------------------------------------
// Bandwidth-aware throttle
// ---------------------------------------------------------------------

/// The bandwidth throttle gates prefetch off at or above this DRAM-bus
/// occupancy.
pub const THROTTLE_OCCUPANCY_HIGH: f64 = 0.75;
/// The bandwidth throttle re-enables prefetch at or below this DRAM-bus
/// occupancy.
pub const THROTTLE_OCCUPANCY_LOW: f64 = 0.50;
/// The bandwidth throttle does not gate while epoch accuracy is at or
/// above this.
pub const THROTTLE_ACCURACY_FLOOR: f64 = 0.90;
/// Resolved L2 fills an epoch needs before the throttle's accuracy
/// exemption applies: with fewer, the accuracy estimate is noise.
pub const THROTTLE_MIN_FILLS: u64 = 32;

/// Gates prefetch off while the DRAM bus is contended and the prefetches
/// are not pulling their weight, re-enabling when pressure clears.
///
/// The gate uses hysteresis ([`THROTTLE_OCCUPANCY_HIGH`] to close,
/// [`THROTTLE_OCCUPANCY_LOW`] to reopen) so a workload hovering at the
/// threshold does not flap. Highly accurate prefetchers (epoch accuracy
/// at or above [`THROTTLE_ACCURACY_FLOOR`]) are spared: their traffic
/// is the useful kind.
#[derive(Debug)]
struct BandwidthThrottle {
    enabled: bool,
}

impl TunePolicy for BandwidthThrottle {
    fn on_epoch(&mut self, fb: &EpochFeedback, out: &mut Vec<TuneDirective>) {
        if self.enabled {
            let l2 = &fb.l2;
            let accurate = l2.resolved_fills() >= THROTTLE_MIN_FILLS
                && l2.accuracy().is_some_and(|a| a >= THROTTLE_ACCURACY_FLOOR);
            if fb.bus_occupancy >= THROTTLE_OCCUPANCY_HIGH && !accurate {
                self.enabled = false;
                out.push(TuneDirective::SetEnabled(false));
            }
        } else if fb.bus_occupancy <= THROTTLE_OCCUPANCY_LOW {
            self.enabled = true;
            out.push(TuneDirective::SetEnabled(true));
        }
    }
}

// ---------------------------------------------------------------------
// Tournament selector
// ---------------------------------------------------------------------

/// Epochs the tournament's winner runs before the selector re-explores.
pub const EXPLOIT_EPOCHS: u32 = 10;
/// Relative IPC deviation from the winner's trial score that makes the
/// tournament re-explore before [`EXPLOIT_EPOCHS`] run out.
pub const RETRIGGER_DELTA: f64 = 0.25;

/// Runtime tournament between prefetchers.
///
/// The selector cycles through `candidates` (prefetcher names),
/// running each for one trial epoch and scoring it by that epoch's
/// IPC. It then switches to the winner for up to [`EXPLOIT_EPOCHS`]
/// epochs before re-exploring.
///
/// Exploitation additionally watches for *phase changes*: when an
/// epoch's IPC deviates from the winner's trial score by more than
/// [`RETRIGGER_DELTA`] (relative), the workload has probably moved to
/// a different phase and the standings are stale — the selector re-runs
/// the tournament immediately instead of waiting out the exploit
/// window. Without this, a decision made late in one phase silently
/// misgoverns the whole next phase.
#[derive(Debug)]
struct Tournament {
    candidates: Vec<String>,
    state: TournamentState,
    /// Each candidate's IPC over its trial epoch of the current round.
    scores: Vec<f64>,
}

#[derive(Debug)]
enum TournamentState {
    /// Waiting for the first epoch boundary to begin exploring.
    Start,
    /// Candidate `idx` is running its trial epoch.
    Explore { idx: usize },
    /// The winner (with its trial-score IPC) runs for another `left`
    /// epochs, unless a phase change retriggers exploration first.
    Exploit { left: u32, score: f64 },
}

impl Tournament {
    /// The best-scoring candidate (the first on a tie) and its score.
    fn winner(&self) -> (usize, f64) {
        let mut best = 0;
        for (k, &s) in self.scores.iter().enumerate() {
            if s > self.scores[best] {
                best = k;
            }
        }
        (best, self.scores[best])
    }

    fn explore(&mut self, out: &mut Vec<TuneDirective>) {
        out.push(TuneDirective::SwitchPrefetcher(self.candidates[0].clone()));
        self.state = TournamentState::Explore { idx: 0 };
    }
}

impl TunePolicy for Tournament {
    fn on_epoch(&mut self, fb: &EpochFeedback, out: &mut Vec<TuneDirective>) {
        if self.candidates.len() < 2 {
            return; // nothing to select between
        }
        match &mut self.state {
            TournamentState::Start => self.explore(out),
            TournamentState::Explore { idx } => {
                // This epoch ran candidate `idx`.
                let current = *idx;
                self.scores[current] = fb.ipc();
                let next = current + 1;
                if next < self.candidates.len() {
                    out.push(TuneDirective::SwitchPrefetcher(
                        self.candidates[next].clone(),
                    ));
                    self.state = TournamentState::Explore { idx: next };
                } else {
                    let (w, score) = self.winner();
                    // Don't cold-rebuild the winner when it is the
                    // candidate already running: a stateful prefetcher
                    // (BO) keeps its just-warmed learning state for the
                    // exploit window.
                    if w != current {
                        out.push(TuneDirective::SwitchPrefetcher(self.candidates[w].clone()));
                    }
                    self.state = TournamentState::Exploit {
                        left: EXPLOIT_EPOCHS,
                        score,
                    };
                }
            }
            TournamentState::Exploit { left, score } => {
                *left -= 1;
                // Phase-change detection: an exploit epoch whose IPC is
                // far from the winner's trial score means the standings
                // are stale — re-run the tournament now.
                let moved = *score > 0.0 && ((fb.ipc() - *score).abs() / *score) > RETRIGGER_DELTA;
                if *left == 0 || moved {
                    self.explore(out);
                }
            }
        }
    }
}

/// Constructor shorthands for the built-in tuning policies.
pub mod policies {
    use super::*;

    /// A tournament over prefetcher names.
    pub fn tournament(candidates: impl IntoIterator<Item = impl Into<String>>) -> PolicySpec {
        PolicySpec::Tournament(candidates.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bosim_obs::PrefetchTelemetry;

    fn fb(useful: u64, unused: u64, occ: f64) -> EpochFeedback {
        EpochFeedback {
            cycles: 10_000,
            instructions: 10_000,
            l2: PrefetchTelemetry {
                useful,
                unused_evicted: unused,
                ..Default::default()
            },
            bus_occupancy: occ,
            ..Default::default()
        }
    }

    fn step(p: &mut dyn TunePolicy, f: &EpochFeedback) -> Vec<TuneDirective> {
        let mut out = Vec::new();
        p.on_epoch(f, &mut out);
        out
    }

    #[test]
    fn governor_promotes_and_demotes_on_accuracy() {
        let mut p = PolicySpec::DegreeGovernor.build();
        // First epoch establishes a known degree (the prefetcher may
        // have been configured differently); too few fills otherwise.
        assert_eq!(
            step(p.as_mut(), &fb(10, 0, 0.1)),
            vec![TuneDirective::SetDegree(1)]
        );
        assert!(step(p.as_mut(), &fb(10, 0, 0.1)).is_empty());
        // Accurate and idle bus: degree 2.
        assert_eq!(
            step(p.as_mut(), &fb(90, 10, 0.1)),
            vec![TuneDirective::SetDegree(2)]
        );
        // Staying accurate: no churn.
        assert!(step(p.as_mut(), &fb(90, 10, 0.1)).is_empty());
        // Accuracy collapses: back to degree 1.
        assert_eq!(
            step(p.as_mut(), &fb(20, 80, 0.1)),
            vec![TuneDirective::SetDegree(1)]
        );
    }

    #[test]
    fn governor_respects_bus_pressure() {
        let mut p = PolicySpec::DegreeGovernor.build();
        // Accurate but saturated bus: stay at degree 1 (beyond the
        // initial state-establishing directive).
        assert_eq!(
            step(p.as_mut(), &fb(90, 10, 0.9)),
            vec![TuneDirective::SetDegree(1)]
        );
        assert!(step(p.as_mut(), &fb(90, 10, 0.9)).is_empty());
        assert_eq!(
            step(p.as_mut(), &fb(90, 10, 0.2)),
            vec![TuneDirective::SetDegree(2)]
        );
        // Pressure returns: demote even though accuracy is fine.
        assert_eq!(
            step(p.as_mut(), &fb(90, 10, 0.9)),
            vec![TuneDirective::SetDegree(1)]
        );
    }

    #[test]
    fn throttle_gates_with_hysteresis() {
        let mut p = PolicySpec::BandwidthThrottle.build();
        assert!(step(p.as_mut(), &fb(10, 30, 0.6)).is_empty(), "below high");
        assert_eq!(
            step(p.as_mut(), &fb(10, 30, 0.8)),
            vec![TuneDirective::SetEnabled(false)]
        );
        // Still above the low threshold: stays gated.
        assert!(step(p.as_mut(), &fb(0, 0, 0.6)).is_empty());
        assert_eq!(
            step(p.as_mut(), &fb(0, 0, 0.3)),
            vec![TuneDirective::SetEnabled(true)]
        );
    }

    #[test]
    fn throttle_spares_accurate_prefetchers() {
        let mut p = PolicySpec::BandwidthThrottle.build();
        // Saturated bus but 97% accuracy with plenty of fills: keep going.
        assert!(step(p.as_mut(), &fb(97, 3, 0.9)).is_empty());
        // Same pressure, poor accuracy: gate.
        assert_eq!(
            step(p.as_mut(), &fb(30, 70, 0.9)),
            vec![TuneDirective::SetEnabled(false)]
        );
    }

    #[test]
    fn tournament_explores_then_exploits_the_ipc_winner() {
        let mut p = policies::tournament(["bo", "none"]).build();
        let epoch = |ipc: u64| EpochFeedback {
            cycles: 1_000,
            instructions: ipc,
            ..Default::default()
        };
        // Boundary 0: start exploring with candidate 0.
        assert_eq!(
            step(p.as_mut(), &epoch(500)),
            vec![TuneDirective::SwitchPrefetcher("bo".into())]
        );
        // "bo" scores 2.0 IPC; move on to "none".
        assert_eq!(
            step(p.as_mut(), &epoch(2_000)),
            vec![TuneDirective::SwitchPrefetcher("none".into())]
        );
        // "none" scores 0.5 IPC; the winner ("bo") is adopted.
        assert_eq!(
            step(p.as_mut(), &epoch(500)),
            vec![TuneDirective::SwitchPrefetcher("bo".into())]
        );
        // Exploit for EXPLOIT_EPOCHS epochs...
        for _ in 1..EXPLOIT_EPOCHS {
            assert!(step(p.as_mut(), &epoch(2_000)).is_empty());
        }
        // ...then re-explore from candidate 0.
        assert_eq!(
            step(p.as_mut(), &epoch(2_000)),
            vec![TuneDirective::SwitchPrefetcher("bo".into())]
        );
        // This round "none" wins while it is the candidate running: no
        // cold rebuild.
        step(p.as_mut(), &epoch(1_000));
        let adopt = step(p.as_mut(), &epoch(2_000));
        assert!(adopt.is_empty(), "{adopt:?}");
        // An exploit epoch within RETRIGGER_DELTA of the winner's trial
        // score keeps it running; one beyond re-explores at once.
        assert!(step(p.as_mut(), &epoch(1_600)).is_empty());
        assert_eq!(
            step(p.as_mut(), &epoch(1_000)),
            vec![TuneDirective::SwitchPrefetcher("bo".into())]
        );
    }

    #[test]
    fn handles_render_parameters_for_dedup() {
        let a = format!("{:?}", policies::tournament(["bo", "none"]));
        let b = format!("{:?}", policies::tournament(["bo", "sbp"]));
        assert_ne!(a, b);
        assert_eq!(
            policies::tournament(["bo", "none"]).name(),
            "tournament[bo,none]"
        );
    }
}

//! Tuning policies: epoch feedback in, reconfiguration directives out.
//!
//! A [`TunePolicy`] is a per-core state machine invoked once per epoch
//! with that core's [`EpochFeedback`]; the directives it emits are
//! applied to the core's L2 prefetcher by the simulator. A
//! [`PolicySpec`] names one of the three policies with its parameters;
//! it is a plain value, so simulation configurations stay `Clone` and
//! experiment grids can deduplicate on the `Debug` rendering:
//!
//! * [`DegreeGovernorSpec`] — switches BO between degree 1 and 2 from
//!   observed accuracy and bus pressure;
//! * [`BandwidthThrottleSpec`] — gates prefetch off under DRAM-bus
//!   contention (and back on when pressure clears);
//! * [`TournamentSpec`] — samples a list of prefetchers for a few epochs
//!   each, then runs the IPC winner, re-exploring periodically to track
//!   phase changes.

use best_offset::{SiteDirective, TuneDirective};
use bosim_obs::EpochFeedback;
use std::fmt;

/// A per-core tuning policy (see the crate docs for the control
/// loop it plugs into).
pub trait TunePolicy: fmt::Debug {
    /// The policy's report label.
    fn name(&self) -> String;

    /// Observes one finished epoch and appends any reconfiguration
    /// directives — each addressed to a prefetch site — to `out`.
    /// Called once per epoch per core, in epoch order; the policy owns
    /// whatever state it needs between calls. A bare
    /// [`TuneDirective`]`.into()` addresses the L2 site. Directives
    /// addressed to the *shared* L3 site are honoured from core 0's
    /// policy instance only (other cores' L3 directives are recorded as
    /// rejected) — the L3 is one engine, not a per-core structure.
    fn on_epoch(&mut self, feedback: &EpochFeedback, out: &mut Vec<SiteDirective>);
}

/// A tuning policy and its parameters. The `Debug` rendering includes
/// every parameter (experiment-grid deduplication relies on it).
#[derive(Debug, Clone, PartialEq)]
pub enum PolicySpec {
    /// The BO degree governor.
    DegreeGovernor(DegreeGovernorSpec),
    /// The bandwidth-aware throttle.
    BandwidthThrottle(BandwidthThrottleSpec),
    /// The prefetcher tournament.
    Tournament(TournamentSpec),
}

impl PolicySpec {
    /// Label used in configuration labels and reports.
    pub fn name(&self) -> String {
        match self {
            PolicySpec::DegreeGovernor(s) => s.name(),
            PolicySpec::BandwidthThrottle(s) => s.name(),
            PolicySpec::Tournament(s) => s.name(),
        }
    }

    /// Builds one core's policy state machine.
    pub fn build(&self) -> Box<dyn TunePolicy> {
        match self {
            PolicySpec::DegreeGovernor(s) => s.build(),
            PolicySpec::BandwidthThrottle(s) => s.build(),
            PolicySpec::Tournament(s) => s.build(),
        }
    }

    /// Names of the prefetchers this policy may switch to via
    /// [`TuneDirective::SwitchPrefetcher`]. Configuration validation
    /// resolves each name up front so a sweep fails fast instead of
    /// mid-run.
    pub fn prefetcher_names(&self) -> &[String] {
        match self {
            PolicySpec::Tournament(s) => &s.candidates,
            _ => &[],
        }
    }
}

// ---------------------------------------------------------------------
// Degree governor
// ---------------------------------------------------------------------

/// Switches the BO prefetch degree between 1 and 2 at runtime.
///
/// Degree 2 (prefetching with the best *and* second-best offset, §4.3)
/// buys coverage at the price of extra traffic — worth it only while the
/// prefetches are overwhelmingly accurate and the DRAM bus has headroom.
/// The governor promotes to degree 2 when epoch accuracy reaches
/// `accuracy_up` with occupancy under `occupancy_cap`, and demotes back
/// when accuracy falls to `accuracy_down` or the bus saturates.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeGovernorSpec {
    /// Promote to degree 2 at/above this accuracy (default 0.70).
    pub accuracy_up: f64,
    /// Demote to degree 1 at/below this accuracy (default 0.40).
    pub accuracy_down: f64,
    /// Never run degree 2 at/above this bus occupancy (default 0.60).
    pub occupancy_cap: f64,
    /// Minimum resolved fills in an epoch before acting (default 64).
    pub min_fills: u64,
}

impl Default for DegreeGovernorSpec {
    fn default() -> Self {
        DegreeGovernorSpec {
            accuracy_up: 0.70,
            accuracy_down: 0.40,
            occupancy_cap: 0.60,
            min_fills: 64,
        }
    }
}

impl DegreeGovernorSpec {
    /// The policy's report label.
    pub fn name(&self) -> String {
        "degree-governor".into()
    }

    /// Builds one core's policy state machine.
    pub fn build(&self) -> Box<dyn TunePolicy> {
        Box::new(DegreeGovernor {
            spec: self.clone(),
            degree: 1,
            initialized: false,
        })
    }
}

#[derive(Debug)]
struct DegreeGovernor {
    spec: DegreeGovernorSpec,
    /// The degree last commanded.
    degree: u32,
    /// Whether the initial SetDegree was emitted. The prefetcher may
    /// have been *configured* at degree 2; the first boundary forces it
    /// to the governor's starting state so the two can never desync.
    initialized: bool,
}

impl TunePolicy for DegreeGovernor {
    fn name(&self) -> String {
        self.spec.name()
    }

    fn on_epoch(&mut self, fb: &EpochFeedback, out: &mut Vec<SiteDirective>) {
        if !self.initialized {
            self.initialized = true;
            out.push(TuneDirective::SetDegree(self.degree).into());
        }
        if fb.l2.resolved_fills() < self.spec.min_fills {
            return;
        }
        let Some(acc) = fb.l2.accuracy() else { return };
        let occ = fb.bus_occupancy;
        if self.degree == 1 && acc >= self.spec.accuracy_up && occ < self.spec.occupancy_cap {
            self.degree = 2;
            out.push(TuneDirective::SetDegree(2).into());
        } else if self.degree == 2
            && (acc <= self.spec.accuracy_down || occ >= self.spec.occupancy_cap)
        {
            self.degree = 1;
            out.push(TuneDirective::SetDegree(1).into());
        }
    }
}

// ---------------------------------------------------------------------
// Bandwidth-aware throttle
// ---------------------------------------------------------------------

/// Gates prefetch off while the DRAM bus is contended and the prefetches
/// are not pulling their weight, re-enabling when pressure clears.
///
/// The gate uses hysteresis (`occupancy_high` to close, `occupancy_low`
/// to reopen) so a workload hovering at the threshold does not flap.
/// Highly accurate prefetchers (epoch accuracy at/above
/// `accuracy_floor`) are spared: their traffic is the useful kind.
#[derive(Debug, Clone, PartialEq)]
pub struct BandwidthThrottleSpec {
    /// Gate prefetch off at/above this bus occupancy (default 0.75).
    pub occupancy_high: f64,
    /// Re-enable prefetch at/below this bus occupancy (default 0.50).
    pub occupancy_low: f64,
    /// Do not gate while epoch accuracy is at/above this (default 0.90).
    pub accuracy_floor: f64,
    /// Minimum resolved fills before the accuracy exemption applies
    /// (default 32; with fewer fills the accuracy estimate is noise).
    pub min_fills: u64,
}

impl Default for BandwidthThrottleSpec {
    fn default() -> Self {
        BandwidthThrottleSpec {
            occupancy_high: 0.75,
            occupancy_low: 0.50,
            accuracy_floor: 0.90,
            min_fills: 32,
        }
    }
}

impl BandwidthThrottleSpec {
    /// The policy's report label.
    pub fn name(&self) -> String {
        "bw-throttle".into()
    }

    /// Builds one core's policy state machine.
    pub fn build(&self) -> Box<dyn TunePolicy> {
        Box::new(BandwidthThrottle {
            spec: self.clone(),
            enabled: true,
        })
    }
}

#[derive(Debug)]
struct BandwidthThrottle {
    spec: BandwidthThrottleSpec,
    enabled: bool,
}

impl TunePolicy for BandwidthThrottle {
    fn name(&self) -> String {
        self.spec.name()
    }

    fn on_epoch(&mut self, fb: &EpochFeedback, out: &mut Vec<SiteDirective>) {
        if self.enabled {
            let l2 = &fb.l2;
            let accurate = l2.resolved_fills() >= self.spec.min_fills
                && l2.accuracy().is_some_and(|a| a >= self.spec.accuracy_floor);
            if fb.bus_occupancy >= self.spec.occupancy_high && !accurate {
                self.enabled = false;
                out.push(TuneDirective::SetEnabled(false).into());
            }
        } else if fb.bus_occupancy <= self.spec.occupancy_low {
            self.enabled = true;
            out.push(TuneDirective::SetEnabled(true).into());
        }
    }
}

// ---------------------------------------------------------------------
// Tournament selector
// ---------------------------------------------------------------------

/// Runtime tournament between prefetchers.
///
/// The selector cycles through `candidates` (prefetcher names),
/// running each for `trial_epochs` epochs and scoring it by the IPC of
/// its scored epochs (the first trial epoch after a switch is discarded
/// as warm-up when `trial_epochs > 1`). It then switches to the winner
/// for up to `exploit_epochs` epochs before re-exploring.
///
/// Exploitation additionally watches for *phase changes*: when an
/// epoch's IPC deviates from the winner's trial score by more than
/// `retrigger_delta` (relative), the workload has probably moved to a
/// different phase and the standings are stale — the selector re-runs
/// the tournament immediately instead of waiting out the exploit
/// window. Without this, a decision made late in one phase silently
/// misgoverns the whole next phase.
#[derive(Debug, Clone, PartialEq)]
pub struct TournamentSpec {
    /// Prefetcher names to choose between (at least two).
    pub candidates: Vec<String>,
    /// Epochs each candidate runs per exploration round (default 1; the
    /// first is warm-up when more than one).
    pub trial_epochs: u32,
    /// Maximum epochs the winner runs before re-exploring (default 12).
    pub exploit_epochs: u32,
    /// Relative IPC deviation from the winner's trial score that
    /// triggers an early re-exploration (default 0.25; `f64::INFINITY`
    /// disables phase-change detection).
    pub retrigger_delta: f64,
}

impl TournamentSpec {
    /// A tournament over `candidates` with the default pacing.
    pub fn new(candidates: impl IntoIterator<Item = impl Into<String>>) -> Self {
        TournamentSpec {
            candidates: candidates.into_iter().map(Into::into).collect(),
            trial_epochs: 1,
            exploit_epochs: 12,
            retrigger_delta: 0.25,
        }
    }

    /// The policy's report label.
    pub fn name(&self) -> String {
        format!("tournament[{}]", self.candidates.join(","))
    }

    /// Builds one core's policy state machine.
    pub fn build(&self) -> Box<dyn TunePolicy> {
        Box::new(Tournament {
            spec: self.clone(),
            state: TournamentState::Start,
            scores: vec![(0, 0); self.candidates.len()],
        })
    }
}

#[derive(Debug)]
enum TournamentState {
    /// Waiting for the first epoch boundary to begin exploring.
    Start,
    /// Candidate `idx` is running; `seen` epochs of its trial finished.
    Explore { idx: usize, seen: u32 },
    /// The winner (with its trial-score IPC) runs for another `left`
    /// epochs, unless a phase change retriggers exploration first.
    Exploit { left: u32, score: f64 },
}

#[derive(Debug)]
struct Tournament {
    spec: TournamentSpec,
    state: TournamentState,
    /// Per-candidate (instructions, cycles) over scored trial epochs.
    scores: Vec<(u64, u64)>,
}

impl Tournament {
    fn winner(&self) -> (usize, f64) {
        let ipc = |&(i, c): &(u64, u64)| {
            if c == 0 {
                0.0
            } else {
                i as f64 / c as f64
            }
        };
        let mut best = 0;
        for (k, s) in self.scores.iter().enumerate() {
            if ipc(s) > ipc(&self.scores[best]) {
                best = k;
            }
        }
        (best, ipc(&self.scores[best]))
    }

    fn explore(&mut self, out: &mut Vec<SiteDirective>) {
        self.scores.fill((0, 0));
        out.push(TuneDirective::SwitchPrefetcher(self.spec.candidates[0].clone()).into());
        self.state = TournamentState::Explore { idx: 0, seen: 0 };
    }
}

impl TunePolicy for Tournament {
    fn name(&self) -> String {
        self.spec.name()
    }

    fn on_epoch(&mut self, fb: &EpochFeedback, out: &mut Vec<SiteDirective>) {
        if self.spec.candidates.len() < 2 {
            return; // nothing to select between
        }
        match &mut self.state {
            TournamentState::Start => self.explore(out),
            TournamentState::Explore { idx, seen } => {
                // This epoch ran candidate `idx`.
                *seen += 1;
                let warmup = u32::from(self.spec.trial_epochs > 1);
                if *seen > warmup {
                    let s = &mut self.scores[*idx];
                    s.0 += fb.instructions;
                    s.1 += fb.cycles;
                }
                if *seen >= self.spec.trial_epochs.max(1) {
                    let next = *idx + 1;
                    if next < self.spec.candidates.len() {
                        out.push(
                            TuneDirective::SwitchPrefetcher(self.spec.candidates[next].clone())
                                .into(),
                        );
                        self.state = TournamentState::Explore { idx: next, seen: 0 };
                    } else {
                        let current = *idx;
                        let (w, score) = self.winner();
                        // Don't cold-rebuild the winner when it is the
                        // candidate already running: a stateful
                        // prefetcher (BO) keeps its just-warmed learning
                        // state for the exploit window.
                        if w != current {
                            out.push(
                                TuneDirective::SwitchPrefetcher(self.spec.candidates[w].clone())
                                    .into(),
                            );
                        }
                        self.state = TournamentState::Exploit {
                            left: self.spec.exploit_epochs.max(1),
                            score,
                        };
                    }
                }
            }
            TournamentState::Exploit { left, score } => {
                *left -= 1;
                // Phase-change detection: an exploit epoch whose IPC is
                // far from the winner's trial score means the standings
                // are stale — re-run the tournament now.
                let moved = *score > 0.0
                    && ((fb.ipc() - *score).abs() / *score) > self.spec.retrigger_delta;
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

    /// The BO degree governor with default thresholds.
    pub fn degree_governor() -> PolicySpec {
        PolicySpec::DegreeGovernor(DegreeGovernorSpec::default())
    }

    /// The bandwidth-aware throttle with default thresholds.
    pub fn bandwidth_throttle() -> PolicySpec {
        PolicySpec::BandwidthThrottle(BandwidthThrottleSpec::default())
    }

    /// A tournament over prefetcher names with default pacing.
    pub fn tournament(candidates: impl IntoIterator<Item = impl Into<String>>) -> PolicySpec {
        PolicySpec::Tournament(TournamentSpec::new(candidates))
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

    fn step(p: &mut dyn TunePolicy, f: &EpochFeedback) -> Vec<SiteDirective> {
        let mut out = Vec::new();
        p.on_epoch(f, &mut out);
        out
    }

    #[test]
    fn governor_promotes_and_demotes_on_accuracy() {
        let mut p = policies::degree_governor().build();
        // First epoch establishes a known degree (the prefetcher may
        // have been configured differently); too few fills otherwise.
        assert_eq!(
            step(p.as_mut(), &fb(10, 0, 0.1)),
            vec![TuneDirective::SetDegree(1).into()]
        );
        assert!(step(p.as_mut(), &fb(10, 0, 0.1)).is_empty());
        // Accurate and idle bus: degree 2.
        assert_eq!(
            step(p.as_mut(), &fb(90, 10, 0.1)),
            vec![TuneDirective::SetDegree(2).into()]
        );
        // Staying accurate: no churn.
        assert!(step(p.as_mut(), &fb(90, 10, 0.1)).is_empty());
        // Accuracy collapses: back to degree 1.
        assert_eq!(
            step(p.as_mut(), &fb(20, 80, 0.1)),
            vec![TuneDirective::SetDegree(1).into()]
        );
    }

    /// `min_fills: 0` lets an epoch with no resolved fill past the
    /// fill gate; it has no accuracy, so the governor does nothing.
    #[test]
    fn governor_with_no_fill_minimum_skips_an_empty_epoch() {
        let spec = DegreeGovernorSpec {
            min_fills: 0,
            ..Default::default()
        };
        let mut p = PolicySpec::DegreeGovernor(spec).build();
        assert_eq!(
            step(p.as_mut(), &EpochFeedback::default()),
            vec![TuneDirective::SetDegree(1).into()]
        );
        assert!(step(p.as_mut(), &EpochFeedback::default()).is_empty());
    }

    #[test]
    fn governor_respects_bus_pressure() {
        let mut p = policies::degree_governor().build();
        // Accurate but saturated bus: stay at degree 1 (beyond the
        // initial state-establishing directive).
        assert_eq!(
            step(p.as_mut(), &fb(90, 10, 0.9)),
            vec![TuneDirective::SetDegree(1).into()]
        );
        assert!(step(p.as_mut(), &fb(90, 10, 0.9)).is_empty());
        assert_eq!(
            step(p.as_mut(), &fb(90, 10, 0.2)),
            vec![TuneDirective::SetDegree(2).into()]
        );
        // Pressure returns: demote even though accuracy is fine.
        assert_eq!(
            step(p.as_mut(), &fb(90, 10, 0.9)),
            vec![TuneDirective::SetDegree(1).into()]
        );
    }

    #[test]
    fn throttle_gates_with_hysteresis() {
        let mut p = policies::bandwidth_throttle().build();
        assert!(step(p.as_mut(), &fb(10, 30, 0.6)).is_empty(), "below high");
        assert_eq!(
            step(p.as_mut(), &fb(10, 30, 0.8)),
            vec![TuneDirective::SetEnabled(false).into()]
        );
        // Still above the low threshold: stays gated.
        assert!(step(p.as_mut(), &fb(0, 0, 0.6)).is_empty());
        assert_eq!(
            step(p.as_mut(), &fb(0, 0, 0.3)),
            vec![TuneDirective::SetEnabled(true).into()]
        );
    }

    #[test]
    fn throttle_spares_accurate_prefetchers() {
        let mut p = policies::bandwidth_throttle().build();
        // Saturated bus but 97% accuracy with plenty of fills: keep going.
        assert!(step(p.as_mut(), &fb(97, 3, 0.9)).is_empty());
        // Same pressure, poor accuracy: gate.
        assert_eq!(
            step(p.as_mut(), &fb(30, 70, 0.9)),
            vec![TuneDirective::SetEnabled(false).into()]
        );
    }

    #[test]
    fn tournament_explores_then_exploits_the_ipc_winner() {
        let mut spec = TournamentSpec::new(["bo", "none"]);
        spec.trial_epochs = 1; // no warm-up epoch: every trial epoch scores
        spec.exploit_epochs = 3;
        let mut p = spec.build();
        let epoch = |ipc: u64| EpochFeedback {
            cycles: 1_000,
            instructions: ipc,
            ..Default::default()
        };
        // Boundary 0: start exploring with candidate 0.
        assert_eq!(
            step(p.as_mut(), &epoch(500)),
            vec![TuneDirective::SwitchPrefetcher("bo".into()).into()]
        );
        // "bo" scores 2.0 IPC; move on to "none".
        assert_eq!(
            step(p.as_mut(), &epoch(2_000)),
            vec![TuneDirective::SwitchPrefetcher("none".into()).into()]
        );
        // "none" scores 0.5 IPC; the winner ("bo") is adopted.
        assert_eq!(
            step(p.as_mut(), &epoch(500)),
            vec![TuneDirective::SwitchPrefetcher("bo".into()).into()]
        );
        // Exploit for 3 epochs...
        assert!(step(p.as_mut(), &epoch(2_000)).is_empty());
        assert!(step(p.as_mut(), &epoch(2_000)).is_empty());
        // ...then re-explore from candidate 0.
        assert_eq!(
            step(p.as_mut(), &epoch(2_000)),
            vec![TuneDirective::SwitchPrefetcher("bo".into()).into()]
        );
    }

    #[test]
    fn tournament_discards_the_warmup_epoch() {
        let mut spec = TournamentSpec::new(["a", "b"]);
        spec.trial_epochs = 2;
        spec.exploit_epochs = 8;
        let mut p = spec.build();
        let epoch = |ipc: u64| EpochFeedback {
            cycles: 1_000,
            instructions: ipc,
            ..Default::default()
        };
        step(p.as_mut(), &epoch(0)); // -> switch a
        step(p.as_mut(), &epoch(9_000)); // a warm-up (discarded)
        step(p.as_mut(), &epoch(1_000)); // a scored: 1.0 -> switch b
        step(p.as_mut(), &epoch(0)); // b warm-up (discarded)
        let adopt = step(p.as_mut(), &epoch(2_000)); // b scored: 2.0 -> wins
                                                     // The winner is the candidate already running: no cold rebuild.
        assert!(adopt.is_empty(), "{adopt:?}");
        // It keeps running through the exploit window (no directives).
        assert!(step(p.as_mut(), &epoch(2_000)).is_empty());
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

//! The Best-Offset prefetcher (§4).
//!
//! On every eligible L2 read access (miss or prefetched hit) for line `X`:
//!
//! 1. **Prefetch issue** — if prefetch is on and `X + D` lies in the same
//!    page, a prefetch for `X + D` is requested (degree one, §4.3).
//! 2. **Learning** — the next offset `d` of the offset list is tested:
//!    if `X − d` hits in the RR table, `d`'s score is incremented.
//!
//! When a line `Y` prefetched with offset `D` completes and is inserted
//! into the L2, the *base address* `Y − D` is written to the RR table (if
//! both lie in the same page): a hit on `X − d` therefore means "had the
//! offset been `d`, the prefetch of `X` would have been issued by the
//! access to `X − d` and would have completed by now" — i.e. it would have
//! been *timely*. This is the key difference from the Sandbox prefetcher,
//! which scores coverage only.
//!
//! A learning phase ends at the end of a round once a score reaches
//! SCOREMAX or ROUNDMAX rounds have elapsed; the best-scoring offset
//! becomes the new `D`. If the best score is not above BADSCORE, prefetch
//! is turned off (§4.3) — but learning continues, with `Y` itself written
//! to the RR table on every fill (i.e. `D = 0`).

use crate::iface::{AccessOutcome, CacheAccess, Prefetcher, TuneDirective};
use crate::offsets::OffsetList;
use crate::rr_table::RrTable;
use bosim_obs::EventKind;
use bosim_types::{LineAddr, PageSize};
use std::fmt;

/// Best-Offset prefetcher parameters (Table 2 defaults).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoConfig {
    /// RR table entries (Table 2: 256).
    pub rr_entries: usize,
    /// Maximum score ending a learning phase (Table 2: 31).
    pub score_max: u32,
    /// Maximum rounds per learning phase (Table 2: 100).
    pub round_max: u32,
    /// Scores ≤ BADSCORE turn prefetch off (Table 2: 1).
    pub bad_score: u32,
    /// Prefetch degree (paper default 1). §4.3 discusses a degree-two
    /// variant prefetching with the best *and* second-best offsets; this
    /// implementation supports it as an extension (values 1 or 2).
    pub degree: u32,
    /// The candidate offset list (Table 2: the 52 offsets of §4.2).
    pub offsets: OffsetList,
}

impl Default for BoConfig {
    fn default() -> Self {
        BoConfig {
            rr_entries: 256,
            score_max: 31,
            round_max: 100,
            bad_score: 1,
            degree: 1,
            offsets: OffsetList::paper_default(),
        }
    }
}

/// A constraint violated by a [`BoConfig`] (returned by
/// [`BoConfig::validate`] and [`BestOffsetPrefetcher::try_new`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum BoConfigError {
    /// The prefetch degree was outside the supported `1..=2` range.
    UnsupportedDegree {
        /// The requested degree.
        degree: u32,
    },
    /// The candidate offset list was empty.
    EmptyOffsetList,
    /// The RR table entry count was not a power of two ≥ 2.
    BadRrEntries {
        /// The requested entry count.
        entries: usize,
    },
    /// SCOREMAX was 0 — a learning phase could never saturate.
    ZeroScoreMax,
    /// ROUNDMAX was 0 — a learning phase could never end.
    ZeroRoundMax,
}

impl fmt::Display for BoConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoConfigError::UnsupportedDegree { degree } => {
                write!(
                    f,
                    "BO prefetch degree {degree} unsupported (must be 1 or 2)"
                )
            }
            BoConfigError::EmptyOffsetList => write!(f, "BO candidate offset list is empty"),
            BoConfigError::BadRrEntries { entries } => write!(
                f,
                "BO RR table needs a power-of-two entry count >= 2, got {entries}"
            ),
            BoConfigError::ZeroScoreMax => write!(f, "BO SCOREMAX must be at least 1"),
            BoConfigError::ZeroRoundMax => write!(f, "BO ROUNDMAX must be at least 1"),
        }
    }
}

impl std::error::Error for BoConfigError {}

impl BoConfig {
    /// Validates the parameters against the constraints the hardware
    /// model assumes. [`BestOffsetPrefetcher::try_new`] runs this; the
    /// simulator's configuration validation surfaces the error instead of
    /// aborting a sweep mid-grid.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), BoConfigError> {
        if !(1..=2).contains(&self.degree) {
            return Err(BoConfigError::UnsupportedDegree {
                degree: self.degree,
            });
        }
        if self.offsets.is_empty() {
            return Err(BoConfigError::EmptyOffsetList);
        }
        if self.rr_entries < 2 || !self.rr_entries.is_power_of_two() {
            return Err(BoConfigError::BadRrEntries {
                entries: self.rr_entries,
            });
        }
        if self.score_max == 0 {
            return Err(BoConfigError::ZeroScoreMax);
        }
        if self.round_max == 0 {
            return Err(BoConfigError::ZeroRoundMax);
        }
        Ok(())
    }
}

/// Counters exposed for experiments and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BoStats {
    /// Completed learning phases.
    pub phases: u64,
    /// Phases that ended with prefetch turned off.
    pub phases_off: u64,
    /// Prefetch requests issued.
    pub issued: u64,
    /// Eligible accesses observed.
    pub eligible_accesses: u64,
}

/// The Best-Offset (BO) L2 prefetcher.
#[derive(Debug)]
pub struct BestOffsetPrefetcher {
    cfg: BoConfig,
    page: PageSize,
    rr: RrTable,
    scores: Vec<u32>,
    /// Next offset index to test (round-robin within a round).
    test_idx: usize,
    rounds: u32,
    /// Incrementally tracked best of the current phase.
    best_idx: usize,
    best_score: u32,
    /// Incrementally tracked runner-up (degree-2 extension).
    second_idx: usize,
    second_score: u32,
    /// Second prefetch offset (degree-2 extension; equals `offset` when
    /// no distinct runner-up emerged).
    second_offset: i64,
    /// A score reached SCOREMAX: finish the phase at the end of the round.
    saturated: bool,
    /// Current prefetch offset D.
    offset: i64,
    /// Prefetch on/off (off when the last phase's best score ≤ BADSCORE).
    prefetch_on: bool,
    /// External gate imposed by an adaptive tuning policy
    /// ([`TuneDirective::SetEnabled`]); independent of the BADSCORE
    /// throttle. While gated off, learning continues exactly as in the
    /// throttled-off state (fills seed the RR table with `D = 0`).
    enabled: bool,
    stats: BoStats,
    /// Buffered learning events, allocated only while an observability
    /// sink is enabled ([`Prefetcher::set_event_sink`]); `None` — the
    /// default — keeps the learning loop free of any event work.
    events: Option<Vec<EventKind>>,
}

impl BestOffsetPrefetcher {
    /// Creates a BO prefetcher with the given configuration and page size.
    ///
    /// # Panics
    ///
    /// Panics when the configuration fails [`BoConfig::validate`]. Sweeps
    /// should validate specs up front (the simulator's configuration
    /// validation does) and use [`try_new`](Self::try_new) to surface the
    /// error instead.
    pub fn new(cfg: BoConfig, page: PageSize) -> Self {
        match Self::try_new(cfg, page) {
            Ok(p) => p,
            #[expect(
                clippy::panic,
                reason = "documented Panics contract; try_new is the fallible twin"
            )]
            Err(e) => panic!("invalid BoConfig: {e}"),
        }
    }

    /// Fallible construction: validates the configuration and reports the
    /// violated constraint instead of aborting.
    ///
    /// # Errors
    ///
    /// Returns the first constraint violated by `cfg`.
    pub fn try_new(cfg: BoConfig, page: PageSize) -> Result<Self, BoConfigError> {
        cfg.validate()?;
        let n = cfg.offsets.len();
        let rr = RrTable::new(cfg.rr_entries);
        Ok(BestOffsetPrefetcher {
            offset: cfg.offsets.get(0),
            second_offset: cfg.offsets.get(0),
            cfg,
            page,
            rr,
            scores: vec![0; n],
            test_idx: 0,
            rounds: 0,
            best_idx: 0,
            best_score: 0,
            second_idx: 0,
            second_score: 0,
            saturated: false,
            prefetch_on: true,
            enabled: true,
            stats: BoStats::default(),
            events: None,
        })
    }

    /// Creates a BO prefetcher with the Table 2 default parameters.
    pub fn with_defaults(page: PageSize) -> Self {
        Self::new(BoConfig::default(), page)
    }

    /// The current prefetch offset `D`.
    pub fn current_offset(&self) -> i64 {
        self.offset
    }

    /// The second-best offset used by the degree-2 extension (equals
    /// [`current_offset`](Self::current_offset) when degree is 1 or no
    /// distinct runner-up scored above BADSCORE).
    pub fn second_offset(&self) -> i64 {
        self.second_offset
    }

    /// Whether prefetch is currently on: the §4.3 BADSCORE throttle AND
    /// the external [`TuneDirective::SetEnabled`] gate.
    pub fn is_prefetching(&self) -> bool {
        self.prefetch_on && self.enabled
    }

    /// Whether the external tuning gate currently allows prefetching
    /// (independent of the BADSCORE throttle).
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The configured prefetch degree (runtime-tunable, 1 or 2).
    pub fn degree(&self) -> u32 {
        self.cfg.degree
    }

    /// Current learning-phase scores, in offset-list order.
    pub fn scores(&self) -> &[u32] {
        &self.scores
    }

    /// The configuration in use.
    pub fn config(&self) -> &BoConfig {
        &self.cfg
    }

    /// Experiment counters.
    pub fn stats(&self) -> BoStats {
        self.stats
    }

    /// One learning step (§4.1): test the next offset in the list against
    /// the RR table; close the phase at the end of a round if saturated
    /// or ROUNDMAX reached.
    fn learn(&mut self, x: LineAddr) {
        let d = self.cfg.offsets.get(self.test_idx);
        // X - d as an absolute line address; no page restriction is
        // applied on lookups (insertions are page-restricted).
        let probe = x.0 as i64 - d;
        if probe >= 0 && self.rr.contains(LineAddr(probe as u64)) {
            let s = &mut self.scores[self.test_idx];
            *s += 1;
            if *s > self.best_score {
                if self.best_idx != self.test_idx {
                    self.second_score = self.best_score;
                    self.second_idx = self.best_idx;
                }
                self.best_score = *s;
                self.best_idx = self.test_idx;
            } else if self.test_idx != self.best_idx && *s > self.second_score {
                self.second_score = *s;
                self.second_idx = self.test_idx;
            }
            if *s >= self.cfg.score_max {
                self.saturated = true;
            }
        }
        self.test_idx += 1;
        if self.test_idx == self.cfg.offsets.len() {
            // End of a round.
            self.test_idx = 0;
            self.rounds += 1;
            if let Some(events) = &mut self.events {
                events.push(EventKind::RoundEnd {
                    round: self.rounds,
                    leader_offset: self.cfg.offsets.get(self.best_idx),
                    leader_score: self.best_score,
                });
            }
            if self.saturated || self.rounds >= self.cfg.round_max {
                self.end_phase();
            }
        }
    }

    /// Ends the learning phase: adopt the best offset, decide throttling,
    /// reset all scores (§4.1, §4.3).
    fn end_phase(&mut self) {
        self.stats.phases += 1;
        self.offset = self.cfg.offsets.get(self.best_idx);
        self.second_offset = if self.second_score > self.cfg.bad_score {
            self.cfg.offsets.get(self.second_idx)
        } else {
            self.offset
        };
        self.prefetch_on = self.best_score > self.cfg.bad_score;
        if !self.prefetch_on {
            self.stats.phases_off += 1;
        }
        if let Some(events) = &mut self.events {
            events.push(EventKind::PhaseEnd {
                best_offset: self.offset,
                best_score: self.best_score,
                prefetch_on: self.prefetch_on,
                scores: (0..self.scores.len())
                    .map(|i| (self.cfg.offsets.get(i), self.scores[i]))
                    .collect(),
            });
        }
        self.scores.fill(0);
        self.best_idx = 0;
        self.best_score = 0;
        self.second_idx = 0;
        self.second_score = 0;
        self.rounds = 0;
        self.test_idx = 0;
        self.saturated = false;
    }
}

impl Prefetcher for BestOffsetPrefetcher {
    fn on_access(&mut self, access: CacheAccess, out: &mut Vec<LineAddr>) {
        if !access.outcome.is_eligible() {
            return;
        }
        debug_assert!(matches!(
            access.outcome,
            AccessOutcome::Miss | AccessOutcome::PrefetchedHit
        ));
        self.stats.eligible_accesses += 1;
        let x = access.line;
        // Issue the prefetch for X + D first (the learning step below may
        // swap phases; hardware does both in the same cycle).
        if self.is_prefetching() {
            if let Some(target) = x.checked_offset(self.offset, self.page) {
                out.push(target);
                self.stats.issued += 1;
            }
            // Degree-2 extension (§4.3): also prefetch with the
            // second-best offset of the last learning phase.
            if self.cfg.degree >= 2 && self.second_offset != self.offset {
                if let Some(target) = x.checked_offset(self.second_offset, self.page) {
                    if !out.contains(&target) {
                        out.push(target);
                        self.stats.issued += 1;
                    }
                }
            }
        }
        self.learn(x);
    }

    fn on_fill(&mut self, line: LineAddr, prefetched: bool) {
        if self.is_prefetching() {
            // Base address of the completed prefetch: Y - D, written only
            // for lines still marked prefetched, and only when Y and Y-D
            // lie in the same page (§4.1 fn. 2).
            if prefetched {
                if let Some(base) = line.checked_offset(-self.offset, self.page) {
                    self.rr.insert(base);
                }
            }
        } else {
            // Prefetch off: every fetched line is its own base (D = 0).
            self.rr.insert(line);
        }
    }

    fn name(&self) -> &'static str {
        "BO"
    }

    fn reconfigure(&mut self, directive: &TuneDirective) -> bool {
        match directive {
            TuneDirective::SetDegree(d) if (1..=2).contains(d) => {
                self.cfg.degree = *d;
                true
            }
            TuneDirective::SetDegree(_) => false,
            TuneDirective::SetEnabled(on) => {
                self.enabled = *on;
                true
            }
            TuneDirective::SwitchPrefetcher(_) => false,
        }
    }

    fn set_event_sink(&mut self, enabled: bool) {
        self.events = if enabled {
            Some(self.events.take().unwrap_or_default())
        } else {
            None
        };
    }

    fn drain_events(&mut self, out: &mut Vec<EventKind>) {
        if let Some(events) = &mut self.events {
            out.append(events);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bo() -> BestOffsetPrefetcher {
        BestOffsetPrefetcher::with_defaults(PageSize::M4)
    }

    fn access(p: &mut BestOffsetPrefetcher, line: u64) -> Vec<LineAddr> {
        let mut out = Vec::new();
        p.on_access(
            CacheAccess {
                line: LineAddr(line),
                outcome: AccessOutcome::Miss,
            },
            &mut out,
        );
        out
    }

    #[test]
    fn initial_state_prefetches_with_first_offset() {
        let mut p = bo();
        assert!(p.is_prefetching());
        assert_eq!(p.current_offset(), 1);
        let out = access(&mut p, 100);
        assert_eq!(out, vec![LineAddr(101)]);
    }

    #[test]
    fn plain_hits_are_ignored() {
        let mut p = bo();
        let mut out = Vec::new();
        p.on_access(
            CacheAccess {
                line: LineAddr(7),
                outcome: AccessOutcome::Hit,
            },
            &mut out,
        );
        assert!(out.is_empty());
        assert_eq!(p.stats().eligible_accesses, 0);
    }

    #[test]
    fn no_prefetch_across_page_boundary() {
        let mut p = BestOffsetPrefetcher::with_defaults(PageSize::K4);
        // Last line of a 4KB page: offset 1 would cross.
        let out = access(&mut p, 63);
        assert!(out.is_empty(), "must not cross the page");
        assert_eq!(p.stats().issued, 0);
    }

    /// Drive a pure sequential stream through the prefetcher with fills
    /// completing "in time"; BO should converge to a positive offset and
    /// keep prefetching.
    #[test]
    fn sequential_stream_learns_an_offset() {
        let mut p = bo();
        for line in 1_000u64..41_000 {
            let reqs = access(&mut p, line);
            // Simulate timely completion: requested prefetches fill the
            // L2 (still flagged as prefetches) before the stream reaches
            // them.
            for r in reqs {
                p.on_fill(r, true);
            }
        }
        assert!(p.is_prefetching());
        assert!(p.stats().phases > 0, "at least one phase completed");
        assert!(p.current_offset() >= 1);
    }

    /// With a strided stream of period 3 lines (stride pattern from §3.2)
    /// and timely fills, the learned offset must be a multiple of 3.
    #[test]
    fn strided_stream_learns_multiple_of_period() {
        let mut p = bo();
        let mut line = 10_000u64;
        for _ in 0..60_000 {
            let reqs = access(&mut p, line);
            for r in reqs {
                p.on_fill(r, true);
            }
            line += 3;
        }
        assert!(p.stats().phases > 0);
        assert_eq!(
            p.current_offset() % 3,
            0,
            "offset {} not a multiple of the stride period",
            p.current_offset()
        );
        assert!(p.is_prefetching());
    }

    /// Random accesses never hit the RR table: scores stay ≤ BADSCORE and
    /// prefetch turns off at the end of the phase — and stays off while
    /// learning continues (§4.3).
    #[test]
    fn random_traffic_turns_prefetch_off() {
        let mut p = bo();
        let mut x = 0x9E3779B97F4A7C15u64;
        let total_steps = 52 * 101; // > ROUNDMAX rounds
        for _ in 0..total_steps {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let line = x >> 20; // scattered lines
            let reqs = access(&mut p, line);
            for r in reqs {
                p.on_fill(r, true);
            }
        }
        assert!(p.stats().phases > 0);
        assert!(!p.is_prefetching(), "random traffic must throttle off");
        // Issue nothing when off.
        let out = access(&mut p, 42);
        assert!(out.is_empty());
    }

    /// After being throttled off, a returning sequential phase turns
    /// prefetch back on (learning continues with D = 0 insertions).
    #[test]
    fn prefetch_turns_back_on_after_pattern_returns() {
        let mut p = bo();
        // Phase 1: random traffic -> off.
        let mut x = 12345u64;
        for _ in 0..52 * 101 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(99);
            let reqs = access(&mut p, x >> 22);
            for r in reqs {
                p.on_fill(r, true);
            }
        }
        assert!(!p.is_prefetching());
        // Phase 2: sequential stream; fills feed the RR table with D=0.
        for line in 500_000u64..500_000 + 52 * 40 {
            let reqs = access(&mut p, line);
            for r in reqs {
                p.on_fill(r, true);
            }
            // While prefetch is off nothing is issued; the demand fill
            // itself reaches the L2:
            p.on_fill(LineAddr(line), false);
        }
        assert!(p.is_prefetching(), "prefetch must re-enable");
    }

    /// SCOREMAX saturation ends the phase early (at the end of the
    /// round), well before ROUNDMAX rounds.
    #[test]
    fn scoremax_ends_phase_early() {
        let mut p = bo();
        let mut line = 77u64;
        let mut accesses = 0u64;
        while p.stats().phases == 0 {
            let reqs = access(&mut p, line);
            for r in reqs {
                p.on_fill(r, true);
            }
            line += 1;
            accesses += 1;
            assert!(accesses < 52 * 50, "phase should end via SCOREMAX");
        }
        // SCOREMAX=31 with offset 1 scoring every round: ~31-32 rounds.
        assert!(accesses <= 52 * 35);
    }

    #[test]
    fn fill_when_off_inserts_base_with_d0() {
        let cfg = BoConfig {
            round_max: 1, // single-round phases for fast control
            ..Default::default()
        };
        let mut p = BestOffsetPrefetcher::new(cfg, PageSize::M4);
        // Burn one full round with non-matching accesses: phase ends with
        // best score 0 -> off.
        for i in 0..52 {
            access(&mut p, 1_000_000 + i * 1_000);
        }
        assert!(!p.is_prefetching());
        // Now a fill of line Z inserts Z itself: testing offset d against
        // access Z+d must hit.
        p.on_fill(LineAddr(5_000), false);
        // First tested offset in the new phase is offsets[0] = 1.
        access(&mut p, 5_001);
        assert_eq!(p.scores()[0], 1, "D=0 insertion must let X-1 hit");
    }

    #[test]
    fn degree_2_issues_two_distinct_offsets() {
        let cfg = BoConfig {
            degree: 2,
            ..Default::default()
        };
        let mut p = BestOffsetPrefetcher::new(cfg, PageSize::M4);
        // Period-2 stream: multiples of 2 all score; best and runner-up
        // are distinct even offsets.
        let mut line = 500u64;
        for _ in 0..52 * 200 {
            let reqs = access(&mut p, line);
            for r in reqs {
                p.on_fill(r, true);
            }
            line += 2;
        }
        assert!(p.stats().phases > 0);
        if p.second_offset() != p.current_offset() {
            let reqs = access(&mut p, line);
            assert_eq!(reqs.len(), 2, "degree-2 must issue two prefetches");
            assert_ne!(reqs[0], reqs[1]);
        }
    }

    /// Degree-2 across phase boundaries: a phase that elects a distinct
    /// runner-up issues two prefetches per access (`issued` counts
    /// both); when a later phase's runner-up scores ≤ BADSCORE,
    /// `second_offset` collapses back to `offset` and only one prefetch
    /// is issued again.
    #[test]
    fn degree_2_second_offset_tracks_phase_boundaries() {
        let cfg = BoConfig {
            degree: 2,
            round_max: 2, // two tests of every offset per phase
            ..Default::default()
        };
        let n = cfg.offsets.len();
        assert_eq!((cfg.offsets.get(0), cfg.offsets.get(1)), (1, 2));
        let mut p = BestOffsetPrefetcher::new(cfg, PageSize::M4);

        // Fresh, far-apart mid-page addresses: probes of untouched lines
        // never hit the RR table.
        let mut fresh = 0x1000_8000u64;
        let mut next_fresh = || {
            fresh += 100_000;
            fresh
        };

        // Phase 0: two rounds of non-matching accesses turn prefetch off
        // (every score is 0 ≤ BADSCORE).
        for _ in 0..2 * n {
            access(&mut p, next_fresh());
        }
        assert_eq!(p.stats().phases, 1);
        assert!(!p.is_prefetching());

        // Phase 1 (prefetch off ⇒ fills seed the RR table with D = 0):
        // score offset 1 (list index 0) and offset 2 (index 1) twice
        // each. Index 0 reaches best first, so offset 1 wins and offset
        // 2 becomes the runner-up with score 2 > BADSCORE.
        for ti in 0..2 * n {
            match ti % n {
                0 => {
                    let s = next_fresh();
                    p.on_fill(LineAddr(s), false);
                    access(&mut p, s + 1); // probes (s+1) − 1 = s: hit
                }
                1 => {
                    let s = next_fresh();
                    p.on_fill(LineAddr(s), false);
                    access(&mut p, s + 2); // probes (s+2) − 2 = s: hit
                }
                _ => {
                    access(&mut p, next_fresh());
                }
            }
        }
        assert_eq!(p.stats().phases, 2);
        assert!(p.is_prefetching());
        assert_eq!(p.current_offset(), 1);
        assert_eq!(p.second_offset(), 2, "distinct runner-up adopted");

        // Both offsets are prefetched, and `issued` counts both.
        let issued_before = p.stats().issued;
        let z = next_fresh();
        p.on_fill(LineAddr(z), true); // seeds z − 1: scores offset 1 below
        let out = access(&mut p, z);
        assert_eq!(out, vec![LineAddr(z + 1), LineAddr(z + 2)]);
        assert_eq!(p.stats().issued, issued_before + 2);

        // Phase 2: only offset 1 keeps scoring (the z access above was
        // this phase's first test of index 0; one more at the round
        // boundary). Offset 2 falls to 0 ≤ BADSCORE, so the runner-up
        // collapses back onto the best offset.
        for ti in 1..2 * n {
            if ti % n == 0 {
                let s = next_fresh();
                p.on_fill(LineAddr(s + 1), true); // prefetch on: seeds s
                access(&mut p, s + 1);
            } else {
                access(&mut p, next_fresh());
            }
        }
        assert_eq!(p.stats().phases, 3);
        assert!(p.is_prefetching(), "best score 2 > BADSCORE keeps it on");
        assert_eq!(p.current_offset(), 1);
        assert_eq!(
            p.second_offset(),
            p.current_offset(),
            "runner-up ≤ BADSCORE must collapse to the best offset"
        );
        // Back to a single prefetch per access.
        let out = access(&mut p, next_fresh());
        assert_eq!(out.len(), 1);
    }

    #[test]
    #[should_panic]
    fn degree_3_is_rejected() {
        let cfg = BoConfig {
            degree: 3,
            ..Default::default()
        };
        let _ = BestOffsetPrefetcher::new(cfg, PageSize::M4);
    }

    #[test]
    fn try_new_reports_violations_instead_of_panicking() {
        let bad_degree = BoConfig {
            degree: 3,
            ..Default::default()
        };
        assert_eq!(
            BestOffsetPrefetcher::try_new(bad_degree, PageSize::M4).unwrap_err(),
            BoConfigError::UnsupportedDegree { degree: 3 }
        );
        let bad_rr = BoConfig {
            rr_entries: 100,
            ..Default::default()
        };
        assert_eq!(
            BestOffsetPrefetcher::try_new(bad_rr, PageSize::M4).unwrap_err(),
            BoConfigError::BadRrEntries { entries: 100 }
        );
        let zero_rounds = BoConfig {
            round_max: 0,
            ..Default::default()
        };
        assert_eq!(
            BoConfig::validate(&zero_rounds).unwrap_err(),
            BoConfigError::ZeroRoundMax
        );
        assert!(BoConfig::default().validate().is_ok());
    }

    #[test]
    fn empty_offset_list_is_a_config_error() {
        // `OffsetList::new` panics on an empty list; `try_new` surfaces
        // the same constraint as an error for sweep validation.
        assert_eq!(
            OffsetList::try_new(vec![]).unwrap_err(),
            "offset list cannot be empty"
        );
        assert_eq!(
            OffsetList::try_new(vec![1, 0]).unwrap_err(),
            "offset 0 is not a prefetch"
        );
        assert_eq!(
            OffsetList::try_new(vec![2, 2]).unwrap_err(),
            "duplicate offsets"
        );
    }

    #[test]
    fn reconfigure_switches_degree_at_runtime() {
        let mut p = bo();
        assert_eq!(p.degree(), 1);
        assert!(p.reconfigure(&TuneDirective::SetDegree(2)));
        assert_eq!(p.degree(), 2);
        assert!(!p.reconfigure(&TuneDirective::SetDegree(3)), "3 rejected");
        assert_eq!(p.degree(), 2);
        assert!(p.reconfigure(&TuneDirective::SetDegree(1)));
        assert_eq!(p.degree(), 1);
    }

    #[test]
    fn external_gate_stops_issue_but_learning_continues() {
        let mut p = bo();
        assert!(p.reconfigure(&TuneDirective::SetEnabled(false)));
        assert!(!p.is_prefetching());
        assert!(!p.is_enabled());
        // No prefetches while gated off...
        assert!(access(&mut p, 100).is_empty());
        // ...but fills seed the RR table with D = 0 (off-state learning):
        // a later access to Z+1 scores offset 1.
        p.on_fill(LineAddr(5_000), false);
        // The gated prefetcher still observes accesses (learning): drive
        // the test index back to offset 1 at the start of a round.
        let scores_before = p.scores()[0];
        while p.scores()[0] == scores_before {
            // Keep probing Z+1; each full round tests offset 1 once.
            access(&mut p, 5_001);
            if p.stats().phases > 2 {
                panic!("offset 1 never scored while gated off");
            }
        }
        // Re-enabling resumes issue immediately (BADSCORE state allowing).
        assert!(p.reconfigure(&TuneDirective::SetEnabled(true)));
        assert!(p.is_enabled());
    }

    /// The observability sink: off by default (no events, no buffer),
    /// and when on, every completed round reports its leader and every
    /// completed phase snapshots the score table before the reset.
    #[test]
    fn event_sink_reports_rounds_and_phases() {
        let cfg = BoConfig {
            round_max: 2,
            ..Default::default()
        };
        let n = cfg.offsets.len();
        let mut p = BestOffsetPrefetcher::new(cfg, PageSize::M4);
        // Sink off: a full phase produces nothing to drain.
        for i in 0..2 * n as u64 {
            access(&mut p, 1_000_000 + i * 1_000);
        }
        assert_eq!(p.stats().phases, 1);
        let mut out = Vec::new();
        p.drain_events(&mut out);
        assert!(out.is_empty(), "no events buffered while the sink is off");

        // Sink on: one phase = two RoundEnds + one PhaseEnd, in order.
        p.set_event_sink(true);
        let mut scored = 0u32;
        for i in 0..2 * n as u64 {
            if i % n as u64 == 0 {
                // Seed the RR table so offset 1 scores this round.
                let s = 5_000_000 + i * 1_000;
                p.on_fill(LineAddr(s), false);
                access(&mut p, s + 1);
                scored += 1;
            } else {
                access(&mut p, 2_000_000 + i * 1_000);
            }
        }
        assert_eq!(p.stats().phases, 2);
        p.drain_events(&mut out);
        assert_eq!(out.len(), 3, "{out:?}");
        assert_eq!(
            out[0],
            EventKind::RoundEnd {
                round: 1,
                leader_offset: 1,
                leader_score: 1
            }
        );
        assert!(matches!(out[1], EventKind::RoundEnd { round: 2, .. }));
        match &out[2] {
            EventKind::PhaseEnd {
                best_offset,
                best_score,
                prefetch_on,
                scores,
            } => {
                assert_eq!(*best_offset, 1);
                assert_eq!(*best_score, scored);
                assert!(*prefetch_on);
                assert_eq!(scores.len(), n);
                assert_eq!(scores[0], (1, scored), "snapshot taken before reset");
            }
            other => panic!("expected PhaseEnd, got {other:?}"),
        }
        // Draining empties the buffer; disabling the sink drops it.
        let mut again = Vec::new();
        p.drain_events(&mut again);
        assert!(again.is_empty());
        p.set_event_sink(false);
    }

    #[test]
    fn default_config_matches_table2() {
        let c = BoConfig::default();
        assert_eq!(c.rr_entries, 256);
        assert_eq!(crate::RR_TAG_BITS, 12);
        assert_eq!(c.score_max, 31);
        assert_eq!(c.round_max, 100);
        assert_eq!(c.bad_score, 1);
        assert_eq!(c.degree, 1, "the paper's BO is a degree-one prefetcher");
        assert_eq!(c.offsets.len(), 52);
    }
}

//! Host-side self-profiling: wall-clock attribution per simulator
//! phase.
//!
//! This module is the workspace's only library code outside the bench
//! harness allowed to read wall clocks (lint rule D002): callers hand
//! out opaque [`PhaseTimer`] tokens, and all `Instant` handling stays
//! here. Measurement is *sampled deterministically* — the hot phases
//! fully time one call in each block of `2^shift`, chosen from the call
//! counter, never by elapsed time — so enabling the profiler changes
//! which wall-clock reads happen but not a single simulated event.

use bosim_stats::Json;
use bosim_types::mix64;
use std::time::Instant;

/// A simulator phase the profiler attributes time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Benchmark/trace decode and system construction (one-shot).
    Decode,
    /// Per-cycle core ticks (pipeline, L1, TLBs).
    CoreTick,
    /// Per-cycle uncore ticks (L2s, L3, queues); includes [`Phase::Dram`].
    UncoreTick,
    /// The DRAM model's tick, nested inside the uncore tick.
    Dram,
    /// Fast-forward skip computation (`next_event` scanning).
    FastForward,
}

impl Phase {
    /// Every phase, in report order.
    pub const ALL: [Phase; 5] = [
        Phase::Decode,
        Phase::CoreTick,
        Phase::UncoreTick,
        Phase::Dram,
        Phase::FastForward,
    ];

    /// Stable report label.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Decode => "decode",
            Phase::CoreTick => "core-tick",
            Phase::UncoreTick => "uncore-tick",
            Phase::Dram => "dram",
            Phase::FastForward => "fast-forward",
        }
    }
}

/// Estimated cost of one phase.
///
/// `nanos` scales the sampled time up to the full call count;
/// `share` is its fraction of the run's total attributed time.
/// `dram` is nested inside `uncore-tick`, so shares can sum past 1.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseCost {
    /// Phase label (see [`Phase::label`]).
    pub phase: String,
    /// Estimated total nanoseconds spent in the phase.
    pub nanos: u64,
    /// Times the phase ran.
    pub calls: u64,
    /// Calls that were actually timed.
    pub samples: u64,
    /// Fraction of the total attributed wall time (top-level phases
    /// only; the nested `dram` phase reports its own fraction too).
    pub share: f64,
}

/// The aggregated host profile of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct HostProfile {
    /// Total attributed nanoseconds across the top-level phases
    /// (decode + core-tick + uncore-tick + fast-forward; `dram` is a
    /// subset of `uncore-tick` and excluded from the total).
    pub total_nanos: u64,
    /// Per-phase costs, in [`Phase::ALL`] order.
    pub phases: Vec<PhaseCost>,
}

impl HostProfile {
    /// JSON rendering for the profile artifact.
    pub fn to_json(&self) -> Json {
        let HostProfile {
            total_nanos,
            phases,
        } = self;
        Json::obj([
            ("total_nanos", Json::UInt(*total_nanos)),
            (
                "phases",
                Json::arr(phases.iter().map(|p| {
                    let PhaseCost {
                        phase,
                        nanos,
                        calls,
                        samples,
                        share,
                    } = p;
                    Json::obj([
                        ("phase", Json::from(phase.as_str())),
                        ("nanos", Json::UInt(*nanos)),
                        ("calls", Json::UInt(*calls)),
                        ("samples", Json::UInt(*samples)),
                        ("share", Json::Num(*share)),
                    ])
                })),
            ),
        ])
    }
}

/// An opaque in-flight phase measurement. Obtain one from
/// [`HostProfiler::start`] and return it to [`HostProfiler::stop`].
#[derive(Debug)]
#[must_use = "a started phase timer must be stopped to record its time"]
pub struct PhaseTimer {
    phase: Phase,
    started: Option<Instant>,
}

/// The sampling shift the simulator profiles with: the hot phases fully
/// time one call in 64 and scale up at report time.
pub const PROFILE_SAMPLE_SHIFT: u32 = 6;

/// Scoped wall-clock attribution with deterministic sampling.
///
/// Disabled, `start` is a branch returning an inert token and `stop`
/// a branch discarding it — no clock reads, no allocation.
#[derive(Debug, Clone)]
pub struct HostProfiler {
    enabled: bool,
    /// The sampling block size is `2^shift` calls.
    shift: u32,
    /// Per phase, the index of the next call to time: the first call,
    /// then one call per block at a position `mix64` draws from the
    /// block and phase. A fixed residue of the call index (such as every
    /// 64th call) would alias with cycle-periodic work: the DRAM tick
    /// only schedules on every fourth cycle, so its timed calls could
    /// all land on scheduling cycles, or none.
    next: [u64; 5],
    calls: [u64; 5],
    samples: [u64; 5],
    nanos: [u64; 5],
}

impl HostProfiler {
    /// A profiler that measures nothing.
    pub fn disabled() -> Self {
        HostProfiler {
            enabled: false,
            shift: 0,
            next: [0; 5],
            calls: [0; 5],
            samples: [0; 5],
            nanos: [0; 5],
        }
    }

    /// An active profiler timing one call in each block of
    /// `2^sample_shift` calls of each phase (shift 0 times every call).
    /// One-shot phases are always timed — their first call samples.
    pub fn new(sample_shift: u32) -> Self {
        HostProfiler {
            enabled: true,
            shift: sample_shift.min(63),
            ..Self::disabled()
        }
    }

    /// Begins a phase measurement. Cheap when disabled or when the
    /// call is not sampled.
    #[inline]
    pub fn start(&mut self, phase: Phase) -> PhaseTimer {
        if !self.enabled {
            return PhaseTimer {
                phase,
                started: None,
            };
        }
        let i = phase as usize;
        let call = self.calls[i];
        self.calls[i] = call + 1;
        #[expect(
            clippy::disallowed_methods,
            reason = "the profiler's product is host wall time, which never feeds simulated state"
        )]
        let started = if call == self.next[i] {
            let block = (call >> self.shift) + 1;
            let pos = mix64((block << 3) | i as u64) & ((1u64 << self.shift) - 1);
            self.next[i] = (block << self.shift) + pos;
            Some(Instant::now())
        } else {
            None
        };
        PhaseTimer { phase, started }
    }

    /// Ends a phase measurement, accumulating the sampled time.
    #[inline]
    pub fn stop(&mut self, timer: PhaseTimer) {
        if let Some(at) = timer.started {
            let i = timer.phase as usize;
            self.nanos[i] += at.elapsed().as_nanos() as u64;
            self.samples[i] += 1;
        }
    }

    /// Aggregates the measurements. Returns `None` when disabled.
    ///
    /// Sampled phases are scaled up: estimated time = measured time ×
    /// calls / samples. The total (and every `share`) counts only the
    /// top-level phases, since `dram` nests inside `uncore-tick`.
    pub fn report(&self) -> Option<HostProfile> {
        if !self.enabled {
            return None;
        }
        let estimate = |i: usize| -> u64 {
            if self.samples[i] == 0 {
                0
            } else {
                (self.nanos[i] as f64 * self.calls[i] as f64 / self.samples[i] as f64) as u64
            }
        };
        let total: u64 = Phase::ALL
            .iter()
            .filter(|p| **p != Phase::Dram)
            .map(|p| estimate(*p as usize))
            .sum();
        let phases = Phase::ALL
            .iter()
            .map(|p| {
                let i = *p as usize;
                let nanos = estimate(i);
                PhaseCost {
                    phase: p.label().to_string(),
                    nanos,
                    calls: self.calls[i],
                    samples: self.samples[i],
                    share: if total == 0 {
                        0.0
                    } else {
                        nanos as f64 / total as f64
                    },
                }
            })
            .collect();
        Some(HostProfile {
            total_nanos: total,
            phases,
        })
    }
}

/// A host profile slot that never participates in result equality.
///
/// `SimResult` derives `PartialEq` so golden-stats tests can pin the
/// naive and fast-forwarding loops bit-identical; wall-clock data
/// would trivially (and meaninglessly) break that. Wrapping the
/// profile in a type whose equality is always `true` keeps the
/// invariant intact while still shipping the profile in the result.
#[derive(Debug, Clone, Default)]
pub struct ProfileSlot(
    /// The profile, when profiling was enabled.
    pub Option<HostProfile>,
);

impl PartialEq for ProfileSlot {
    /// Always equal: wall-clock data carries no simulated state.
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_reports_nothing() {
        let mut p = HostProfiler::disabled();
        let t = p.start(Phase::CoreTick);
        p.stop(t);
        assert!(p.report().is_none());
    }

    #[test]
    fn sampling_counts_calls_but_times_a_subset() {
        let mut p = HostProfiler::new(2); // every 4th call timed
        for _ in 0..8 {
            let t = p.start(Phase::UncoreTick);
            p.stop(t);
        }
        let r = p.report().expect("enabled");
        let uncore = &r.phases[Phase::UncoreTick as usize];
        assert_eq!(uncore.phase, "uncore-tick");
        assert_eq!(uncore.calls, 8);
        assert_eq!(uncore.samples, 2);
    }

    /// The timed calls fall on every residue of the call index mod 4
    /// and mod 8, so a phase whose cost follows a short cycle period
    /// (the DRAM tick's four-cycle bus boundary) is sampled across it.
    /// The first call is timed, and each full block of 64 exactly once.
    #[test]
    fn sampled_calls_cover_every_short_residue() {
        let mut p = HostProfiler::new(PROFILE_SAMPLE_SHIFT);
        let mut timed = Vec::new();
        for call in 0..64 * 256u64 {
            let t = p.start(Phase::Dram);
            if t.started.is_some() {
                timed.push(call);
            }
            p.stop(t);
        }
        assert_eq!(timed[0], 0, "the first call is timed");
        assert_eq!(timed.len(), 256, "one timed call per block");
        for (block, call) in timed.iter().enumerate() {
            assert_eq!(call >> PROFILE_SAMPLE_SHIFT, block as u64);
        }
        for m in [4, 8] {
            for r in 0..m {
                assert!(
                    timed.iter().any(|c| c % m == r),
                    "no timed call at residue {r} mod {m}"
                );
            }
        }
    }

    #[test]
    fn shift_zero_times_every_call_and_totals_exclude_dram() {
        let mut p = HostProfiler::new(0);
        for _ in 0..3 {
            let t = p.start(Phase::CoreTick);
            p.stop(t);
        }
        let t = p.start(Phase::Dram);
        p.stop(t);
        let r = p.report().expect("enabled");
        assert_eq!(r.phases[Phase::CoreTick as usize].samples, 3);
        assert_eq!(r.phases[Phase::Dram as usize].samples, 1);
        let top: u64 = Phase::ALL
            .iter()
            .filter(|ph| **ph != Phase::Dram)
            .map(|ph| r.phases[*ph as usize].nanos)
            .sum();
        assert_eq!(r.total_nanos, top);
    }

    #[test]
    fn profile_json_carries_every_field() {
        let mut p = HostProfiler::new(0);
        let t = p.start(Phase::Decode);
        p.stop(t);
        let json = p.report().expect("enabled").to_json().to_string();
        for key in [
            "total_nanos",
            "phases",
            "phase",
            "nanos",
            "calls",
            "samples",
            "share",
        ] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
    }

    #[test]
    fn profile_slots_never_compare_unequal() {
        let some = ProfileSlot(Some(HostProfile {
            total_nanos: 1,
            phases: vec![],
        }));
        let none = ProfileSlot(None);
        assert_eq!(some, none);
        assert_eq!(none, ProfileSlot::default());
    }
}

//! Trace sampling: warm-up skip and periodic measurement windows.
//!
//! Replaying a full captured trace is rarely what an experiment wants:
//! the interesting behaviour sits past an initialisation phase, and a
//! long trace is well approximated by periodic samples (the SimPoint
//! family of methodologies; the paper itself stitches 20 × 50M-instr
//! samples per benchmark, §5). [`SampleSpec`] describes such a plan and
//! [`SampledSource`] applies it to *any* [`TraceSource`]:
//!
//! ```
//! use bosim_trace::{MicroOp, ReplaySource, SampleSpec, SampledSource, TraceSource};
//!
//! let uops: Vec<MicroOp> = (0..100).map(|i| MicroOp::nop(i * 4)).collect();
//! let inner = ReplaySource::new("t", uops);
//! // Skip 10 µops once, then keep 5 out of every 20.
//! let spec = SampleSpec { skip: 10, window: 5, interval: 20 };
//! let mut sampled = SampledSource::new(inner, spec);
//! assert_eq!(sampled.next_uop().pc, 10 * 4); // first kept µop
//! ```

use crate::record::MicroOp;
use crate::source::TraceSource;
use std::fmt;

/// A sampling plan over a µop stream.
///
/// Semantics, in stream order:
///
/// 1. discard the first `skip` µops (one-time warm-up skip);
/// 2. if `interval > 0`, repeat forever: deliver `window` µops, then
///    discard `interval - window` µops (periodic interval sampling);
///    with `interval == 0` every µop after the skip is delivered.
///
/// Sources are infinite (finite traces loop), so sampling never runs
/// dry — it only thins the stream. The default (`skip = 0`,
/// `interval = 0`) passes the stream through untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SampleSpec {
    /// µops discarded once, before anything is delivered.
    pub skip: u64,
    /// µops delivered per sample (only meaningful when `interval > 0`).
    pub window: u64,
    /// Distance between sample starts, in µops of the underlying
    /// stream. `0` disables periodic sampling.
    pub interval: u64,
}

impl SampleSpec {
    /// A plan that only skips a warm-up prefix.
    pub fn skip(skip: u64) -> Self {
        SampleSpec {
            skip,
            window: 0,
            interval: 0,
        }
    }

    /// A plan keeping `window` µops out of every `interval`, after an
    /// initial `skip`.
    pub fn periodic(skip: u64, window: u64, interval: u64) -> Self {
        SampleSpec {
            skip,
            window,
            interval,
        }
    }

    /// True when the plan delivers the stream unchanged.
    pub fn is_passthrough(&self) -> bool {
        self.skip == 0 && self.interval == 0
    }

    /// Validates the plan.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint: a periodic plan
    /// (`interval > 0`) needs `1 <= window <= interval`, and a window
    /// without an interval is meaningless.
    pub fn validate(&self) -> Result<(), String> {
        if self.interval == 0 {
            if self.window != 0 {
                return Err(format!(
                    "window {} without an interval: set interval > 0 for periodic \
                     sampling, or window = 0 for skip-only",
                    self.window
                ));
            }
            return Ok(());
        }
        if self.window == 0 {
            return Err(format!(
                "interval {} with window 0 would deliver no µops",
                self.interval
            ));
        }
        if self.window > self.interval {
            return Err(format!(
                "window {} exceeds interval {}",
                self.window, self.interval
            ));
        }
        Ok(())
    }
}

impl fmt::Display for SampleSpec {
    /// Compact plan label: `skip10k`, `skip10k+5k/20k`, `passthrough`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn compact(n: u64) -> String {
            if n >= 1_000_000 && n.is_multiple_of(1_000_000) {
                format!("{}M", n / 1_000_000)
            } else if n >= 1_000 && n.is_multiple_of(1_000) {
                format!("{}k", n / 1_000)
            } else {
                n.to_string()
            }
        }
        if self.is_passthrough() {
            return write!(f, "passthrough");
        }
        if self.skip > 0 {
            write!(f, "skip{}", compact(self.skip))?;
            if self.interval > 0 {
                write!(f, "+")?;
            }
        }
        if self.interval > 0 {
            write!(f, "{}/{}", compact(self.window), compact(self.interval))?;
        }
        Ok(())
    }
}

/// Applies a [`SampleSpec`] to an inner [`TraceSource`].
///
/// The wrapper is itself a `TraceSource`, so it composes with replayed
/// files, external traces and the synthetic generators alike.
#[derive(Debug)]
pub struct SampledSource<S> {
    inner: S,
    spec: SampleSpec,
    /// µops still to deliver in the current window (`u64::MAX` once the
    /// plan has degenerated to pass-through).
    left_in_window: u64,
    skipped: bool,
}

impl<S: TraceSource> SampledSource<S> {
    /// Wraps `inner` with the sampling plan `spec`.
    ///
    /// # Panics
    ///
    /// Panics if `spec` fails [`SampleSpec::validate`] — configuration
    /// layers (`SimConfig`, the CLI) validate earlier and report typed
    /// errors; reaching here with a bad plan is a programming error.
    pub fn new(inner: S, spec: SampleSpec) -> Self {
        #[expect(
            clippy::panic,
            reason = "documented Panics contract; SampleSpec::validate is checked by config layers"
        )]
        if let Err(e) = spec.validate() {
            panic!("invalid SampleSpec: {e}");
        }
        SampledSource {
            inner,
            spec,
            left_in_window: if spec.interval == 0 {
                u64::MAX
            } else {
                spec.window
            },
            skipped: false,
        }
    }

    /// The sampling plan.
    pub fn spec(&self) -> SampleSpec {
        self.spec
    }
}

impl<S: TraceSource> TraceSource for SampledSource<S> {
    fn next_uop(&mut self) -> MicroOp {
        if !self.skipped {
            for _ in 0..self.spec.skip {
                self.inner.next_uop();
            }
            self.skipped = true;
        }
        if self.left_in_window == 0 {
            for _ in 0..(self.spec.interval - self.spec.window) {
                self.inner.next_uop();
            }
            self.left_in_window = self.spec.window;
        }
        if self.left_in_window != u64::MAX {
            self.left_in_window -= 1;
        }
        self.inner.next_uop()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{capture, ReplaySource};

    fn counting_source(n: u64) -> ReplaySource {
        ReplaySource::new("count", (0..n).map(MicroOp::nop).collect())
    }

    #[test]
    fn passthrough_is_identity() {
        let mut plain = counting_source(16);
        let mut sampled = SampledSource::new(counting_source(16), SampleSpec::default());
        assert_eq!(capture(&mut sampled, 40), capture(&mut plain, 40));
    }

    #[test]
    fn skip_discards_a_prefix_once() {
        let mut s = SampledSource::new(counting_source(10), SampleSpec::skip(3));
        let pcs: Vec<u64> = (0..9).map(|_| s.next_uop().pc).collect();
        // 3..9, then the loop wraps to 0 with no second skip.
        assert_eq!(pcs, vec![3, 4, 5, 6, 7, 8, 9, 0, 1]);
    }

    #[test]
    fn periodic_windows_thin_the_stream() {
        // Keep 2 of every 5: 0,1, 5,6, 10,11, ...
        let mut s = SampledSource::new(counting_source(100), SampleSpec::periodic(0, 2, 5));
        let pcs: Vec<u64> = (0..6).map(|_| s.next_uop().pc).collect();
        assert_eq!(pcs, vec![0, 1, 5, 6, 10, 11]);
    }

    #[test]
    fn skip_composes_with_periodic_windows() {
        let mut s = SampledSource::new(counting_source(100), SampleSpec::periodic(10, 1, 4));
        let pcs: Vec<u64> = (0..3).map(|_| s.next_uop().pc).collect();
        assert_eq!(pcs, vec![10, 14, 18]);
    }

    #[test]
    fn window_equal_to_interval_keeps_everything_after_skip() {
        let mut s = SampledSource::new(counting_source(8), SampleSpec::periodic(1, 3, 3));
        let pcs: Vec<u64> = (0..5).map(|_| s.next_uop().pc).collect();
        assert_eq!(pcs, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn validation_rejects_malformed_plans() {
        assert!(SampleSpec::default().validate().is_ok());
        assert!(SampleSpec::skip(5).validate().is_ok());
        assert!(SampleSpec::periodic(0, 10, 10).validate().is_ok());
        // window without interval
        assert!(SampleSpec {
            skip: 0,
            window: 5,
            interval: 0
        }
        .validate()
        .is_err());
        // zero-width window
        assert!(SampleSpec::periodic(0, 0, 10).validate().is_err());
        // window wider than the interval
        assert!(SampleSpec::periodic(0, 11, 10).validate().is_err());
    }

    #[test]
    #[should_panic(expected = "invalid SampleSpec")]
    fn wrapper_panics_on_invalid_spec() {
        let _ = SampledSource::new(counting_source(4), SampleSpec::periodic(0, 2, 1));
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(SampleSpec::default().to_string(), "passthrough");
        assert_eq!(SampleSpec::skip(10_000).to_string(), "skip10k");
        assert_eq!(
            SampleSpec::periodic(1_000_000, 500, 2_000).to_string(),
            "skip1M+500/2k"
        );
        assert_eq!(SampleSpec::periodic(0, 5_000, 20_000).to_string(), "5k/20k");
    }

    #[test]
    fn name_passes_through() {
        let s = SampledSource::new(counting_source(4), SampleSpec::skip(1));
        assert_eq!(s.name(), "count");
    }
}

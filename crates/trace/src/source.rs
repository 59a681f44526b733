//! Trace sources: anything that can feed the core model with µops.

use crate::record::MicroOp;

/// A source of micro-ops for one simulated core.
///
/// Sources are *infinite*: the simulator decides how many instructions to
/// run. Finite recorded traces are replayed in a loop by
/// [`ReplaySource`], mirroring the paper's sample-stitching methodology
/// (§5: 20 samples of 50M instructions stitched together and, for our
/// shorter runs, cycled).
///
/// Anything producing µops can drive a core — synthetic generators,
/// replayed files, externally ingested ChampSim or address traces, or a
/// custom implementation:
///
/// ```
/// use bosim_trace::{MicroOp, TraceSource};
///
/// /// An endless stream of no-ops at one PC.
/// #[derive(Debug)]
/// struct Idle;
/// impl TraceSource for Idle {
///     fn next_uop(&mut self) -> MicroOp { MicroOp::nop(0x400000) }
///     fn name(&self) -> &str { "idle" }
/// }
///
/// let mut src: Box<dyn TraceSource> = Box::new(Idle);
/// assert_eq!(src.next_uop().pc, 0x400000);
/// ```
pub trait TraceSource: std::fmt::Debug {
    /// Produces the next µop on the traced path.
    fn next_uop(&mut self) -> MicroOp;

    /// Human-readable benchmark name (e.g. `"433.milc-like"`).
    fn name(&self) -> &str;

    /// Appends the next `n` µops to `out` in one call — the batched
    /// path behind the core's decode ring, amortizing the per-µop
    /// virtual dispatch of [`next_uop`](Self::next_uop). Must be
    /// equivalent to `n` consecutive `next_uop` calls; the default
    /// implementation is exactly that, and sources with cheap bulk
    /// access (e.g. [`ReplaySource`]) override it with block copies.
    fn next_block(&mut self, out: &mut Vec<MicroOp>, n: usize) {
        out.reserve(n);
        for _ in 0..n {
            out.push(self.next_uop());
        }
    }
}

/// Boxed sources are sources, so dynamically-chosen streams (file
/// replay vs synthetic) compose with wrappers like
/// [`SampledSource`](crate::SampledSource).
impl<T: TraceSource + ?Sized> TraceSource for Box<T> {
    fn next_uop(&mut self) -> MicroOp {
        (**self).next_uop()
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn next_block(&mut self, out: &mut Vec<MicroOp>, n: usize) {
        (**self).next_block(out, n)
    }
}

/// Replays a recorded µop vector in an endless loop.
///
/// The vector is held behind an [`Arc`](std::sync::Arc), so cloning a
/// replayer — and handing the same decoded trace to every cell of an
/// experiment grid — shares one allocation.
#[derive(Debug, Clone)]
pub struct ReplaySource {
    name: String,
    uops: std::sync::Arc<Vec<MicroOp>>,
    pos: usize,
}

impl ReplaySource {
    /// Creates a looping replayer over `uops`.
    ///
    /// # Panics
    ///
    /// Panics if `uops` is empty.
    pub fn new(name: impl Into<String>, uops: Vec<MicroOp>) -> Self {
        ReplaySource::from_shared(name, std::sync::Arc::new(uops))
    }

    /// Creates a looping replayer over an already-shared µop vector
    /// (no copy — used by the external-trace decode cache).
    ///
    /// # Panics
    ///
    /// Panics if `uops` is empty.
    pub fn from_shared(name: impl Into<String>, uops: std::sync::Arc<Vec<MicroOp>>) -> Self {
        assert!(!uops.is_empty(), "cannot replay an empty trace");
        ReplaySource {
            name: name.into(),
            uops,
            pos: 0,
        }
    }

    /// Length of one replay lap.
    pub fn lap_len(&self) -> usize {
        self.uops.len()
    }
}

impl TraceSource for ReplaySource {
    fn next_uop(&mut self) -> MicroOp {
        let u = self.uops[self.pos];
        self.pos += 1;
        if self.pos == self.uops.len() {
            self.pos = 0;
        }
        u
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn next_block(&mut self, out: &mut Vec<MicroOp>, n: usize) {
        let mut left = n;
        while left > 0 {
            let take = left.min(self.uops.len() - self.pos);
            out.extend_from_slice(&self.uops[self.pos..self.pos + take]);
            self.pos += take;
            if self.pos == self.uops.len() {
                self.pos = 0;
            }
            left -= take;
        }
    }
}

/// Adapter capturing the first `n` µops of a source into a vector
/// (useful for writing trace files and for tests).
pub fn capture(src: &mut dyn TraceSource, n: usize) -> Vec<MicroOp> {
    (0..n).map(|_| src.next_uop()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::MicroOp;

    #[test]
    fn next_block_matches_per_uop_replay() {
        let uops = vec![MicroOp::nop(0), MicroOp::nop(4), MicroOp::nop(8)];
        let mut a = ReplaySource::new("t", uops.clone());
        let mut b = ReplaySource::new("t", uops);
        // A block straddling two loop wrap-arounds must equal the same
        // number of single-µop pulls.
        let mut block = Vec::new();
        a.next_block(&mut block, 8);
        let singles: Vec<MicroOp> = (0..8).map(|_| b.next_uop()).collect();
        assert_eq!(block, singles);
        // And the cursor positions agree afterwards.
        assert_eq!(a.next_uop(), b.next_uop());
    }

    #[test]
    fn replay_loops() {
        let uops = vec![MicroOp::nop(0), MicroOp::nop(4), MicroOp::nop(8)];
        let mut r = ReplaySource::new("t", uops);
        let pcs: Vec<u64> = (0..7).map(|_| r.next_uop().pc).collect();
        assert_eq!(pcs, vec![0, 4, 8, 0, 4, 8, 0]);
    }

    #[test]
    fn capture_takes_n() {
        let uops = vec![MicroOp::nop(0), MicroOp::nop(4)];
        let mut r = ReplaySource::new("t", uops);
        assert_eq!(capture(&mut r, 5).len(), 5);
    }

    #[test]
    #[should_panic]
    fn empty_replay_panics() {
        ReplaySource::new("t", vec![]);
    }
}

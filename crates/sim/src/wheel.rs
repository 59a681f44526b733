//! The calendar event wheel driving the discrete-event system loop.
//!
//! Each *source* (the uncore is one source, every core is another)
//! **posts** the next cycle at which it may have work whenever its own
//! state changes (a core's `next_work_cycle`, the uncore's
//! `next_ready_after`); [`System`](crate::System) pops the wheel instead
//! of polling every source on every quiet cycle. A post is a *promise
//! of idleness before it*, never a promise of work at it: the wheel may
//! wake a source on a cycle where nothing happens (harmless — the tick
//! is a no-op), but a source must never have work strictly before its
//! posted cycle. That one-sided contract is what keeps the fast loop
//! bit-identical to the every-cycle loop (the golden-stats suite pins
//! it).
//!
//! Layout: a near window of [`HORIZON`] single-cycle buckets starting at
//! `base`, plus a *far* set for posts at or beyond `base + HORIZON`. A
//! 64-bit occupancy bitmap (one bit per bucket) makes "first non-empty
//! bucket at or after cycle `c`" a rotate-and-count-trailing-zeros.
//! When a query moves past the window, the wheel *rolls over*: `base`
//! jumps to the queried cycle and the buckets are rebuilt from the
//! authoritative per-source array, migrating far posts in.

use bosim_types::Cycle;

/// Buckets in the near window — one per cycle, so a post within
/// `[base, base + HORIZON)` maps to exactly one bucket and the
/// occupancy bitmap fits in a `u64`.
pub const HORIZON: usize = 64;

/// A bucketed calendar of per-source wake-up cycles (see the module
/// docs for the posting contract).
#[derive(Debug)]
pub struct EventWheel {
    /// Authoritative next-posted cycle per source (`Cycle::MAX` = none).
    next: Vec<Cycle>,
    /// Near-window buckets, indexed by `cycle % HORIZON`.
    buckets: Vec<Vec<u16>>,
    /// Bit `cycle % HORIZON` set iff that bucket is non-empty.
    occ: u64,
    /// Sources posted at or beyond `base + HORIZON`.
    far: usize,
    /// Start of the near window.
    base: Cycle,
}

impl EventWheel {
    /// A wheel for `sources` sources, all initially unposted.
    ///
    /// # Panics
    ///
    /// Panics if `sources` does not fit the `u16` id encoding.
    pub fn new(sources: usize) -> Self {
        assert!(sources <= u16::MAX as usize + 1, "too many wheel sources");
        EventWheel {
            next: vec![Cycle::MAX; sources],
            buckets: vec![Vec::new(); HORIZON],
            occ: 0,
            far: 0,
            base: 0,
        }
    }

    /// Number of sources this wheel tracks.
    pub fn sources(&self) -> usize {
        self.next.len()
    }

    #[inline]
    fn slot(at: Cycle) -> usize {
        (at % HORIZON as u64) as usize
    }

    #[inline]
    fn in_window(&self, at: Cycle) -> bool {
        at >= self.base && at - self.base < HORIZON as u64
    }

    /// Removes `id`'s current post from the bucket / far bookkeeping
    /// (the `next` entry itself is left to the caller).
    fn unlink(&mut self, id: u16) {
        let old = self.next[id as usize];
        if old == Cycle::MAX {
            return;
        }
        if self.in_window(old) {
            let b = Self::slot(old);
            self.buckets[b].retain(|&x| x != id);
            if self.buckets[b].is_empty() {
                self.occ &= !(1u64 << b);
            }
        } else {
            self.far -= 1;
        }
    }

    /// Posts source `id`'s next-ready cycle, replacing any existing
    /// post (a source has one wake-up at a time; re-evaluating its
    /// state supersedes the old promise). `Cycle::MAX` clears the post.
    /// Posts before the window base are clamped to it — the wheel never
    /// re-opens the past, and a clamped post is simply "due now".
    pub fn post(&mut self, id: u16, at: Cycle) {
        self.unlink(id);
        let at = if at == Cycle::MAX {
            at
        } else {
            at.max(self.base)
        };
        self.next[id as usize] = at;
        if at == Cycle::MAX {
            return;
        }
        if self.in_window(at) {
            let b = Self::slot(at);
            self.buckets[b].push(id);
            self.occ |= 1 << b;
        } else {
            self.far += 1;
        }
    }

    /// The cycle `id` is currently posted for (`Cycle::MAX` = none).
    pub fn posted(&self, id: u16) -> Cycle {
        self.next[id as usize]
    }

    /// True when `id` is posted at or before `now`.
    #[inline]
    pub fn due(&self, id: u16, now: Cycle) -> bool {
        self.next[id as usize] <= now
    }

    /// Rolls the window over so it starts at `to`, rebuilding buckets
    /// and far count from the authoritative array. Posts that ended up
    /// behind `to` (possible only when a caller jumped past them) are
    /// clamped to `to` — due immediately, never lost.
    fn rebase(&mut self, to: Cycle) {
        self.base = to;
        self.occ = 0;
        for b in &mut self.buckets {
            b.clear();
        }
        self.far = 0;
        for i in 0..self.next.len() {
            let t = self.next[i];
            if t == Cycle::MAX {
                continue;
            }
            let t = t.max(to);
            self.next[i] = t;
            if t - to < HORIZON as u64 {
                let b = Self::slot(t);
                self.buckets[b].push(i as u16);
                self.occ |= 1 << b;
            } else {
                self.far += 1;
            }
        }
    }

    /// Pops every source posted at or before `now` into `out`, earliest
    /// cycle first and same-cycle ties in ascending source-id order (the
    /// fixed rendezvous order the deterministic loop relies on). Popped
    /// sources are cleared; the caller re-posts them after servicing.
    ///
    /// The window start advances to `now` on every pop (a drained cycle
    /// can never be re-posted — posts clamp to the base), keeping the
    /// walk O(cycles since the last pop) rather than O(window) and
    /// migrating far posts in as the window slides over them.
    pub fn pop_due(&mut self, now: Cycle, out: &mut Vec<u16>) {
        out.clear();
        if now < self.base {
            return; // posts clamp to the base: nothing can be due yet
        }
        if now - self.base >= HORIZON as u64 {
            self.rebase(now);
        }
        let old_base = self.base;
        let mut c = self.base;
        while c <= now && self.occ != 0 {
            let b = Self::slot(c);
            if self.occ & (1 << b) != 0 {
                let start = out.len();
                out.append(&mut self.buckets[b]);
                out[start..].sort_unstable();
                self.occ &= !(1u64 << b);
            }
            c += 1;
        }
        for &id in out.iter() {
            self.next[id as usize] = Cycle::MAX;
        }
        self.base = now;
        if self.far > 0 && now > old_base {
            // The slide uncovered [old_base + HORIZON, now + HORIZON):
            // bucket the far posts that now fall inside the window, so
            // the in-window ⇔ bucketed invariant holds.
            let lo = old_base + HORIZON as u64;
            let hi = now + HORIZON as u64;
            for i in 0..self.next.len() {
                let t = self.next[i];
                if t != Cycle::MAX && t >= lo && t < hi {
                    let b = Self::slot(t);
                    self.buckets[b].push(i as u16);
                    self.occ |= 1 << b;
                    self.far -= 1;
                }
            }
        }
    }

    /// The earliest posted cycle at or after `from`, or [`Cycle::MAX`]
    /// when nothing is posted. A post somehow stranded before `from`
    /// answers `from` (due immediately) — a wake-up is never lost.
    pub fn next_after(&mut self, from: Cycle) -> Cycle {
        if from >= self.base && from - self.base >= HORIZON as u64 {
            self.rebase(from);
        }
        if from < self.base {
            // Queries behind the window mean a stranded post could hide
            // anywhere; answer conservatively.
            if self.occ != 0 || self.far > 0 {
                return from;
            }
            return Cycle::MAX;
        }
        if self.occ != 0 {
            let r = self.occ.rotate_right(Self::slot(from) as u32);
            let k = r.trailing_zeros() as u64;
            let candidate = from + k;
            if candidate - self.base < HORIZON as u64 {
                return candidate;
            }
            // The first set bit wraps to cycles before `from`: a
            // stranded post — due immediately.
            return from;
        }
        if self.far > 0 {
            let t = self.next.iter().copied().min().unwrap_or(Cycle::MAX);
            return t.max(from);
        }
        Cycle::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn post_then_pop_in_cycle_order() {
        let mut w = EventWheel::new(4);
        w.post(2, 10);
        w.post(0, 5);
        w.post(1, 20);
        assert_eq!(w.next_after(0), 5);
        let mut due = Vec::new();
        w.pop_due(4, &mut due);
        assert!(due.is_empty());
        w.pop_due(10, &mut due);
        assert_eq!(due, vec![0, 2]); // cycle 5 before cycle 10
        assert_eq!(w.posted(0), Cycle::MAX);
        assert_eq!(w.next_after(11), 20);
        w.pop_due(20, &mut due);
        assert_eq!(due, vec![1]);
        assert_eq!(w.next_after(21), Cycle::MAX);
    }

    #[test]
    fn same_cycle_ties_resolve_in_id_order() {
        let mut w = EventWheel::new(8);
        // Posted in scrambled order; popped in ascending id order.
        for id in [5u16, 1, 7, 3] {
            w.post(id, 42);
        }
        let mut due = Vec::new();
        w.pop_due(42, &mut due);
        assert_eq!(due, vec![1, 3, 5, 7]);
    }

    #[test]
    fn reposting_overwrites_the_previous_post() {
        let mut w = EventWheel::new(2);
        w.post(0, 8);
        w.post(0, 30); // supersedes: the source re-evaluated its state
        assert_eq!(w.next_after(0), 30);
        w.post(0, 3); // moving earlier also works
        assert_eq!(w.next_after(0), 3);
        w.post(0, Cycle::MAX); // clears
        assert_eq!(w.next_after(0), Cycle::MAX);
    }

    #[test]
    fn rollover_past_the_bucket_horizon() {
        let mut w = EventWheel::new(3);
        let far = HORIZON as u64 * 3 + 17;
        w.post(0, far); // beyond the window: lands in the far set
        w.post(1, 2);
        assert_eq!(w.next_after(0), 2);
        let mut due = Vec::new();
        w.pop_due(2, &mut due);
        assert_eq!(due, vec![1]);
        // Only the far post remains; the query must find it and the
        // wheel must roll the window over to reach it.
        assert_eq!(w.next_after(3), far);
        w.pop_due(far, &mut due);
        assert_eq!(due, vec![0]);
        assert_eq!(w.next_after(far + 1), Cycle::MAX);
    }

    #[test]
    fn repeated_rollovers_keep_every_post() {
        let mut w = EventWheel::new(4);
        let mut expected = Vec::new();
        for (i, gap) in [3u64, 150, 700, 4096].iter().enumerate() {
            w.post(i as u16, *gap);
            expected.push((*gap, i as u16));
        }
        expected.sort_unstable();
        let mut due = Vec::new();
        let mut seen = Vec::new();
        let mut from = 0;
        loop {
            let t = w.next_after(from);
            if t == Cycle::MAX {
                break;
            }
            w.pop_due(t, &mut due);
            for &id in &due {
                seen.push((t, id));
            }
            from = t + 1;
        }
        assert_eq!(seen, expected);
    }

    #[test]
    fn posts_behind_the_window_clamp_to_due_now() {
        let mut w = EventWheel::new(2);
        w.post(0, 1000);
        // Jump far ahead: the window rolls over to 5000.
        assert_eq!(w.next_after(5000), 5000);
        let mut due = Vec::new();
        w.pop_due(5000, &mut due);
        assert_eq!(due, vec![0]);
        // A post below the rolled-over base clamps to the base.
        w.post(1, 3);
        assert!(w.due(1, 5000));
        w.pop_due(5000, &mut due);
        assert_eq!(due, vec![1]);
    }

    #[test]
    fn due_is_a_cheap_point_query() {
        let mut w = EventWheel::new(2);
        w.post(0, 7);
        assert!(!w.due(0, 6));
        assert!(w.due(0, 7));
        assert!(w.due(0, 8));
        assert!(!w.due(1, u64::MAX - 1));
    }
}

//! The event wheel driving the discrete-event system loop.
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
//! Layout: a flat table of each source's posted cycle. A system has one
//! source per core plus the uncore — five on the paper's four-core
//! machine — so a post is a store and a query scans the table; a
//! calendar of buckets costs more than it saves at that size.

use bosim_types::Cycle;

/// Per-source wake-up cycles (see the module docs for the posting
/// contract).
#[derive(Debug)]
pub struct EventWheel {
    /// Next-posted cycle per source (`Cycle::MAX` = none).
    next: Vec<Cycle>,
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
        }
    }

    /// Number of sources this wheel tracks.
    pub fn sources(&self) -> usize {
        self.next.len()
    }

    /// Posts source `id`'s next-ready cycle, replacing any existing
    /// post (a source has one wake-up at a time; re-evaluating its
    /// state supersedes the old promise). `Cycle::MAX` clears the post.
    #[inline]
    pub fn post(&mut self, id: u16, at: Cycle) {
        self.next[id as usize] = at;
    }

    /// The cycle `id` is currently posted for (`Cycle::MAX` = none).
    #[inline]
    pub fn posted(&self, id: u16) -> Cycle {
        self.next[id as usize]
    }

    /// True when `id` is posted at or before `now`.
    #[inline]
    pub fn due(&self, id: u16, now: Cycle) -> bool {
        self.next[id as usize] <= now
    }

    /// Pops every source posted at or before `now` into `out`, in
    /// ascending source-id order (the fixed rendezvous order the
    /// deterministic loop relies on). Popped sources are cleared; the
    /// caller re-posts them after servicing.
    pub fn pop_due(&mut self, now: Cycle, out: &mut Vec<u16>) {
        out.clear();
        for (id, at) in self.next.iter_mut().enumerate() {
            if *at <= now {
                out.push(id as u16);
                *at = Cycle::MAX;
            }
        }
    }

    /// The earliest posted cycle at or after `from`, or [`Cycle::MAX`]
    /// when nothing is posted. A post stranded before `from` answers
    /// `from` (due immediately) — a wake-up is never lost.
    pub fn next_after(&self, from: Cycle) -> Cycle {
        // An unposted source holds `Cycle::MAX`, which `max` keeps.
        self.next
            .iter()
            .copied()
            .min()
            .unwrap_or(Cycle::MAX)
            .max(from)
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
        assert_eq!(due, vec![0, 2]); // cycles 5 and 10 are both due
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
    fn a_distant_post_is_found_and_popped() {
        let mut w = EventWheel::new(3);
        let far = 209;
        w.post(0, far);
        w.post(1, 2);
        assert_eq!(w.next_after(0), 2);
        let mut due = Vec::new();
        w.pop_due(2, &mut due);
        assert_eq!(due, vec![1]);
        // Only the distant post remains; the query must find it.
        assert_eq!(w.next_after(3), far);
        w.pop_due(far, &mut due);
        assert_eq!(due, vec![0]);
        assert_eq!(w.next_after(far + 1), Cycle::MAX);
    }

    #[test]
    fn widely_spaced_posts_all_pop_in_cycle_order() {
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
    fn stranded_posts_are_due_now() {
        let mut w = EventWheel::new(2);
        w.post(0, 1000);
        // Query far ahead of the post: it answers the query cycle.
        assert_eq!(w.next_after(5000), 5000);
        let mut due = Vec::new();
        w.pop_due(5000, &mut due);
        assert_eq!(due, vec![0]);
        // A post behind the current cycle is due at once.
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

//! Fill queues with associative search (§5.4).
//!
//! The baseline has no L2/L3 MSHRs: "Instead, we add associative search
//! capability to the fill queues. A fill queue is a FIFO holding the
//! blocks that are to be inserted in the cache. An entry is allocated in
//! the fill queue when a miss request is issued to the next cache level
//! ... a request is not issued until there is a free entry."
//!
//! Late prefetches: "When a demand miss hits in a fill queue and the block
//! in the fill queue was prefetched, the miss request is dropped and the
//! block in the fill queue is promoted from prefetch to demand miss."
//!
//! The queue is a `Vec` of entries in allocation order. At the paper's
//! sizes (16 entries at each L2, 32 at the L3) the CAM search is a
//! linear scan over the entries' lines, a removal shifts the younger
//! entries down, and a ready counter lets the per-cycle drain bail out
//! in O(1) when no entry is ready. A line can appear at most once per
//! queue — all call sites merge into the existing entry before
//! reserving, matching the hardware, and `try_reserve` debug-asserts it.

use bosim_types::{LineAddr, ReqClass};

/// One fill queue entry. `T` is simulator-defined payload (requester
/// bookkeeping: which levels need the block, which loads wait on it).
#[derive(Debug, Clone)]
pub struct FillEntry<T> {
    /// The block's line address.
    pub line: LineAddr,
    /// Data has arrived and the entry is ready for cache insertion.
    /// Private so the queue's ready count stays exact; flip it with
    /// [`FillQueue::set_ready`] and read it with [`is_ready`](Self::is_ready).
    ready: bool,
    /// Demand/prefetch class; promotion flips prefetch → demand.
    pub class: ReqClass,
    /// Caller payload.
    pub payload: T,
}

impl<T> FillEntry<T> {
    /// Has the entry's data arrived?
    pub fn is_ready(&self) -> bool {
        self.ready
    }
}

/// A bounded FIFO of pending fills with CAM (associative) search.
#[derive(Debug)]
pub struct FillQueue<T> {
    cap: usize,
    /// Pending entries in allocation order (oldest first).
    entries: Vec<FillEntry<T>>,
    /// Number of ready entries (drain fast path).
    ready: usize,
}

impl<T> FillQueue<T> {
    /// Creates a fill queue of the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "fill queue needs capacity");
        FillQueue {
            cap,
            entries: Vec::with_capacity(cap),
            ready: 0,
        }
    }

    /// Capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when no free entry remains (requests must wait, §5.4).
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.cap
    }

    /// True when at least one entry is ready for insertion (O(1)).
    pub fn has_ready(&self) -> bool {
        self.ready > 0
    }

    #[inline]
    fn position(&self, line: LineAddr) -> Option<usize> {
        self.entries.iter().position(|e| e.line == line)
    }

    /// Reserves an entry at the tail. Returns `false` (and does nothing)
    /// when the queue is full.
    ///
    /// Debug-asserts that `line` is not already pending: callers merge
    /// into the existing entry first (see the module docs).
    pub fn try_reserve(&mut self, line: LineAddr, class: ReqClass, payload: T) -> bool {
        if self.is_full() {
            return false;
        }
        debug_assert!(
            self.position(line).is_none(),
            "line already pending: merge before reserving"
        );
        self.entries.push(FillEntry {
            line,
            ready: false,
            class,
            payload,
        });
        true
    }

    /// CAM search for a pending entry.
    #[inline]
    pub fn find(&self, line: LineAddr) -> Option<&FillEntry<T>> {
        self.entries.iter().find(|e| e.line == line)
    }

    /// CAM search, mutable (promotion, payload merging).
    #[inline]
    pub fn find_mut(&mut self, line: LineAddr) -> Option<&mut FillEntry<T>> {
        self.entries.iter_mut().find(|e| e.line == line)
    }

    /// Marks the entry's data as arrived. Returns `false` when no entry
    /// matches (e.g. it was released on an L3 miss).
    pub fn set_ready(&mut self, line: LineAddr) -> bool {
        let Some(e) = self.entries.iter_mut().find(|e| e.line == line) else {
            return false;
        };
        if !e.ready {
            e.ready = true;
            self.ready += 1;
        }
        true
    }

    /// Releases a *not-ready* entry (the §5.4 L3-miss path: "the fill
    /// queue entry is released, and the L1/L2 miss request becomes an
    /// L1/L2/L3 miss request"). Returns the payload.
    pub fn release(&mut self, line: LineAddr) -> Option<FillEntry<T>> {
        let i = self.position(line)?;
        if self.entries[i].ready {
            return None;
        }
        Some(self.entries.remove(i))
    }

    /// Pops the oldest *ready* entry for insertion into the cache array.
    ///
    /// Entries become ready out of order (an L3 hit returns long before a
    /// DRAM access), so insertion is oldest-ready-first rather than
    /// strict-FIFO — this avoids unrealistic head-of-line blocking while
    /// keeping allocation order FIFO as described in the paper.
    pub fn pop_ready(&mut self) -> Option<FillEntry<T>> {
        if self.ready == 0 {
            return None;
        }
        let i = self.entries.iter().position(|e| e.ready)?;
        self.ready -= 1;
        Some(self.entries.remove(i))
    }

    /// Peeks the oldest ready entry without removing it.
    pub fn peek_ready(&self) -> Option<&FillEntry<T>> {
        if self.ready == 0 {
            return None;
        }
        self.iter().find(|e| e.ready)
    }

    /// Iterates over all pending entries (oldest first).
    pub fn iter(&self) -> impl Iterator<Item = &FillEntry<T>> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fq() -> FillQueue<u32> {
        FillQueue::new(4)
    }

    #[test]
    fn reserve_until_full() {
        let mut q = fq();
        for i in 0..4 {
            assert!(q.try_reserve(LineAddr(i), ReqClass::Demand, i as u32));
        }
        assert!(q.is_full());
        assert!(!q.try_reserve(LineAddr(9), ReqClass::Demand, 9));
        assert_eq!(q.len(), 4);
    }

    #[test]
    fn ready_entries_pop_oldest_first() {
        let mut q = fq();
        q.try_reserve(LineAddr(1), ReqClass::Demand, 1);
        q.try_reserve(LineAddr(2), ReqClass::Demand, 2);
        q.try_reserve(LineAddr(3), ReqClass::Demand, 3);
        assert!(!q.has_ready());
        assert!(q.pop_ready().is_none());
        q.set_ready(LineAddr(3));
        q.set_ready(LineAddr(2));
        assert!(q.has_ready());
        assert_eq!(q.pop_ready().unwrap().line, LineAddr(2));
        assert_eq!(q.pop_ready().unwrap().line, LineAddr(3));
        assert!(q.pop_ready().is_none());
        assert!(!q.has_ready());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn release_only_not_ready() {
        let mut q = fq();
        q.try_reserve(LineAddr(5), ReqClass::Demand, 50);
        let e = q.release(LineAddr(5)).unwrap();
        assert_eq!(e.payload, 50);
        assert!(q.is_empty());
        // A ready entry cannot be released.
        q.try_reserve(LineAddr(6), ReqClass::Demand, 60);
        q.set_ready(LineAddr(6));
        assert!(q.release(LineAddr(6)).is_none());
    }

    #[test]
    fn cam_find() {
        let mut q = fq();
        q.try_reserve(LineAddr(11), ReqClass::L2Prefetch, 0);
        assert!(q.find(LineAddr(11)).is_some());
        assert!(q.find(LineAddr(12)).is_none());
    }

    #[test]
    fn slots_recycle_without_losing_fifo_order() {
        let mut q = fq();
        // Fill, drain from the middle, refill: allocation order and the
        // CAM search must stay coherent through removals and reuse.
        for i in 0..4u64 {
            q.try_reserve(LineAddr(i), ReqClass::Demand, i as u32);
        }
        q.set_ready(LineAddr(1));
        assert_eq!(q.pop_ready().unwrap().payload, 1);
        assert!(q.release(LineAddr(2)).is_some());
        q.try_reserve(LineAddr(10), ReqClass::Demand, 10);
        q.try_reserve(LineAddr(11), ReqClass::Demand, 11);
        assert!(q.is_full());
        let lines: Vec<u64> = q.iter().map(|e| e.line.0).collect();
        assert_eq!(lines, vec![0, 3, 10, 11], "oldest-first order preserved");
        for &l in &[0u64, 3, 10, 11] {
            assert!(q.find(LineAddr(l)).is_some());
        }
        q.set_ready(LineAddr(3));
        q.set_ready(LineAddr(11));
        assert_eq!(q.pop_ready().unwrap().line, LineAddr(3));
        assert_eq!(q.pop_ready().unwrap().line, LineAddr(11));
        assert!(q.pop_ready().is_none());
    }

    #[test]
    fn set_ready_is_idempotent_for_the_ready_count() {
        let mut q = fq();
        q.try_reserve(LineAddr(1), ReqClass::Demand, 0);
        assert!(q.set_ready(LineAddr(1)));
        assert!(q.set_ready(LineAddr(1)));
        assert!(q.pop_ready().is_some());
        assert!(!q.has_ready());
        assert!(q.pop_ready().is_none());
    }

    /// A line is pending at most once per queue; a second entry would
    /// leave `find`, `set_ready` and `release` acting on the first only.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "merge before reserving")]
    fn reserving_a_pending_line_panics() {
        let mut q = fq();
        q.try_reserve(LineAddr(3), ReqClass::Demand, 0);
        q.try_reserve(LineAddr(3), ReqClass::L2Prefetch, 1);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        FillQueue::<()>::new(0);
    }
}

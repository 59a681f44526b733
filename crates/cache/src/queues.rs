//! The prefetch queue and the DL1 MSHR file.

use crate::line_index::LineIndex;
use bosim_types::{CoreId, Cycle, LineAddr};
use std::collections::VecDeque;

/// A lowest-priority prefetch queue (§5.4): "L2 prefetch requests have
/// the lowest priority for accessing the L3 cache. Prefetch requests
/// wait in an 8-entry prefetch queue until they can access the L3 cache.
/// When a prefetch request is inserted into the queue, and if the queue
/// is full, the oldest request is cancelled."
///
/// Every prefetch site that queues requests uses this type: each private
/// L2, and the shared L3, whose entries carry the core whose access
/// triggered them (DRAM fairness is accounted per core).
///
/// The CAM search runs once per prefetch candidate (a hot-path
/// redundancy check), so membership is tracked in a [`LineIndex`]
/// alongside the FIFO: `contains` is O(1), and the scan cost is paid
/// only on actual removals.
#[derive(Debug)]
pub struct PrefetchQueue {
    cap: usize,
    entries: VecDeque<(LineAddr, CoreId)>,
    index: LineIndex,
    /// Number of requests cancelled by overflow (statistics).
    pub cancelled: u64,
}

impl PrefetchQueue {
    /// Creates a prefetch queue (the paper uses 8 entries).
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0);
        PrefetchQueue {
            cap,
            entries: VecDeque::with_capacity(cap),
            index: LineIndex::with_capacity(cap),
            cancelled: 0,
        }
    }

    /// Queue occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the queue holds no requests.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Pushes a prefetch request for `line` on behalf of `core`; if the
    /// queue is full the *oldest* request is cancelled. Duplicate
    /// requests are dropped (the queue is "associatively searched" before
    /// insertion, §6.3 fn. 13).
    pub fn push(&mut self, line: LineAddr, core: CoreId) {
        if self.contains(line) {
            return;
        }
        if self.entries.len() >= self.cap {
            let (oldest, _) = self.entries.pop_front().expect("full ⇒ nonempty"); // bosim-lint: allow(P002, full queue is non-empty)
            self.index.remove(oldest);
            self.cancelled += 1;
        }
        self.entries.push_back((line, core));
        self.index.insert(line, 0);
    }

    /// Pops the oldest pending prefetch request with its core.
    pub fn pop(&mut self) -> Option<(LineAddr, CoreId)> {
        let (line, core) = self.entries.pop_front()?;
        self.index.remove(line);
        Some((line, core))
    }

    /// CAM search.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.index.contains(line)
    }

    /// Removes a matching request (e.g. the line just got demanded).
    pub fn remove(&mut self, line: LineAddr) -> bool {
        if self.index.remove(line).is_none() {
            return false;
        }
        let pos = self
            .entries
            .iter()
            .position(|&(l, _)| l == line)
            .expect("indexed line is queued"); // bosim-lint: allow(P002, the index maps only queued lines)
        self.entries.remove(pos);
        true
    }
}

/// One DL1 MSHR entry: a pending block request with the cycle it was
/// allocated and whether any retired-load consumer is waiting.
#[derive(Debug, Clone)]
pub struct MshrEntry {
    /// Pending block.
    pub line: LineAddr,
    /// Allocation cycle (latency accounting).
    pub alloc_cycle: Cycle,
    /// ROB indices of loads waiting on this block (simulator-managed).
    pub waiters: Vec<u64>,
    /// True when the entry was allocated by a prefetch.
    pub prefetch: bool,
    /// True when a committed store is waiting to write the block
    /// (the fill must be inserted dirty).
    pub store: bool,
}

/// The DL1 MSHR file (Table 1: "MSHR 32 DL1 block requests").
///
/// MSHRs are needed at the DL1 "for keeping track of loads/stores that
/// depend on a missing block and for preventing redundant miss requests"
/// (§5.4).
#[derive(Debug)]
pub struct MshrFile {
    cap: usize,
    entries: Vec<MshrEntry>,
}

impl MshrFile {
    /// Creates an MSHR file with `cap` entries.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0);
        MshrFile {
            cap,
            entries: Vec::with_capacity(cap),
        }
    }

    /// Occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entry is allocated.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when no new block request can be accepted.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.cap
    }

    /// Finds the pending entry for a block.
    pub fn find_mut(&mut self, line: LineAddr) -> Option<&mut MshrEntry> {
        self.entries.iter_mut().find(|e| e.line == line)
    }

    /// Finds the pending entry for a block (shared).
    pub fn find(&self, line: LineAddr) -> Option<&MshrEntry> {
        self.entries.iter().find(|e| e.line == line)
    }

    /// Allocates an entry; returns `false` when full or already pending
    /// (merge with [`Self::find_mut`] first).
    pub fn try_alloc(&mut self, line: LineAddr, cycle: Cycle, prefetch: bool) -> bool {
        if self.is_full() || self.find(line).is_some() {
            return false;
        }
        self.entries.push(MshrEntry {
            line,
            alloc_cycle: cycle,
            waiters: Vec::new(),
            prefetch,
            store: false,
        });
        true
    }

    /// Deallocates the entry when its block arrives, returning it.
    pub fn complete(&mut self, line: LineAddr) -> Option<MshrEntry> {
        let pos = self.entries.iter().position(|e| e.line == line)?;
        Some(self.entries.swap_remove(pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_queue_drops_oldest_on_overflow() {
        let mut q = PrefetchQueue::new(3);
        for i in 0..3 {
            q.push(LineAddr(i), CoreId(i as u8));
        }
        q.push(LineAddr(99), CoreId(7));
        assert_eq!(q.cancelled, 1);
        assert_eq!(
            q.pop(),
            Some((LineAddr(1), CoreId(1))),
            "oldest (0) was cancelled"
        );
        assert!(q.contains(LineAddr(99)));
    }

    #[test]
    fn prefetch_queue_dedups() {
        let mut q = PrefetchQueue::new(4);
        q.push(LineAddr(5), CoreId(0));
        q.push(LineAddr(5), CoreId(1));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((LineAddr(5), CoreId(0))), "first push wins");
    }

    #[test]
    fn prefetch_queue_remove() {
        let mut q = PrefetchQueue::new(4);
        q.push(LineAddr(5), CoreId(0));
        assert!(q.remove(LineAddr(5)));
        assert!(!q.remove(LineAddr(5)));
        assert!(q.is_empty());
    }

    #[test]
    fn mshr_alloc_merge_complete() {
        let mut m = MshrFile::new(2);
        assert!(m.try_alloc(LineAddr(1), 10, false));
        assert!(!m.try_alloc(LineAddr(1), 11, false), "no duplicate entries");
        m.find_mut(LineAddr(1)).unwrap().waiters.push(42);
        assert!(m.try_alloc(LineAddr(2), 12, true));
        assert!(m.is_full());
        assert!(!m.try_alloc(LineAddr(3), 13, false));
        let e = m.complete(LineAddr(1)).unwrap();
        assert_eq!(e.waiters, vec![42]);
        assert_eq!(e.alloc_cycle, 10);
        assert_eq!(m.len(), 1);
        assert!(m.complete(LineAddr(1)).is_none());
    }
}

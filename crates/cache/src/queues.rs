//! The prefetch queue and the DL1 MSHR file.

use bosim_types::{CoreId, LineAddr};
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
/// The CAM search is a linear scan of the FIFO (eight entries in the
/// paper), as is the removal of a demanded line.
#[derive(Debug)]
pub struct PrefetchQueue {
    cap: usize,
    entries: VecDeque<(LineAddr, CoreId)>,
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
            self.entries.pop_front();
            self.cancelled += 1;
        }
        self.entries.push_back((line, core));
    }

    /// Pops the oldest pending prefetch request with its core.
    pub fn pop(&mut self) -> Option<(LineAddr, CoreId)> {
        self.entries.pop_front()
    }

    /// CAM search.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.entries.iter().any(|&(l, _)| l == line)
    }

    /// Removes a matching request (e.g. the line just got demanded).
    pub fn remove(&mut self, line: LineAddr) -> bool {
        match self.entries.iter().position(|&(l, _)| l == line) {
            Some(i) => {
                self.entries.remove(i);
                true
            }
            None => false,
        }
    }
}

/// One DL1 MSHR entry: a pending block request and what waits on it.
/// The block itself is the key the [`MshrFile`] stores beside it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MshrEntry {
    /// ROB sequence numbers of loads waiting on this block
    /// (simulator-managed).
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
/// (§5.4). The pending blocks are a packed array of line addresses,
/// `lines[i]` keying `entries[i]`, so the associative search reads one
/// `u64` per entry; a miss searches once ([`find_mut`](Self::find_mut))
/// and then [`alloc`](Self::alloc)ates without searching again.
#[derive(Debug)]
pub struct MshrFile {
    cap: usize,
    lines: Vec<LineAddr>,
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
            lines: Vec::with_capacity(cap),
            entries: Vec::with_capacity(cap),
        }
    }

    /// Occupancy.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// True if no entry is allocated.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// True when no new block request can be accepted.
    pub fn is_full(&self) -> bool {
        self.lines.len() >= self.cap
    }

    #[inline]
    fn position(&self, line: LineAddr) -> Option<usize> {
        self.lines.iter().position(|&l| l == line)
    }

    /// Finds the pending entry for a block.
    pub fn find_mut(&mut self, line: LineAddr) -> Option<&mut MshrEntry> {
        let i = self.position(line)?;
        Some(&mut self.entries[i])
    }

    /// Finds the pending entry for a block (shared).
    pub fn find(&self, line: LineAddr) -> Option<&MshrEntry> {
        self.position(line).map(|i| &self.entries[i])
    }

    /// Allocates an entry for `line`, returning it to fill in, or `None`
    /// when the file is full. The caller has already searched for the
    /// line (a pending block merges through [`find_mut`](Self::find_mut)
    /// instead), so no search happens here.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `line` is already pending.
    pub fn alloc(&mut self, line: LineAddr, prefetch: bool) -> Option<&mut MshrEntry> {
        debug_assert!(self.position(line).is_none(), "{line} already pending");
        if self.is_full() {
            return None;
        }
        self.lines.push(line);
        self.entries.push(MshrEntry {
            prefetch,
            ..MshrEntry::default()
        });
        self.entries.last_mut()
    }

    /// Deallocates the entry when its block arrives, returning it.
    pub fn complete(&mut self, line: LineAddr) -> Option<MshrEntry> {
        let i = self.position(line)?;
        self.lines.swap_remove(i);
        Some(self.entries.swap_remove(i))
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
        m.alloc(LineAddr(1), false).unwrap().waiters.push(41);
        m.find_mut(LineAddr(1)).unwrap().waiters.push(42);
        assert!(m.alloc(LineAddr(2), true).unwrap().prefetch);
        assert!(m.is_full());
        assert!(m.alloc(LineAddr(3), false).is_none());
        let e = m.complete(LineAddr(1)).unwrap();
        assert_eq!(e.waiters, vec![41, 42]);
        assert!(!e.prefetch && !e.store);
        assert_eq!(m.len(), 1);
        assert!(m.complete(LineAddr(1)).is_none());
        assert!(m.find(LineAddr(2)).is_some_and(|e| e.prefetch));
    }
}

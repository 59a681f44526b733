//! The DL1 stride prefetcher (§5.5).
//!
//! "It features a 64-entry prefetch table accessed with the PC of
//! load/store micro-ops. Each entry contains a tag (the PC), a last
//! address, a stride, a 4-bit confidence counter and some bits for LRU
//! management. The prefetch table is updated at retirement ... to
//! guarantee that memory accesses are seen in program order. However,
//! prefetch requests are issued when a load/store accesses the DL1 cache."
//!
//! Prefetch address: `currentaddr + 16 × stride` (the paper's empirically
//! chosen distance factor), filtered through a 16-entry recent-prefetch
//! filter, then translated by the TLB2 before being issued (done by the
//! simulator; a TLB2 miss drops the request).

use bosim_types::VirtAddr;

const CONF_MAX: u8 = 15;

/// Prefetch-table entries (§5.5: 64).
pub const ENTRIES: usize = 64;
/// Associativity of the PC-indexed table (the paper does not say; 8).
pub const WAYS: usize = 8;
/// Prefetch distance factor: the target is `addr + DISTANCE × stride`
/// (§5.5: 16, determined empirically).
pub const DISTANCE: i64 = 16;
/// Recent-prefetch filter entries, in lines (§5.5: 16).
pub const FILTER_ENTRIES: usize = 16;

/// Prefetch-table sets.
const SETS: usize = ENTRIES / WAYS;
const _: () = assert!(SETS.is_power_of_two() && SETS * WAYS == ENTRIES && FILTER_ENTRIES >= 1);

#[derive(Debug, Clone, Copy, Default)]
struct StrideEntry {
    valid: bool,
    pc: u64,
    last_addr: u64,
    stride: i64,
    confidence: u8,
    lru: u8,
}

/// The PC-indexed DL1 stride prefetcher.
#[derive(Debug)]
pub struct StridePrefetcher {
    /// [`ENTRIES`] entries, on the heap: held inline, they grew every
    /// core by 2 KB and `bosim-benchmark` read `setup_s` 12–17% higher
    /// on 2-vCPU x86-64 VMs. That is a layout effect, not more work: a
    /// standalone timing of `System::new` saw no difference (ROADMAP
    /// item 5).
    table: Vec<StrideEntry>,
    /// FIFO of the [`FILTER_ENTRIES`] most recently prefetched virtual
    /// *lines*.
    filter: Vec<u64>,
    filter_pos: usize,
    issued: u64,
    trained: u64,
}

impl Default for StridePrefetcher {
    /// The §5.5 prefetcher, with an empty table.
    fn default() -> Self {
        StridePrefetcher {
            table: vec![StrideEntry::default(); ENTRIES],
            filter: vec![u64::MAX; FILTER_ENTRIES],
            filter_pos: 0,
            issued: 0,
            trained: 0,
        }
    }
}

impl StridePrefetcher {
    /// Requests issued (pre-TLB).
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Retirement-time table updates performed.
    pub fn trained(&self) -> u64 {
        self.trained
    }

    #[inline]
    fn set_of(pc: u64) -> usize {
        ((pc >> 2) as usize) & (SETS - 1)
    }

    fn set_slice(&mut self, set: usize) -> &mut [StrideEntry] {
        &mut self.table[set * WAYS..(set + 1) * WAYS]
    }

    fn touch_lru(set: &mut [StrideEntry], way: usize) {
        let old = set[way].lru;
        for e in set.iter_mut() {
            if e.lru < old {
                e.lru += 1;
            }
        }
        set[way].lru = 0;
    }

    /// Trains the table at retirement, in program order (§5.5).
    pub fn on_retire(&mut self, pc: u64, vaddr: VirtAddr) {
        self.trained += 1;
        let set_idx = Self::set_of(pc);
        let set = self.set_slice(set_idx);
        let way = set.iter().position(|e| e.valid && e.pc == pc);
        match way {
            Some(w) => {
                let cur = vaddr.0;
                let e = &mut set[w];
                if e.stride != 0 && cur as i64 == e.last_addr as i64 + e.stride {
                    e.confidence = (e.confidence + 1).min(CONF_MAX);
                } else {
                    e.confidence = 0;
                }
                e.stride = cur as i64 - e.last_addr as i64;
                e.last_addr = cur;
                Self::touch_lru(set, w);
            }
            None => {
                // Allocate an invalid way, else the LRU one; the last of
                // equal ways wins.
                let age = |e: &StrideEntry| if e.valid { e.lru } else { u8::MAX };
                let w = (1..WAYS).fold(0, |best, i| {
                    if age(&set[i]) >= age(&set[best]) {
                        i
                    } else {
                        best
                    }
                });
                set[w] = StrideEntry {
                    valid: true,
                    pc,
                    last_addr: vaddr.0,
                    stride: 0,
                    confidence: 0,
                    lru: set[w].lru,
                };
                Self::touch_lru(set, w);
            }
        }
    }

    /// Issue check at DL1 access time (miss or prefetched hit): returns
    /// the virtual prefetch address if the entry is fully confident.
    ///
    /// The caller must still translate through the TLB2 (dropping on a
    /// TLB2 miss) and perform line-level dedup against the MSHRs.
    pub fn on_access(&mut self, pc: u64, vaddr: VirtAddr) -> Option<VirtAddr> {
        let set_idx = Self::set_of(pc);
        let set = self.set_slice(set_idx);
        let e = set.iter().find(|e| e.valid && e.pc == pc)?;
        if e.stride == 0 || e.confidence < CONF_MAX {
            return None;
        }
        let target = vaddr.0 as i64 + DISTANCE * e.stride;
        if target < 0 {
            return None;
        }
        let target = target as u64;
        let line = target >> 6;
        // Skip lines prefetched recently.
        if self.filter.contains(&line) {
            return None;
        }
        self.filter[self.filter_pos] = line;
        self.filter_pos = (self.filter_pos + 1) % FILTER_ENTRIES;
        self.issued += 1;
        Some(VirtAddr(target))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_stride_trains_to_full_confidence() {
        let mut p = StridePrefetcher::default();
        let pc = 0x400100;
        // Need stride established + 15 confirmations.
        for i in 0..20 {
            p.on_retire(pc, VirtAddr(0x1000 + i * 96));
        }
        let got = p.on_access(pc, VirtAddr(0x1000 + 20 * 96));
        assert_eq!(
            got,
            Some(VirtAddr(0x1000 + 20 * 96 + 16 * 96)),
            "prefetch at current + 16*stride"
        );
    }

    #[test]
    fn no_issue_before_confidence() {
        let mut p = StridePrefetcher::default();
        let pc = 0x400100;
        for i in 0..5 {
            p.on_retire(pc, VirtAddr(0x1000 + i * 64));
        }
        assert_eq!(p.on_access(pc, VirtAddr(0x2000)), None);
    }

    #[test]
    fn stride_change_resets_confidence() {
        let mut p = StridePrefetcher::default();
        let pc = 0x400200;
        for i in 0..20 {
            p.on_retire(pc, VirtAddr(0x1000 + i * 64));
        }
        assert!(p.on_access(pc, VirtAddr(0x9000)).is_some());
        // Break the pattern.
        p.on_retire(pc, VirtAddr(0x100000));
        assert_eq!(
            p.on_access(pc, VirtAddr(0x100000)),
            None,
            "confidence must reset on a stride break"
        );
    }

    #[test]
    fn zero_stride_never_prefetches() {
        let mut p = StridePrefetcher::default();
        let pc = 0x400300;
        for _ in 0..40 {
            p.on_retire(pc, VirtAddr(0x7000));
        }
        assert_eq!(p.on_access(pc, VirtAddr(0x7000)), None);
    }

    #[test]
    fn filter_suppresses_repeats() {
        let mut p = StridePrefetcher::default();
        let pc = 0x400400;
        for i in 0..20 {
            p.on_retire(pc, VirtAddr(0x1000 + i * 8));
        }
        // Stride 8 -> distance 128 bytes; consecutive accesses target the
        // same 64B line, so the filter must block the duplicates.
        let a = p.on_access(pc, VirtAddr(0x2000));
        let b = p.on_access(pc, VirtAddr(0x2008));
        assert!(a.is_some());
        assert!(b.is_none(), "same-line prefetch must be filtered");
    }

    #[test]
    fn distinct_pcs_do_not_interfere() {
        let mut p = StridePrefetcher::default();
        // Two loads in a loop with different strides; both reach
        // confidence despite interleaved training.
        for i in 0..20u64 {
            p.on_retire(0x400500, VirtAddr(0x10000 + i * 64));
            p.on_retire(0x400504, VirtAddr(0x90000 + i * 256));
        }
        assert_eq!(
            p.on_access(0x400500, VirtAddr(0x20000)),
            Some(VirtAddr(0x20000 + 16 * 64))
        );
        assert_eq!(
            p.on_access(0x400504, VirtAddr(0xA0000)),
            Some(VirtAddr(0xA0000 + 16 * 256))
        );
    }

    #[test]
    fn capacity_eviction_is_lru() {
        let mut p = StridePrefetcher::default();
        // WAYS + 1 PCs map to one set (PCs SETS × 4 apart); the first
        // must be evicted.
        let pc = |k: u64| 0x400000 + k * SETS as u64 * 4;
        for k in 0..=WAYS as u64 {
            for i in 0..20 {
                p.on_retire(pc(k), VirtAddr(0x1000 * (k + 1) + i * 64));
            }
        }
        // PC 0 was LRU and evicted: no prefetch.
        assert_eq!(p.on_access(pc(0), VirtAddr(0x500000)), None);
        // The last PC is present and confident.
        assert!(p.on_access(pc(WAYS as u64), VirtAddr(0x9000 * 9)).is_some());
    }
}

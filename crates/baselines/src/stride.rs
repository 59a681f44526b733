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

use best_offset::TuneDirective;
use bosim_types::VirtAddr;

const CONF_MAX: u8 = 15;

#[derive(Debug, Clone, Copy, Default)]
struct StrideEntry {
    valid: bool,
    pc: u64,
    last_addr: u64,
    stride: i64,
    confidence: u8,
    lru: u8,
}

/// Configuration of the DL1 stride prefetcher.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrideConfig {
    /// Table entries (paper: 64).
    pub entries: usize,
    /// Associativity of the PC-indexed table (paper: unspecified; 8-way).
    pub ways: usize,
    /// Prefetch distance factor (paper: 16, determined empirically).
    pub distance: i64,
    /// Recent-prefetch filter size (paper: 16 lines).
    pub filter_entries: usize,
}

impl Default for StrideConfig {
    fn default() -> Self {
        StrideConfig {
            entries: 64,
            ways: 8,
            distance: 16,
            filter_entries: 16,
        }
    }
}

impl StrideConfig {
    /// Validates the parameters [`StridePrefetcher::new`] would otherwise
    /// panic on (used by configuration validation so an invalid spec is
    /// reported before any simulation runs).
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.ways < 1 || self.entries < self.ways {
            return Err(format!(
                "stride table needs entries ({}) >= ways ({}) >= 1",
                self.entries, self.ways
            ));
        }
        let sets = self.entries / self.ways;
        if !sets.is_power_of_two() {
            return Err(format!(
                "stride table set count {sets} (entries {} / ways {}) must be a power of two",
                self.entries, self.ways
            ));
        }
        if self.filter_entries < 1 {
            return Err("stride recent-prefetch filter needs at least one entry".into());
        }
        Ok(())
    }
}

/// The PC-indexed DL1 stride prefetcher.
#[derive(Debug)]
pub struct StridePrefetcher {
    cfg: StrideConfig,
    sets: usize,
    table: Vec<StrideEntry>,
    /// 16-entry FIFO of recently prefetched virtual *lines*.
    filter: Vec<u64>,
    filter_pos: usize,
    issued: u64,
    trained: u64,
    /// External gate imposed by an adaptive tuning policy
    /// (`TuneDirective::SetEnabled`); training keeps running while gated.
    enabled: bool,
}

impl StridePrefetcher {
    /// Creates a stride prefetcher.
    ///
    /// # Panics
    ///
    /// Panics unless `entries` is divisible by `ways` into a power-of-two
    /// set count.
    pub fn new(cfg: StrideConfig) -> Self {
        assert!(cfg.ways >= 1 && cfg.entries >= cfg.ways);
        let sets = cfg.entries / cfg.ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(cfg.filter_entries >= 1);
        StridePrefetcher {
            sets,
            table: vec![StrideEntry::default(); cfg.entries],
            filter: vec![u64::MAX; cfg.filter_entries],
            filter_pos: 0,
            issued: 0,
            trained: 0,
            enabled: true,
            cfg,
        }
    }

    /// Creates the paper-default 64-entry prefetcher.
    pub fn with_defaults() -> Self {
        Self::new(StrideConfig::default())
    }

    /// Requests issued (pre-TLB).
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Retirement-time table updates performed.
    pub fn trained(&self) -> u64 {
        self.trained
    }

    #[inline]
    fn set_of(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.sets - 1)
    }

    fn set_slice(&mut self, set: usize) -> &mut [StrideEntry] {
        let w = self.cfg.ways;
        &mut self.table[set * w..(set + 1) * w]
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
        let set_idx = self.set_of(pc);
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
                // Allocate the LRU way.
                #[expect(
                    clippy::expect_used,
                    reason = "replacement set is structurally non-empty"
                )]
                let w = (0..set.len())
                    .max_by_key(|&i| if set[i].valid { set[i].lru } else { u8::MAX })
                    .expect("non-empty set");
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
        if !self.enabled {
            return None;
        }
        let distance = self.cfg.distance;
        let set_idx = self.set_of(pc);
        let set = self.set_slice(set_idx);
        let e = set.iter().find(|e| e.valid && e.pc == pc)?;
        if e.stride == 0 || e.confidence < CONF_MAX {
            return None;
        }
        let target = vaddr.0 as i64 + distance * e.stride;
        if target < 0 {
            return None;
        }
        let target = target as u64;
        let line = target >> 6;
        // 16-entry filter: skip lines prefetched recently.
        if self.filter.contains(&line) {
            return None;
        }
        self.filter[self.filter_pos] = line;
        self.filter_pos = (self.filter_pos + 1) % self.filter.len();
        self.issued += 1;
        Some(VirtAddr(target))
    }

    /// Applies a runtime reconfiguration directive: only
    /// [`TuneDirective::SetEnabled`], which gates issue while training
    /// goes on. Returns whether the directive was applied.
    pub fn reconfigure(&mut self, directive: &TuneDirective) -> bool {
        match directive {
            TuneDirective::SetEnabled(on) => {
                self.enabled = *on;
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_stride_trains_to_full_confidence() {
        let mut p = StridePrefetcher::with_defaults();
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
        let mut p = StridePrefetcher::with_defaults();
        let pc = 0x400100;
        for i in 0..5 {
            p.on_retire(pc, VirtAddr(0x1000 + i * 64));
        }
        assert_eq!(p.on_access(pc, VirtAddr(0x2000)), None);
    }

    #[test]
    fn stride_change_resets_confidence() {
        let mut p = StridePrefetcher::with_defaults();
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
        let mut p = StridePrefetcher::with_defaults();
        let pc = 0x400300;
        for _ in 0..40 {
            p.on_retire(pc, VirtAddr(0x7000));
        }
        assert_eq!(p.on_access(pc, VirtAddr(0x7000)), None);
    }

    #[test]
    fn filter_suppresses_repeats() {
        let mut p = StridePrefetcher::with_defaults();
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
        let mut p = StridePrefetcher::with_defaults();
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
    fn external_gate_stops_issue_but_not_training() {
        let mut p = StridePrefetcher::with_defaults();
        let pc = 0x400600;
        assert!(p.reconfigure(&TuneDirective::SetEnabled(false)));
        // Training continues while gated...
        for i in 0..20 {
            p.on_retire(pc, VirtAddr(0x1000 + i * 64));
        }
        assert_eq!(p.on_access(pc, VirtAddr(0x2000)), None);
        // ...so re-enabling issues immediately from the warm table.
        assert!(p.reconfigure(&TuneDirective::SetEnabled(true)));
        assert!(p.on_access(pc, VirtAddr(0x2000)).is_some());
        assert!(!p.reconfigure(&TuneDirective::SetDegree(2)));
    }

    #[test]
    fn config_validation_matches_constructor_panics() {
        assert!(StrideConfig::default().validate().is_ok());
        let bad_sets = StrideConfig {
            entries: 24,
            ways: 8,
            ..Default::default()
        };
        assert!(bad_sets.validate().unwrap_err().contains("power of two"));
        let bad_ways = StrideConfig {
            entries: 4,
            ways: 8,
            ..Default::default()
        };
        assert!(bad_ways.validate().is_err());
        let bad_filter = StrideConfig {
            filter_entries: 0,
            ..Default::default()
        };
        assert!(bad_filter.validate().unwrap_err().contains("filter"));
    }

    #[test]
    fn capacity_eviction_is_lru() {
        let cfg = StrideConfig {
            entries: 8,
            ways: 8,
            ..Default::default()
        };
        let mut p = StridePrefetcher::new(cfg);
        // 9 PCs map to the single set; the first must be evicted.
        for pc in 0..9u64 {
            for i in 0..20 {
                p.on_retire(0x400000 + pc * 4, VirtAddr(0x1000 * (pc + 1) + i * 64));
            }
        }
        // PC 0 was LRU and evicted: no prefetch.
        assert_eq!(p.on_access(0x400000, VirtAddr(0x500000)), None);
        // PC 8 is present and confident.
        assert!(p
            .on_access(0x400000 + 8 * 4, VirtAddr(0x9000 * 9))
            .is_some());
    }
}

//! Two-level TLBs and the randomising virtual-to-physical translation.
//!
//! Table 1: ITLB1 64 entries, DTLB1 64, shared TLB2 512. The paper
//! "simulates virtual-to-physical address translation by applying a
//! randomizing hash function on the virtual page number" (§5.1), so
//! translation itself is a pure function; the TLBs model reach and miss
//! latency only.

use bosim_types::{mix64, LineAddr, PageSize, VirtAddr};

/// Physical address space: 33 bits of byte address (the §5.3 mapping uses
/// a32..a6).
pub const PHYS_BITS: u32 = 33;

/// The deterministic randomising page translation of §5.1.
///
/// Distinct cores use distinct seeds so that "physical addresses
/// generated by core 0 do not depend upon whether other cores are idle".
#[derive(Debug, Clone, Copy)]
pub struct PageTranslator {
    seed: u64,
    page: PageSize,
}

impl PageTranslator {
    /// Creates a translator for one core.
    pub fn new(seed: u64, page: PageSize) -> Self {
        PageTranslator { seed, page }
    }

    /// The page size in effect.
    pub fn page_size(&self) -> PageSize {
        self.page
    }

    /// Translates a virtual byte address to a physical line address.
    #[inline]
    pub fn translate(&self, vaddr: VirtAddr) -> LineAddr {
        let vpn = vaddr.page_number(self.page);
        let ppn_bits = PHYS_BITS - self.page.page_shift();
        let ppn = mix64(vpn ^ self.seed) & ((1 << ppn_bits) - 1);
        let paddr = (ppn << self.page.page_shift()) | vaddr.page_offset(self.page);
        LineAddr(paddr >> 6)
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct TlbEntry {
    valid: bool,
    vpn: u64,
    lru: u8,
}

/// A set-associative TLB (latency model only; translation is pure).
#[derive(Debug)]
pub struct Tlb {
    sets: usize,
    ways: usize,
    entries: Vec<TlbEntry>,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Creates a TLB with `entries` total entries and `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics unless `entries / ways` is a power of two.
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(ways >= 1 && entries >= ways);
        let sets = entries / ways;
        assert!(sets.is_power_of_two());
        // LRU ages start as a permutation per set.
        let entries = (0..entries)
            .map(|i| TlbEntry {
                valid: false,
                vpn: 0,
                lru: (i % ways) as u8,
            })
            .collect();
        Tlb {
            sets,
            ways,
            entries,
            hits: 0,
            misses: 0,
        }
    }

    /// Total entries.
    pub fn entries(&self) -> usize {
        self.entries.len()
    }

    #[inline]
    fn set_of(&self, vpn: u64) -> usize {
        (vpn as usize) & (self.sets - 1)
    }

    /// Looks up a VPN, updating LRU and hit/miss counters. Returns `true`
    /// on a hit; on a miss the caller charges the next-level latency and
    /// calls [`fill`](Self::fill).
    pub fn access(&mut self, vpn: u64) -> bool {
        let set = self.set_of(vpn);
        let base = set * self.ways;
        let slice = &mut self.entries[base..base + self.ways];
        match slice.iter().position(|e| e.valid && e.vpn == vpn) {
            Some(w) => {
                let old = slice[w].lru;
                for e in slice.iter_mut() {
                    if e.lru < old {
                        e.lru += 1;
                    }
                }
                slice[w].lru = 0;
                self.hits += 1;
                true
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    /// Installs a VPN (LRU replacement within the set; invalid ways are
    /// preferred).
    pub fn fill(&mut self, vpn: u64) {
        let set = self.set_of(vpn);
        let base = set * self.ways;
        let slice = &mut self.entries[base..base + self.ways];
        if slice.iter().any(|e| e.valid && e.vpn == vpn) {
            return;
        }
        #[expect(clippy::expect_used, reason = "associativity is validated non-zero")]
        let w = (0..slice.len())
            .max_by_key(|&i| (if slice[i].valid { 0u16 } else { 256 }) + slice[i].lru as u16)
            .expect("non-empty set");
        let old = slice[w].lru;
        slice[w].valid = true;
        slice[w].vpn = vpn;
        // Permutation-preserving MRU move.
        for e in slice.iter_mut() {
            if e.lru < old {
                e.lru += 1;
            }
        }
        slice[w].lru = 0;
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// TLB2 lookup latency in cycles on a first-level TLB miss. The paper
/// does not give it; 8 is this model's choice.
pub const TLB2_LATENCY: u64 = 8;
/// Page-walk latency in cycles on a TLB2 miss, on top of
/// [`TLB2_LATENCY`]. The paper does not give it; 120 is this model's
/// choice.
pub const WALK_LATENCY: u64 = 120;

/// The per-core two-level TLB hierarchy with fixed miss latencies
/// ([`TLB2_LATENCY`], [`WALK_LATENCY`]).
#[derive(Debug)]
pub struct TlbHierarchy {
    /// First-level instruction TLB (64 entries).
    pub itlb: Tlb,
    /// First-level data TLB (64 entries).
    pub dtlb: Tlb,
    /// Shared second-level TLB (512 entries).
    pub tlb2: Tlb,
}

impl TlbHierarchy {
    /// The Table 1 geometry, every TLB empty.
    pub fn with_defaults() -> Self {
        TlbHierarchy {
            itlb: Tlb::new(64, 4),
            dtlb: Tlb::new(64, 4),
            tlb2: Tlb::new(512, 8),
        }
    }

    /// Data-side translation cost in extra cycles (0 on a DTLB hit).
    pub fn data_penalty(&mut self, vpn: u64) -> u64 {
        if self.dtlb.access(vpn) {
            return 0;
        }
        if self.tlb2.access(vpn) {
            self.dtlb.fill(vpn);
            return TLB2_LATENCY;
        }
        self.tlb2.fill(vpn);
        self.dtlb.fill(vpn);
        TLB2_LATENCY + WALK_LATENCY
    }

    /// Instruction-side translation cost in extra cycles.
    pub fn instr_penalty(&mut self, vpn: u64) -> u64 {
        if self.itlb.access(vpn) {
            return 0;
        }
        if self.tlb2.access(vpn) {
            self.itlb.fill(vpn);
            return TLB2_LATENCY;
        }
        self.tlb2.fill(vpn);
        self.itlb.fill(vpn);
        TLB2_LATENCY + WALK_LATENCY
    }

    /// TLB2 lookup for DL1 prefetch requests (§5.5): returns `false` on a
    /// TLB2 miss, in which case the prefetch request is dropped ("we did
    /// not simulate TLB prefetching"). Does not trigger a page walk.
    pub fn prefetch_probe(&mut self, vpn: u64) -> bool {
        self.tlb2.access(vpn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn translation_is_deterministic_and_offset_preserving() {
        let t = PageTranslator::new(0xABCD, PageSize::K4);
        let a = t.translate(VirtAddr(0x1234_5678));
        let b = t.translate(VirtAddr(0x1234_5678));
        assert_eq!(a, b);
        // Same page, adjacent lines stay adjacent.
        let l0 = t.translate(VirtAddr(0x1234_5000));
        let l1 = t.translate(VirtAddr(0x1234_5040));
        assert_eq!(l1.0, l0.0 + 1);
    }

    #[test]
    fn translation_fits_physical_space() {
        for page in [PageSize::K4, PageSize::M4] {
            let t = PageTranslator::new(7, page);
            for i in 0..1000u64 {
                let line = t.translate(VirtAddr(i * 0x1_0000_1000));
                assert!(line.0 < (1 << (PHYS_BITS - 6)), "line out of range");
            }
        }
    }

    #[test]
    fn different_seeds_give_different_mappings() {
        let t0 = PageTranslator::new(0, PageSize::K4);
        let t1 = PageTranslator::new(1, PageSize::K4);
        let same = (0..100u64)
            .filter(|&i| t0.translate(VirtAddr(i << 12)) == t1.translate(VirtAddr(i << 12)))
            .count();
        assert!(same < 5, "seeds should decorrelate mappings, same={same}");
    }

    #[test]
    fn tlb_hit_after_fill() {
        let mut t = Tlb::new(64, 4);
        assert!(!t.access(42));
        t.fill(42);
        assert!(t.access(42));
        assert_eq!(t.stats(), (1, 1));
    }

    #[test]
    fn tlb_lru_eviction_within_set() {
        let mut t = Tlb::new(4, 4); // one set
        for vpn in 0..4 {
            t.fill(vpn);
        }
        t.access(0); // refresh 0
        t.fill(99); // evicts LRU (1)
        assert!(t.access(0));
        assert!(!t.access(1), "vpn 1 must have been evicted");
    }

    #[test]
    fn hierarchy_penalties_ordered() {
        let mut h = TlbHierarchy::with_defaults();
        let cold = h.data_penalty(7);
        let warm2 = {
            let mut h2 = TlbHierarchy::with_defaults();
            h2.tlb2.fill(7);
            h2.data_penalty(7)
        };
        let hot = h.data_penalty(7);
        assert_eq!(hot, 0);
        assert_eq!(warm2, 8);
        assert_eq!(cold, 128);
    }

    #[test]
    fn prefetch_probe_does_not_walk() {
        let mut h = TlbHierarchy::with_defaults();
        assert!(!h.prefetch_probe(3));
        // Still a miss afterwards: the probe must not install.
        assert!(!h.prefetch_probe(3));
        h.tlb2.fill(3);
        assert!(h.prefetch_probe(3));
    }

    #[test]
    fn big_pages_reduce_tlb_pressure() {
        // A 16MB footprint: 4096 4KB pages (thrashes a 64-entry DTLB) but
        // only 4 superpages.
        let mut small = TlbHierarchy::with_defaults();
        let mut big = TlbHierarchy::with_defaults();
        let mut small_penalty = 0;
        let mut big_penalty = 0;
        for pass in 0..2 {
            for i in 0..4096u64 {
                let vaddr = VirtAddr(i << 12);
                let p_small = small.data_penalty(vaddr.page_number(PageSize::K4));
                let p_big = big.data_penalty(vaddr.page_number(PageSize::M4));
                if pass == 1 {
                    small_penalty += p_small;
                    big_penalty += p_big;
                }
            }
        }
        assert!(
            big_penalty * 10 < small_penalty,
            "4MB pages should almost eliminate TLB misses: {big_penalty} vs {small_penalty}"
        );
    }
}

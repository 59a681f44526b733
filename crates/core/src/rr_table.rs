//! The recent-requests (RR) table (§4.1, §4.4).
//!
//! "Our solution is to record in a recent requests (RR) table the base
//! address of prefetch requests that have been completed. ... we choose
//! the simplest implementation: the RR table is direct mapped, accessed
//! through a hash function, each table entry holding a tag. The tag does
//! not need to be the full address, a partial tag is sufficient."
//!
//! Hashing (§4.4, generalised from the 256-entry example): for a table of
//! `2^i` entries, the index XORs the `i` least-significant line-address
//! bits with the next `i` bits; the tag skips the `i` least-significant
//! bits and extracts the next [`RR_TAG_BITS`] bits.

use bosim_types::LineAddr;

/// RR partial tag width in bits (Table 2: 12).
pub const RR_TAG_BITS: u32 = 12;
const _: () = assert!(
    RR_TAG_BITS >= 1 && RR_TAG_BITS <= 16,
    "tags are stored as u16"
);

/// Direct-mapped table of recently completed prefetch base addresses.
#[derive(Debug, Clone)]
pub struct RrTable {
    index_bits: u32,
    entries: Vec<Option<u16>>,
    inserts: u64,
    hits: u64,
    probes: u64,
}

impl RrTable {
    /// Creates an RR table with `entries` slots (must be a power of two;
    /// the paper's default is 256) and [`RR_TAG_BITS`]-bit partial tags.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two ≥ 2.
    pub fn new(entries: usize) -> Self {
        assert!(entries >= 2 && entries.is_power_of_two());
        RrTable {
            index_bits: entries.trailing_zeros(),
            entries: vec![None; entries],
            inserts: 0,
            hits: 0,
            probes: 0,
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the table has no slots (never).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    #[inline]
    fn index(&self, line: LineAddr) -> usize {
        let lo = line.0 & ((1 << self.index_bits) - 1);
        let hi = (line.0 >> self.index_bits) & ((1 << self.index_bits) - 1);
        (lo ^ hi) as usize
    }

    #[inline]
    fn tag(&self, line: LineAddr) -> u16 {
        ((line.0 >> self.index_bits) & ((1u64 << RR_TAG_BITS) - 1)) as u16
    }

    /// Records a base address.
    #[inline]
    pub fn insert(&mut self, line: LineAddr) {
        let i = self.index(line);
        self.entries[i] = Some(self.tag(line));
        self.inserts += 1;
    }

    /// Tests whether a base address was recently recorded (modulo partial
    /// tag aliasing, as in hardware).
    #[inline]
    pub fn contains(&mut self, line: LineAddr) -> bool {
        self.probes += 1;
        let i = self.index(line);
        let hit = self.entries[i] == Some(self.tag(line));
        if hit {
            self.hits += 1;
        }
        hit
    }

    /// Clears all entries (tests / phase boundaries do not clear in the
    /// paper; provided for experimentation).
    pub fn clear(&mut self) {
        self.entries.fill(None);
    }

    /// (inserts, probes, probe hits) counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.inserts, self.probes, self.hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bosim_types::SplitMix64;

    #[test]
    fn paper_default_geometry() {
        let t = RrTable::new(256);
        assert_eq!(t.len(), 256);
        assert_eq!(t.index_bits, 8);
    }

    #[test]
    fn insert_then_contains() {
        let mut t = RrTable::new(256);
        let line = LineAddr(0xABCDE);
        assert!(!t.contains(line));
        t.insert(line);
        assert!(t.contains(line));
    }

    #[test]
    fn index_xors_low_bits_with_next_bits() {
        let t = RrTable::new(256);
        // line = 0x1FF00: low 8 bits 0x00, next 8 bits 0xFF -> index 0xFF.
        assert_eq!(t.index(LineAddr(0xFF00)), 0xFF);
        // line = 0x00FF: low 8 bits 0xFF, next 8 bits 0x00 -> index 0xFF.
        assert_eq!(t.index(LineAddr(0x00FF)), 0xFF);
    }

    #[test]
    fn tag_skips_index_bits() {
        let t = RrTable::new(256);
        // Bits [8..20) of the line address form the tag.
        assert_eq!(t.tag(LineAddr(0xFFF00)), 0xFFF);
        assert_eq!(t.tag(LineAddr(0x000FF)), 0x000);
    }

    #[test]
    fn conflicting_lines_evict() {
        let mut t = RrTable::new(256);
        let a = LineAddr(0x100);
        // Bit 16 is outside both index-bit ranges (0..8 and 8..16) but
        // inside the tag (bits 8..20): same index, different tag.
        let b = LineAddr(0x100 + (1 << 16));
        assert_eq!(t.index(a), t.index(b));
        t.insert(a);
        t.insert(b);
        assert!(!t.contains(a), "direct-mapped: b evicted a");
        assert!(t.contains(b));
    }

    #[test]
    fn partial_tags_alias() {
        let mut t = RrTable::new(256);
        let a = LineAddr(0x42);
        // Same index and same 12-bit tag, different full address:
        // adding 1 << (8 + 12 + 8) changes neither index bits nor tag
        // bits... but it changes bit 28, which feeds neither field.
        let b = LineAddr(0x42 + (1 << 28));
        assert_eq!(t.index(a), t.index(b));
        assert_eq!(t.tag(a), t.tag(b));
        t.insert(a);
        assert!(t.contains(b), "partial tags alias, as in hardware");
    }

    #[test]
    fn stats_count() {
        let mut t = RrTable::new(64);
        t.insert(LineAddr(1));
        t.contains(LineAddr(1));
        t.contains(LineAddr(2));
        assert_eq!(t.stats(), (1, 2, 1));
    }

    /// Immediately after inserting a line, looking it up always hits
    /// (no false negatives). Deterministic pseudo-random cases.
    #[test]
    fn prop_no_false_negative() {
        let mut rng = SplitMix64::new(7);
        for case in 0..256u64 {
            let size_pow = 5 + (case % 5) as u32;
            let mut t = RrTable::new(1 << size_pow);
            let l = LineAddr(rng.next_u64() % (1 << 40));
            t.insert(l);
            assert!(t.contains(l), "{l:?} size 2^{size_pow}");
        }
    }

    /// Insertions only ever affect one slot: a second insert with a
    /// different index never evicts the first.
    #[test]
    fn prop_distinct_index_no_evict() {
        let mut rng = SplitMix64::new(11);
        let mut checked = 0;
        while checked < 128 {
            let a = rng.next_u64() % (1 << 30);
            let b = rng.next_u64() % (1 << 30);
            let mut t = RrTable::new(256);
            if t.index(LineAddr(a)) == t.index(LineAddr(b)) {
                continue;
            }
            checked += 1;
            t.insert(LineAddr(a));
            t.insert(LineAddr(b));
            assert!(t.contains(LineAddr(a)));
            assert!(t.contains(LineAddr(b)));
        }
    }
}

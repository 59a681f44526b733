//! Set-associative cache arrays with prefetch bits.
//!
//! Each L2 entry carries a *prefetch bit* (§5.6): set when a prefetched
//! line is inserted, reset whenever the line is requested by the level
//! above. "Prefetched hits" (hit with the prefetch bit set) trigger the
//! L2 prefetcher exactly like misses do.

use crate::policy::{InsertCtx, PolicyKind, ReplacementPolicy};
use bosim_types::LineAddr;

/// A block evicted by an insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The evicted line.
    pub line: LineAddr,
    /// Whether it was dirty (must be written back).
    pub dirty: bool,
    /// Whether its prefetch bit was still set — the line was brought in
    /// by a prefetch and evicted without ever serving a demand request
    /// (an *unused* prefetch, counted by the usefulness telemetry).
    pub prefetch: bool,
}

/// Result of a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HitInfo {
    /// The way that hit.
    pub way: usize,
    /// State of the prefetch bit *before* this access cleared it.
    pub was_prefetch: bool,
}

/// Flag bit: the line is dirty.
const DIRTY: u8 = 1;
/// Flag bit: the line's prefetch bit (§5.6).
const PREFETCH: u8 = 2;

/// A set-associative cache array with pluggable replacement.
///
/// The array stores tags and status bits only (trace-driven timing
/// simulation carries no data). Statistics are kept by the caller.
///
/// Layout: way `w` of set `s` is slot `s * ways + w` of two packed
/// arrays. `keys` holds `tag + 1` for a valid line and 0 for an empty
/// way, so a lookup compares one `u64` per way and a fresh array is
/// all zeroes — `vec![0; n]`, whose pages the OS maps only as the cache
/// fills. Line addresses are byte addresses shifted right by 6, so a
/// tag is below 2^58 and `tag + 1` cannot overflow. `flags` holds each
/// slot's dirty bit (1) and prefetch bit (2), 0 on an empty way.
#[derive(Debug)]
pub struct CacheArray {
    sets: usize,
    ways: usize,
    /// log2 of `sets`: a line's tag is `line >> set_bits`.
    set_bits: u32,
    keys: Vec<u64>,
    flags: Vec<u8>,
    repl_state: Vec<u8>,
    policy: Box<dyn ReplacementPolicy>,
}

impl CacheArray {
    /// Builds a cache of `size_bytes` capacity with `ways` ways of 64-byte
    /// lines and the given replacement policy.
    ///
    /// # Panics
    ///
    /// Panics unless `size_bytes / (64 * ways)` is a power of two of at
    /// least one set.
    pub fn new(
        size_bytes: u64,
        ways: usize,
        policy: PolicyKind,
        num_cores: usize,
        seed: u64,
    ) -> Self {
        assert!(ways >= 1);
        let sets = (size_bytes / (64 * ways as u64)) as usize;
        assert!(sets >= 1, "cache too small");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        let n = sets * ways;
        let mut repl_state = vec![0u8; n];
        // Initialise LRU ages to a valid permutation per set.
        for set in 0..sets {
            for w in 0..ways {
                repl_state[set * ways + w] = w as u8;
            }
        }
        CacheArray {
            sets,
            ways,
            set_bits: sets.trailing_zeros(),
            keys: vec![0; n],
            flags: vec![0; n],
            repl_state,
            policy: policy.build(num_cores, seed),
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// The set index for a line.
    #[inline]
    pub fn set_of(&self, line: LineAddr) -> usize {
        (line.0 as usize) & (self.sets - 1)
    }

    /// The stored key of a resident line (see the type docs).
    #[inline]
    fn key_of(&self, line: LineAddr) -> u64 {
        (line.0 >> self.set_bits) + 1
    }

    /// The slot holding `line`, if resident: one scan of the set's keys.
    #[inline]
    fn find(&self, line: LineAddr) -> Option<usize> {
        let base = self.set_of(line) * self.ways;
        let key = self.key_of(line);
        let way = self.keys[base..base + self.ways]
            .iter()
            .position(|&k| k == key)?;
        Some(base + way)
    }

    /// Pure lookup without any state change (used for the mandatory tag
    /// check before inserting a prefetched block, §5.4).
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find(line).is_some()
    }

    /// Performs an access. On a hit, moves the block to MRU, reports and
    /// clears the prefetch bit, and optionally marks it dirty.
    ///
    /// Returns `None` on a miss (the caller issues a fill).
    pub fn access(&mut self, line: LineAddr, write: bool) -> Option<HitInfo> {
        let i = self.find(line)?;
        let set = self.set_of(line);
        let base = set * self.ways;
        let way = i - base;
        let was_prefetch = self.flags[i] & PREFETCH != 0;
        self.flags[i] &= !PREFETCH;
        if write {
            self.flags[i] |= DIRTY;
        }
        self.policy
            .on_hit(set, &mut self.repl_state[base..base + self.ways], way);
        Some(HitInfo { way, was_prefetch })
    }

    /// Counts the resident lines whose prefetch bit is still set —
    /// prefetched blocks that have not yet served a demand request. A
    /// pure scan of the status store (no replacement or prefetch state
    /// changes), sampled by the observability layer at epoch boundaries
    /// as a cache-pollution gauge.
    pub fn prefetched_lines(&self) -> u64 {
        self.flags.iter().filter(|&&f| f & PREFETCH != 0).count() as u64
    }

    /// Inserts a fetched block. `prefetched` sets the prefetch bit; `ctx`
    /// feeds the replacement policy. Returns the evicted block, if any.
    ///
    /// The caller must guarantee the line is not already present (§5.4:
    /// "we must check the cache tags to make sure that the block is not
    /// already in the cache ... Blocks must not be duplicated").
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the line is already present.
    pub fn insert(
        &mut self,
        line: LineAddr,
        prefetched: bool,
        dirty: bool,
        ctx: InsertCtx,
    ) -> Option<Evicted> {
        debug_assert!(!self.contains(line), "duplicate insertion of {line}");
        let set = self.set_of(line);
        let base = set * self.ways;
        // Prefer an empty way; otherwise ask the policy for a victim.
        let (way, evicted) = match self.keys[base..base + self.ways]
            .iter()
            .position(|&k| k == 0)
        {
            Some(w) => (w, None),
            None => {
                let w = self
                    .policy
                    .victim(set, &mut self.repl_state[base..base + self.ways]);
                let (key, flags) = (self.keys[base + w], self.flags[base + w]);
                (
                    w,
                    Some(Evicted {
                        line: LineAddr(((key - 1) << self.set_bits) | set as u64),
                        dirty: flags & DIRTY != 0,
                        prefetch: flags & PREFETCH != 0,
                    }),
                )
            }
        };
        let mut flags = 0;
        if dirty {
            flags |= DIRTY;
        }
        if prefetched {
            flags |= PREFETCH;
        }
        self.keys[base + way] = self.key_of(line);
        self.flags[base + way] = flags;
        self.policy
            .on_insert(set, &mut self.repl_state[base..base + self.ways], way, ctx);
        evicted
    }

    /// Marks a resident line dirty (writeback arriving from above).
    /// Returns false when the line is not resident.
    pub fn mark_dirty(&mut self, line: LineAddr) -> bool {
        match self.find(line) {
            Some(i) => {
                self.flags[i] |= DIRTY;
                true
            }
            None => false,
        }
    }

    /// Number of valid lines currently resident (O(n), for tests/stats).
    pub fn occupancy(&self) -> usize {
        self.keys.iter().filter(|&&k| k != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bosim_types::CoreId;
    use bosim_types::SplitMix64;

    fn ctx() -> InsertCtx {
        InsertCtx {
            demand: true,
            core: CoreId(0),
        }
    }

    fn small_cache() -> CacheArray {
        // 4 sets x 2 ways.
        CacheArray::new(512, 2, PolicyKind::Lru, 1, 1)
    }

    #[test]
    fn geometry() {
        let c = CacheArray::new(512 << 10, 8, PolicyKind::Lru, 1, 1);
        assert_eq!(c.sets(), 1024);
        assert_eq!(c.ways(), 8);
        let l3 = CacheArray::new(8 << 20, 16, PolicyKind::FiveP, 4, 1);
        assert_eq!(l3.sets(), 8192);
    }

    /// The L3 geometry (8MB, 16 ways, 8192 sets): a fresh array is
    /// empty, and every evicted line's address is rebuilt exactly from
    /// its stored key and set — up to the largest line address a 64-bit
    /// byte address has, whose key is the largest `tag + 1`.
    #[test]
    fn l3_geometry_starts_empty_and_rebuilds_evicted_lines() {
        let mut c = CacheArray::new(8 << 20, 16, PolicyKind::Lru, 1, 1);
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.prefetched_lines(), 0);
        let sets = c.sets() as u64;
        let set = sets - 1;
        let top = u64::MAX >> 6; // the last line; it maps to the last set
        assert_eq!(top % sets, set);
        let lines: Vec<u64> = std::iter::once(top)
            .chain((1..16).map(|i| i * (1 << 40) + set))
            .collect();
        for (i, &line) in lines.iter().enumerate() {
            assert!(c
                .insert(LineAddr(line), i % 2 == 0, i % 3 == 0, ctx())
                .is_none());
        }
        assert_eq!(c.occupancy(), 16);
        assert_eq!(c.prefetched_lines(), 8);
        // Overflow the set sixteen times: LRU evicts in insertion order
        // and each victim comes back with its address and bits intact.
        for (i, &line) in lines.iter().enumerate() {
            let filler = LineAddr((0x100 + i as u64) * sets + set);
            let ev = c.insert(filler, false, false, ctx()).expect("full set");
            assert_eq!(ev.line, LineAddr(line), "victim {i}");
            assert_eq!(ev.prefetch, i % 2 == 0, "victim {i}");
            assert_eq!(ev.dirty, i % 3 == 0, "victim {i}");
        }
        assert_eq!(c.occupancy(), 16);
        assert_eq!(c.prefetched_lines(), 0);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small_cache();
        let line = LineAddr(0x40);
        assert!(c.access(line, false).is_none());
        assert!(c.insert(line, false, false, ctx()).is_none());
        let hit = c.access(line, false).unwrap();
        assert!(!hit.was_prefetch);
    }

    #[test]
    fn prefetched_lines_gauge_tracks_bits_not_residency() {
        let mut c = small_cache();
        assert_eq!(c.prefetched_lines(), 0);
        c.insert(LineAddr(1), true, false, ctx());
        c.insert(LineAddr(2), true, false, ctx());
        c.insert(LineAddr(3), false, false, ctx());
        assert_eq!(c.prefetched_lines(), 2);
        // A demand hit clears the bit; the gauge follows.
        c.access(LineAddr(1), false);
        assert_eq!(c.prefetched_lines(), 1);
        assert_eq!(c.occupancy(), 3);
    }

    #[test]
    fn prefetch_bit_set_and_cleared_on_request() {
        let mut c = small_cache();
        let line = LineAddr(0x123);
        c.insert(line, true, false, ctx());
        let hit = c.access(line, false).unwrap();
        assert!(hit.was_prefetch, "first access sees the prefetch bit");
        let hit2 = c.access(line, false).unwrap();
        assert!(!hit2.was_prefetch, "the bit is reset by the request");
    }

    #[test]
    fn eviction_reconstructs_line_address() {
        let mut c = small_cache(); // 4 sets, 2 ways
                                   // Three lines mapping to set 0: 0, 4, 8 (line addr % 4 == 0).
        c.insert(LineAddr(0), false, true, ctx());
        c.insert(LineAddr(4), false, false, ctx());
        let ev = c.insert(LineAddr(8), false, false, ctx()).unwrap();
        assert_eq!(ev.line, LineAddr(0), "LRU victim is the oldest");
        assert!(ev.dirty);
        assert!(!ev.prefetch);
    }

    #[test]
    fn eviction_reports_unused_prefetch_bit() {
        let mut c = small_cache(); // 4 sets, 2 ways
        c.insert(LineAddr(0), true, false, ctx());
        c.insert(LineAddr(4), true, false, ctx());
        // Line 4's prefetch is *used* (demand hit clears the bit); line 0
        // is never touched. Overflowing the set evicts line 0 first.
        c.access(LineAddr(4), false);
        let ev = c.insert(LineAddr(8), false, false, ctx()).unwrap();
        assert_eq!(ev.line, LineAddr(0));
        assert!(ev.prefetch, "evicted without a demand hit: still marked");
        let ev = c.insert(LineAddr(12), false, false, ctx()).unwrap();
        assert_eq!(ev.line, LineAddr(4));
        assert!(!ev.prefetch, "used prefetch evicts with the bit clear");
    }

    #[test]
    fn hit_refreshes_lru() {
        let mut c = small_cache();
        c.insert(LineAddr(0), false, false, ctx());
        c.insert(LineAddr(4), false, false, ctx());
        c.access(LineAddr(0), false); // refresh 0
        let ev = c.insert(LineAddr(8), false, false, ctx()).unwrap();
        assert_eq!(ev.line, LineAddr(4));
    }

    #[test]
    fn write_marks_dirty() {
        let mut c = small_cache();
        c.insert(LineAddr(0), false, false, ctx());
        c.access(LineAddr(0), true);
        c.insert(LineAddr(4), false, false, ctx());
        let ev = c.insert(LineAddr(8), false, false, ctx()).unwrap();
        assert!(ev.dirty);
    }

    /// No duplicate lines, occupancy bounded by capacity, and every
    /// line inserted is either resident or was evicted exactly once.
    /// (Deterministic pseudo-random workloads; formerly a proptest.)
    #[test]
    fn prop_no_duplicates_and_bounded() {
        let mut rng = SplitMix64::new(0xA11CE);
        for case in 0..64u64 {
            let mut c = CacheArray::new(1024, 2, PolicyKind::Lru, 1, 7); // 8 sets x 2
            let mut resident: std::collections::HashSet<u64> = Default::default();
            for _ in 0..(case % 300) + 1 {
                let line = rng.next_u64() % 64;
                let l = LineAddr(line);
                if c.access(l, false).is_none() {
                    let ev = c.insert(
                        l,
                        false,
                        false,
                        InsertCtx {
                            demand: true,
                            core: CoreId(0),
                        },
                    );
                    if let Some(e) = ev {
                        assert!(
                            resident.remove(&e.line.0),
                            "evicted non-resident {:?}",
                            e.line
                        );
                    }
                    assert!(resident.insert(line));
                } else {
                    assert!(resident.contains(&line));
                }
                assert!(c.occupancy() <= 16);
                assert_eq!(c.occupancy(), resident.len());
            }
        }
    }

    /// The same workload under any policy keeps the "no duplicates"
    /// invariant (the policies differ only in *which* line they evict).
    #[test]
    fn prop_all_policies_keep_invariants() {
        let mut rng = SplitMix64::new(0xBEEF);
        for (pi, kind) in [PolicyKind::Lru, PolicyKind::Drrip, PolicyKind::FiveP]
            .into_iter()
            .enumerate()
        {
            for case in 0..24u64 {
                let mut c = CacheArray::new(2048, 4, kind, 4, 11); // 8 sets x 4
                for _ in 0..(case * 7 + pi as u64) % 200 + 1 {
                    let line = rng.next_u64() % 128;
                    let l = LineAddr(line);
                    if c.access(l, false).is_none() {
                        c.insert(
                            l,
                            false,
                            false,
                            InsertCtx {
                                demand: true,
                                core: CoreId((line % 4) as u8),
                            },
                        );
                    }
                    assert!(c.contains(l), "line must be resident after fill");
                }
            }
        }
    }
}

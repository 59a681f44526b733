//! AMPM-lite: a scaled-down Access Map Pattern Matching prefetcher
//! (Ishii, Inaba & Hiraki, JILP 2011 — winner of DPC-1).
//!
//! The BO paper's context: "the Sandbox prefetcher matches or even
//! slightly outperforms the more complex AMPM prefetcher that won the
//! 2009 Data Prefetching Championship" (§2). This implementation lets the
//! repo reproduce that three-way comparison as an extension experiment.
//!
//! AMPM tracks per-zone *access maps* (a bit per line). On an access to
//! line position `p` it tests candidate strides `d`: if positions `p-d`
//! and `p-2d` were both accessed, the pattern `…, p-2d, p-d, p` predicts
//! `p+d` (and `p+2d` at degree 2). Unlike offset prefetchers it needs no
//! learning phase, but also has no notion of timeliness.

use best_offset::{CacheAccess, Prefetcher};
use bosim_types::{LineAddr, PageSize};

/// Lines per access map (a 16KB zone).
const ZONE_LINES: u64 = 256;
const ZONE_WORDS: usize = (ZONE_LINES / 64) as usize;

/// Tracked zones, the table's total entries (64 ≈ 2KB of maps).
pub const ZONES: usize = 64;
/// Zone-table associativity.
pub const WAYS: usize = 4;
/// Largest candidate stride tested, in lines.
pub const MAX_STRIDE: i64 = 32;
/// Most prefetches issued per access.
pub const DEGREE: usize = 2;

/// Zone-table sets.
const SETS: usize = ZONES / WAYS;
const _: () = assert!(SETS.is_power_of_two() && SETS * WAYS == ZONES);

#[derive(Debug, Clone, Copy)]
struct Zone {
    valid: bool,
    tag: u64,
    map: [u64; ZONE_WORDS],
    lru: u8,
}

const EMPTY_ZONE: Zone = Zone {
    valid: false,
    tag: 0,
    map: [0; ZONE_WORDS],
    lru: 0,
};

/// The AMPM-lite L2 prefetcher.
#[derive(Debug)]
pub struct AmpmPrefetcher {
    page: PageSize,
    zones: [Zone; ZONES],
    issued: u64,
}

#[inline]
fn map_get(map: &[u64; ZONE_WORDS], pos: i64) -> bool {
    if !(0..ZONE_LINES as i64).contains(&pos) {
        return false;
    }
    map[(pos / 64) as usize] & (1 << (pos % 64)) != 0
}

impl AmpmPrefetcher {
    /// Creates an AMPM-lite prefetcher for `page`-sized pages.
    pub fn new(page: PageSize) -> Self {
        let mut zones = [EMPTY_ZONE; ZONES];
        for (i, z) in zones.iter_mut().enumerate() {
            z.lru = (i % WAYS) as u8;
        }
        AmpmPrefetcher {
            zones,
            issued: 0,
            page,
        }
    }

    /// Prefetch requests issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Finds (allocating if needed) the zone for a line; returns the
    /// zone index.
    fn zone_for(&mut self, zone_id: u64) -> usize {
        let set = (zone_id as usize) & (SETS - 1);
        let base = set * WAYS;
        let slice = &mut self.zones[base..base + WAYS];
        let way = match slice.iter().position(|z| z.valid && z.tag == zone_id) {
            Some(w) => w,
            None => {
                // Invalid ways first, then the LRU one; the last of equal
                // ways wins.
                let age = |z: &Zone| u16::from(z.lru) + if z.valid { 0 } else { 256 };
                let w = (1..WAYS).fold(0, |best, i| {
                    if age(&slice[i]) >= age(&slice[best]) {
                        i
                    } else {
                        best
                    }
                });
                slice[w].valid = true;
                slice[w].tag = zone_id;
                slice[w].map = [0; ZONE_WORDS];
                w
            }
        };
        // Move to MRU.
        let old = slice[way].lru;
        for z in slice.iter_mut() {
            if z.lru < old {
                z.lru += 1;
            }
        }
        slice[way].lru = 0;
        base + way
    }
}

impl Prefetcher for AmpmPrefetcher {
    fn on_access(&mut self, access: CacheAccess, out: &mut Vec<LineAddr>) {
        if !access.outcome.is_eligible() {
            return;
        }
        let line = access.line;
        let zone_id = line.0 / ZONE_LINES;
        let pos = (line.0 % ZONE_LINES) as i64;
        let zi = self.zone_for(zone_id);
        // Record this access.
        self.zones[zi].map[(pos / 64) as usize] |= 1 << (pos % 64);
        let map = self.zones[zi].map;
        // Pattern match: two prior accesses at stride d predict p+d.
        let mut budget = DEGREE;
        for d in 1..=MAX_STRIDE {
            if budget == 0 {
                break;
            }
            for dir in [d, -d] {
                if budget == 0 {
                    break;
                }
                if map_get(&map, pos - dir) && map_get(&map, pos - 2 * dir) {
                    if let Some(target) = line.checked_offset(dir, self.page) {
                        // Skip already-observed lines within the map.
                        let tpos = pos + dir;
                        if (0..ZONE_LINES as i64).contains(&tpos) && map_get(&map, tpos) {
                            continue;
                        }
                        if !out.contains(&target) {
                            out.push(target);
                            self.issued += 1;
                            budget -= 1;
                        }
                    }
                }
            }
        }
    }

    fn on_fill(&mut self, _line: LineAddr, _prefetched: bool) {}

    fn name(&self) -> &'static str {
        "AMPM"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use best_offset::AccessOutcome;

    fn access(p: &mut AmpmPrefetcher, line: u64) -> Vec<LineAddr> {
        let mut out = Vec::new();
        p.on_access(
            CacheAccess {
                line: LineAddr(line),
                outcome: AccessOutcome::Miss,
            },
            &mut out,
        );
        out
    }

    #[test]
    fn sequential_pattern_prefetches_next_lines() {
        let mut p = AmpmPrefetcher::new(PageSize::M4);
        let base = 10 * ZONE_LINES;
        assert!(access(&mut p, base).is_empty());
        assert!(access(&mut p, base + 1).is_empty());
        let reqs = access(&mut p, base + 2);
        assert!(
            reqs.contains(&LineAddr(base + 3)),
            "pattern ..,p-2,p-1,p predicts p+1: {reqs:?}"
        );
    }

    #[test]
    fn strided_pattern_prefetches_with_stride() {
        let mut p = AmpmPrefetcher::new(PageSize::M4);
        let base = 20 * ZONE_LINES;
        access(&mut p, base);
        access(&mut p, base + 5);
        let reqs = access(&mut p, base + 10);
        assert!(
            reqs.contains(&LineAddr(base + 15)),
            "stride-5 pattern must predict +5: {reqs:?}"
        );
    }

    #[test]
    fn backwards_stream_prefetches_downwards() {
        let mut p = AmpmPrefetcher::new(PageSize::M4);
        let base = 30 * ZONE_LINES + 100;
        access(&mut p, base);
        access(&mut p, base - 1);
        let reqs = access(&mut p, base - 2);
        assert!(
            reqs.contains(&LineAddr(base - 3)),
            "descending stream must prefetch downwards: {reqs:?}"
        );
    }

    #[test]
    fn random_isolated_accesses_stay_quiet() {
        let mut p = AmpmPrefetcher::new(PageSize::M4);
        let mut issued = 0;
        for i in 0..200u64 {
            // Spread accesses over many zones: no pattern forms.
            issued += access(&mut p, bosim_types::mix64(i) >> 30).len();
        }
        assert!(issued < 10, "random traffic should stay quiet: {issued}");
    }

    #[test]
    fn degree_budget_is_respected() {
        let mut p = AmpmPrefetcher::new(PageSize::M4);
        // A sequential stream matches every stride up to its length,
        // more candidates than the degree allows.
        let base = 40 * ZONE_LINES;
        let mut most = 0;
        for i in 0..16 {
            let reqs = access(&mut p, base + i);
            assert!(reqs.len() <= DEGREE, "degree {DEGREE} exceeded: {reqs:?}");
            most = most.max(reqs.len());
        }
        assert_eq!(most, DEGREE);
    }

    #[test]
    fn page_boundaries_respected() {
        let mut p = AmpmPrefetcher::new(PageSize::K4);
        // 4KB page = 64 lines; zone = 256 lines spans 4 pages.
        let base = 50 * ZONE_LINES + 61;
        access(&mut p, base);
        access(&mut p, base + 1);
        let reqs = access(&mut p, base + 2); // line 63 of the page
        for r in &reqs {
            assert!(
                r.same_page(LineAddr(base), PageSize::K4),
                "prefetch crossed the page: {r:?}"
            );
        }
    }

    #[test]
    fn zone_eviction_forgets_old_maps() {
        let mut p = AmpmPrefetcher::new(PageSize::M4);
        // Train a pattern in zone 0, then touch WAYS other zones of its
        // set (zone ids SETS apart) to evict it.
        access(&mut p, 0);
        access(&mut p, 1);
        for z in 1..=WAYS as u64 {
            access(&mut p, z * SETS as u64 * ZONE_LINES);
        }
        // Zone 0 must have been evicted: the old history is gone.
        let reqs = access(&mut p, 2);
        assert!(
            !reqs.contains(&LineAddr(3)),
            "evicted zone must not retain its map: {reqs:?}"
        );
    }
}

//! The Sandbox prefetcher (SBP), Pugsley et al. HPCA 2014, as adapted for
//! comparison in §6.3 of the BO paper.
//!
//! "Our SBP uses the same list of offsets as the BO prefetcher (52
//! positive offsets) and the same number of scores (52). Our SBP uses a
//! 2048-bit Bloom filter indexed with 3 hashing functions. The evaluation
//! period is 256 L2 accesses (miss or prefetched hit). When line X is
//! accessed, we check in the Bloom filter for X, X−D, X−2D and X−3D,
//! incrementing the score on every hit. ... It can also issue 1, 2 or 3
//! prefetch requests for the same offset depending on the score for that
//! offset."
//!
//! Sandboxing evaluates one candidate offset at a time with *fake*
//! prefetches recorded in the Bloom filter — prefetch timeliness is never
//! observed, which is exactly the weakness BO addresses.

use best_offset::{CacheAccess, OffsetList, Prefetcher};
use bosim_types::{mix64, LineAddr, PageSize};

/// Bloom filter size in bits (§6.3: 2048).
pub const BLOOM_BITS: usize = 2048;
/// Hash functions probing the Bloom filter (§6.3: 3).
pub const BLOOM_HASHES: u32 = 3;
/// Evaluation period in eligible L2 accesses (§6.3: 256).
pub const PERIOD: u32 = 256;
/// Score at or above which an offset prefetches `X + D` (degree 1).
///
/// The cutoffs follow the original SBP's accuracy thresholds scaled to
/// the 256-access period with up to 4 sandbox hits per access: degree 1
/// at 25% coverage, degree 2/3 when the pattern persists across 2-3
/// offsets of lookahead.
pub const CUTOFF1: u32 = 64;
/// Score at or above which an offset also prefetches `X + 2D`.
pub const CUTOFF2: u32 = 320;
/// Score at or above which an offset also prefetches `X + 3D`.
pub const CUTOFF3: u32 = 640;
/// Most prefetch requests per access, across all active offsets.
pub const MAX_REQUESTS_PER_ACCESS: usize = 4;

const _: () = assert!(BLOOM_BITS.is_power_of_two() && BLOOM_BITS >= 64 && BLOOM_HASHES >= 1);

/// The [`BLOOM_BITS`]-bit Bloom filter used as the prefetch sandbox,
/// probed with [`BLOOM_HASHES`] hash functions.
#[derive(Debug, Default)]
struct BloomFilter {
    bits: [u64; BLOOM_BITS / 64],
}

impl BloomFilter {
    #[inline]
    fn bit_index(value: u64, k: u32) -> usize {
        (mix64(value ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)) as usize) & (BLOOM_BITS - 1)
    }

    /// Inserts a value.
    fn insert(&mut self, value: u64) {
        for k in 0..BLOOM_HASHES {
            let b = Self::bit_index(value, k);
            self.bits[b / 64] |= 1 << (b % 64);
        }
    }

    /// Tests membership (false positives possible, never negatives).
    fn contains(&self, value: u64) -> bool {
        (0..BLOOM_HASHES).all(|k| {
            let b = Self::bit_index(value, k);
            self.bits[b / 64] & (1 << (b % 64)) != 0
        })
    }

    /// Clears the filter (done between evaluation periods).
    fn clear(&mut self) {
        self.bits.fill(0);
    }
}

/// The Sandbox prefetcher.
#[derive(Debug)]
pub struct SandboxPrefetcher {
    /// Candidate offsets: the BO paper's 52-entry list (§6.3).
    offsets: OffsetList,
    page: PageSize,
    sandbox: BloomFilter,
    /// Latest completed-evaluation score per offset.
    scores: Vec<u32>,
    /// Score being accumulated for the offset under evaluation.
    eval_score: u32,
    /// Index of the offset currently being evaluated.
    eval_idx: usize,
    /// Accesses so far in the current evaluation period.
    accesses: u32,
    /// Active prefetch plan: `(offset, degree)` sorted by score, best
    /// first. Rebuilt when an evaluation period completes.
    plan: Vec<(i64, u32)>,
    issued: u64,
}

impl SandboxPrefetcher {
    /// Creates an SBP with the §6.3 parameters for `page`-sized pages.
    pub fn new(page: PageSize) -> Self {
        let offsets = OffsetList::paper_default();
        SandboxPrefetcher {
            sandbox: BloomFilter::default(),
            scores: vec![0; offsets.len()],
            eval_score: 0,
            eval_idx: 0,
            accesses: 0,
            plan: Vec::new(),
            issued: 0,
            offsets,
            page,
        }
    }

    /// Latest per-offset scores (offset-list order).
    pub fn scores(&self) -> &[u32] {
        &self.scores
    }

    /// The current prefetch plan as `(offset, degree)` pairs.
    pub fn plan(&self) -> &[(i64, u32)] {
        &self.plan
    }

    /// Total prefetch requests issued.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    fn degree_for(score: u32) -> u32 {
        if score >= CUTOFF3 {
            3
        } else if score >= CUTOFF2 {
            2
        } else if score >= CUTOFF1 {
            1
        } else {
            0
        }
    }

    fn rebuild_plan(&mut self) {
        let mut scored: Vec<(u32, i64)> = self
            .scores
            .iter()
            .zip(self.offsets.iter())
            .filter_map(|(&s, d)| {
                if Self::degree_for(s) > 0 {
                    Some((s, d))
                } else {
                    None
                }
            })
            .collect();
        // Highest score first; ties by smaller |offset| (deterministic).
        scored.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.abs().cmp(&b.1.abs())));
        self.plan = scored
            .into_iter()
            .map(|(s, d)| (d, Self::degree_for(s)))
            .collect();
    }

    fn end_period(&mut self) {
        self.scores[self.eval_idx] = self.eval_score;
        self.eval_idx = (self.eval_idx + 1) % self.offsets.len();
        self.eval_score = 0;
        self.accesses = 0;
        self.sandbox.clear();
        self.rebuild_plan();
    }
}

impl Prefetcher for SandboxPrefetcher {
    fn on_access(&mut self, access: CacheAccess, out: &mut Vec<LineAddr>) {
        if !access.outcome.is_eligible() {
            return;
        }
        let x = access.line;
        let d = self.offsets.get(self.eval_idx);

        // --- Sandbox evaluation of the candidate offset ---
        // Check X, X-D, X-2D, X-3D against the fake prefetches.
        for k in 0..4 {
            let probe = x.0 as i64 - k * d;
            if probe >= 0 && self.sandbox.contains(probe as u64) {
                self.eval_score += 1;
            }
        }
        // Fake prefetch X+D (page-bounded like a real one).
        if let Some(fake) = x.checked_offset(d, self.page) {
            self.sandbox.insert(fake.0);
        }
        self.accesses += 1;
        if self.accesses >= PERIOD {
            self.end_period();
        }

        // --- Real prefetching according to the current plan ---
        let mut budget = MAX_REQUESTS_PER_ACCESS;
        for &(offset, degree) in &self.plan {
            for mult in 1..=degree as i64 {
                if budget == 0 {
                    return;
                }
                if let Some(target) = x.checked_offset(offset * mult, self.page) {
                    if !out.contains(&target) {
                        out.push(target);
                        self.issued += 1;
                        budget -= 1;
                    }
                }
            }
        }
    }

    fn on_fill(&mut self, _line: LineAddr, _prefetched: bool) {
        // The sandbox records fake prefetches only; real fills are not
        // observed — SBP is blind to timeliness by construction.
    }

    fn name(&self) -> &'static str {
        "SBP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use best_offset::AccessOutcome;

    fn access(p: &mut SandboxPrefetcher, line: u64) -> Vec<LineAddr> {
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
    fn bloom_filter_membership() {
        let mut b = BloomFilter::default();
        assert!(!b.contains(42));
        b.insert(42);
        assert!(b.contains(42));
        b.clear();
        assert!(!b.contains(42));
    }

    #[test]
    fn bloom_filter_false_positive_rate_is_low_when_sparse() {
        let mut b = BloomFilter::default();
        for v in 0..64 {
            b.insert(v);
        }
        let fp = (1000u64..6000).filter(|&v| b.contains(v)).count();
        assert!(fp < 100, "false positives: {fp}/5000");
    }

    #[test]
    fn no_prefetch_before_any_evaluation() {
        let mut p = SandboxPrefetcher::new(PageSize::M4);
        // Plan is empty until a period completes with a passing score.
        assert!(access(&mut p, 1000).is_empty());
    }

    #[test]
    fn sequential_stream_activates_offsets() {
        let mut p = SandboxPrefetcher::new(PageSize::M4);
        let mut line = 4096u64;
        // Run enough periods to evaluate several candidates; candidate 1
        // (offset 1) on a sequential stream scores ~4 hits/access.
        for _ in 0..256 * 4 {
            access(&mut p, line);
            line += 1;
        }
        assert!(
            !p.plan().is_empty(),
            "sequential stream must activate at least offset 1"
        );
        // Offset 1 should be planned with maximal degree.
        let d1 = p.plan().iter().find(|&&(d, _)| d == 1);
        assert_eq!(d1, Some(&(1, 3)));
        let reqs = access(&mut p, line);
        assert!(!reqs.is_empty());
        assert!(reqs.contains(&LineAddr(line + 1)));
    }

    #[test]
    fn random_traffic_stays_off() {
        let mut p = SandboxPrefetcher::new(PageSize::M4);
        let mut x = 7u64;
        for _ in 0..256 * 55 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            access(&mut p, x >> 20);
        }
        assert!(
            p.plan().is_empty(),
            "no offset should pass the accuracy cutoff on random traffic"
        );
    }

    #[test]
    fn request_budget_is_respected() {
        // A sequential stream plans offset 1 at degree 3 and more
        // offsets besides: more candidates than the budget allows.
        let mut p = SandboxPrefetcher::new(PageSize::M4);
        let mut most = 0;
        for line in 8192u64..8192 + 256 * 8 {
            let reqs = access(&mut p, line);
            assert!(
                reqs.len() <= MAX_REQUESTS_PER_ACCESS,
                "budget exceeded: {}",
                reqs.len()
            );
            most = most.max(reqs.len());
        }
        assert_eq!(most, MAX_REQUESTS_PER_ACCESS, "{:?}", p.plan());
    }

    #[test]
    fn page_boundaries_respected() {
        let mut p = SandboxPrefetcher::new(PageSize::K4);
        for line in 0u64..256 * 6 {
            let reqs = access(&mut p, line);
            for r in reqs {
                assert!(
                    r.same_page(LineAddr(line), PageSize::K4),
                    "prefetch crossed page"
                );
            }
        }
    }
}

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

/// A small Bloom filter used as the prefetch sandbox.
#[derive(Debug, Clone)]
pub struct BloomFilter {
    bits: Vec<u64>,
    num_bits: usize,
    hashes: u32,
}

impl BloomFilter {
    /// Creates a filter of `num_bits` bits (power of two) probed with
    /// `hashes` hash functions.
    ///
    /// # Panics
    ///
    /// Panics if `num_bits` is not a power of two or `hashes == 0`.
    pub fn new(num_bits: usize, hashes: u32) -> Self {
        assert!(num_bits.is_power_of_two() && num_bits >= 64);
        assert!(hashes >= 1);
        BloomFilter {
            bits: vec![0; num_bits / 64],
            num_bits,
            hashes,
        }
    }

    #[inline]
    fn bit_index(&self, value: u64, k: u32) -> usize {
        (mix64(value ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)) as usize)
            & (self.num_bits - 1)
    }

    /// Inserts a value.
    pub fn insert(&mut self, value: u64) {
        for k in 0..self.hashes {
            let b = self.bit_index(value, k);
            self.bits[b / 64] |= 1 << (b % 64);
        }
    }

    /// Tests membership (false positives possible, never negatives).
    pub fn contains(&self, value: u64) -> bool {
        (0..self.hashes).all(|k| {
            let b = self.bit_index(value, k);
            self.bits[b / 64] & (1 << (b % 64)) != 0
        })
    }

    /// Clears the filter (done between evaluation periods).
    pub fn clear(&mut self) {
        self.bits.fill(0);
    }
}

/// SBP tuning parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SbpConfig {
    /// Candidate offsets (default: the BO paper's 52-entry list, §6.3).
    pub offsets: OffsetList,
    /// Bloom filter size in bits (default 2048).
    pub bloom_bits: usize,
    /// Bloom hash functions (default 3).
    pub bloom_hashes: u32,
    /// Evaluation period in eligible L2 accesses (default 256).
    pub period: u32,
    /// Score cutoff to prefetch with an offset at all (degree 1).
    pub cutoff1: u32,
    /// Score cutoff to also prefetch `X + 2D` (degree 2).
    pub cutoff2: u32,
    /// Score cutoff to also prefetch `X + 3D` (degree 3).
    pub cutoff3: u32,
    /// Maximum prefetch requests per access across all active offsets.
    pub max_requests_per_access: usize,
}

impl Default for SbpConfig {
    fn default() -> Self {
        // Cutoffs follow the original SBP's accuracy thresholds scaled to
        // the 256-access period with up to 4 sandbox hits per access:
        // degree 1 at 25% coverage, degree 2/3 when the pattern persists
        // across 2-3 offsets of lookahead.
        SbpConfig {
            offsets: OffsetList::paper_default(),
            bloom_bits: 2048,
            bloom_hashes: 3,
            period: 256,
            cutoff1: 64,
            cutoff2: 320,
            cutoff3: 640,
            max_requests_per_access: 4,
        }
    }
}

/// The Sandbox prefetcher.
#[derive(Debug)]
pub struct SandboxPrefetcher {
    cfg: SbpConfig,
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
    /// Creates an SBP with the given configuration.
    pub fn new(cfg: SbpConfig, page: PageSize) -> Self {
        let n = cfg.offsets.len();
        let sandbox = BloomFilter::new(cfg.bloom_bits, cfg.bloom_hashes);
        SandboxPrefetcher {
            sandbox,
            scores: vec![0; n],
            eval_score: 0,
            eval_idx: 0,
            accesses: 0,
            plan: Vec::new(),
            issued: 0,
            cfg,
            page,
        }
    }

    /// Creates an SBP with the §6.3 defaults.
    pub fn with_defaults(page: PageSize) -> Self {
        Self::new(SbpConfig::default(), page)
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

    fn degree_for(&self, score: u32) -> u32 {
        if score >= self.cfg.cutoff3 {
            3
        } else if score >= self.cfg.cutoff2 {
            2
        } else if score >= self.cfg.cutoff1 {
            1
        } else {
            0
        }
    }

    fn rebuild_plan(&mut self) {
        let mut scored: Vec<(u32, i64)> = self
            .scores
            .iter()
            .zip(self.cfg.offsets.iter())
            .filter_map(|(&s, d)| {
                if self.degree_for(s) > 0 {
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
            .map(|(s, d)| (d, self.degree_for(s)))
            .collect();
    }

    fn end_period(&mut self) {
        self.scores[self.eval_idx] = self.eval_score;
        self.eval_idx = (self.eval_idx + 1) % self.cfg.offsets.len();
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
        let d = self.cfg.offsets.get(self.eval_idx);

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
        if self.accesses >= self.cfg.period {
            self.end_period();
        }

        // --- Real prefetching according to the current plan ---
        let mut budget = self.cfg.max_requests_per_access;
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
        let mut b = BloomFilter::new(2048, 3);
        assert!(!b.contains(42));
        b.insert(42);
        assert!(b.contains(42));
        b.clear();
        assert!(!b.contains(42));
    }

    #[test]
    fn bloom_filter_false_positive_rate_is_low_when_sparse() {
        let mut b = BloomFilter::new(2048, 3);
        for v in 0..64 {
            b.insert(v);
        }
        let fp = (1000u64..6000).filter(|&v| b.contains(v)).count();
        assert!(fp < 100, "false positives: {fp}/5000");
    }

    #[test]
    fn no_prefetch_before_any_evaluation() {
        let mut p = SandboxPrefetcher::with_defaults(PageSize::M4);
        // Plan is empty until a period completes with a passing score.
        assert!(access(&mut p, 1000).is_empty());
    }

    #[test]
    fn sequential_stream_activates_offsets() {
        let mut p = SandboxPrefetcher::with_defaults(PageSize::M4);
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
        let mut p = SandboxPrefetcher::with_defaults(PageSize::M4);
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
        let cfg = SbpConfig {
            max_requests_per_access: 2,
            ..Default::default()
        };
        let mut p = SandboxPrefetcher::new(cfg, PageSize::M4);
        for line in 8192u64..8192 + 256 * 8 {
            let reqs = access(&mut p, line);
            assert!(reqs.len() <= 2, "budget exceeded: {}", reqs.len());
        }
    }

    #[test]
    fn page_boundaries_respected() {
        let mut p = SandboxPrefetcher::with_defaults(PageSize::K4);
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

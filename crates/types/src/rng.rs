//! Deterministic mixing and pseudo-random generation.
//!
//! The baseline "simulates virtual-to-physical address translation by
//! applying a randomizing hash function on the virtual page number" (§5.1).
//! [`mix64`] is that hash; [`SplitMix64`] is a tiny deterministic generator
//! used where a full `rand` dependency would be overkill (e.g. the BIP
//! insertion coin-flips). [`fnv64`] hashes byte strings for keys and
//! digests that must not change between processes.

/// SplitMix64 finaliser: a high-quality 64-bit mixing function.
///
/// Used as the randomising virtual-to-physical page hash and for cache
/// index hashing. Deterministic: simulator runs are exactly reproducible.
///
/// ```
/// use bosim_types::mix64;
/// assert_eq!(mix64(42), mix64(42));
/// assert_ne!(mix64(42), mix64(43));
/// ```
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// 64-bit FNV-1a — the workspace's restart-stable hash for job keys,
/// plan fingerprints, artifact spill names and result digests
/// (`DefaultHasher` is seeded per process and cannot be trusted across
/// restarts).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A minimal deterministic pseudo-random generator (SplitMix64 stream).
///
/// Not cryptographic; used for replacement-policy coin flips and synthetic
/// workload perturbations where reproducibility matters more than quality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`. `bound` must be non-zero.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be non-zero");
        // Multiply-shift; bias is negligible for simulator purposes.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Bernoulli draw: true with probability `num / den`.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    #[inline]
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_below(den) < num
    }
}

impl Default for SplitMix64 {
    fn default() -> Self {
        SplitMix64::new(0x005E_ED0F_BEEF)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_deterministic_and_spreads() {
        let a = mix64(1);
        let b = mix64(2);
        assert_ne!(a, b);
        // Adjacent inputs should differ in many bits (avalanche sanity).
        assert!((a ^ b).count_ones() > 16);
    }

    #[test]
    fn fnv64_is_stable() {
        // Pinned values: journal keys and result digests must never
        // drift between builds, or resumes would re-run the whole grid.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv64(b"ab"), fnv64(b"ba"));
    }

    #[test]
    fn splitmix_sequence_is_reproducible() {
        let mut g1 = SplitMix64::new(7);
        let mut g2 = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(g1.next_u64(), g2.next_u64());
        }
    }

    #[test]
    fn next_below_respects_bound() {
        let mut g = SplitMix64::new(99);
        for _ in 0..10_000 {
            assert!(g.next_below(13) < 13);
        }
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut g = SplitMix64::new(3);
        let hits = (0..100_000).filter(|_| g.chance(1, 32)).count();
        // Expect ~3125; allow generous slack.
        assert!((2500..3800).contains(&hits), "hits={hits}");
    }

    #[test]
    #[should_panic]
    fn next_below_zero_bound_panics() {
        SplitMix64::new(1).next_below(0);
    }
}

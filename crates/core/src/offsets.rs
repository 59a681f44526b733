//! The offset list (§4.2).
//!
//! "We include in our list all the offsets between 1 and 256 whose prime
//! factorization does not contain primes greater than 5. This gives the
//! following list of 52 offsets: 1 2 3 4 5 6 8 9 10 12 15 16 18 20 24 25
//! 27 30 32 36 40 45 48 50 54 60 64 72 75 80 81 90 96 100 108 120 125 128
//! 135 144 150 160 162 180 192 200 216 225 240 243 250 256."

/// An ordered list of candidate prefetch offsets (in lines).
///
/// Offsets are signed: the paper evaluates positive offsets only ("we did
/// not observe any benefit" from negative ones, §4.2) but the ablation
/// harness can construct lists with negative entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OffsetList {
    offsets: Vec<i64>,
}

impl OffsetList {
    /// Creates a list from explicit offsets.
    ///
    /// # Panics
    ///
    /// Panics if the list is empty, contains zero, or contains duplicates.
    pub fn new(offsets: Vec<i64>) -> Self {
        match Self::try_new(offsets) {
            Ok(list) => list,
            #[expect(
                clippy::panic,
                reason = "documented Panics contract; try_new is the fallible twin"
            )]
            Err(reason) => panic!("{reason}"),
        }
    }

    /// Fallible construction: returns a description of the violated
    /// constraint instead of panicking (used by configuration validation
    /// in parameter sweeps).
    ///
    /// # Errors
    ///
    /// Returns an error when the list is empty, contains zero, or
    /// contains duplicates.
    pub fn try_new(offsets: Vec<i64>) -> Result<Self, &'static str> {
        if offsets.is_empty() {
            return Err("offset list cannot be empty");
        }
        if offsets.contains(&0) {
            return Err("offset 0 is not a prefetch");
        }
        let mut dedup = offsets.clone();
        dedup.sort_unstable();
        dedup.dedup();
        if dedup.len() != offsets.len() {
            return Err("duplicate offsets");
        }
        Ok(OffsetList { offsets })
    }

    /// The paper's default list: every integer in `1..=max` whose prime
    /// factorisation contains no prime larger than 5 (5-smooth numbers).
    ///
    /// With `max = 256` this yields the 52 offsets of §4.2.
    ///
    /// ```
    /// use best_offset::OffsetList;
    /// let l = OffsetList::smooth5(256);
    /// assert_eq!(l.len(), 52);
    /// assert_eq!(l.iter().next(), Some(1));
    /// assert_eq!(l.iter().last(), Some(256));
    /// ```
    pub fn smooth5(max: i64) -> Self {
        assert!(max >= 1);
        let offsets = (1..=max).filter(|&n| is_smooth5(n)).collect();
        OffsetList { offsets }
    }

    /// The full range `1..=max` (the "all offsets" alternative discussed
    /// in §4.2, used by the ablation benches).
    pub fn full_range(max: i64) -> Self {
        assert!(max >= 1);
        OffsetList {
            offsets: (1..=max).collect(),
        }
    }

    /// Default paper configuration ([`smooth5`](Self::smooth5)`(256)`).
    pub fn paper_default() -> Self {
        Self::smooth5(256)
    }

    /// Number of offsets (the score table has one entry per offset).
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// True when the list holds no offsets (never: construction forbids).
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// The offset at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn get(&self, i: usize) -> i64 {
        self.offsets[i]
    }

    /// Iterates over offsets in list order.
    pub fn iter(&self) -> impl Iterator<Item = i64> + '_ {
        self.offsets.iter().copied()
    }

    /// The offsets as a slice.
    pub fn as_slice(&self) -> &[i64] {
        &self.offsets
    }
}

/// True when `n`'s prime factorisation contains no prime larger than 5.
fn is_smooth5(mut n: i64) -> bool {
    debug_assert!(n >= 1);
    for p in [2, 3, 5] {
        while n % p == 0 {
            n /= p;
        }
    }
    n == 1
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact list printed in §4.2 of the paper.
    const PAPER_LIST: [i64; 52] = [
        1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 18, 20, 24, 25, 27, 30, 32, 36, 40, 45, 48, 50, 54,
        60, 64, 72, 75, 80, 81, 90, 96, 100, 108, 120, 125, 128, 135, 144, 150, 160, 162, 180, 192,
        200, 216, 225, 240, 243, 250, 256,
    ];

    #[test]
    fn default_list_matches_paper_exactly() {
        let l = OffsetList::paper_default();
        assert_eq!(l.as_slice(), &PAPER_LIST);
    }

    #[test]
    fn smooth5_predicate() {
        assert!(is_smooth5(1));
        assert!(is_smooth5(243)); // 3^5
        assert!(is_smooth5(250)); // 2 * 5^4
        assert!(!is_smooth5(7));
        assert!(!is_smooth5(14));
        assert!(!is_smooth5(121)); // 11^2
    }

    #[test]
    fn lcm_closure_property() {
        // §4.2: "if two offsets are in the list, so is their least common
        // multiple (provided it is not too large)".
        fn gcd(a: i64, b: i64) -> i64 {
            if b == 0 {
                a
            } else {
                gcd(b, a % b)
            }
        }
        let l = OffsetList::paper_default();
        for &a in l.as_slice() {
            for &b in l.as_slice() {
                let lcm = a / gcd(a, b) * b;
                if lcm <= 256 {
                    assert!(l.as_slice().contains(&lcm), "lcm({a},{b})={lcm} missing");
                }
            }
        }
    }

    #[test]
    fn full_range_has_max_entries() {
        let l = OffsetList::full_range(63);
        assert_eq!(l.len(), 63);
        assert_eq!(l.get(0), 1);
        assert_eq!(l.get(62), 63);
    }

    #[test]
    fn custom_list_with_negatives() {
        let l = OffsetList::new(vec![-2, -1, 1, 2]);
        assert_eq!(l.len(), 4);
    }

    #[test]
    #[should_panic]
    fn zero_offset_rejected() {
        OffsetList::new(vec![1, 0]);
    }

    #[test]
    #[should_panic]
    fn duplicate_offset_rejected() {
        OffsetList::new(vec![1, 2, 1]);
    }
}

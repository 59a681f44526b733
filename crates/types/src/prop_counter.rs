//! Proportional counters (§5.2 of the paper).
//!
//! "We have one counter per insertion policy. ... if the counter value
//! could increase without limitation, this mechanism would be unable to
//! adapt to application behavior changes. Hence we limit the counter value,
//! which cannot exceed CMAX. When any counter reaches CMAX, all counter
//! values are halved at the same time. This mechanism, which we call
//! proportional counters, gives more weight to recent events."
//!
//! The same mechanism is reused by the L3 per-core miss-rate estimator
//! (§5.2) and by the memory-controller fairness scheduler (§5.3, 7-bit
//! counters).

/// A bank of saturating counters that are all halved together whenever any
/// of them reaches its maximum, giving exponentially more weight to recent
/// events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProportionalCounters {
    values: Vec<u32>,
    cmax: u32,
}

impl ProportionalCounters {
    /// Creates `n` counters of `bits` width (CMAX = 2^bits - 1), all zero.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `bits` is 0 or larger than 31.
    pub fn new(n: usize, bits: u32) -> Self {
        assert!(n > 0, "need at least one counter");
        assert!((1..=31).contains(&bits), "bits must be in 1..=31");
        ProportionalCounters {
            values: vec![0; n],
            cmax: (1 << bits) - 1,
        }
    }

    /// Number of counters in the bank.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the bank is empty (never: construction requires `n > 0`).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The saturation value CMAX.
    pub fn cmax(&self) -> u32 {
        self.cmax
    }

    /// Current value of counter `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        self.values[i]
    }

    /// Increments counter `i`; if it reaches CMAX, all counters are halved
    /// simultaneously.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn increment(&mut self, i: usize) {
        self.values[i] += 1;
        if self.values[i] >= self.cmax {
            for v in &mut self.values {
                *v >>= 1;
            }
        }
    }

    /// Index of the counter with the lowest value (ties broken by lowest
    /// index, deterministically).
    #[expect(
        clippy::expect_used,
        reason = "bank width is validated non-zero at construction"
    )]
    pub fn argmin(&self) -> usize {
        self.values
            .iter()
            .enumerate()
            .min_by_key(|&(i, &v)| (v, i))
            .map(|(i, _)| i)
            .expect("bank is non-empty")
    }

    /// The maximum counter value in the bank.
    #[expect(
        clippy::expect_used,
        reason = "bank width is validated non-zero at construction"
    )]
    pub fn max_value(&self) -> u32 {
        *self.values.iter().max().expect("bank is non-empty")
    }

    /// The miss-rate test of §5.2: counter `i` is "low" if its value is
    /// less than 1/4 of the maximum of all counter values.
    #[inline]
    pub fn is_low(&self, i: usize) -> bool {
        self.values[i] < self.max_value() / 4
    }

    /// Difference `get(a) - get(b)` as a signed value (used by the §5.3
    /// urgent-mode test "difference ... exceeds 31").
    #[inline]
    pub fn diff(&self, a: usize, b: usize) -> i64 {
        self.values[a] as i64 - self.values[b] as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn increments_accumulate() {
        let mut c = ProportionalCounters::new(3, 12);
        c.increment(1);
        c.increment(1);
        c.increment(2);
        assert_eq!(c.get(0), 0);
        assert_eq!(c.get(1), 2);
        assert_eq!(c.get(2), 1);
    }

    #[test]
    fn halving_fires_at_cmax() {
        let mut c = ProportionalCounters::new(2, 4); // CMAX = 15
        for _ in 0..14 {
            c.increment(0);
        }
        assert_eq!(c.get(0), 14);
        c.increment(1); // no halving
        assert_eq!(c.get(1), 1);
        c.increment(0); // reaches 15 => halve all
        assert_eq!(c.get(0), 7);
        assert_eq!(c.get(1), 0);
    }

    #[test]
    fn argmin_prefers_lowest_index_on_tie() {
        let mut c = ProportionalCounters::new(4, 8);
        c.increment(0);
        c.increment(2);
        // counters: [1,0,1,0] -> argmin = 1
        assert_eq!(c.argmin(), 1);
    }

    #[test]
    fn is_low_quarter_rule() {
        let mut c = ProportionalCounters::new(2, 12);
        for _ in 0..100 {
            c.increment(0);
        }
        for _ in 0..10 {
            c.increment(1);
        }
        // max = 100; 10 < 25 => low
        assert!(c.is_low(1));
        assert!(!c.is_low(0));
    }

    #[test]
    fn proportion_preserved_after_halving() {
        let mut c = ProportionalCounters::new(2, 6); // CMAX = 63
                                                     // Increment 0 twice as often as 1; ratio survives halving roughly.
        for _ in 0..200 {
            c.increment(0);
            c.increment(0);
            c.increment(1);
        }
        let (a, b) = (c.get(0) as f64, c.get(1) as f64);
        assert!(a > b, "a={a} b={b}");
    }

    #[test]
    #[should_panic]
    fn zero_counters_panics() {
        ProportionalCounters::new(0, 8);
    }
}

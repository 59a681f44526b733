//! Summary statistics: the geometric mean.

/// Geometric mean; `None` for an empty iterator.
///
/// This is the summary statistic used throughout the paper's evaluation
/// ("the rightmost cluster of each graph is the geometric mean over the 29
/// benchmarks").
///
/// # Panics
///
/// Panics if any value is not strictly positive (speedups always are).
pub fn geometric_mean(values: impl IntoIterator<Item = f64>) -> Option<f64> {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        assert!(v > 0.0, "geometric mean requires positive values, got {v}");
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        None
    } else {
        Some((log_sum / n as f64).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    /// Deterministic pseudo-random value vectors (splitmix64-based) for
    /// the property checks below, keeping the crate dependency-free.
    fn random_vectors(lo: f64, hi: f64, max_len: usize) -> Vec<Vec<f64>> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        (0..64)
            .map(|i| {
                (0..(i % max_len) + 1)
                    .map(|_| lo + (hi - lo) * (next() >> 11) as f64 / (1u64 << 53) as f64)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn geomean_basics() {
        assert_eq!(geometric_mean(std::iter::empty()), None);
        assert!(close(geometric_mean([4.0, 1.0]).unwrap(), 2.0));
        assert!(close(geometric_mean([8.0]).unwrap(), 8.0));
    }

    #[test]
    #[should_panic]
    fn geomean_rejects_nonpositive() {
        geometric_mean([1.0, 0.0]);
    }

    #[test]
    fn prop_geomean_between_min_and_max() {
        for values in random_vectors(0.01, 100.0, 40) {
            let gm = geometric_mean(values.iter().copied()).unwrap();
            let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = values.iter().cloned().fold(0.0f64, f64::max);
            assert!(gm >= lo - 1e-9 && gm <= hi + 1e-9, "{values:?}");
        }
    }

    #[test]
    fn prop_geomean_scale_invariance() {
        for (i, values) in random_vectors(0.1, 10.0, 20).into_iter().enumerate() {
            let k = 0.1 + (i as f64) * 0.15;
            let gm = geometric_mean(values.iter().copied()).unwrap();
            let gm_scaled = geometric_mean(values.iter().map(|v| v * k)).unwrap();
            assert!(
                (gm_scaled - gm * k).abs() < 1e-6 * gm_scaled.abs().max(1.0),
                "{values:?} * {k}"
            );
        }
    }

    #[test]
    fn prop_hm_le_gm_le_am() {
        for values in random_vectors(0.1, 10.0, 20) {
            let n = values.len() as f64;
            let am = values.iter().sum::<f64>() / n;
            let gm = geometric_mean(values.iter().copied()).unwrap();
            let hm = n / values.iter().map(|v| 1.0 / v).sum::<f64>();
            assert!(hm <= gm + 1e-9, "{values:?}");
            assert!(gm <= am + 1e-9, "{values:?}");
        }
    }
}

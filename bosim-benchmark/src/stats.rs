//! Order statistics over repetitions and the regression verdict.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Which value of a run's repetitions a metric reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pick {
    /// The best repetition. Other tenants of a shared host only ever slow
    /// a repetition down, in bursts from a fraction of a second to
    /// minutes long, so from run to run the best repetition moves far
    /// less than the median.
    Best,
    Median,
}

/// Median, quartiles and extremes of one metric over `n` values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub p25: f64,
    pub median: f64,
    pub p75: f64,
    pub max: f64,
}

impl Summary {
    /// Summarises `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let [p25, median, p75] = quartiles(values)?;
        Some(Summary {
            n: values.len(),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            p25,
            median,
            p75,
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        })
    }

    /// The value a metric whose improvements go `better` reports.
    pub fn pick(&self, pick: Pick, better: Better) -> f64 {
        match (pick, better) {
            (Pick::Median, _) => self.median,
            (Pick::Best, Better::Lower) => self.min,
            (Pick::Best, Better::Higher) => self.max,
        }
    }

    /// Interquartile range as a share of the median — the run-to-run
    /// spread a bound has to clear.
    pub fn spread(&self) -> f64 {
        (self.p75 - self.p25) / self.median.abs()
    }
}

/// The three quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (its default
/// "exclusive" method), so printed numbers can be re-derived with
/// Python's standard library. The middle one is the median. A single
/// value is its own quartiles.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        1 => Some([v[0]; 3]),
        _ => {
            let m = n + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            Some([q(1), q(2), q(3)])
        }
    }
}

/// The median of `values`; NaN when there are none.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).map_or(f64::NAN, |q| q[1])
}

/// The outcome of comparing one metric of a change against its parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound.
    Better,
    /// Worsened by more than the bound: a regression.
    Worse,
    /// Moved by no more than the bound either way.
    Within,
    /// Either side's interquartile spread exceeds the bound, so the runs
    /// cannot tell a change of the bound's size from noise.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Within => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `change` is than `parent`, as a share of the parent's
/// median (negative when it is better).
pub fn worsening(better: Better, parent: &Summary, change: &Summary) -> f64 {
    let delta = (change.median - parent.median) / parent.median.abs();
    match better {
        Better::Lower => delta,
        Better::Higher => -delta,
    }
}

/// Judges `change` against `parent` for a metric that may worsen by at
/// most `bound` (a share of the parent's median).
pub fn verdict(better: Better, bound: f64, parent: &Summary, change: &Summary) -> Verdict {
    if parent.spread() > bound || change.spread() > bound {
        return Verdict::Unresolved;
    }
    let w = worsening(better, parent, change);
    if w > bound {
        Verdict::Worse
    } else if w < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// 64-bit FNV-1a, the digest of simulated results.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&ten).unwrap();
        assert!(
            close(q[0], 2.75) && close(q[1], 5.5) && close(q[2], 8.25),
            "{q:?}"
        );
        // statistics.quantiles([3, 1, 2, 7, 5, 4, 6], n=4) == [2.0, 4.0, 6.0]
        let seven = [3.0, 1.0, 2.0, 7.0, 5.0, 4.0, 6.0];
        assert_eq!(quartiles(&seven).unwrap(), [2.0, 4.0, 6.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = quartiles(&[2.0, 1.0]).unwrap();
        assert!(
            close(q[0], 0.75) && close(q[1], 1.5) && close(q[2], 2.25),
            "{q:?}"
        );
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]).unwrap(), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[4.5]).unwrap(), [4.5; 3]);
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn the_middle_quartile_is_the_median() {
        for n in 2..12 {
            let v: Vec<f64> = (0..n).map(|i| f64::from(i * i)).collect();
            let median = if n % 2 == 1 {
                v[n as usize / 2]
            } else {
                (v[n as usize / 2 - 1] + v[n as usize / 2]) / 2.0
            };
            assert!(close(quartiles(&v).unwrap()[1], median), "n={n}");
        }
    }

    #[test]
    fn spread_is_the_iqr_over_the_median() {
        let s = Summary::of(&[4.0, 2.0, 3.0, 1.0, 5.0, 6.0, 7.0]).unwrap();
        assert_eq!((s.n, s.p25, s.median, s.p75), (7, 2.0, 4.0, 6.0));
        assert!(close(s.spread(), 1.0));
        assert_eq!(s.pick(Pick::Median, Better::Lower), 4.0);
        assert_eq!(s.pick(Pick::Best, Better::Lower), 1.0);
        assert_eq!(s.pick(Pick::Best, Better::Higher), 7.0);
    }

    fn summary(median: f64, spread: f64) -> Summary {
        Summary {
            n: 7,
            min: median * (1.0 - spread),
            p25: median * (1.0 - spread / 2.0),
            median,
            p75: median * (1.0 + spread / 2.0),
            max: median * (1.0 + spread),
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let parent = summary(100.0, 0.02);
        let v = |better, median| verdict(better, 0.10, &parent, &summary(median, 0.02));
        assert_eq!(v(Better::Lower, 111.0), Verdict::Worse);
        assert_eq!(v(Better::Lower, 109.0), Verdict::Within);
        assert_eq!(v(Better::Lower, 95.0), Verdict::Within);
        assert_eq!(v(Better::Lower, 85.0), Verdict::Better);
        assert_eq!(v(Better::Higher, 85.0), Verdict::Worse);
        assert_eq!(v(Better::Higher, 111.0), Verdict::Better);
        assert_eq!(v(Better::Higher, 100.0), Verdict::Within);
        // A side whose quartiles sit further apart than the bound cannot
        // resolve a change of the bound's size, whatever the medians say.
        let noisy = summary(150.0, 0.2);
        assert_eq!(
            verdict(Better::Lower, 0.10, &parent, &noisy),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(Better::Lower, 0.10, &noisy, &parent),
            Verdict::Unresolved
        );
        assert!(close(
            worsening(Better::Higher, &parent, &summary(90.0, 0.0)),
            0.1
        ));
    }

    #[test]
    fn fnv64_matches_the_reference_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}

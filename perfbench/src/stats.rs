//! Order statistics for timings: median, quartiles, and the tail rule.
//!
//! The tail rule: report the highest percentile that still has at
//! least [`TAIL_MIN_BEYOND`] samples beyond it, with the sample count,
//! so a "p99" is never read off a handful of points.

/// Samples a reported tail percentile must have strictly beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Candidate tail percentiles in per-mille (integer, so 99.9% of
/// 10 000 is exactly rank 9990), highest first.
const TAIL_CANDIDATES: [u64; 5] = [999, 990, 950, 900, 750];

/// A percentile read off a sample set, with the count it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// Percentile in `0..=100`.
    pub pct: f64,
    /// Its value (nearest-rank on the sorted samples).
    pub value: f64,
    /// Samples the value was read from.
    pub count: usize,
}

/// 1-based nearest rank of the `per_mille` position among `n` samples.
fn rank(n: usize, per_mille: u64) -> usize {
    (per_mille as usize * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank `per_mille` position.
fn beyond(n: usize, per_mille: u64) -> usize {
    n - rank(n, per_mille).min(n)
}

/// The highest candidate percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond it, or `None` when not even the upper quartile has
/// that many (fewer than 40 samples).
pub fn tail(samples: &[f64]) -> Option<Quantile> {
    let sorted = sorted(samples);
    let n = sorted.len();
    TAIL_CANDIDATES
        .iter()
        .find(|&&pm| n > 0 && beyond(n, pm) >= TAIL_MIN_BEYOND)
        .map(|&pm| Quantile {
            pct: pm as f64 / 10.0,
            value: sorted[rank(n, pm) - 1],
            count: n,
        })
}

/// Nearest-rank 99th percentile, whatever the sample count.
pub fn p99(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    s.get(rank(s.len(), 990) - 1).copied().unwrap_or(f64::NAN)
}

/// A copy of `samples` sorted ascending (`NaN`s last).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median and quartiles of a sample set, as Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method), so the benchmark reads its own spread the way its
/// acceptance check does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub count: usize,
}

/// [`Spread`] of `samples`; every field is `NaN` when empty, and a
/// single sample is its own median and quartiles.
pub fn spread(samples: &[f64]) -> Spread {
    let s = sorted(samples);
    let n = s.len();
    let at = |m: f64| -> f64 {
        // Exclusive method: position m = j * (n + 1) / 4, 1-based.
        let pos = m.clamp(1.0, n as f64);
        let lo = pos.floor() as usize;
        let frac = pos - lo as f64;
        if lo >= n {
            s[n - 1]
        } else {
            s[lo - 1] + (s[lo] - s[lo - 1]) * frac
        }
    };
    match n {
        0 => Spread {
            q1: f64::NAN,
            median: f64::NAN,
            q3: f64::NAN,
            count: 0,
        },
        1 => Spread {
            q1: s[0],
            median: s[0],
            q3: s[0],
            count: 1,
        },
        _ => Spread {
            q1: at((n + 1) as f64 / 4.0),
            median: at((n + 1) as f64 / 2.0),
            q3: at(3.0 * (n + 1) as f64 / 4.0),
            count: n,
        },
    }
}

/// Median of `samples` (`NaN` when empty).
pub fn median(samples: &[f64]) -> f64 {
    spread(samples).median
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: exactly 10 lie beyond p99, 1 beyond p99.9.
        let q = tail(&ramp(1000)).expect("enough samples");
        assert_eq!((q.pct, q.value, q.count), (99.0, 990.0, 1000));
        // 999 samples leave only 9 beyond p99, so p95 is reported.
        let q = tail(&ramp(999)).expect("enough samples");
        assert_eq!(q.pct, 95.0);
        assert!(beyond(999, 950) >= TAIL_MIN_BEYOND);
        // 10000 samples support p99.9.
        assert_eq!(tail(&ramp(10_000)).expect("enough").pct, 99.9);
        // 100 samples: 10 beyond p90, 5 beyond p95.
        assert_eq!(tail(&ramp(100)).expect("enough").pct, 90.0);
        // 40 samples: exactly 10 beyond the upper quartile; 39 has 9.
        assert_eq!(tail(&ramp(40)).expect("enough").pct, 75.0);
        assert_eq!(tail(&ramp(39)), None);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v = ramp(200);
        v.reverse();
        let q = tail(&v).expect("enough samples");
        assert_eq!((q.pct, q.value), (95.0, 190.0));
    }

    #[test]
    fn spread_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s = spread(&ramp(10));
        assert_eq!((s.q1, s.median, s.q3, s.count), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = spread(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0]), 4.0);
        assert!(median(&[]).is_nan());
    }
}

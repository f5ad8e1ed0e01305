//! Order statistics behind every reported timing.

/// Percentiles a tail may be reported at, ascending, in per-mille so the
/// rule below stays in integers.
const TAIL_LADDER_PERMILLE: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// A tail needs this many samples beyond it to mean anything.
const TAIL_MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear interpolation at 1-based fractional rank `rank` of sorted `v`,
/// clamped to the ends.
fn at_rank(v: &[f64], rank: f64) -> f64 {
    let rank = rank.clamp(1.0, v.len() as f64);
    let lo = rank.floor() as usize;
    let frac = rank - lo as f64;
    let hi = (lo + 1).min(v.len());
    v[lo - 1] + frac * (v[hi - 1] - v[lo - 1])
}

/// Smallest sample; `NaN` for no samples.
pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NAN, f64::min)
}

/// Median; `NaN` for no samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The `p`-th percentile at rank `p/100 · (n + 1)` — the rule of Python's
/// `statistics.quantiles` (exclusive method), which the acceptance driver
/// uses for its quartiles. `NaN` for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let v = sorted(samples);
    at_rank(&v, p / 100.0 * (v.len() as f64 + 1.0))
}

/// `(q1, q3)`; both the single sample when there is only one.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    (percentile(samples, 25.0), percentile(samples, 75.0))
}

/// Interquartile range as a share of the median (0 for fewer than two
/// samples).
pub fn spread(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(samples);
    (q3 - q1) / median(samples)
}

/// The highest ladder percentile with at least ten samples beyond it, and
/// its value: `(pct, value)`. With fewer than twenty samples no tail
/// qualifies and the median is returned as `(50, median)`.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let permille = TAIL_LADDER_PERMILLE
        .iter()
        .copied()
        .filter(|pm| samples.len() * (1000 - pm) >= TAIL_MIN_BEYOND * 1000)
        .max()
        .unwrap_or(500);
    let pct = permille as f64 / 10.0;
    (pct, percentile(samples, pct))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail(&ramp(5)).0, 50.0);
        assert_eq!(tail(&ramp(19)).0, 50.0);
        assert_eq!(tail(&ramp(20)).0, 50.0);
        assert_eq!(tail(&ramp(39)).0, 50.0);
        assert_eq!(tail(&ramp(40)).0, 75.0);
        assert_eq!(tail(&ramp(100)).0, 90.0);
        assert_eq!(tail(&ramp(199)).0, 90.0);
        assert_eq!(tail(&ramp(200)).0, 95.0);
        assert_eq!(tail(&ramp(1000)).0, 99.0);
        assert_eq!(tail(&ramp(10_000)).0, 99.9);
        // The value really has ≥10 samples above it.
        let v = ramp(100);
        let (_, t) = tail(&v);
        assert!(v.iter().filter(|&&x| x > t).count() >= 10, "tail {t}");
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v = ramp(10);
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        assert_eq!(spread(&[7.0]), 0.0);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn min_and_empty() {
        assert_eq!(min(&[3.0, 1.5, 2.0]), 1.5);
        assert!(min(&[]).is_nan());
        assert!(median(&[]).is_nan());
    }
}

//! Bootstrap confidence intervals.
//!
//! The paper reports point medians over 158 users; with a simulated crowd
//! we can also quantify how tight those medians are. The percentile
//! bootstrap resamples the user set with replacement and reports the
//! interval of the statistic across resamples — attached to the Fig. 2
//! report so readers can see which paper-vs-measured gaps are noise.

use rand::Rng;

/// A two-sided confidence interval for a statistic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Lower bound of the interval.
    pub lo: f64,
    /// Upper bound of the interval.
    pub hi: f64,
    /// The statistic on the original sample.
    pub point: f64,
    /// Confidence level, e.g. 0.95.
    pub level: f64,
}

/// Percentile-bootstrap CI for an arbitrary statistic.
///
/// `resamples` of 1000 and `level` 0.95 are the usual choices. Panics on
/// an empty sample or a silly level.
pub fn bootstrap_ci<F>(
    rng: &mut impl Rng,
    xs: &[f64],
    statistic: F,
    resamples: usize,
    level: f64,
) -> ConfidenceInterval
where
    F: Fn(&[f64]) -> f64,
{
    assert!(!xs.is_empty(), "bootstrap of empty sample");
    assert!((0.5..1.0).contains(&level), "level out of range: {level}");
    assert!(resamples >= 10, "need a sensible number of resamples");
    let point = statistic(xs);
    let mut stats = Vec::with_capacity(resamples);
    let mut buf = vec![0.0; xs.len()];
    for _ in 0..resamples {
        for slot in buf.iter_mut() {
            *slot = xs[rng.gen_range(0..xs.len())];
        }
        stats.push(statistic(&buf));
    }
    // total_cmp: same convention as stats::percentile — a NaN statistic
    // sorts above +inf instead of panicking the whole resample loop.
    stats.sort_by(f64::total_cmp);
    let alpha = (1.0 - level) / 2.0;
    let lo = crate::stats::percentile_of_sorted(&stats, 100.0 * alpha);
    let hi = crate::stats::percentile_of_sorted(&stats, 100.0 * (1.0 - alpha));
    ConfidenceInterval {
        lo,
        hi,
        point,
        level,
    }
}

/// Convenience: bootstrap CI of the median.
pub fn median_ci(
    rng: &mut impl Rng,
    xs: &[f64],
    resamples: usize,
    level: f64,
) -> ConfidenceInterval {
    bootstrap_ci(rng, xs, crate::stats::median, resamples, level)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn interval_brackets_the_point() {
        let mut rng = StdRng::seed_from_u64(1);
        let xs: Vec<f64> = (0..200).map(|i| (i % 37) as f64).collect();
        let ci = median_ci(&mut rng, &xs, 500, 0.95);
        assert!(ci.lo <= ci.point && ci.point <= ci.hi);
    }

    #[test]
    fn more_data_tighter_interval() {
        let mut rng = StdRng::seed_from_u64(2);
        let noisy = |n: usize| -> Vec<f64> {
            (0..n)
                .map(|i| ((i as f64 * 12.9898).sin() * 43758.5453).fract() * 100.0)
                .collect()
        };
        let small = median_ci(&mut rng, &noisy(30), 400, 0.95);
        let large = median_ci(&mut rng, &noisy(3000), 400, 0.95);
        let (large_width, small_width) = (large.hi - large.lo, small.hi - small.lo);
        assert!(
            large_width < small_width,
            "large {large_width} small {small_width}"
        );
    }

    #[test]
    fn constant_sample_zero_width() {
        let mut rng = StdRng::seed_from_u64(3);
        let ci = median_ci(&mut rng, &[5.0; 50], 200, 0.95);
        assert_eq!(ci.lo, 5.0);
        assert_eq!(ci.hi, 5.0);
    }

    #[test]
    fn works_for_other_statistics() {
        let mut rng = StdRng::seed_from_u64(4);
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let ci = bootstrap_ci(&mut rng, &xs, crate::stats::mean, 300, 0.9);
        assert!((ci.point - 50.5).abs() < 1e-9);
        assert!(ci.lo <= 50.5 && 50.5 <= ci.hi);
        // The true mean's standard error ≈ 2.9; the 90 % CI must be a few
        // units wide, not degenerate or huge.
        let width = ci.hi - ci.lo;
        assert!(width > 2.0 && width < 20.0, "width {width}");
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        median_ci(&mut rng, &[], 100, 0.95);
    }
}

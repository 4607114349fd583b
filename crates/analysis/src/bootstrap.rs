//! Bootstrap confidence intervals.
//!
//! The paper reports point medians over 158 users; with a simulated crowd
//! we can also quantify how tight those medians are. The percentile
//! bootstrap resamples the user set with replacement and reports the
//! interval of the median across resamples — attached to the Fig. 2
//! report so readers can see which paper-vs-measured gaps are noise.
//! The Fig. 2 note reports one interval, so the resample count
//! (`RESAMPLES`, 1000) and the level (`LEVEL`, 95 %) are constants.

use rand::Rng;

/// Bootstrap resamples drawn per interval.
const RESAMPLES: usize = 1000;
/// Confidence level of every interval.
const LEVEL: f64 = 0.95;

/// A two-sided 95 % confidence interval for the median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Lower bound of the interval.
    pub lo: f64,
    /// Upper bound of the interval.
    pub hi: f64,
    /// The median of the original sample.
    pub point: f64,
}

/// Percentile-bootstrap 95 % CI of the median of `xs`, over 1000
/// resamples. Panics on an empty sample.
pub fn median_ci(rng: &mut impl Rng, xs: &[f64]) -> ConfidenceInterval {
    assert!(!xs.is_empty(), "bootstrap of empty sample");
    let point = crate::stats::median(xs);
    let mut stats = Vec::with_capacity(RESAMPLES);
    let mut buf = vec![0.0; xs.len()];
    for _ in 0..RESAMPLES {
        for slot in buf.iter_mut() {
            *slot = xs[rng.gen_range(0..xs.len())];
        }
        stats.push(crate::stats::median(&buf));
    }
    // total_cmp: same convention as stats::percentile — a NaN statistic
    // sorts above +inf instead of panicking the whole resample loop.
    stats.sort_by(f64::total_cmp);
    let alpha = (1.0 - LEVEL) / 2.0;
    let lo = crate::stats::percentile_of_sorted(&stats, 100.0 * alpha);
    let hi = crate::stats::percentile_of_sorted(&stats, 100.0 * (1.0 - alpha));
    ConfidenceInterval { lo, hi, point }
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
        let ci = median_ci(&mut rng, &xs);
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
        let small = median_ci(&mut rng, &noisy(30));
        let large = median_ci(&mut rng, &noisy(3000));
        let (large_width, small_width) = (large.hi - large.lo, small.hi - small.lo);
        assert!(
            large_width < small_width,
            "large {large_width} small {small_width}"
        );
    }

    #[test]
    fn constant_sample_zero_width() {
        let mut rng = StdRng::seed_from_u64(3);
        let ci = median_ci(&mut rng, &[5.0; 50]);
        assert_eq!(ci.lo, 5.0);
        assert_eq!(ci.hi, 5.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        median_ci(&mut rng, &[]);
    }
}

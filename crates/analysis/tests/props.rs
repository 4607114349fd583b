//! Property-based tests of the statistics toolkit.

use edgescope_analysis::cdf::Cdf;
use edgescope_analysis::histogram::bucket_fractions;
use edgescope_analysis::imbalance::{gap_max_min, gap_p95_p5, normalized_to_min};
use edgescope_analysis::seasonality::seasonal_strength;
use edgescope_analysis::sketch::StreamingPearson;
use edgescope_analysis::stats::{
    coefficient_of_variation, mean, median, percentile, percentile_of_sorted, std_dev,
};
use edgescope_analysis::timeseries::resample_mean;
use proptest::prelude::*;

proptest! {
    #[test]
    fn seasonal_strength_always_in_unit_interval(
        xs in prop::collection::vec(0.0..100.0f64, 48..300),
        period in 2usize..24,
    ) {
        prop_assume!(xs.len() >= 2 * period);
        let s = seasonal_strength(&xs, period);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&s), "strength {s}");
    }

    #[test]
    fn bucket_fractions_sum_to_one(
        xs in prop::collection::vec(0.0..1000.0f64, 1..200),
    ) {
        let f = bucket_fractions(&xs, &[4.0, 16.0, 64.0]);
        prop_assert_eq!(f.len(), 4);
        prop_assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn normalization_minimum_is_one(
        xs in prop::collection::vec(0.0..1e5f64, 1..100),
    ) {
        let norm = normalized_to_min(&xs, 0.01);
        let min = norm.iter().cloned().fold(f64::INFINITY, f64::min);
        prop_assert!((min - 1.0).abs() < 1e-9);
        prop_assert!(norm.iter().all(|&v| v >= 1.0 - 1e-9));
        prop_assert!(gap_max_min(&xs, 0.01) >= 1.0 - 1e-9);
    }

    #[test]
    fn gap_p95_p5_at_least_one(xs in prop::collection::vec(0.0..1e4f64, 2..200)) {
        prop_assert!(gap_p95_p5(&xs, 0.01) >= 1.0 - 1e-9);
    }

    #[test]
    fn resample_preserves_total_mass(
        xs in prop::collection::vec(0.0..100.0f64, 1..200),
        w in 1usize..20,
    ) {
        // Mean of chunk means weighted by chunk size equals the global mean.
        let chunks = resample_mean(&xs, w);
        let weighted: f64 = xs
            .chunks(w)
            .zip(&chunks)
            .map(|(c, &m)| m * c.len() as f64)
            .sum();
        prop_assert!((weighted - xs.iter().sum::<f64>()).abs() < 1e-6);
    }

    #[test]
    fn summary_invariants(xs in prop::collection::vec(-1e4..1e4f64, 1..300)) {
        let s = edgescope_analysis::stats::Summary::of(&xs);
        prop_assert!(s.min <= s.p5 + 1e-9);
        prop_assert!(s.p5 <= s.p25 + 1e-9);
        prop_assert!(s.p25 <= s.median + 1e-9);
        prop_assert!(s.median <= s.p75 + 1e-9);
        prop_assert!(s.p75 <= s.p95 + 1e-9);
        prop_assert!(s.p95 <= s.max + 1e-9);
        prop_assert!((s.mean - mean(&xs)).abs() < 1e-9);
        prop_assert!((s.median - median(&xs)).abs() < 1e-9);
    }

    #[test]
    fn cv_scale_invariant(
        xs in prop::collection::vec(1.0..100.0f64, 2..100),
        k in 0.1..50.0f64,
    ) {
        let scaled: Vec<f64> = xs.iter().map(|x| x * k).collect();
        let a = coefficient_of_variation(&xs);
        let b = coefficient_of_variation(&scaled);
        prop_assert!((a - b).abs() < 1e-9, "CV must be scale-free: {a} vs {b}");
        prop_assert!(std_dev(&scaled) >= 0.0);
    }

    #[test]
    fn cdf_median_equals_percentile50(xs in prop::collection::vec(0.0..1e4f64, 1..200)) {
        let c = Cdf::from_slice(&xs);
        prop_assert!((c.median() - percentile(&xs, 50.0)).abs() < 1e-9);
    }

    #[test]
    fn ols_residuals_orthogonal_and_r2_bounded(
        slope in -10.0..10.0f64,
        intercept in -100.0..100.0f64,
        noise in prop::collection::vec(-5.0..5.0f64, 3..100),
    ) {
        let xs: Vec<f64> = (0..noise.len()).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().zip(&noise).map(|(x, n)| slope * x + intercept + n).collect();
        let mut pairs = StreamingPearson::new();
        xs.iter().zip(&ys).for_each(|(&x, &y)| pairs.add(x, y));
        let fit = pairs.line();
        prop_assert!((0.0..=1.0 + 1e-9).contains(&fit.r2), "r2 {}", fit.r2);
        // OLS normal equations: residuals sum to ~0 and are orthogonal to x.
        let res: Vec<f64> = xs.iter().zip(&ys).map(|(x, y)| y - fit.predict(*x)).collect();
        let n = res.len() as f64;
        let scale = ys.iter().map(|y| y.abs()).fold(1.0, f64::max);
        prop_assert!((res.iter().sum::<f64>() / n).abs() < 1e-6 * scale);
        let dot: f64 = res.iter().zip(&xs).map(|(r, x)| r * x).sum();
        prop_assert!((dot / n).abs() < 1e-4 * scale * xs.len() as f64);
    }
}

/// Map a random code onto the values that stress an order statistic:
/// quiet and signalling NaNs of both signs, ±0.0, ±inf, subnormals,
/// small integers (many duplicates) and arbitrary bit patterns.
fn edgy_f64(code: u64) -> f64 {
    let rest = code >> 4;
    match code % 16 {
        0 => f64::from_bits(0x7ff8_0000_0000_0000 | (rest & 0xf)),
        1 => -f64::NAN,
        2 => f64::from_bits(0x7ff0_0000_0000_0001 + (rest & 0xf)),
        3 => 0.0,
        4 => -0.0,
        5 => f64::INFINITY,
        6 => f64::NEG_INFINITY,
        7..=10 => (rest % 5) as f64 - 2.0,
        11 => f64::from_bits(rest & 0x000f_ffff_ffff_ffff),
        _ => f64::from_bits(rest.rotate_left(7) ^ code),
    }
}

/// The percentiles every call site of `percentile` asks for, plus both
/// ends and a rank that always interpolates.
const PERCENTILES: [f64; 6] = [0.0, 0.1, 50.0, 95.0, 99.9, 100.0];

/// The reference definition: copy, sort under `total_cmp`, interpolate.
fn sorted_percentile(xs: &[f64], p: f64) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_of_sorted(&sorted, p)
}

proptest! {
    #[test]
    fn percentile_matches_sort_then_index(codes in prop::collection::vec(any::<u64>(), 1..200)) {
        let xs: Vec<f64> = codes.iter().map(|&c| edgy_f64(c)).collect();
        for len in [1, 2, 3, xs.len()] {
            let xs = &xs[..len.min(xs.len())];
            for p in PERCENTILES {
                let (got, want) = (percentile(xs, p), sorted_percentile(xs, p));
                prop_assert_eq!(got.to_bits(), want.to_bits(), "p {} of {:?}", p, xs);
            }
        }
    }
}

#[test]
fn percentile_matches_sort_then_index_at_scale() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    // ~50 k samples, the size of one simulated scheduling day's delays:
    // mostly distinct finite values, a block of exact duplicates and a
    // sprinkling of the edge cases.
    let mut rng = StdRng::seed_from_u64(0x5e1ec7);
    let xs: Vec<f64> = (0..52_608)
        .map(|i| match i % 97 {
            0 => edgy_f64(rng.gen::<u64>()),
            1..=20 => (rng.gen_range(0..40) as f64) * 0.25,
            _ => rng.gen::<f64>() * 80.0,
        })
        .collect();
    for p in PERCENTILES {
        assert_eq!(
            percentile(&xs, p).to_bits(),
            sorted_percentile(&xs, p).to_bits(),
            "p {p}"
        );
    }
    let finite: Vec<f64> = xs.iter().copied().filter(|v| v.is_finite()).collect();
    for p in PERCENTILES {
        assert_eq!(
            percentile(&finite, p).to_bits(),
            sorted_percentile(&finite, p).to_bits()
        );
    }
}

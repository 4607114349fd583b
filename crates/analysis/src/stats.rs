//! Descriptive statistics: mean, variance, std-dev, coefficient of
//! variation, interpolated percentiles, and RMSE.
//!
//! All functions accept `&[f64]` and treat an empty slice as a programmer
//! error only where a value cannot be defined (documented per function);
//! they never panic on NaN-free finite input.

/// Arithmetic mean. Returns 0.0 for an empty slice (the campaigns in this
/// workspace aggregate per-user means where an empty probe set means "no
/// contribution", so zero is the neutral choice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance (divide by `n`). Returns 0.0 for fewer than two
/// samples.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Coefficient of variation (std-dev / mean), the paper's jitter metric
/// (§3.1, Fig. 2b) and usage-variance metric (§4.2, Fig. 10b).
///
/// Returns 0.0 when the mean is zero (an all-zero series has no variation).
pub fn coefficient_of_variation(xs: &[f64]) -> f64 {
    let m = mean(xs);
    if m == 0.0 {
        return 0.0;
    }
    std_dev(xs) / m
}

/// Linearly-interpolated percentile, `p` in `[0, 100]`.
///
/// Uses the "linear interpolation between closest ranks" definition
/// (NumPy's default). Panics on an empty slice — a percentile of nothing is
/// meaningless and always indicates an upstream bug.
///
/// The two closest ranks are found by selection under `f64::total_cmp`,
/// not by sorting: under a total order the element of a given rank is
/// unique bit for bit, so the result is exactly what sort-then-
/// [`percentile_of_sorted`] returns, in linear time. NaNs order after
/// `+inf` (IEEE 754 totalOrder) and simply land at the top ranks, so a
/// NaN in the input never panics a comparator. Campaign data is NaN-free
/// by construction; this keeps a stray NaN from aborting a whole report
/// instead of showing up visibly in the high percentiles.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    percentile_in_place(&mut xs.to_vec(), p)
}

/// [`percentile`] without the copy: the same value, bit for bit, found
/// by selection inside `xs`, which it leaves reordered. For callers
/// that are done with the sample's order (say, after summing it).
pub fn percentile_in_place(xs: &mut [f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile p out of range: {p}");
    let (lo, hi, frac) = closest_ranks(xs.len(), p);
    let (_, &mut at_lo, above) = xs.select_nth_unstable_by(lo, f64::total_cmp);
    if lo == hi {
        return at_lo;
    }
    // Rank `hi = lo + 1` is the smallest element right of the partition.
    let at_hi = above
        .iter()
        .copied()
        .min_by(f64::total_cmp)
        .expect("rank hi < len");
    interpolate(at_lo, at_hi, frac)
}

/// The element `xs` sorted by [`f64::total_cmp`] would hold at `rank`,
/// found by selection. Reorders `xs`; panics if `rank >= xs.len()`.
pub fn select(xs: &mut [f64], rank: usize) -> f64 {
    *xs.select_nth_unstable_by(rank, f64::total_cmp).1
}

/// The closest ranks `(lo, hi)` of percentile `p` in a sorted sample of
/// `len > 0` values, and the interpolation weight of `hi`.
fn closest_ranks(len: usize, p: f64) -> (usize, usize, f64) {
    let rank = p / 100.0 * (len - 1) as f64;
    let lo = rank.floor() as usize;
    (lo, rank.ceil() as usize, rank - lo as f64)
}

/// The value a `frac` of the way from rank `lo` to rank `hi`. Every
/// percentile path calls this one out-of-line copy: when both ranks
/// hold NaNs with different payloads, which payload the sum keeps
/// depends on the operand order the compiler picks for each inlined
/// copy, so sharing the code keeps the paths bit-identical there too.
#[inline(never)]
fn interpolate(at_lo: f64, at_hi: f64, frac: f64) -> f64 {
    at_lo * (1.0 - frac) + at_hi * frac
}

/// Same as [`percentile`] but assumes `sorted` is already ascending.
pub fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    let (lo, hi, frac) = closest_ranks(sorted.len(), p);
    if lo == hi {
        sorted[lo]
    } else {
        interpolate(sorted[lo], sorted[hi], frac)
    }
}

/// Median (50th percentile).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// NaN-propagating peak (maximum) of a series. Returns 0.0 for an empty
/// slice (the campaigns treat "no samples" as a zero peak — the same
/// neutral choice as [`mean`]).
///
/// This is the shared replacement for the `fold(0.0, f64::max)` idiom:
/// `f64::max` silently *ignores* a NaN operand, so a poisoned sample
/// would launder into a peak of 0.0 (e.g. a free billing month, or a
/// zero-cost placement score). Here a NaN input yields a NaN peak, which
/// surfaces loudly downstream instead of vanishing.
pub fn peak_max(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().fold(f64::NEG_INFINITY, |acc, &x| {
        if acc.is_nan() || x.is_nan() {
            f64::NAN
        } else {
            acc.max(x)
        }
    })
}

/// NaN-propagating minimum of a series — the counterpart of
/// [`peak_max`] for trough levels (e.g. the weekly-drift denominator of
/// fig12). Returns 0.0 for an empty slice.
pub fn peak_min(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().fold(f64::INFINITY, |acc, &x| {
        if acc.is_nan() || x.is_nan() {
            f64::NAN
        } else {
            acc.min(x)
        }
    })
}

/// Root-mean-square error between predictions and observations.
///
/// Panics if the slices differ in length or are empty.
pub fn rmse(predicted: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(predicted.len(), actual.len(), "rmse length mismatch");
    assert!(!predicted.is_empty(), "rmse of empty slices");
    let se: f64 = predicted
        .iter()
        .zip(actual)
        .map(|(p, a)| (p - a) * (p - a))
        .sum();
    (se / predicted.len() as f64).sqrt()
}

/// A one-pass summary of a sample: count, mean, std-dev, min, median, max,
/// and selected percentiles. Used by experiment reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Smallest value.
    pub min: f64,
    /// 5th percentile.
    pub p5: f64,
    /// 25th percentile.
    pub p25: f64,
    /// 50th percentile.
    pub median: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Largest value.
    pub max: f64,
}

impl Summary {
    /// Summarize a sample. Panics on an empty slice. Sorts with
    /// `f64::total_cmp` (NaNs rank above `+inf` rather than panicking —
    /// see [`percentile`]).
    pub fn of(xs: &[f64]) -> Self {
        assert!(!xs.is_empty(), "Summary::of empty slice");
        let mut sorted = xs.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            count: sorted.len(),
            mean: mean(&sorted),
            std_dev: std_dev(&sorted),
            min: sorted[0],
            p5: percentile_of_sorted(&sorted, 5.0),
            p25: percentile_of_sorted(&sorted, 25.0),
            median: percentile_of_sorted(&sorted, 50.0),
            p75: percentile_of_sorted(&sorted, 75.0),
            p95: percentile_of_sorted(&sorted, 95.0),
            max: *sorted.last().unwrap(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[5.0]), 5.0);
    }

    #[test]
    fn variance_and_std() {
        // Var([2,4,4,4,5,5,7,9]) = 4 (population), std = 2 — classic example.
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((variance(&xs) - 4.0).abs() < 1e-12);
        assert!((std_dev(&xs) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn variance_degenerate() {
        assert_eq!(variance(&[1.0]), 0.0);
        assert_eq!(variance(&[]), 0.0);
    }

    #[test]
    fn empty_slice_statistics_are_zero_not_nan() {
        // Regression: every statistic defined on an empty slice must
        // return exactly 0.0 — a NaN here would silently poison every
        // downstream aggregate instead of failing loudly.
        assert_eq!(std_dev(&[]), 0.0);
        assert_eq!(coefficient_of_variation(&[]), 0.0);
        assert_eq!(std_dev(&[3.0]), 0.0);
        assert_eq!(coefficient_of_variation(&[3.0]), 0.0);
    }

    #[test]
    fn cv_basic() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((coefficient_of_variation(&xs) - 2.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn cv_zero_mean() {
        assert_eq!(coefficient_of_variation(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&xs, 0.0), 10.0);
        assert_eq!(percentile(&xs, 100.0), 40.0);
        assert_eq!(percentile(&xs, 50.0), 25.0);
        // Rank 0.25 * 3 = 0.75 → 10 + 0.75 * 10 = 17.5
        assert!((percentile(&xs, 25.0) - 17.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_unsorted_input() {
        let xs = [40.0, 10.0, 30.0, 20.0];
        assert_eq!(percentile(&xs, 50.0), 25.0);
    }

    #[test]
    fn percentile_single() {
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn percentile_tolerates_nan_via_total_order() {
        // total_cmp ranks NaN above +inf: low percentiles of a
        // NaN-polluted sample stay finite and correct, and the NaN
        // surfaces only at the top — instead of the old mid-sort panic.
        let xs = [30.0, f64::NAN, 10.0, 20.0];
        assert_eq!(percentile(&xs, 0.0), 10.0);
        assert!((percentile(&xs, 50.0) - 25.0).abs() < 1e-12);
        assert!(percentile(&xs, 100.0).is_nan());
    }

    #[test]
    #[should_panic(expected = "percentile of empty slice")]
    fn percentile_empty_panics() {
        percentile(&[], 50.0);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    #[test]
    fn peak_helpers_basic() {
        assert_eq!(peak_max(&[1.0, 5.0, 2.0]), 5.0);
        assert_eq!(peak_min(&[1.0, 5.0, 2.0]), 1.0);
        assert_eq!(peak_max(&[]), 0.0);
        assert_eq!(peak_min(&[]), 0.0);
        // Unlike fold(0.0, f64::max), an all-negative series keeps its
        // true (negative) peak instead of inventing a 0.0.
        assert_eq!(peak_max(&[-3.0, -1.0, -2.0]), -1.0);
        assert_eq!(peak_min(&[-3.0, -1.0, -2.0]), -3.0);
    }

    #[test]
    fn peak_helpers_propagate_nan() {
        // Regression for the fold(0.0, f64::max) laundering bug: f64::max
        // drops NaN operands, so a poisoned sample used to yield peak 0.0
        // (silent underbilling in `billing::bill`). The shared helpers
        // must propagate instead.
        assert!(peak_max(&[1.0, f64::NAN, 3.0]).is_nan());
        assert!(peak_min(&[1.0, f64::NAN, 3.0]).is_nan());
        assert!(peak_max(&[f64::NAN]).is_nan());
        // ±inf are ordinary values, not NaN.
        assert_eq!(peak_max(&[1.0, f64::INFINITY]), f64::INFINITY);
        assert_eq!(peak_min(&[1.0, f64::NEG_INFINITY]), f64::NEG_INFINITY);
    }

    #[test]
    fn rmse_known() {
        let p = [1.0, 2.0, 3.0];
        let a = [1.0, 2.0, 5.0];
        assert!((rmse(&p, &a) - (4.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(rmse(&p, &p), 0.0);
    }

    #[test]
    fn summary_fields() {
        let xs: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        let s = Summary::of(&xs);
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.median - 50.5).abs() < 1e-9);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert!(s.p95 > s.p75 && s.p75 > s.p25 && s.p25 > s.p5);
    }
}

//! Per-VM series statistics: the one definition behind the folded CPU
//! and bandwidth statistics of [`TraceDataset`](crate::dataset::TraceDataset)
//! (which the sketches of [`StreamingTraceStats`](crate::stream::StreamingTraceStats)
//! read) and `trace-tool inspect`.
//!
//! Samples are widened to `f64` before any arithmetic, and order
//! statistics are taken under [`f64::total_cmp`] (NaN-safe: a NaN sample
//! ranks above `+inf` instead of panicking a comparator). They are found
//! by selection, not by sorting: under a total order the element of a
//! given rank is unique bit for bit, so [`select`] returns exactly what
//! sort-then-index would, in linear instead of `n log n` time.

use edgescope_analysis::stats::select;

/// Mean of a series (`0.0` for an empty one).
pub fn mean(xs: &[f32]) -> f64 {
    xs.iter().map(|&v| v as f64).sum::<f64>() / xs.len().max(1) as f64
}

/// Across-time coefficient of variation (population std / mean) of a
/// non-empty series whose [`mean`] is `m`; `0.0` when the mean is zero.
fn cv_about(xs: &[f32], m: f64) -> f64 {
    if m == 0.0 {
        return 0.0;
    }
    let var = xs
        .iter()
        .map(|&x| (x as f64 - m) * (x as f64 - m))
        .sum::<f64>()
        / xs.len() as f64;
    var.sqrt() / m
}

/// Index of the 95th percentile in a sorted series of `len > 0` samples.
fn p95_rank(len: usize) -> usize {
    assert!(len > 0, "P95 of an empty series");
    (0.95 * (len - 1) as f64).round() as usize
}

/// 95th percentile of a non-empty series: the sample at index
/// `round(0.95 · (len − 1))` of the sorted series, the convention of the
/// paper's "P95 Max" curve (Fig. 10a).
pub fn p95(xs: &[f32]) -> f64 {
    let mut wide: Vec<f64> = xs.iter().map(|&v| v as f64).collect();
    let rank = p95_rank(wide.len());
    select(&mut wide, rank)
}

/// One VM's CPU series folded to the statistics §4 reads: Fig. 10's mean,
/// "P95 Max" and CV, each bit-identical to the standalone helper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuStats {
    /// [`mean`] of the series (percent).
    pub mean: f64,
    /// [`p95`] of the series (percent); NaN for an empty series.
    pub p95: f64,
    /// Across-time coefficient of variation (population std / mean) of
    /// the series; `0.0` when the mean is zero, NaN for an empty series.
    pub cv: f64,
}

impl CpuStats {
    /// Fold a CPU series, computing its mean once for the mean and the CV.
    pub fn of(xs: &[f32]) -> Self {
        if xs.is_empty() {
            return CpuStats {
                mean: mean(xs),
                p95: f64::NAN,
                cv: f64::NAN,
            };
        }
        let m = mean(xs);
        CpuStats {
            mean: m,
            p95: p95(xs),
            cv: cv_about(xs, m),
        }
    }
}

/// One VM's bandwidth series folded to the statistics §4 reads: the mean
/// behind Fig. 11's roll-ups and the heaviest-app ranking, and Fig. 12's
/// weekly means.
#[derive(Debug, Clone, PartialEq)]
pub struct BwStats {
    /// [`mean`] of the series (Mbps).
    pub mean: f64,
    /// Mean of each consecutive week of the series (Mbps); a trailing
    /// partial week is averaged over the samples it has.
    pub weekly: Vec<f64>,
}

impl BwStats {
    /// Fold a bandwidth series sampled `per_week` times a week. Each
    /// weekly mean is `resample_mean`'s arithmetic, in its order, on the
    /// widened samples.
    pub fn of(xs: &[f32], per_week: usize) -> Self {
        let weekly = xs.chunks(per_week).map(mean).collect();
        BwStats {
            mean: mean(xs),
            weekly,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgescope_analysis::stats::coefficient_of_variation;

    #[test]
    fn p95_matches_sorted_index() {
        let xs: Vec<f32> = (0..101).rev().map(|v| v as f32).collect();
        assert_eq!(p95(&xs), 95.0);
        assert_eq!(p95(&[7.5]), 7.5);
        assert_eq!(p95_rank(20), 18);
    }

    #[test]
    fn cv_edge_cases() {
        let cv = |xs: &[f32]| CpuStats::of(xs).cv;
        assert_eq!(cv(&[0.0, 0.0]), 0.0);
        assert_eq!(cv(&[3.0, 3.0, 3.0]), 0.0);
        assert!(cv(&[]).is_nan());
        assert_eq!(mean(&[]), 0.0);
        assert!((cv(&[1.0, 3.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cpu_stats_match_the_standalone_helpers() {
        for xs in [
            &[0.0, 0.0][..],
            &[3.0, 1.5, 9.25, 0.5],
            &[7.5],
            &[f32::NAN, 2.0, 4.0],
        ] {
            let st = CpuStats::of(xs);
            assert_eq!(st.mean.to_bits(), mean(xs).to_bits(), "{xs:?}");
            assert_eq!(st.p95.to_bits(), p95(xs).to_bits(), "{xs:?}");
            let wide: Vec<f64> = xs.iter().map(|&v| v as f64).collect();
            let cv = coefficient_of_variation(&wide);
            assert_eq!(st.cv.to_bits(), cv.to_bits(), "{xs:?}");
        }
        let empty = CpuStats::of(&[]);
        assert_eq!(empty.mean, 0.0);
        assert!(empty.p95.is_nan() && empty.cv.is_nan());
    }

    #[test]
    fn bw_stats_fold_mean_and_weekly_means() {
        let xs = [1.0, 3.0, 2.0, 6.0, 5.0];
        let st = BwStats::of(&xs, 2);
        assert_eq!(st.mean.to_bits(), mean(&xs).to_bits());
        assert_eq!(st.weekly, vec![2.0, 4.0, 5.0]);
        assert!(BwStats::of(&[f32::NAN, 1.0], 2).weekly[0].is_nan());
    }
}

//! Time-series resampling helpers.
//!
//! The trace schema (§2.1.2) samples CPU every minute and bandwidth every
//! five minutes; the prediction task (§4.4) aggregates to half-hour windows
//! of max/mean, and Fig. 12 plots weekly-averaged bandwidth. These helpers
//! perform those aggregations.

/// Mean of each consecutive `window`-sample chunk. A trailing partial chunk
/// is aggregated too (the last day of a trace still counts).
pub fn resample_mean(xs: &[f64], window: usize) -> Vec<f64> {
    assert!(window > 0, "window must be positive");
    xs.chunks(window)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect()
}

/// Max of each consecutive `window`-sample chunk (trailing partial chunk
/// included).
pub fn resample_max(xs: &[f64], window: usize) -> Vec<f64> {
    assert!(window > 0, "window must be positive");
    xs.chunks(window).map(crate::stats::peak_max).collect()
}

/// Centered-as-possible rolling mean with window `w`; edges use the
/// available neighbourhood (shrinking window), so output length equals
/// input length.
pub fn rolling_mean(xs: &[f64], w: usize) -> Vec<f64> {
    assert!(w > 0, "window must be positive");
    let half = w / 2;
    (0..xs.len())
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(xs.len());
            xs[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resample_mean_basic() {
        let xs = [1.0, 3.0, 5.0, 7.0];
        assert_eq!(resample_mean(&xs, 2), vec![2.0, 6.0]);
    }

    #[test]
    fn resample_mean_partial_tail() {
        let xs = [2.0, 4.0, 9.0];
        assert_eq!(resample_mean(&xs, 2), vec![3.0, 9.0]);
    }

    #[test]
    fn resample_max_basic() {
        let xs = [1.0, 3.0, 5.0, 2.0];
        assert_eq!(resample_max(&xs, 2), vec![3.0, 5.0]);
    }

    #[test]
    fn rolling_mean_preserves_length() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let rm = rolling_mean(&xs, 3);
        assert_eq!(rm.len(), xs.len());
        assert_eq!(rm[2], 3.0);
        // Edges shrink: first entry averages xs[0..2].
        assert_eq!(rm[0], 1.5);
    }

    #[test]
    fn rolling_mean_window_one_is_identity() {
        let xs = [4.0, 7.0, 1.0];
        assert_eq!(rolling_mean(&xs, 1), xs.to_vec());
    }
}

//! Time-series resampling.
//!
//! The trace schema (§2.1.2) samples CPU every minute and bandwidth every
//! five minutes; Figs. 13–14 average them to hourly means and Fig. 12 plots
//! weekly-averaged bandwidth. [`resample_mean`] performs those
//! aggregations.

/// Mean of each consecutive `window`-sample chunk. A trailing partial chunk
/// is aggregated too (the last day of a trace still counts).
pub fn resample_mean(xs: &[f64], window: usize) -> Vec<f64> {
    assert!(window > 0, "window must be positive");
    xs.chunks(window).map(crate::stats::mean).collect()
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
}

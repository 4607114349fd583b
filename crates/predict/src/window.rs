//! Supervision windows for the §4.4 prediction task.
//!
//! The task: "predict the max/mean CPU usage of next half-hour window
//! based on the historical data", with each VM's month split into 3 weeks
//! of training and 1 week of testing.

use edgescope_analysis::stats;

/// Windows per day at half-hour granularity: the daily period of every
/// Fig. 14 forecaster.
pub const WINDOWS_PER_DAY: usize = 48;

/// How raw samples are aggregated into half-hour windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregation {
    /// Maximum within the window (Fig. 14a).
    Max,
    /// Mean within the window (Fig. 14b).
    Mean,
}

/// Aggregate a raw sample series into half-hour windows.
///
/// `samples_per_window` is how many raw samples form one half-hour (30 for
/// 1-minute CPU sampling, 6 for 5-minute). A trailing partial window is
/// dropped — a short final window would bias max/mean differently.
pub fn make_windows(xs: &[f64], samples_per_window: usize, agg: Aggregation) -> Vec<f64> {
    assert!(samples_per_window > 0, "window must be positive");
    xs.chunks_exact(samples_per_window)
        .map(|c| match agg {
            Aggregation::Max => stats::peak_max(c),
            Aggregation::Mean => stats::mean(c),
        })
        .collect()
}

/// Split a window series 3:1 (3 weeks train / 1 week test by sample
/// count). Panics if the series has fewer than 8 windows — nothing
/// meaningful can be learned or measured below that.
pub fn train_test_split(windows: &[f64]) -> (&[f64], &[f64]) {
    assert!(
        windows.len() >= 8,
        "need at least 8 windows, got {}",
        windows.len()
    );
    let split = windows.len() * 3 / 4;
    (&windows[..split], &windows[split..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_and_mean_windows() {
        let xs = [1.0, 5.0, 2.0, 8.0, 4.0, 6.0];
        assert_eq!(make_windows(&xs, 2, Aggregation::Max), vec![5.0, 8.0, 6.0]);
        assert_eq!(make_windows(&xs, 2, Aggregation::Mean), vec![3.0, 5.0, 5.0]);
    }

    #[test]
    fn trailing_partial_window_dropped() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(make_windows(&xs, 2, Aggregation::Mean), vec![1.5, 3.5]);
    }

    #[test]
    fn split_three_to_one() {
        let w: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let (train, test) = train_test_split(&w);
        assert_eq!(train.len(), 75);
        assert_eq!(test.len(), 25);
        assert_eq!(test[0], 75.0);
    }

    #[test]
    #[should_panic(expected = "at least 8 windows")]
    fn tiny_series_rejected() {
        train_test_split(&[1.0; 7]);
    }
}

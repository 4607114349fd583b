//! NaN regression tests for the forecaster boundary.
//!
//! Contract: a NaN training sample must not let the OLS pivot pick a
//! poisoned row (under the raw IEEE total order NaN ranks above +inf and
//! would *win* partial pivoting); the failure mode is the explicit
//! "singular normal equations" rejection, and the cheap baselines
//! propagate NaN without panicking.

use edgescope_predict::{naive_forecast, seasonal_naive_forecast, ArModel};

#[test]
fn naive_baselines_propagate_nan_without_panic() {
    let mut train: Vec<f64> = (0..48).map(|i| 10.0 + i as f64).collect();
    train[47] = f64::NAN;
    let test = vec![5.0; 4];
    let preds = naive_forecast(&train, &test);
    assert!(preds[0].is_nan(), "last value is the forecast");
    assert!(preds[1..].iter().all(|p| p.is_finite()));

    let seasonal = seasonal_naive_forecast(&train, &test);
    assert_eq!(seasonal.len(), 4);
    assert!(seasonal.iter().all(|p| !p.is_infinite()));
}

#[test]
#[should_panic(expected = "singular normal equations")]
fn ar_fit_rejects_poisoned_series_explicitly() {
    // The NaN sits where the target and both short lags read it, so
    // after the intercept's elimination step every pivot candidate is
    // NaN: with the NaN-demoting pivot the elimination hits the
    // singularity assert — a named, debuggable failure — instead of
    // electing a NaN pivot and emitting garbage coefficients.
    let mut train: Vec<f64> = (0..64).map(|i| 20.0 + (i % 24) as f64).collect();
    train[50] = f64::NAN;
    ArModel::fit(&train);
}

#[test]
fn ar_fit_clean_series_still_works() {
    // Guard the guard: the NaN-demoting pivot key must not disturb the
    // clean path.
    let mut xs = vec![0.0];
    for _ in 0..120 {
        let last = *xs.last().unwrap();
        xs.push(4.0 + 0.5 * last);
    }
    let model = ArModel::fit(&xs);
    let preds = model.forecast_online(&xs[..100], &xs[100..]);
    assert!(preds.iter().all(|p| p.is_finite()));
}

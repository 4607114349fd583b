//! Baseline forecasters: naive, seasonal-naive, and an autoregressive
//! model.
//!
//! §4.4 compares Holt-Winters and an LSTM; the workload-prediction
//! literature it cites (Calheiros et al.'s ARIMA work) adds the classical
//! autoregressive family. These baselines bound the comparison:
//! last-value and seasonal-naive are the floors any model must beat, and
//! [`ArModel`] is an AR(2) with a daily seasonal lag fitted by ordinary
//! least squares on lagged values (the AR core of ARIMA; the trace
//! windows are stationary enough after the seasonal lag that
//! differencing is unnecessary — asserted in tests). The season is one
//! day, [`WINDOWS_PER_DAY`] half-hour windows.

use crate::window::WINDOWS_PER_DAY;

/// Predict the previous value.
pub fn naive_forecast(train: &[f64], test: &[f64]) -> Vec<f64> {
    assert!(!train.is_empty(), "naive needs history");
    let mut last = *train.last().unwrap();
    test.iter()
        .map(|&x| {
            let f = last;
            last = x;
            f
        })
        .collect()
}

/// Predict the value one day ([`WINDOWS_PER_DAY`] windows) ago.
pub fn seasonal_naive_forecast(train: &[f64], test: &[f64]) -> Vec<f64> {
    let m = WINDOWS_PER_DAY;
    assert!(train.len() >= m, "need one full season of history");
    let mut history: Vec<f64> = train.to_vec();
    test.iter()
        .map(|&x| {
            let f = history[history.len() - m];
            history.push(x);
            f
        })
        .collect()
}

/// Regressors of [`ArModel`]: the intercept, two lags and the daily lag.
const N_FEAT: usize = 4;

/// The AR(2) model with a daily seasonal lag:
/// `x_t = c + φ_1·x_{t-1} + φ_2·x_{t-2} + φ_s·x_{t-m}`, where `m` is
/// [`WINDOWS_PER_DAY`].
#[derive(Debug, Clone)]
pub struct ArModel {
    coeffs: Vec<f64>, // [c, φ_1, φ_2, φ_s]
}

impl ArModel {
    /// Fit by OLS on the training series. Panics if the series is shorter
    /// than `m + 8` (not enough equations).
    pub fn fit(train: &[f64]) -> Self {
        let m = WINDOWS_PER_DAY;
        assert!(
            train.len() >= m + 8,
            "series too short: {} for lags {m}",
            train.len()
        );
        // Normal equations X'X β = X'y via Gaussian elimination.
        let mut xtx = vec![vec![0.0f64; N_FEAT]; N_FEAT];
        let mut xty = vec![0.0f64; N_FEAT];
        for t in m..train.len() {
            let row = [1.0, train[t - 1], train[t - 2], train[t - m]];
            for a in 0..N_FEAT {
                xty[a] += row[a] * train[t];
                for b in 0..N_FEAT {
                    xtx[a][b] += row[a] * row[b];
                }
            }
        }
        // Ridge epsilon keeps degenerate (constant) series solvable.
        for (i, row) in xtx.iter_mut().enumerate() {
            row[i] += 1e-8;
        }
        ArModel {
            coeffs: solve(xtx, xty),
        }
    }

    /// One-step forecast given the full history so far.
    pub fn forecast_next(&self, history: &[f64]) -> f64 {
        let n = history.len();
        let c = &self.coeffs;
        c[0] + c[1] * history[n - 1] + c[2] * history[n - 2] + c[3] * history[n - WINDOWS_PER_DAY]
    }

    /// Rolling one-step forecasts over `test`.
    pub fn forecast_online(&self, train: &[f64], test: &[f64]) -> Vec<f64> {
        let mut history: Vec<f64> = train.to_vec();
        assert!(
            history.len() >= WINDOWS_PER_DAY,
            "history shorter than lags"
        );
        test.iter()
            .map(|&x| {
                let f = self.forecast_next(&history);
                history.push(x);
                f
            })
            .collect()
    }
}

/// Gaussian elimination with partial pivoting.
#[allow(clippy::needless_range_loop)] // index-based elimination reads clearer
fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Vec<f64> {
    let n = b.len();
    for col in 0..n {
        // Pivot. NaN magnitudes are demoted below every real candidate:
        // under the raw IEEE total order NaN ranks *above* +inf, so a
        // poisoned column would win the pivot and then trip the singular
        // assert (or worse, silently pick a wrong pivot).
        let key = |v: f64| if v.is_nan() { f64::NEG_INFINITY } else { v };
        let pivot = (col..n)
            .max_by(|&i, &j| key(a[i][col].abs()).total_cmp(&key(a[j][col].abs())))
            .unwrap();
        a.swap(col, pivot);
        b.swap(col, pivot);
        let d = a[col][col];
        assert!(d.abs() > 1e-12, "singular normal equations");
        for row in col + 1..n {
            let f = a[row][col] / d;
            for k in col..n {
                a[row][k] -= f * a[col][k];
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for col in (0..n).rev() {
        let mut s = b[col];
        for k in col + 1..n {
            s -= a[col][k] * x[k];
        }
        x[col] = s / a[col][col];
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgescope_analysis::stats::rmse;

    fn seasonal(n: usize, m: usize, amp: f64) -> Vec<f64> {
        (0..n)
            .map(|i| 40.0 + amp * (2.0 * std::f64::consts::PI * i as f64 / m as f64).sin())
            .collect()
    }

    #[test]
    fn naive_shifts_by_one() {
        let train = [1.0, 2.0, 3.0];
        let test = [4.0, 5.0, 6.0];
        assert_eq!(naive_forecast(&train, &test), vec![3.0, 4.0, 5.0]);
    }

    #[test]
    fn seasonal_naive_nails_pure_season() {
        let xs = seasonal(48 * 6, 48, 20.0);
        let (train, test) = (&xs[..48 * 5], &xs[48 * 5..]);
        let preds = seasonal_naive_forecast(train, test);
        assert!(rmse(&preds, test) < 1e-9);
    }

    #[test]
    fn ar_recovers_a_seasonal_ar2_process() {
        // x_t = 2 + 0.5 x_{t-1} - 0.2 x_{t-2} + 0.4 x_{t-48} + e_t with a
        // small deterministic innovation (|e_t| < 0.2): the one-step
        // forecasts must track the noise-free part well within it.
        let noise = |i: usize| ((i as f64 * 12.9898).sin() * 43758.5453).fract() * 0.2;
        let mut xs: Vec<f64> = (0..48).map(|i| 5.0 + noise(i) * 10.0).collect();
        for t in 48..48 * 30 {
            let x = 2.0 + 0.5 * xs[t - 1] - 0.2 * xs[t - 2] + 0.4 * xs[t - 48] + noise(t);
            xs.push(x);
        }
        let split = 48 * 25;
        let model = ArModel::fit(&xs[..split]);
        let preds = model.forecast_online(&xs[..split], &xs[split..]);
        let clean: Vec<f64> = (split..xs.len())
            .map(|t| 2.0 + 0.5 * xs[t - 1] - 0.2 * xs[t - 2] + 0.4 * xs[t - 48])
            .collect();
        let err = rmse(&preds, &clean);
        assert!(err < 0.1, "rmse against the noise-free part {err}");
    }

    #[test]
    fn seasonal_ar_beats_naive_on_seasonal_data() {
        let xs: Vec<f64> = seasonal(48 * 8, 48, 15.0)
            .iter()
            .enumerate()
            .map(|(i, v)| v + ((i as f64 * 12.9898).sin() * 43758.5453).fract() * 2.0)
            .collect();
        let split = 48 * 6;
        let (train, test) = (&xs[..split], &xs[split..]);
        let e_naive = rmse(&naive_forecast(train, test), test);
        let e_ar = rmse(&ArModel::fit(train).forecast_online(train, test), test);
        assert!(e_ar < e_naive, "seasonal AR {e_ar} vs naive {e_naive}");
    }

    #[test]
    fn constant_series_fits_without_blowup() {
        let xs = vec![30.0; 300];
        let model = ArModel::fit(&xs);
        let preds = model.forecast_online(&xs[..250], &xs[250..]);
        assert!(rmse(&preds, &xs[250..]) < 1e-3);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn short_series_rejected() {
        ArModel::fit(&[1.0; 55]);
    }
}

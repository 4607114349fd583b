//! Baseline forecasters: naive, seasonal-naive, and an autoregressive
//! model.
//!
//! §4.4 compares Holt-Winters and an LSTM; the workload-prediction
//! literature it cites (Calheiros et al.'s ARIMA work) adds the classical
//! autoregressive family. These baselines bound the comparison:
//! last-value and seasonal-naive are the floors any model must beat, and
//! [`ArModel`] is an AR(p) fitted by ordinary least squares on lagged
//! values (the AR core of ARIMA; the trace windows are stationary enough
//! after the seasonal lag that differencing is unnecessary — asserted in
//! tests).

/// Predict the previous value.
pub fn naive_forecast(train: &[f64], test_len: usize, test: &[f64]) -> Vec<f64> {
    assert!(!train.is_empty(), "naive needs history");
    assert!(test.len() >= test_len, "test too short");
    let mut last = *train.last().unwrap();
    (0..test_len)
        .map(|i| {
            let f = last;
            last = test[i];
            f
        })
        .collect()
}

/// Predict the value one season ago (period `m`).
pub fn seasonal_naive_forecast(train: &[f64], test: &[f64], m: usize) -> Vec<f64> {
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

/// An AR(p) model with an optional seasonal lag term:
/// `x_t = c + Σ φ_i·x_{t-i} + φ_s·x_{t-m}`.
#[derive(Debug, Clone)]
pub struct ArModel {
    /// Non-seasonal order.
    pub p: usize,
    /// Seasonal period (0 = no seasonal term).
    pub m: usize,
    coeffs: Vec<f64>, // [c, φ_1..φ_p, (φ_s)]
}

impl ArModel {
    /// Fit by OLS on the training series. Panics if the series is shorter
    /// than `p + m + 8` (not enough equations).
    pub fn fit(train: &[f64], p: usize, m: usize) -> Self {
        assert!(p >= 1, "order must be positive");
        let max_lag = p.max(m);
        assert!(
            train.len() >= max_lag + 8,
            "series too short: {} for lags {max_lag}",
            train.len()
        );
        let n_feat = 1 + p + usize::from(m > 0);
        // Normal equations X'X β = X'y via Gaussian elimination.
        let mut xtx = vec![vec![0.0f64; n_feat]; n_feat];
        let mut xty = vec![0.0f64; n_feat];
        for t in max_lag..train.len() {
            let mut row = Vec::with_capacity(n_feat);
            row.push(1.0);
            for i in 1..=p {
                row.push(train[t - i]);
            }
            if m > 0 {
                row.push(train[t - m]);
            }
            for a in 0..n_feat {
                xty[a] += row[a] * train[t];
                for b in 0..n_feat {
                    xtx[a][b] += row[a] * row[b];
                }
            }
        }
        // Ridge epsilon keeps degenerate (constant) series solvable.
        for (i, row) in xtx.iter_mut().enumerate() {
            row[i] += 1e-8;
        }
        let coeffs = solve(xtx, xty);
        ArModel { p, m, coeffs }
    }

    /// One-step forecast given the full history so far.
    pub fn forecast_next(&self, history: &[f64]) -> f64 {
        let n = history.len();
        let mut y = self.coeffs[0];
        for i in 1..=self.p {
            y += self.coeffs[i] * history[n - i];
        }
        if self.m > 0 {
            y += self.coeffs[1 + self.p] * history[n - self.m];
        }
        y
    }

    /// Rolling one-step forecasts over `test`.
    pub fn forecast_online(&self, train: &[f64], test: &[f64]) -> Vec<f64> {
        let mut history: Vec<f64> = train.to_vec();
        assert!(
            history.len() >= self.p.max(self.m),
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
        assert_eq!(naive_forecast(&train, 3, &test), vec![3.0, 4.0, 5.0]);
    }

    #[test]
    fn seasonal_naive_nails_pure_season() {
        let xs = seasonal(48 * 6, 48, 20.0);
        let (train, test) = (&xs[..48 * 5], &xs[48 * 5..]);
        let preds = seasonal_naive_forecast(train, test, 48);
        assert!(rmse(&preds, test) < 1e-9);
    }

    #[test]
    fn ar_recovers_ar1_process() {
        // x_t = 5 + 0.8 x_{t-1}: deterministic version converges to 25.
        let mut xs = vec![0.0];
        for _ in 0..200 {
            let last = *xs.last().unwrap();
            xs.push(5.0 + 0.8 * last);
        }
        let model = ArModel::fit(&xs, 1, 0);
        // One-step forecasts should be near-exact.
        let preds = model.forecast_online(&xs[..150], &xs[150..]);
        assert!(rmse(&preds, &xs[150..]) < 1e-3);
    }

    #[test]
    fn seasonal_ar_beats_plain_ar_on_seasonal_data() {
        let xs: Vec<f64> = seasonal(48 * 8, 48, 15.0)
            .iter()
            .enumerate()
            .map(|(i, v)| v + ((i as f64 * 12.9898).sin() * 43758.5453).fract() * 2.0)
            .collect();
        let split = 48 * 6;
        let plain = ArModel::fit(&xs[..split], 2, 0);
        let seasonal_model = ArModel::fit(&xs[..split], 2, 48);
        let e_plain = rmse(
            &plain.forecast_online(&xs[..split], &xs[split..]),
            &xs[split..],
        );
        let e_seasonal = rmse(
            &seasonal_model.forecast_online(&xs[..split], &xs[split..]),
            &xs[split..],
        );
        assert!(
            e_seasonal < e_plain,
            "seasonal {e_seasonal} vs plain {e_plain}"
        );
    }

    #[test]
    fn constant_series_fits_without_blowup() {
        let xs = vec![30.0; 300];
        let model = ArModel::fit(&xs, 3, 24);
        let preds = model.forecast_online(&xs[..250], &xs[250..]);
        assert!(rmse(&preds, &xs[250..]) < 1e-3);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn short_series_rejected() {
        ArModel::fit(&[1.0; 10], 2, 24);
    }
}

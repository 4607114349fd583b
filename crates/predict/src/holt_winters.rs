//! Additive Holt-Winters (triple exponential smoothing).
//!
//! The paper's classical forecaster (§4.4, citing Chatfield 1978). Level,
//! trend, and an additive seasonal cycle of `period` windows are smoothed
//! with coefficients (α, β, γ). [`HoltWinters::fit`] initializes from the
//! first two seasons and runs the recurrences over the training series;
//! [`HoltWinters::forecast_online`] then produces one-step-ahead forecasts
//! over a test series, updating state with each observed value — exactly
//! the "predict the next half-hour from history" protocol.
//!
//! [`HoltWinters::fit_grid`] selects (α, β, γ) from a 48-point grid. The
//! search is **batched**: since the classical initialization does not
//! depend on the smoothing coefficients, all grid cells share it and the
//! recurrences run in *one* pass over the series with contiguous
//! per-cell state arrays (seasonal state laid out phase-major, so the
//! inner cell loop walks memory sequentially), instead of 48 independent
//! re-fits. Per cell the arithmetic and its order are identical to a
//! standalone [`HoltWinters::fit`] + validation, so the selected
//! parameters and the returned model are bit-for-bit the same as the
//! per-cell loop it replaced (pinned by a test below and by
//! `crates/predict/tests/kernel_equiv.rs`).

use crate::window::WINDOWS_PER_DAY;
use edgescope_analysis::stats::mean;

/// Additive Holt-Winters model state.
#[derive(Debug, Clone)]
pub struct HoltWinters {
    /// Level smoothing coefficient.
    pub alpha: f64,
    /// Trend smoothing coefficient.
    pub beta: f64,
    /// Seasonal smoothing coefficient.
    pub gamma: f64,
    /// Seasonal period in windows.
    pub period: usize,
    level: f64,
    trend: f64,
    seasonal: Vec<f64>,
    /// Index (phase) of the next time step within the seasonal cycle.
    phase: usize,
}

impl HoltWinters {
    /// Fit on a training series. Requires at least two full periods.
    ///
    /// Panics on invalid smoothing coefficients (outside `[0,1]`) or a
    /// too-short series.
    pub fn fit(train: &[f64], alpha: f64, beta: f64, gamma: f64, period: usize) -> Self {
        for (name, v) in [("alpha", alpha), ("beta", beta), ("gamma", gamma)] {
            assert!((0.0..=1.0).contains(&v), "{name} out of [0,1]: {v}");
        }
        assert!(period >= 2, "period must be >= 2");
        assert!(
            train.len() >= 2 * period,
            "need 2 periods ({}), got {}",
            2 * period,
            train.len()
        );

        // Classical initialization: level = mean of season 1, trend =
        // mean per-step change between seasons 1 and 2, seasonals =
        // first-season deviations from its mean.
        let s1 = &train[..period];
        let s2 = &train[period..2 * period];
        let (m1, m2) = (mean(s1), mean(s2));
        let level = m1;
        let trend = (m2 - m1) / period as f64;
        let seasonal: Vec<f64> = s1.iter().map(|x| x - m1).collect();

        let mut hw = HoltWinters {
            alpha,
            beta,
            gamma,
            period,
            level,
            trend,
            seasonal,
            phase: 0,
        };
        for &x in train {
            hw.update(x);
        }
        hw
    }

    /// One-step-ahead forecast for the next time step.
    pub fn forecast_next(&self) -> f64 {
        self.level + self.trend + self.seasonal[self.phase]
    }

    /// Observe the actual value of the current step and advance.
    pub fn update(&mut self, x: f64) {
        let s = self.seasonal[self.phase];
        let prev_level = self.level;
        self.level = self.alpha * (x - s) + (1.0 - self.alpha) * (self.level + self.trend);
        self.trend = self.beta * (self.level - prev_level) + (1.0 - self.beta) * self.trend;
        self.seasonal[self.phase] = self.gamma * (x - self.level) + (1.0 - self.gamma) * s;
        self.phase = (self.phase + 1) % self.period;
    }

    /// Produce one-step-ahead forecasts over `test`, updating with each
    /// observation (rolling-origin evaluation).
    pub fn forecast_online(&mut self, test: &[f64]) -> Vec<f64> {
        test.iter()
            .map(|&x| {
                let f = self.forecast_next();
                self.update(x);
                f
            })
            .collect()
    }

    /// Fit with a daily period ([`WINDOWS_PER_DAY`] windows) and a small
    /// grid search over (α, β, γ), selecting the combination with the
    /// lowest one-step RMSE on the last period of `train` (used as
    /// validation, then refit on everything).
    ///
    /// The whole grid is evaluated in **one pass** over the series with
    /// shared state arrays (see module docs) — the result is bit-for-bit
    /// identical to fitting each cell independently.
    ///
    /// Series shorter than 3 periods cannot support the
    /// validation-split search; instead of panicking, the fit falls back
    /// to the fixed default coefficients
    /// `(α, β, γ) = (0.3, 0.05, 0.3)` (with a degenerate flat
    /// initialization below 2 periods) so a campaign is never aborted by
    /// one short cohort series.
    pub fn fit_grid(train: &[f64]) -> Self {
        let period = WINDOWS_PER_DAY;
        if train.len() < 3 * period {
            return Self::fit_defaults(train);
        }
        // Cell order: α outer, β middle, γ inner — the same nesting as
        // the original per-cell loops, so ties select the same winner.
        const ALPHAS: [f64; 4] = [0.05, 0.2, 0.5, 0.8];
        const BETAS: [f64; 3] = [0.01, 0.1, 0.3];
        const GAMMAS: [f64; 4] = ALPHAS;
        const N: usize = ALPHAS.len() * BETAS.len() * GAMMAS.len();
        let mut alphas = [0.0; N];
        let mut betas = [0.0; N];
        let mut gammas = [0.0; N];
        let mut idx = 0;
        for &a in &ALPHAS {
            for &b in &BETAS {
                for &g in &GAMMAS {
                    alphas[idx] = a;
                    betas[idx] = b;
                    gammas[idx] = g;
                    idx += 1;
                }
            }
        }

        let split = train.len() - period;
        // Shared classical initialization (coefficient-independent),
        // computed on the pre-validation slice exactly like
        // `fit(&train[..split], ..)` would.
        let s1 = &train[..period];
        let s2 = &train[period..2 * period];
        let (m1, m2) = (mean(s1), mean(s2));
        let mut level = [m1; N];
        let mut trend = [(m2 - m1) / period as f64; N];
        // Seasonal state phase-major: row `p` holds all N cells' phase-p
        // deviation, so each time step touches one contiguous row.
        let mut seasonal = vec![0.0; period * N];
        for (p, &x) in s1.iter().enumerate() {
            seasonal[p * N..(p + 1) * N].fill(x - m1);
        }
        let mut phase = 0;

        // Training pass: all 48 recurrences advance per time step.
        for &x in &train[..split] {
            let srow = &mut seasonal[phase * N..(phase + 1) * N];
            for c in 0..N {
                let s = srow[c];
                let prev_level = level[c];
                level[c] = alphas[c] * (x - s) + (1.0 - alphas[c]) * (prev_level + trend[c]);
                trend[c] = betas[c] * (level[c] - prev_level) + (1.0 - betas[c]) * trend[c];
                srow[c] = gammas[c] * (x - level[c]) + (1.0 - gammas[c]) * s;
            }
            phase = (phase + 1) % period;
        }
        // Validation pass: accumulate each cell's squared one-step error
        // in time order (replicating `stats::rmse` arithmetic exactly),
        // then keep updating.
        let mut se = [0.0; N];
        for &x in &train[split..] {
            let srow = &mut seasonal[phase * N..(phase + 1) * N];
            for c in 0..N {
                let s = srow[c];
                let d = level[c] + trend[c] + s - x;
                se[c] += d * d;
                let prev_level = level[c];
                level[c] = alphas[c] * (x - s) + (1.0 - alphas[c]) * (prev_level + trend[c]);
                trend[c] = betas[c] * (level[c] - prev_level) + (1.0 - betas[c]) * trend[c];
                srow[c] = gammas[c] * (x - level[c]) + (1.0 - gammas[c]) * s;
            }
            phase = (phase + 1) % period;
        }

        // First strict minimum wins — the original `rmse < best` rule.
        let vlen = (train.len() - split) as f64;
        let mut best = 0;
        let mut best_rmse = f64::INFINITY;
        for (c, &acc) in se.iter().enumerate() {
            let rmse = (acc / vlen).sqrt();
            if rmse < best_rmse {
                best_rmse = rmse;
                best = c;
            }
        }
        HoltWinters::fit(train, alphas[best], betas[best], gammas[best], period)
    }

    /// Fallback for series too short for the grid's validation split:
    /// fixed default coefficients `(0.3, 0.05, 0.3)`. With at least two
    /// periods the classical initialization still applies; below that the
    /// model starts flat (level = series mean, zero trend/seasonality)
    /// and runs the recurrences over whatever data there is.
    fn fit_defaults(train: &[f64]) -> Self {
        const DEFAULTS: (f64, f64, f64) = (0.3, 0.05, 0.3);
        let period = WINDOWS_PER_DAY;
        let (alpha, beta, gamma) = DEFAULTS;
        if train.len() >= 2 * period {
            return HoltWinters::fit(train, alpha, beta, gamma, period);
        }
        let level = mean(train);
        let mut hw = HoltWinters {
            alpha,
            beta,
            gamma,
            period,
            level,
            trend: 0.0,
            seasonal: vec![0.0; period],
            phase: 0,
        };
        for &x in train {
            hw.update(x);
        }
        hw
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgescope_analysis::stats::rmse;

    fn seasonal_series(n: usize, period: usize, amp: f64, trend: f64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                50.0 + trend * i as f64
                    + amp * (2.0 * std::f64::consts::PI * i as f64 / period as f64).sin()
            })
            .collect()
    }

    #[test]
    fn learns_pure_seasonal_signal() {
        let xs = seasonal_series(48 * 8, 48, 20.0, 0.0);
        let (train, test) = (&xs[..48 * 6], &xs[48 * 6..]);
        let mut hw = HoltWinters::fit(train, 0.3, 0.05, 0.3, 48);
        let preds = hw.forecast_online(test);
        let err = rmse(&preds, test);
        assert!(err < 1.0, "rmse {err}");
    }

    #[test]
    fn tracks_trend() {
        let xs = seasonal_series(48 * 8, 48, 10.0, 0.05);
        let (train, test) = (&xs[..48 * 6], &xs[48 * 6..]);
        let mut hw = HoltWinters::fit(train, 0.3, 0.1, 0.3, 48);
        let preds = hw.forecast_online(test);
        let err = rmse(&preds, test);
        assert!(err < 2.0, "rmse {err}");
    }

    #[test]
    fn beats_naive_on_seasonal_data() {
        let xs = seasonal_series(48 * 8, 48, 15.0, 0.0);
        let (train, test) = (&xs[..48 * 6], &xs[48 * 6..]);
        let mut hw = HoltWinters::fit(train, 0.3, 0.05, 0.3, 48);
        let preds = hw.forecast_online(test);
        let hw_err = rmse(&preds, test);
        // Naive: predict the previous value.
        let naive: Vec<f64> = std::iter::once(train[train.len() - 1])
            .chain(test[..test.len() - 1].iter().cloned())
            .collect();
        let naive_err = rmse(&naive, test);
        assert!(hw_err < naive_err / 1.5, "hw {hw_err} naive {naive_err}");
    }

    #[test]
    fn grid_fit_not_worse_than_fixed() {
        let xs = seasonal_series(48 * 8, 48, 12.0, 0.02);
        let (train, test) = (&xs[..48 * 6], &xs[48 * 6..]);
        let mut grid = HoltWinters::fit_grid(train);
        let grid_err = rmse(&grid.forecast_online(test), test);
        let mut fixed = HoltWinters::fit(train, 0.8, 0.3, 0.05, 48);
        let fixed_err = rmse(&fixed.forecast_online(test), test);
        assert!(
            grid_err <= fixed_err * 1.2,
            "grid {grid_err} fixed {fixed_err}"
        );
        assert!(grid_err < 3.0, "grid rmse {grid_err}");
    }

    #[test]
    fn constant_series_perfect() {
        let xs = vec![42.0; 200];
        let mut hw = HoltWinters::fit(&xs[..150], 0.3, 0.05, 0.3, 24);
        let preds = hw.forecast_online(&xs[150..]);
        assert!(rmse(&preds, &xs[150..]) < 1e-6);
    }

    #[test]
    #[should_panic(expected = "alpha out of [0,1]")]
    fn bad_alpha_rejected() {
        HoltWinters::fit(&[0.0; 100], 1.5, 0.1, 0.1, 10);
    }

    /// The batched one-pass grid must reproduce the per-cell search it
    /// replaced bit-for-bit: same winning parameters, same forecasts.
    /// Lengths that are not whole days end the training pass mid-cycle,
    /// so the validation window starts at a non-zero phase.
    #[test]
    fn batched_grid_matches_per_cell_reference() {
        let period = WINDOWS_PER_DAY;
        for n in [48 * 5, 48 * 5 + 17, 48 * 3 + 29] {
            // A messy-but-deterministic series so the grid has a
            // non-trivial winner.
            let xs: Vec<f64> = (0..n)
                .map(|i| {
                    let t = i as f64;
                    45.0 + 0.01 * t
                        + 12.0 * (2.0 * std::f64::consts::PI * t / 48.0).sin()
                        + 3.0 * (2.0 * std::f64::consts::PI * t / 7.0).cos()
                })
                .collect();
            // Per-cell reference: the original independent-refit search.
            let split = xs.len() - period;
            let grid = [0.05, 0.2, 0.5, 0.8];
            let mut best: Option<(f64, f64, f64, f64)> = None;
            for &a in &grid {
                for &b in &[0.01, 0.1, 0.3] {
                    for &g in &grid {
                        let mut hw = HoltWinters::fit(&xs[..split], a, b, g, period);
                        let preds = hw.forecast_online(&xs[split..]);
                        let r = rmse(&preds, &xs[split..]);
                        if best.is_none_or(|(br, ..)| r < br) {
                            best = Some((r, a, b, g));
                        }
                    }
                }
            }
            let (_, a, b, g) = best.unwrap();
            let mut reference = HoltWinters::fit(&xs, a, b, g, period);

            let mut batched = HoltWinters::fit_grid(&xs);
            assert_eq!(
                (batched.alpha, batched.beta, batched.gamma),
                (a, b, g),
                "n {n}"
            );
            let probe: Vec<f64> = (0..96).map(|i| 50.0 + (i % 7) as f64).collect();
            assert_eq!(
                batched.forecast_online(&probe),
                reference.forecast_online(&probe),
                "n {n}"
            );
        }
    }

    /// Satellite bugfix: series shorter than 3 periods must not panic —
    /// the grid falls back to fixed defaults.
    #[test]
    fn grid_fit_short_series_falls_back_to_defaults() {
        // Two periods + change: enough for a classical fit, not for the
        // validation split.
        let xs = seasonal_series(48 * 2 + 10, 48, 10.0, 0.0);
        let hw = HoltWinters::fit_grid(&xs);
        assert_eq!((hw.alpha, hw.beta, hw.gamma), (0.3, 0.05, 0.3));
        assert!(hw.forecast_next().is_finite());

        // Far below even one period: degenerate flat init, still usable.
        let mut tiny = HoltWinters::fit_grid(&[50.0, 52.0, 49.0]);
        assert_eq!((tiny.alpha, tiny.beta, tiny.gamma), (0.3, 0.05, 0.3));
        let preds = tiny.forecast_online(&[50.0; 10]);
        assert_eq!(preds.len(), 10);
        assert!(preds.iter().all(|p| p.is_finite()));

        // Empty series: returns a flat model rather than aborting.
        let empty = HoltWinters::fit_grid(&[]);
        assert_eq!(empty.forecast_next(), 0.0);
    }
}

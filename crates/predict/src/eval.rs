//! Per-VM prediction evaluation (the Fig. 14 protocol).
//!
//! For each VM: aggregate its CPU series into half-hour max/mean windows,
//! split 3 weeks train / 1 week test, train the model on the train
//! windows, produce one-step-ahead forecasts over the test windows, and
//! report RMSE in CPU percentage points. Fig. 14 then plots the CDF of
//! these per-VM RMSEs.
//!
//! # Parallel evaluation
//!
//! The paper trains "on each separated VM", so the per-VM loop is
//! embarrassingly parallel. Every evaluator takes a `jobs` worker count
//! and fans the series out with `edgescope_obs::pool::fan_out`, the same
//! deterministic fan-out the campaign loops in
//! `edgescope-probe`/`edgescope-trace` use:
//!
//! * the per-series results merge back **in series-index order**;
//! * the LSTM's per-series seed comes from its own RNG stream —
//!   `stream_seed(cfg.seed, entity_tag(PREDICT_SERIES, i))` — so no
//!   series' initialization or shuffle depends on which worker ran it,
//!   or on how many series preceded it;
//! * each series runs inside its own `edgescope-obs` metric scope, and
//!   the harvested sets are replayed into the caller's scope in series
//!   order, so `predict.*` counters are byte-identical at every worker
//!   count.
//!
//! Metrics recorded per evaluation: `predict.series_trained`,
//! `predict.series_skipped` (too short for the protocol), and for the
//! LSTM `predict.epochs_run`, `predict.lstm_train_samples` (windows run
//! forward and backward, over all epochs) and
//! `predict.lstm_optimizer_steps` (one per mini-batch). Each is counted
//! once per series, never per sample.

use crate::holt_winters::HoltWinters;
use crate::lstm::{Lstm, LstmConfig, TrainWork};
use crate::window::{make_windows, train_test_split, Aggregation, WINDOWS_PER_DAY};
use edgescope_analysis::stats::rmse;
use edgescope_net::rng::{domains, entity_tag, stream_seed};
use edgescope_obs as obs;
use edgescope_obs::pool::fan_out;

/// RMSEs per VM for one (model, aggregation) combination.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictionReport {
    /// One RMSE per evaluated VM, CPU percentage points.
    pub rmse_per_vm: Vec<f64>,
}

impl PredictionReport {
    /// Median RMSE (the headline Fig. 14 statistic).
    pub fn median_rmse(&self) -> f64 {
        edgescope_analysis::stats::median(&self.rmse_per_vm)
    }
}

/// Fan the per-series evaluation `f(i) -> Option<rmse>` out over `jobs`
/// workers and collect the non-skipped RMSEs in series order.
fn eval_series<F>(n_series: usize, jobs: usize, f: F) -> Vec<f64>
where
    F: Fn(usize) -> Option<f64> + Sync,
{
    fan_out(n_series, jobs, f).into_iter().flatten().collect()
}

/// The windows of one series if it is long enough for the protocol,
/// recording the trained/skipped counters.
fn windows_or_skip(
    xs: &[f64],
    samples_per_half_hour: usize,
    agg: Aggregation,
    min_extra: usize,
) -> Option<Vec<f64>> {
    let windows = make_windows(xs, samples_per_half_hour, agg);
    if windows.len() < 4 * WINDOWS_PER_DAY || windows.len() <= min_extra {
        obs::counter_add("predict.series_skipped", 1);
        return None;
    }
    obs::counter_add("predict.series_trained", 1);
    Some(windows)
}

/// Evaluate Holt-Winters over a set of per-VM CPU series, fanning the
/// series out over up to `jobs` worker threads — byte-identical to the
/// serial evaluation at every worker count.
///
/// `samples_per_half_hour` converts raw sampling to windows (30 for 1-min
/// data). Series too short for two seasonal periods are skipped.
pub fn evaluate_holt_winters(
    cpu_series: &[Vec<f64>],
    samples_per_half_hour: usize,
    agg: Aggregation,
    jobs: usize,
) -> PredictionReport {
    let rmses = eval_series(cpu_series.len(), jobs, |i| {
        let windows = windows_or_skip(&cpu_series[i], samples_per_half_hour, agg, 0)?;
        let (train, test) = train_test_split(&windows);
        let mut hw = HoltWinters::fit_grid(train);
        let preds = hw.forecast_online(test);
        Some(rmse(&preds, test))
    });
    PredictionReport { rmse_per_vm: rmses }
}

/// Evaluate the LSTM over a set of per-VM CPU series, one model per VM as
/// in the paper ("trained and tested on each separated VM"), fanned out
/// over up to `jobs` worker threads.
///
/// `cfg.seed` is the *base* seed: series `i` trains with its own derived
/// stream seed `stream_seed(cfg.seed, entity_tag(PREDICT_SERIES, i))`, so
/// every VM's initialization and shuffle order are independent of both
/// the worker count and the other series — the reports are byte-identical
/// at every `jobs` value.
pub fn evaluate_lstm(
    cpu_series: &[Vec<f64>],
    samples_per_half_hour: usize,
    agg: Aggregation,
    cfg: &LstmConfig,
    jobs: usize,
) -> PredictionReport {
    let fit_forecast = |cfg, train: &[f64], test: &[f64]| {
        let mut model = Lstm::new(cfg);
        let work = model.train(train);
        (model.forecast_online(train, test), work)
    };
    lstm_report(
        cpu_series,
        samples_per_half_hour,
        agg,
        cfg,
        jobs,
        fit_forecast,
    )
}

/// Scalar-reference counterpart of [`evaluate_lstm`]: identical
/// windowing, split, per-series seed derivation, and obs counters, but
/// training [`crate::reference::ScalarLstm`] (the pre-kernel per-element
/// loops) instead of the packed-GEMM cell, on one worker. Exists so
/// `edgescope-bench predict` can measure the kernel speedup on identical
/// work; no campaign calls this.
pub fn evaluate_lstm_reference(
    cpu_series: &[Vec<f64>],
    samples_per_half_hour: usize,
    agg: Aggregation,
    cfg: &LstmConfig,
) -> PredictionReport {
    let fit_forecast = |cfg, train: &[f64], test: &[f64]| {
        let mut model = crate::reference::ScalarLstm::new(cfg);
        let work = model.train(train);
        (model.forecast_online(train, test), work)
    };
    lstm_report(cpu_series, samples_per_half_hour, agg, cfg, 1, fit_forecast)
}

/// The body [`evaluate_lstm`] and [`evaluate_lstm_reference`] share:
/// window and split each series, derive its seed, and score
/// `fit_forecast(series config, train, test)`'s one-step forecasts of
/// the test windows, counting its epochs and the training work it
/// reports.
fn lstm_report(
    cpu_series: &[Vec<f64>],
    samples_per_half_hour: usize,
    agg: Aggregation,
    cfg: &LstmConfig,
    jobs: usize,
    fit_forecast: impl Fn(LstmConfig, &[f64], &[f64]) -> (Vec<f64>, TrainWork) + Sync,
) -> PredictionReport {
    let rmses = eval_series(cpu_series.len(), jobs, |i| {
        let windows =
            windows_or_skip(&cpu_series[i], samples_per_half_hour, agg, cfg.lookback + 8)?;
        let (train, test) = train_test_split(&windows);
        let series_cfg = LstmConfig {
            seed: stream_seed(cfg.seed, entity_tag(domains::PREDICT_SERIES, i)),
            ..cfg.clone()
        };
        obs::counter_add("predict.epochs_run", series_cfg.epochs as u64);
        let (preds, work) = fit_forecast(series_cfg, train, test);
        obs::counter_add("predict.lstm_train_samples", work.samples as u64);
        obs::counter_add("predict.lstm_optimizer_steps", work.optimizer_steps as u64);
        Some(rmse(&preds, test))
    });
    PredictionReport { rmse_per_vm: rmses }
}

/// [`evaluate_holt_winters`], [`evaluate_lstm`] and [`evaluate_baseline`]
/// under their former names, kept while `perfbench/src/main.rs` calls
/// them.
#[doc(hidden)]
pub use self::{
    evaluate_baseline as evaluate_baseline_jobs,
    evaluate_holt_winters as evaluate_holt_winters_jobs, evaluate_lstm as evaluate_lstm_jobs,
};

/// The baseline forecasters evaluated by [`evaluate_baseline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineKind {
    /// Previous value.
    Naive,
    /// Value one day (48 windows) ago.
    SeasonalNaive,
    /// AR(2) with a daily seasonal lag.
    SeasonalAr,
}

impl BaselineKind {
    /// Human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            BaselineKind::Naive => "naive (last value)",
            BaselineKind::SeasonalNaive => "seasonal-naive (yesterday)",
            BaselineKind::SeasonalAr => "AR(2)+seasonal lag",
        }
    }
}

/// Evaluate a baseline forecaster over per-VM CPU series (same protocol
/// as [`evaluate_holt_winters`]), fanned out over up to `jobs`
/// worker threads.
pub fn evaluate_baseline(
    cpu_series: &[Vec<f64>],
    samples_per_half_hour: usize,
    agg: Aggregation,
    kind: BaselineKind,
    jobs: usize,
) -> PredictionReport {
    use crate::baselines::{naive_forecast, seasonal_naive_forecast, ArModel};
    let rmses = eval_series(cpu_series.len(), jobs, |i| {
        let windows = windows_or_skip(&cpu_series[i], samples_per_half_hour, agg, 0)?;
        let (train, test) = train_test_split(&windows);
        let preds = match kind {
            BaselineKind::Naive => naive_forecast(train, test),
            BaselineKind::SeasonalNaive => seasonal_naive_forecast(train, test),
            BaselineKind::SeasonalAr => ArModel::fit(train).forecast_online(train, test),
        };
        Some(rmse(&preds, test))
    });
    PredictionReport { rmse_per_vm: rmses }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic "edge-like" CPU series: strong daily cycle, 5-min
    /// sampling, `days` long.
    fn seasonal_vm(days: usize, amp: f64, noise_seed: u64) -> Vec<f64> {
        let per_day = 288; // 5-min samples
        let mut x = noise_seed as f64;
        (0..days * per_day)
            .map(|i| {
                // Cheap deterministic noise.
                x = (x * 6364136223846793005.0_f64).rem_euclid(1e9);
                let n = (x / 1e9 - 0.5) * 4.0;
                (20.0 + amp * (2.0 * std::f64::consts::PI * i as f64 / per_day as f64).sin() + n)
                    .clamp(0.0, 100.0)
            })
            .collect()
    }

    #[test]
    fn holt_winters_report_shape() {
        let series = vec![seasonal_vm(8, 12.0, 1), seasonal_vm(8, 12.0, 2)];
        let rep = evaluate_holt_winters(&series, 6, Aggregation::Mean, 1);
        assert_eq!(rep.rmse_per_vm.len(), 2);
        assert!(rep.median_rmse() < 8.0, "median {}", rep.median_rmse());
    }

    #[test]
    fn stronger_seasonality_predicts_better() {
        // The §4.4 mechanism: higher seasonal strength → lower RMSE.
        let strong = vec![seasonal_vm(8, 15.0, 3)];
        let weak: Vec<Vec<f64>> = vec![seasonal_vm(8, 1.0, 4)];
        let r_strong = evaluate_holt_winters(&strong, 6, Aggregation::Mean, 1);
        // On a near-noise series the *relative* error is worse even if the
        // absolute RMSE is similar; compare RMSE normalized by std-dev of
        // the signal's predictable part (amplitude).
        let r_weak = evaluate_holt_winters(&weak, 6, Aggregation::Mean, 1);
        let rel_strong = r_strong.median_rmse() / 15.0;
        let rel_weak = r_weak.median_rmse() / 1.0;
        assert!(rel_strong < rel_weak, "strong {rel_strong} weak {rel_weak}");
    }

    #[test]
    fn short_series_skipped() {
        let series = vec![vec![10.0; 100]];
        let rep = evaluate_holt_winters(&series, 6, Aggregation::Max, 1);
        assert!(rep.rmse_per_vm.is_empty());
    }

    #[test]
    fn baselines_report_and_ordering() {
        // On strongly seasonal series: seasonal-naive and AR beat naive.
        let series = vec![seasonal_vm(8, 14.0, 11), seasonal_vm(8, 14.0, 12)];
        let naive = evaluate_baseline(&series, 6, Aggregation::Mean, BaselineKind::Naive, 1);
        let snaive = evaluate_baseline(
            &series,
            6,
            Aggregation::Mean,
            BaselineKind::SeasonalNaive,
            1,
        );
        let ar = evaluate_baseline(&series, 6, Aggregation::Mean, BaselineKind::SeasonalAr, 1);
        assert_eq!(naive.rmse_per_vm.len(), 2);
        assert!(
            snaive.median_rmse() < naive.median_rmse(),
            "seasonal-naive {} vs naive {}",
            snaive.median_rmse(),
            naive.median_rmse()
        );
        assert!(
            ar.median_rmse() < naive.median_rmse(),
            "AR {} vs naive {}",
            ar.median_rmse(),
            naive.median_rmse()
        );
    }

    #[test]
    fn lstm_report_runs() {
        let series = vec![seasonal_vm(6, 12.0, 5)];
        let cfg = LstmConfig {
            epochs: 2,
            lookback: 8,
            stride: 4,
            ..Default::default()
        };
        let rep = evaluate_lstm(&series, 6, Aggregation::Mean, &cfg, 1);
        assert_eq!(rep.rmse_per_vm.len(), 1);
        assert!(rep.rmse_per_vm[0] < 20.0, "rmse {}", rep.rmse_per_vm[0]);
    }

    #[test]
    fn jobs_variants_match_serial() {
        let series: Vec<Vec<f64>> = (0..5)
            .map(|k| seasonal_vm(8, 10.0 + k as f64, 20 + k as u64))
            .collect();
        let cfg = LstmConfig {
            epochs: 1,
            lookback: 8,
            stride: 6,
            ..Default::default()
        };
        let hw1 = evaluate_holt_winters(&series, 6, Aggregation::Mean, 1);
        let base1 = evaluate_baseline(&series, 6, Aggregation::Mean, BaselineKind::SeasonalAr, 1);
        let lstm1 = evaluate_lstm(&series, 6, Aggregation::Mean, &cfg, 1);
        for jobs in [2, 4, 8] {
            assert_eq!(
                evaluate_holt_winters(&series, 6, Aggregation::Mean, jobs),
                hw1,
                "HW at jobs={jobs}"
            );
            assert_eq!(
                evaluate_baseline(
                    &series,
                    6,
                    Aggregation::Mean,
                    BaselineKind::SeasonalAr,
                    jobs
                ),
                base1,
                "baseline at jobs={jobs}"
            );
            assert_eq!(
                evaluate_lstm(&series, 6, Aggregation::Mean, &cfg, jobs),
                lstm1,
                "LSTM at jobs={jobs}"
            );
        }
    }

    #[test]
    fn per_series_seeds_differ() {
        // Two identical series must still train with distinct derived
        // seeds — the per-series stream is keyed by index, not content.
        let xs = seasonal_vm(8, 12.0, 9);
        let series = vec![xs.clone(), xs];
        let cfg = LstmConfig {
            epochs: 1,
            lookback: 8,
            stride: 6,
            ..Default::default()
        };
        let rep = evaluate_lstm(&series, 6, Aggregation::Mean, &cfg, 1);
        assert_eq!(rep.rmse_per_vm.len(), 2);
        assert_ne!(
            rep.rmse_per_vm[0], rep.rmse_per_vm[1],
            "identical series with distinct indices must draw distinct seed streams"
        );
    }

    #[test]
    fn metrics_count_trained_and_skipped_series() {
        use edgescope_obs as obs;
        let series = vec![
            seasonal_vm(8, 12.0, 1),
            vec![10.0; 100],
            seasonal_vm(8, 12.0, 2),
        ];
        let run = |jobs: usize| {
            obs::scoped(|| {
                let cfg = LstmConfig {
                    epochs: 2,
                    lookback: 8,
                    stride: 6,
                    ..Default::default()
                };
                evaluate_lstm(&series, 6, Aggregation::Mean, &cfg, jobs);
            })
            .1
        };
        let set = run(1);
        assert_eq!(set.counter("predict.series_trained"), 2);
        assert_eq!(set.counter("predict.series_skipped"), 1);
        assert_eq!(set.counter("predict.epochs_run"), 4);
        // Each trained series: 8 days of 6-per-half-hour samples are 384
        // windows, 288 of them training; lookback 8 at stride 6 leaves
        // 47 windows per epoch, so 6 batches (the last of 7).
        let (samples, batches) = (47, 47usize.div_ceil(crate::lstm::BATCH));
        assert_eq!(batches, 6);
        assert_eq!(set.counter("predict.lstm_train_samples"), 2 * 2 * samples);
        assert_eq!(
            set.counter("predict.lstm_optimizer_steps"),
            2 * 2 * batches as u64
        );
        for jobs in [2, 4] {
            assert_eq!(
                set,
                run(jobs),
                "predict.* metrics must not depend on the worker count"
            );
        }
    }
}

//! Shared prediction state for the §4.4 experiments.
//!
//! fig14, ext_predictors and ext_predictive all evaluate forecasters on
//! the same NEP/Azure VM cohorts. Training a from-scratch LSTM (full
//! BPTT + Adam) and a grid-fitted Holt-Winters model per VM is the most
//! expensive per-entity work in the campaign, so the executor builds
//! this study **once** — with the full `--jobs` width — and every
//! (model, dataset, aggregation, config) pair is trained exactly once
//! per campaign. Before this study existed, fig14 and ext_predictors
//! each redid the shared trainings on the same series.
//!
//! Determinism: the study's LSTM base seed is
//! `Scenario::stream_seed(TAG)` (tag `0x9ed1`, see the allocation rules
//! in [`crate::scenario`]); `predict::eval` then derives one seed stream
//! per series index (`PREDICT_SERIES` domain), so the trained reports
//! are byte-identical at every worker count.

use super::workload_study::WorkloadStudy;
use crate::scenario::Scenario;
use edgescope_predict::eval::{
    evaluate_baseline, evaluate_holt_winters, evaluate_lstm, BaselineKind, PredictionReport,
};
use edgescope_predict::lstm::LstmConfig;
use edgescope_predict::window::Aggregation;
use edgescope_trace::dataset::TraceDataset;

/// The RNG-stream tag of the prediction study (LSTM base seed).
pub const TAG: u64 = 0x9ed1;

/// One model's evaluation on both platforms' cohorts.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelPair {
    /// The NEP-cohort report.
    pub nep: PredictionReport,
    /// The Azure-cohort report.
    pub azure: PredictionReport,
}

/// Pick an evaluation cohort: `n` VMs stratified across the utilization
/// distribution (the paper evaluates per VM over the whole population,
/// so the cohort must represent idle and busy VMs alike).
pub fn cohort(ds: &TraceDataset, n: usize) -> Vec<Vec<f64>> {
    let means = ds.mean_cpu_per_vm();
    let mut order: Vec<usize> = (0..ds.n_vms()).collect();
    // total_cmp: means are NaN-free, but keep every sort in the
    // workspace on the total order (NaNs would sort first here, not
    // panic) — same convention as analysis::stats.
    order.sort_by(|&a, &b| means[b].total_cmp(&means[a]));
    let n = n.min(order.len());
    (0..n)
        .map(|k| {
            let i = order[k * order.len() / n.max(1)];
            ds.cpu_series(i).iter().map(|&v| v as f64).collect()
        })
        .collect()
}

/// The LSTM configuration for a cohort of `n_vms` VMs in `scenario`:
/// the base seed is the study's stream ([`TAG`]), and cohorts of up to 8
/// VMs train for 2 epochs instead of 3.
pub fn lstm_config(n_vms: usize, scenario: &Scenario) -> LstmConfig {
    LstmConfig {
        epochs: if n_vms <= 8 { 2 } else { 3 },
        stride: 3,
        lookback: 12,
        seed: scenario.stream_seed(TAG),
        ..Default::default()
    }
}

/// Every trained forecaster the §4.4 experiments read, plus the cohorts
/// and sampling parameters they were trained on.
pub struct PredictionStudy {
    /// The stratified NEP evaluation cohort (per-VM CPU series).
    pub nep_cohort: Vec<Vec<f64>>,
    /// The stratified Azure evaluation cohort.
    pub azure_cohort: Vec<Vec<f64>>,
    /// CPU samples per half-hour window in the NEP trace.
    pub sphh_nep: usize,
    /// CPU samples per half-hour window in the Azure trace.
    pub sphh_azure: usize,
    /// NEP CPU sampling interval, minutes (for seasonality resampling).
    pub nep_interval_min: usize,
    /// Azure CPU sampling interval, minutes.
    pub azure_interval_min: usize,
    /// The one LSTM configuration every consumer shares
    /// ([`lstm_config`]; per-series seeds derived from its base seed).
    pub lstm_cfg: LstmConfig,
    /// Holt-Winters, max-CPU target.
    pub hw_max: ModelPair,
    /// Holt-Winters, mean-CPU target.
    pub hw_mean: ModelPair,
    /// LSTM, max-CPU target.
    pub lstm_max: ModelPair,
    /// LSTM, mean-CPU target.
    pub lstm_mean: ModelPair,
    /// Naive (last value) baseline, mean-CPU target.
    pub naive_mean: ModelPair,
    /// Seasonal-naive baseline, mean-CPU target.
    pub seasonal_naive_mean: ModelPair,
    /// Seasonal-AR baseline, mean-CPU target.
    pub seasonal_ar_mean: ModelPair,
}

impl PredictionStudy {
    /// Train every shared forecaster with the per-VM evaluation fanned
    /// out over up to `jobs` worker threads — byte-identical at every
    /// worker count (each series trains from its own RNG stream).
    pub fn run(scenario: &Scenario, study: &WorkloadStudy, jobs: usize) -> Self {
        let n = scenario.sizing.predict_vms;
        let nep_cohort = cohort(&study.nep, n);
        let azure_cohort = cohort(&study.azure, n);
        let sphh_nep = study.nep.config.cpu_samples_per_half_hour();
        let sphh_azure = study.azure.config.cpu_samples_per_half_hour();
        let lstm_cfg = lstm_config(n, scenario);

        let hw = |agg| ModelPair {
            nep: evaluate_holt_winters(&nep_cohort, sphh_nep, agg, jobs),
            azure: evaluate_holt_winters(&azure_cohort, sphh_azure, agg, jobs),
        };
        let lstm = |agg| ModelPair {
            nep: evaluate_lstm(&nep_cohort, sphh_nep, agg, &lstm_cfg, jobs),
            azure: evaluate_lstm(&azure_cohort, sphh_azure, agg, &lstm_cfg, jobs),
        };
        let baseline = |kind| ModelPair {
            nep: evaluate_baseline(&nep_cohort, sphh_nep, Aggregation::Mean, kind, jobs),
            azure: evaluate_baseline(&azure_cohort, sphh_azure, Aggregation::Mean, kind, jobs),
        };

        let hw_max = hw(Aggregation::Max);
        let hw_mean = hw(Aggregation::Mean);
        let lstm_max = lstm(Aggregation::Max);
        let lstm_mean = lstm(Aggregation::Mean);
        let naive_mean = baseline(BaselineKind::Naive);
        let seasonal_naive_mean = baseline(BaselineKind::SeasonalNaive);
        let seasonal_ar_mean = baseline(BaselineKind::SeasonalAr);

        PredictionStudy {
            nep_cohort,
            azure_cohort,
            sphh_nep,
            sphh_azure,
            nep_interval_min: study.nep.config.cpu_interval_min,
            azure_interval_min: study.azure.config.cpu_interval_min,
            lstm_cfg,
            hw_max,
            hw_mean,
            lstm_max,
            lstm_mean,
            naive_mean,
            seasonal_naive_mean,
            seasonal_ar_mean,
        }
    }

    /// The Holt-Winters pair for an aggregation target.
    pub fn hw(&self, agg: Aggregation) -> &ModelPair {
        match agg {
            Aggregation::Max => &self.hw_max,
            Aggregation::Mean => &self.hw_mean,
        }
    }

    /// The LSTM pair for an aggregation target.
    pub fn lstm(&self, agg: Aggregation) -> &ModelPair {
        match agg {
            Aggregation::Max => &self.lstm_max,
            Aggregation::Mean => &self.lstm_mean,
        }
    }

    /// A baseline pair (mean-CPU target — the panel's common ground).
    pub fn baseline(&self, kind: BaselineKind) -> &ModelPair {
        match kind {
            BaselineKind::Naive => &self.naive_mean,
            BaselineKind::SeasonalNaive => &self.seasonal_naive_mean,
            BaselineKind::SeasonalAr => &self.seasonal_ar_mean,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scale, Scenario};

    #[test]
    fn study_trains_every_shared_pair_once() {
        let scenario = Scenario::new(Scale::Quick, 21);
        let wl = WorkloadStudy::run(&scenario, 1);
        let st = PredictionStudy::run(&scenario, &wl, 1);
        assert_eq!(st.nep_cohort.len(), scenario.sizing.predict_vms);
        assert_eq!(st.azure_cohort.len(), scenario.sizing.predict_vms);
        // Quick scale: 14-day series comfortably clear the 4-day floor,
        // so nothing is skipped.
        for pair in [&st.hw_max, &st.hw_mean, &st.lstm_max, &st.lstm_mean] {
            assert_eq!(pair.nep.rmse_per_vm.len(), st.nep_cohort.len());
            assert_eq!(pair.azure.rmse_per_vm.len(), st.azure_cohort.len());
        }
        assert_eq!(st.lstm_cfg.seed, scenario.stream_seed(TAG));
        assert_eq!(st.hw(Aggregation::Max), &st.hw_max);
        assert_eq!(st.lstm(Aggregation::Mean), &st.lstm_mean);
        assert_eq!(st.baseline(BaselineKind::Naive), &st.naive_mean);
    }

    #[test]
    fn cohort_is_stratified_and_sized() {
        let scenario = Scenario::new(Scale::Quick, 20);
        let wl = WorkloadStudy::run(&scenario, 1);
        let c = cohort(&wl.nep, 4);
        assert_eq!(c.len(), 4);
        // Distinct strata: the busiest pick differs from the idlest.
        let mean = |xs: &Vec<f64>| xs.iter().sum::<f64>() / xs.len() as f64;
        assert!(mean(&c[0]) > mean(&c[3]), "cohort must span busy to idle");
    }
}

//! Forecast-guided VM placement.
//!
//! §4.4's implication: "knowing the future CPU usage can guide VM
//! allocation … thus help avoid server malfunction or even crash induced
//! by CPU overload". The study: sites carry diurnal, phase-shifted
//! background loads; VMs arrive at a fixed hour and must be placed.
//!
//! * **Reactive** (≈ NEP's current policy) places on the site that is
//!   least loaded *right now* — and walks into the trap: a site that is
//!   idle at noon may peak at 21:00.
//! * **Holt-Winters** places on the site whose *forecast peak* over the
//!   next day is lowest, using only past observations.
//! * **Oracle** sees the true future (the upper bound).
//!
//! Outcome metric: overload (load beyond capacity) integrated over the
//! evaluation day.
//!
//! The world is fixed by module constants: [`N_SITES`] sites with
//! [`HISTORY_DAYS`] days of history, [`N_VMS`] arrivals of [`VM_LOAD`]
//! each at [`PLACEMENT_HOUR`], and 6 % per-sample load noise.

use edgescope_analysis::stats::peak_max;
use edgescope_net::rng::log_normal_mean_cv;
use edgescope_predict::holt_winters::HoltWinters;
use rand::Rng;

/// How a placement decision looks into the future.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForecastPolicy {
    /// Least-loaded *now* (status quo).
    Reactive,
    /// Lowest Holt-Winters-forecast peak over the next day.
    HoltWinters,
    /// Lowest true future peak (upper bound).
    Oracle,
}

impl ForecastPolicy {
    /// Human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            ForecastPolicy::Reactive => "reactive (least-loaded now)",
            ForecastPolicy::HoltWinters => "Holt-Winters forecast",
            ForecastPolicy::Oracle => "oracle (true future)",
        }
    }
}

/// Number of candidate sites.
pub const N_SITES: usize = 12;
/// VM arrivals to place.
pub const N_VMS: usize = 30;
/// History days before the placement instant.
pub const HISTORY_DAYS: usize = 10;
/// Load each VM adds (same unit as the background load; capacity 100).
pub const VM_LOAD: f64 = 8.0;
/// Hour of day at which the placements happen.
pub const PLACEMENT_HOUR: usize = 12;
/// Per-sample noise of the background load.
const NOISE_CV: f64 = 0.06;

/// Study outcome for one policy.
#[derive(Debug, Clone)]
pub struct PredictiveOutcome {
    /// The policy evaluated.
    pub policy: ForecastPolicy,
    /// Sum over the evaluation day of load beyond capacity (unit·hours).
    pub overload_unit_hours: f64,
    /// Site-hours above capacity.
    pub overloaded_hours: usize,
    /// Extra VM load the policy placed on each site (deployment order).
    /// Exposed so callers — and the NaN regression tests — can check
    /// *where* the VMs went, not just the aggregate overload.
    pub placed_per_site: Vec<f64>,
}

/// Per-site capacity (percentage points of load).
const CAPACITY: f64 = 100.0;

/// Generate one site's hourly background load: a diurnal bump with a
/// per-site phase and level.
fn site_series(rng: &mut impl Rng, hours: usize, phase: f64, level: f64) -> Vec<f64> {
    (0..hours)
        .map(|t| {
            let h = (t % 24) as f64;
            let mut d = (h - phase).abs();
            if d > 12.0 {
                d = 24.0 - d;
            }
            let bump = (1.0 - (d / 7.0).powi(2)).max(0.0);
            let det = level * (0.25 + 0.75 * bump * bump);
            log_normal_mean_cv(rng, det.max(0.1), NOISE_CV)
        })
        .collect()
}

/// Run the study: same world, one outcome per policy.
pub fn placement_study(rng: &mut impl Rng) -> Vec<PredictiveOutcome> {
    let horizon_hours = (HISTORY_DAYS + 1) * 24;
    // Phases spread over the day; levels vary: some sites are hot.
    let sites: Vec<Vec<f64>> = (0..N_SITES)
        .map(|s| {
            let phase = 24.0 * s as f64 / N_SITES as f64;
            let level = 40.0 + 50.0 * ((s * 7) % N_SITES) as f64 / N_SITES as f64;
            site_series(rng, horizon_hours, phase, level)
        })
        .collect();
    let t_place = HISTORY_DAYS * 24 + PLACEMENT_HOUR;

    // Pre-fit one Holt-Winters model per site on the history.
    let forecasts: Vec<Vec<f64>> = sites
        .iter()
        .map(|series| {
            let mut hw = HoltWinters::fit(&series[..t_place], 0.3, 0.02, 0.3, 24);
            // Multi-step forecast: iterate updates with own predictions.
            (0..24)
                .map(|_| {
                    let f = hw.forecast_next();
                    hw.update(f);
                    f
                })
                .collect()
        })
        .collect();

    placement_outcomes(&sites, &forecasts, t_place)
}

/// Place and evaluate every policy on an explicit world: per-site hourly
/// series (history plus evaluation day), per-site day-ahead forecasts,
/// and the placement instant `t_place` (hour index into the series).
///
/// This is the injectable core behind [`placement_study`] — tests drive
/// edge cases (a NaN forecast or load sample) straight into the
/// selection loop through it. Site scores compare with
/// [`f64::total_cmp`], under which NaN orders after `+inf`: a site whose
/// score degenerates to NaN can never win the minimum, and the
/// comparator can never panic.
pub fn placement_outcomes(
    sites: &[Vec<f64>],
    forecasts: &[Vec<f64>],
    t_place: usize,
) -> Vec<PredictiveOutcome> {
    assert_eq!(sites.len(), forecasts.len(), "one forecast per site");
    assert!(sites.len() >= 2, "need sites to choose between");
    let n_sites = sites.len();
    [
        ForecastPolicy::Reactive,
        ForecastPolicy::HoltWinters,
        ForecastPolicy::Oracle,
    ]
    .into_iter()
    .map(|policy| {
        // Extra VM load placed per site.
        let mut placed = vec![0.0f64; n_sites];
        for _ in 0..N_VMS {
            let score = |s: usize| -> f64 {
                let future = &sites[s][t_place..t_place + 24 - PLACEMENT_HOUR];
                match policy {
                    ForecastPolicy::Reactive => sites[s][t_place] + placed[s],
                    // NaN-propagating peak: `f64::max` would launder a
                    // poisoned forecast into the most attractive score.
                    ForecastPolicy::HoltWinters => peak_max(&forecasts[s]) + placed[s],
                    ForecastPolicy::Oracle => peak_max(future) + placed[s],
                }
            };
            let best = (0..n_sites)
                .min_by(|&a, &b| score(a).total_cmp(&score(b)))
                .unwrap();
            placed[best] += VM_LOAD;
        }
        // Evaluate the following day.
        let mut overload = 0.0;
        let mut hours = 0;
        for (s, series) in sites.iter().enumerate() {
            for t in t_place..t_place + 24 {
                let load = series.get(t).copied().unwrap_or(0.0) + placed[s];
                if load > CAPACITY {
                    overload += load - CAPACITY;
                    hours += 1;
                }
            }
        }
        PredictiveOutcome {
            policy,
            overload_unit_hours: overload,
            overloaded_hours: hours,
            placed_per_site: placed,
        }
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run(seed: u64) -> Vec<PredictiveOutcome> {
        let mut rng = StdRng::seed_from_u64(seed);
        placement_study(&mut rng)
    }

    #[test]
    fn forecasting_beats_reactive() {
        // §4.4's claim, averaged over several worlds to wash out noise.
        let mut reactive = 0.0;
        let mut hw = 0.0;
        let mut oracle = 0.0;
        for seed in 0..10 {
            let out = run(seed);
            reactive += out[0].overload_unit_hours;
            hw += out[1].overload_unit_hours;
            oracle += out[2].overload_unit_hours;
        }
        assert!(hw < reactive, "HW {hw} must beat reactive {reactive}");
        assert!(
            oracle <= hw * 1.05,
            "oracle {oracle} is the bound (hw {hw})"
        );
    }

    #[test]
    fn outcome_fields_sane() {
        for o in run(3) {
            assert!(o.overload_unit_hours >= 0.0);
            assert!(o.overloaded_hours <= 12 * 24);
        }
    }

    #[test]
    fn deterministic() {
        let a = run(9);
        let b = run(9);
        assert_eq!(a[0].overload_unit_hours, b[0].overload_unit_hours);
        assert_eq!(a[1].overloaded_hours, b[1].overloaded_hours);
    }

    #[test]
    fn labels_distinct() {
        let out = run(1);
        assert_eq!(out.len(), 3);
        assert_ne!(out[0].policy.label(), out[1].policy.label());
        assert_ne!(out[1].policy.label(), out[2].policy.label());
    }
}

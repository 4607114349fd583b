//! Extension experiment: forecast-guided VM placement (§4.4's
//! implication).
//!
//! Compares reactive, Holt-Winters-forecast, and oracle placement on
//! phase-shifted diurnal site loads, averaged over several worlds —
//! quantifying how much of the "avoid CPU overload" benefit the paper
//! predicts is actually attainable with the Fig. 14 predictor. The
//! shared [`PredictionStudy`] supplies the measured forecast accuracy
//! that contextualises the placement gain.

use super::prediction_study::PredictionStudy;
use crate::report::ExperimentReport;
use crate::scenario::Scenario;
use edgescope_analysis::table::Table;
use edgescope_sched::predictive::{placement_study, ForecastPolicy, N_SITES, N_VMS};

/// Worlds averaged per policy.
const WORLDS: usize = 8;

/// Run the predictive-placement study.
pub fn run(scenario: &Scenario, study: &PredictionStudy) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "ext_predictive",
        "Extension: forecast-guided VM placement (overload avoided)",
    );
    let mut totals = [(ForecastPolicy::Reactive, 0.0, 0usize); 3];
    for w in 0..WORLDS {
        let mut rng = scenario.rng(0x9d1c + w as u64);
        for (i, out) in placement_study(&mut rng).into_iter().enumerate() {
            totals[i].0 = out.policy;
            totals[i].1 += out.overload_unit_hours;
            totals[i].2 += out.overloaded_hours;
        }
    }
    let mut t = Table::new(
        format!("{WORLDS} worlds x {N_SITES} sites x {N_VMS} VM placements"),
        &[
            "policy",
            "overload unit-hours",
            "overloaded site-hours",
            "vs reactive",
        ],
    );
    let reactive = totals[0].1.max(1e-9);
    for (policy, overload, hours) in totals {
        t.row(vec![
            policy.label().to_string(),
            format!("{:.0}", overload),
            hours.to_string(),
            format!("{:.0}%", 100.0 * overload / reactive),
        ]);
    }
    report.tables.push(t);
    report.notes.push(format!(
        "measured Holt-Winters forecast accuracy (shared study, mean-CPU target): median RMSE {:.1} pp on NEP — the predictor whose placement benefit this table quantifies",
        study.hw_mean.nep.median_rmse()
    ));
    report.notes.push(
        "paper 4.4: 'knowing the future CPU usage can guide VM allocation ... help avoid server malfunction or even crash induced by CPU overload'".into(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::super::workload_study::WorkloadStudy;
    use super::*;
    use crate::scenario::{Scale, Scenario};

    #[test]
    fn forecast_row_beats_reactive_row() {
        let scenario = Scenario::new(Scale::Quick, 33);
        let wl = WorkloadStudy::run(&scenario, 1);
        let study = PredictionStudy::run(&scenario, &wl, 1);
        let r = run(&scenario, &study);
        let csv = r.tables[0].to_csv();
        let overload = |row: usize| -> f64 {
            csv.lines()
                .nth(row + 1)
                .unwrap()
                .split(',')
                .nth(1)
                .unwrap()
                .parse()
                .unwrap()
        };
        assert!(
            overload(1) < overload(0),
            "HW {} vs reactive {}",
            overload(1),
            overload(0)
        );
        assert!(overload(2) <= overload(1) * 1.05, "oracle bounds HW");
    }
}

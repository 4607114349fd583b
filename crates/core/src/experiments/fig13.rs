//! Fig. 13: cross-VM CPU imbalance within single apps.

use super::workload_study::WorkloadStudy;
use crate::report::{kv_csv, ExperimentReport};
use edgescope_analysis::cdf::Cdf;
use edgescope_analysis::table::Table;
use edgescope_analysis::timeseries::resample_mean;

/// Minimum VMs for an app to enter the gap CDF (the paper's metric needs
/// a meaningful P95/P5 within the app).
const MIN_VMS: usize = 8;

/// NaN-safe comparison of gap scores: IEEE total order with NaN demoted
/// below every real score, so a degenerate per-app gap can never win the
/// zoom selection — or panic it, as the former `partial_cmp().unwrap()`
/// did.
fn cmp_gap(a: f64, b: f64) -> std::cmp::Ordering {
    let key = |s: f64| if s.is_nan() { f64::NEG_INFINITY } else { s };
    key(a).total_cmp(&key(b))
}

/// Regenerate Fig. 13: (a) the per-app P95/P5 usage-gap CDF for NEP vs
/// Azure; (b) one edge app's per-VM daily CPU curves.
pub fn run(study: &WorkloadStudy) -> ExperimentReport {
    let mut report = ExperimentReport::new("fig13", "Per-app cross-VM usage imbalance");
    let mut t = Table::new(
        "(a) per-app P95/P5 gap of per-VM mean CPU",
        &["platform", "apps", "median gap", ">50x gap"],
    );
    for (name, ds) in [("NEP", &study.nep), ("Azure", &study.azure)] {
        let gaps = ds.app_usage_gaps(MIN_VMS);
        if gaps.is_empty() {
            report
                .notes
                .push(format!("{name}: no app with >= {MIN_VMS} VMs"));
            continue;
        }
        let c = Cdf::from_slice(&gaps);
        let over50 = gaps.iter().filter(|&&g| g > 50.0).count() as f64 / gaps.len() as f64;
        t.row(vec![
            name.to_string(),
            gaps.len().to_string(),
            format!("{:.1}x", c.median()),
            format!("{:.1}%", 100.0 * over50),
        ]);
        report
            .csv
            .push((format!("{}_gap_cdf", name.to_lowercase()), c.to_csv(40)));
    }
    report.tables.push(t);

    // (b) zoom into the most imbalanced NEP app with >= 11 VMs: one day of
    // hourly CPU for up to 11 VMs, their CPU series regenerated from the
    // trace seed.
    let ds = &study.nep;
    let means = ds.mean_cpu_per_vm();
    let by_app = ds.vms_per_app();
    let target = by_app
        .iter()
        .filter(|(_, idxs)| idxs.len() >= 11)
        .max_by(|a, b| {
            let gap = |idxs: &[usize]| {
                let xs: Vec<f64> = idxs.iter().map(|&i| means[i]).collect();
                edgescope_analysis::imbalance::gap_p95_p5(&xs, 0.1)
            };
            cmp_gap(gap(a.1), gap(b.1))
        });
    if let Some((app, idxs)) = target {
        let per_hour = 60 / ds.config.cpu_interval_min.min(60);
        for (k, &i) in idxs.iter().take(11).enumerate() {
            let xs: Vec<f64> = ds.cpu_series(i).iter().map(|&v| v as f64).collect();
            let hourly = resample_mean(&xs[..(24 * per_hour).min(xs.len())], per_hour);
            let rows: Vec<(String, f64)> = hourly
                .iter()
                .enumerate()
                .map(|(h, &v)| (format!("{h}"), v))
                .collect();
            report.csv.push((
                format!("app{}_vm{}_day", app.0, k),
                kv_csv(("hour", "cpu_pct"), &rows),
            ));
        }
        report.notes.push(format!(
            "(b) zooms into app {} with {} VMs",
            app.0,
            idxs.len()
        ));
    }
    report.notes.push(
        "paper: 16.3% of NEP apps exceed a 50x cross-VM gap vs 0.1% on Azure; the zoomed app runs one VM >80% CPU a third of the time while others idle <30%".into(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::super::workload_study::WorkloadStudy;
    use super::*;
    use crate::scenario::{Scale, Scenario};

    #[test]
    fn nep_gaps_heavier_than_azure() {
        let scenario = Scenario::new(Scale::Quick, 19);
        let study = WorkloadStudy::run(&scenario, 1);
        let nep = study.nep.app_usage_gaps(MIN_VMS);
        let az = study.azure.app_usage_gaps(MIN_VMS);
        assert!(!nep.is_empty() && !az.is_empty());
        let med = |xs: &[f64]| edgescope_analysis::stats::median(xs);
        assert!(
            med(&nep) > med(&az),
            "NEP {:.1} vs Azure {:.1}",
            med(&nep),
            med(&az)
        );
        let r = run(&study);
        assert!(!r.tables[0].rows().is_empty());
    }

    /// Regression: the zoom selection used to `partial_cmp().unwrap()`
    /// and panicked on a NaN gap; NaN must now lose to every real score.
    #[test]
    fn gap_selection_tolerates_nan_scores() {
        use std::cmp::Ordering;
        assert_eq!(cmp_gap(f64::NAN, 3.0), Ordering::Less);
        assert_eq!(cmp_gap(3.0, f64::NAN), Ordering::Greater);
        assert_eq!(cmp_gap(f64::NAN, f64::NAN), Ordering::Equal);
        let scores = [4.0, f64::NAN, 9.0, 1.0];
        let best = (0..scores.len()).max_by(|&a, &b| cmp_gap(scores[a], scores[b]));
        assert_eq!(best, Some(2), "NaN never wins the selection");
    }
}

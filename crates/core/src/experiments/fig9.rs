//! Fig. 9: number of VMs per app on NEP vs. Azure.

use super::workload_study::WorkloadStudy;
use crate::report::ExperimentReport;
use edgescope_analysis::cdf::Cdf;
use edgescope_analysis::table::Table;

/// Regenerate Fig. 9: the per-app VM-count CDF and the ≥50-VM share.
pub fn run(study: &WorkloadStudy) -> ExperimentReport {
    let mut report = ExperimentReport::new("fig9", "VMs per app: NEP vs Azure");
    let mut t = Table::new(
        "per-app VM counts",
        &["platform", "apps", "median", ">=50 VMs", "max"],
    );
    for (name, ds) in [("NEP", &study.nep), ("Azure", &study.azure)] {
        let counts: Vec<f64> = ds.vms_per_app().values().map(|v| v.len() as f64).collect();
        let c = Cdf::from_slice(&counts);
        let ge50 = counts.iter().filter(|&&x| x >= 50.0).count() as f64 / counts.len() as f64;
        t.row(vec![
            name.to_string(),
            counts.len().to_string(),
            format!("{:.0}", c.median()),
            format!("{:.1}%", 100.0 * ge50),
            format!("{:.0}", c.max()),
        ]);
        report
            .csv
            .push((format!("{}_appvms_cdf", name.to_lowercase()), c.to_csv(40)));
    }
    report.tables.push(t);
    report.notes.push(
        "paper: >=50 VMs for 9.6% of NEP apps vs 6.1% on Azure; largest edge app ~1000 VMs".into(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::super::workload_study::WorkloadStudy;
    use super::*;
    use crate::scenario::{Scale, Scenario};

    #[test]
    fn fig9_builds() {
        let scenario = Scenario::new(Scale::Quick, 14);
        let study = WorkloadStudy::run(&scenario, 1);
        let r = run(&study);
        assert_eq!(r.tables[0].rows().len(), 2);
        assert_eq!(r.csv.len(), 2);
    }
}

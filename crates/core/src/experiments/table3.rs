//! Table 3: monetary cost of the heaviest NEP apps vs. the two virtual
//! clouds under the three network billing models.

use super::workload_study::WorkloadStudy;
use crate::report::ExperimentReport;
use crate::scenario::{Platform, Scenario};
use edgescope_analysis::table::Table;
use edgescope_billing::vcloud::{table3_ratios, TrafficGranularity};

/// Regenerate Table 3.
pub fn run(scenario: &Scenario, study: &WorkloadStudy) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "table3",
        "Monetary cost: virtual clouds vs NEP (heaviest apps)",
    );
    let n = scenario.sizing.table3_apps;
    let mut t = Table::new(
        format!("cloud cost / NEP cost over {n} heaviest apps"),
        &["baseline", "model", "range", "mean", "median"],
    );
    let clouds: Vec<_> = Platform::ALL
        .into_iter()
        .filter_map(|p| Some((p, p.tariff()?)))
        .collect();
    let merged = TrafficGranularity::MergedPerRegion;
    let views: Vec<_> = clouds
        .iter()
        .map(|(p, tariff)| (tariff, scenario.deployment(*p), merged))
        .collect();
    let reports = table3_ratios(&study.nep, &study.nep_deployment, &views, n);
    for ((platform, _), rep) in clouds.iter().zip(reports) {
        for (model, r, _) in &rep.by_model {
            t.row(vec![
                rep.cloud_name.to_string(),
                model.label().to_string(),
                format!("{:.2}x-{:.2}x", r.min, r.max),
                format!("{:.2}x", r.mean),
                format!("{:.2}x", r.median),
            ]);
        }
        if *platform == Platform::AliCloud {
            report.notes.push(format!(
                "NEP bill is {:.0}% network on average (paper: 76%)",
                100.0 * rep.nep_network_share_mean
            ));
        }
    }
    report.tables.push(t);
    report.notes.push(
        "paper Table 3 (vCloud-1): by-bandwidth mean 1.82x / median 1.21x; by-quantity 2.76x/1.97x; pre-reserved 4.93x/3.84x".into(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::super::workload_study::WorkloadStudy;
    use super::*;
    use crate::scenario::{Scale, Scenario};

    #[test]
    fn table3_builds_six_rows() {
        let scenario = Scenario::new(Scale::Quick, 22);
        let study = WorkloadStudy::run(&scenario, 1);
        let r = run(&scenario, &study);
        assert_eq!(r.tables[0].rows().len(), 6);
        assert!(r.render().contains("on-demand, by bandwidth"));
    }
}

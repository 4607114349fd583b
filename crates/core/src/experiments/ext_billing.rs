//! Extension experiment: traffic-billing granularity ablation.
//!
//! The one Table 3 deviation EXPERIMENTS.md records is the pre-reserved
//! model running below the paper's 4.9×. The cause is the "virtual
//! baseline" definition: merging an app's traffic per region lets the
//! reserved bandwidth ride statistical multiplexing, while real cloud
//! customers reserve bandwidth *per VM*. This ablation re-bills the same
//! apps both ways and shows the reserved ratio climbing toward the
//! paper's value under per-VM billing — the deviation is a property of
//! the merge rule, not of the tariffs.

use super::workload_study::WorkloadStudy;
use crate::report::ExperimentReport;
use crate::scenario::Scenario;
use edgescope_analysis::table::Table;
use edgescope_billing::tariff::CloudTariff;
use edgescope_billing::vcloud::{table3_ratios, TrafficGranularity};

/// Run the granularity ablation against vCloud-1.
pub fn run(scenario: &Scenario, study: &WorkloadStudy) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "ext_billing",
        "Extension: per-VM vs merged-region traffic billing (Table 3 ablation)",
    );
    let n = scenario.sizing.table3_apps;
    let mut t = Table::new(
        format!("cloud/NEP cost ratios over {n} heaviest apps (vCloud-1)"),
        &["granularity", "by bandwidth", "by quantity", "pre-reserved"],
    );
    let ali = CloudTariff::alicloud();
    let rows = [
        (
            "merged per region (paper's method)",
            TrafficGranularity::MergedPerRegion,
        ),
        ("per VM (real reservations)", TrafficGranularity::PerVm),
    ];
    let views = rows.map(|(_, granularity)| (&ali, &scenario.alicloud, granularity));
    let reports = table3_ratios(&study.nep, &study.nep_deployment, &views, n);
    for ((label, _), rep) in rows.into_iter().zip(reports) {
        let mean_of = |i: usize| rep.by_model[i].1.mean;
        t.row(vec![
            label.to_string(),
            format!("{:.2}x", mean_of(0)),
            format!("{:.2}x", mean_of(1)),
            format!("{:.2}x", mean_of(2)),
        ]);
    }
    report.tables.push(t);
    report.notes.push(
        "paper Table 3 pre-reserved mean: 4.93x; per-VM reservations close most of the gap the merged baseline leaves".into(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scale, Scenario};

    #[test]
    fn per_vm_reserved_ratio_higher() {
        let scenario = Scenario::new(Scale::Quick, 36);
        let study = WorkloadStudy::run(&scenario, 1);
        let r = run(&scenario, &study);
        let csv = r.tables[0].to_csv();
        let cell = |row: usize, col: usize| -> f64 {
            csv.lines()
                .nth(row + 1)
                .unwrap()
                .split(',')
                .nth(col)
                .unwrap()
                .trim_end_matches('x')
                .parse()
                .unwrap()
        };
        assert!(
            cell(1, 3) > cell(0, 3),
            "per-VM reserved {} vs merged {}",
            cell(1, 3),
            cell(0, 3)
        );
    }
}

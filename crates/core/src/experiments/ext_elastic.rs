//! Extension experiment: serverless vs. IaaS (§5.2 "Decomposing edge
//! services").
//!
//! Evaluates three demand shapes drawn from the trace generator's app
//! categories — peaky education, evening-heavy streaming, flat
//! surveillance — under the elastic model: cost ratio, fleet utilization,
//! and the cold-start tail that §5.2 warns "can barely meet the
//! requirements for ultra-low-delay edge applications".

use crate::report::ExperimentReport;
use crate::scenario::Scenario;
use edgescope_analysis::stats::peak_max;
use edgescope_analysis::table::Table;
use edgescope_sched::elastic::evaluate;
use edgescope_trace::app::AppCategory;

/// Build a 30-day demand series (15-min intervals) from a category's
/// diurnal profile.
fn demand_series(category: AppCategory, peak_rps: f64) -> Vec<f64> {
    let profile: Vec<f64> = (0..96).map(|i| category.diurnal(i as f64 / 4.0)).collect();
    let peak_profile = peak_max(&profile);
    (0..30 * 96)
        .map(|i| {
            let h = (i % 96) as f64 / 4.0;
            peak_rps * category.diurnal(h) / peak_profile
        })
        .collect()
}

/// Run the elasticity study.
pub fn run(_scenario: &Scenario) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "ext_elastic",
        "Extension: serverless (FaaS) vs peak-provisioned IaaS",
    );
    let mut t = Table::new(
        "30 days, 15-min intervals",
        &[
            "workload",
            "IaaS RMB/mo",
            "FaaS RMB/mo",
            "IaaS util",
            "FaaS p95 ms",
            "cold share",
        ],
    );
    for (label, category) in [
        (
            "online education (9-12 AM peak)",
            AppCategory::OnlineEducation,
        ),
        ("live streaming (evening peak)", AppCategory::LiveStreaming),
        ("video surveillance (flat)", AppCategory::VideoSurveillance),
    ] {
        let demand = demand_series(category, 80_000.0);
        let out = evaluate(&demand);
        t.row(vec![
            label.to_string(),
            format!("{:.0}", out.iaas_cost_month),
            format!("{:.0}", out.faas_cost_month),
            format!("{:.0}%", 100.0 * out.iaas_utilization),
            format!("{:.0}", out.faas_p95_ms),
            format!("{:.1}%", 100.0 * out.cold_fraction),
        ]);
    }
    report.tables.push(t);
    report.notes.push(
        "paper 5.2: elasticity wins on billing for peaky apps but cold starts break the ultra-low-delay SLA; flat workloads keep IaaS ahead".into(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scale, Scenario};

    #[test]
    fn education_peaky_streaming_flat_ordering() {
        let scenario = Scenario::new(Scale::Quick, 32);
        let r = run(&scenario);
        let csv = r.tables[0].to_csv();
        let cell = |row: usize, col: usize| -> f64 {
            csv.lines()
                .nth(row + 1)
                .unwrap()
                .split(',')
                .nth(col)
                .unwrap()
                .trim_end_matches(['%'])
                .parse()
                .unwrap()
        };
        // Education (3-hour peak) has the lowest IaaS utilization; flat
        // surveillance the highest.
        assert!(
            cell(0, 3) < cell(2, 3),
            "education util {} vs surveillance {}",
            cell(0, 3),
            cell(2, 3)
        );
        // For education, serverless is cheaper (IaaS cost > FaaS cost);
        // for surveillance, reserved wins.
        assert!(cell(0, 1) > cell(0, 2), "education: FaaS should win");
        assert!(cell(2, 1) < cell(2, 2), "surveillance: IaaS should win");
    }
}

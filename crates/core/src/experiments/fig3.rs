//! Fig. 3: hop counts from end devices to edge/cloud servers.

use super::latency_study::LatencyStudy;
use crate::report::ExperimentReport;
use edgescope_analysis::cdf::Cdf;
use edgescope_analysis::table::Table;

/// Regenerate Fig. 3: per-user hop counts to the nearest edge vs. the
/// nearest cloud (all access networks pooled).
pub fn run(study: &LatencyStudy) -> ExperimentReport {
    let mut report = ExperimentReport::new("fig3", "Hop number to nearest edge vs cloud");
    let (edge, cloud) = study.campaign.fig3();
    let ce = Cdf::new(edge);
    let cc = Cdf::new(cloud);
    let mut t = Table::new("hop counts", &["target", "min", "median", "max"]);
    t.row(vec![
        "nearest edge".into(),
        format!("{:.0}", ce.min()),
        format!("{:.0}", ce.median()),
        format!("{:.0}", ce.max()),
    ]);
    t.row(vec![
        "nearest cloud".into(),
        format!("{:.0}", cc.min()),
        format!("{:.0}", cc.median()),
        format!("{:.0}", cc.max()),
    ]);
    report.tables.push(t);
    report.csv.push(("edge_hops_cdf".into(), ce.to_csv(40)));
    report.csv.push(("cloud_hops_cdf".into(), cc.to_csv(40)));
    report
        .notes
        .push("paper: nearest edge 5-12 hops (median 8), clouds 10-16".into());
    report
}

#[cfg(test)]
mod tests {
    use super::super::latency_study::LatencyStudy;
    use super::*;
    use crate::scenario::{Scale, Scenario};

    #[test]
    fn fig3_bands() {
        let scenario = Scenario::new(Scale::Quick, 6);
        let study = LatencyStudy::run(&scenario, 1);
        let r = run(&study);
        assert_eq!(r.tables[0].rows().len(), 2);
        let (edge, cloud) = study.campaign.fig3();
        let ce = Cdf::new(edge);
        let cc = Cdf::new(cloud);
        assert!(ce.median() < cc.median());
        assert!(
            (5.0..=10.0).contains(&ce.median()),
            "edge median {}",
            ce.median()
        );
    }
}

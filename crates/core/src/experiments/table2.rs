//! Table 2: hop-level breakdown of network delay.

use super::latency_study::LatencyStudy;
use crate::report::ExperimentReport;
use edgescope_analysis::table::Table;
use edgescope_net::access::AccessNetwork;

fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Regenerate Table 2: mean latency shares of hops 1–3 and the rest, per
/// access network, to the nearest edge and nearest cloud. The 5G row
/// reports the observable first-3-hops total (its leading hops are
/// ICMP-silent).
pub fn run(study: &LatencyStudy) -> ExperimentReport {
    let mut report = ExperimentReport::new("table2", "Hop-level breakdown of network delay");
    let mut t = Table::new(
        "Table 2 (shares of end-to-end RTT)",
        &["network", "target", "hop1", "hop2", "hop3", "rest"],
    );
    for net in [AccessNetwork::Wifi, AccessNetwork::Lte] {
        if study.campaign.users_on(net).len() < 2 {
            continue;
        }
        let (edge, cloud) = study.campaign.table2(net);
        for (target, s) in [("nearest edge", edge), ("nearest cloud", cloud)] {
            t.row(vec![
                net.label().to_string(),
                target.to_string(),
                pct(s.0),
                pct(s.1),
                pct(s.2),
                pct(s.3),
            ]);
        }
    }
    if study.campaign.users_on(AccessNetwork::FiveG).len() >= 2 {
        let (edge, cloud) = study.campaign.table2(AccessNetwork::FiveG);
        for (target, s) in [("nearest edge", edge), ("nearest cloud", cloud)] {
            let first3 = s.0 + s.1 + s.2;
            t.row(vec![
                "5G".to_string(),
                target.to_string(),
                format!("{} (first 3 total)", pct(first3)),
                "-".into(),
                "-".into(),
                pct(s.3),
            ]);
        }
    }
    report.tables.push(t);
    report.notes.push(
        "paper: WiFi edge 44.2/10.3/15.1/30.2; LTE edge 10.2/70.1/9.4/10.3; 5G edge first-3 97.9"
            .into(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::super::latency_study::LatencyStudy;
    use super::*;
    use crate::scenario::{Scale, Scenario};

    #[test]
    fn table2_builds_with_rows() {
        let scenario = Scenario::new(Scale::Quick, 5);
        let study = LatencyStudy::run(&scenario, 1);
        let r = run(&study);
        assert!(
            r.tables[0].rows().len() >= 4,
            "rows {}",
            r.tables[0].rows().len()
        );
        assert!(r.render().contains("hop2"));
    }
}

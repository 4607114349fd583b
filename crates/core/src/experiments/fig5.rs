//! Fig. 5: TCP throughput vs. geographic distance, per access network and
//! direction, with Pearson correlations.

use crate::report::ExperimentReport;
use crate::scenario::Scenario;
use edgescope_analysis::stats::mean;
use edgescope_analysis::table::{xy_csv, Table};
use edgescope_net::access::AccessNetwork;
use edgescope_net::geo::GeoPoint;
use edgescope_platform::geo_china::CITIES;
use edgescope_probe::throughput::{fig5_series, throughput_campaign};
use edgescope_probe::user::VirtualUser;

/// Regenerate Fig. 5. The paper ran 25 users at different cities against
/// 20 edge VMs; the wired series comes from campus-wired testers. We run
/// one 25-user cohort per access network so each scatter has the same
/// statistical weight.
pub fn run(scenario: &Scenario) -> ExperimentReport {
    let mut report =
        ExperimentReport::new("fig5", "TCP throughput vs distance (iPerf3, 15 s per run)");
    let mut t = Table::new(
        "throughput summary",
        &[
            "network",
            "direction",
            "mean Mbps",
            "pearson r",
            "paper r band",
        ],
    );

    for (k, access) in AccessNetwork::ALL.into_iter().enumerate() {
        // 25 testers at the 25 most populous distinct cities.
        let users: Vec<VirtualUser> = CITIES
            .iter()
            .take(25)
            .map(|c| VirtualUser {
                city: *c,
                geo: GeoPoint::new(c.lat_deg, c.lon_deg),
                access,
            })
            .collect();
        // One campaign seed per cohort, derived from the experiment tag
        // so the four access-network runs stay independent streams.
        let rows = throughput_campaign(
            scenario.stream_seed(0xf155_0000 + k as u64),
            &users,
            &scenario.nep,
        );
        for downlink in [true, false] {
            let (xs, ys, r) = fig5_series(&rows, access, downlink);
            let dir = if downlink { "down" } else { "up" };
            let band = match (access, downlink) {
                (AccessNetwork::FiveG, true) | (AccessNetwork::Wired, _) => "|r| > 0.7",
                _ => "|r| < 0.2",
            };
            t.row(vec![
                access.label().to_string(),
                dir.to_string(),
                format!("{:.0}", mean(&ys)),
                format!("{r:.2}"),
                band.to_string(),
            ]);
            let pts: Vec<(f64, f64)> = xs.into_iter().zip(ys).collect();
            report.csv.push((
                format!("{}_{dir}_scatter", access.label().to_lowercase()),
                xy_csv(("distance_km", "mbps"), &pts),
            ));
        }
    }
    report.tables.push(t);
    report.notes.push(
        "paper: 5G downlink mean 497 Mbps and wired 480 Mbps correlate with distance (|r|>0.7); WiFi/LTE capacity-bound (|r|<0.2); 5G uplink capped ~52 Mbps".into(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scale, Scenario};

    #[test]
    fn fig5_builds_with_8_rows() {
        let scenario = Scenario::new(Scale::Quick, 8);
        let r = run(&scenario);
        assert_eq!(r.tables[0].rows().len(), 8);
        assert_eq!(r.csv.len(), 8);
    }
}

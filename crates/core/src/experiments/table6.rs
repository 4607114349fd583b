//! Table 6 (Appendix C): RTTs from the QoE test locale to the four VMs —
//! the nearest edge plus clouds at 670 / 1300 / 2000 km — under WiFi, LTE,
//! and 5G. Also the provider of the [`qoe_links`] used by fig6/fig7.

use crate::report::ExperimentReport;
use crate::scenario::Scenario;
use edgescope_analysis::table::Table;
use edgescope_net::access::AccessNetwork;
use edgescope_net::path::{averaged_rtt_ms, TargetClass};
use edgescope_qoe::link::{LinkProfile, JITTER_CV};
use rand::Rng;

/// The paper's four QoE VM distances (km): nearest edge, cloud-1/2/3.
pub const QOE_DISTANCES_KM: [(f64, TargetClass); 4] = [
    (12.0, TargetClass::EdgeSite),
    (670.0, TargetClass::CloudRegion),
    (1300.0, TargetClass::CloudRegion),
    (2000.0, TargetClass::CloudRegion),
];

/// VM labels in paper order.
pub const QOE_LABELS: [&str; 4] = ["Edge", "Cloud-1", "Cloud-2", "Cloud-3"];

/// Build the four QoE links for one access network: the per-user path RTT
/// plus the access capacities drawn for the tester.
pub fn qoe_links(rng: &mut impl Rng, access: AccessNetwork) -> [LinkProfile; 4] {
    let down = access.sample_downlink_mbps(rng);
    let up = access.sample_uplink_mbps(rng);
    QOE_DISTANCES_KM.map(|(d, class)| LinkProfile {
        rtt_ms: averaged_rtt_ms(rng, access, d, class),
        jitter_cv: JITTER_CV,
        uplink_mbps: up,
        downlink_mbps: down,
    })
}

/// Regenerate Table 6.
pub fn run(scenario: &Scenario) -> ExperimentReport {
    let mut report =
        ExperimentReport::new("table6", "RTTs of the QoE VMs (nearest edge + 3 clouds)");
    let mut t = Table::new(
        "Table 6 (ms)",
        &["network", "Edge", "Cloud-1", "Cloud-2", "Cloud-3"],
    );
    let mut rng = scenario.rng(0x7ab6);
    for access in [
        AccessNetwork::Wifi,
        AccessNetwork::Lte,
        AccessNetwork::FiveG,
    ] {
        let links = qoe_links(&mut rng, access);
        t.row(vec![
            access.label().to_string(),
            format!("{:.1}", links[0].rtt_ms),
            format!("{:.1}", links[1].rtt_ms),
            format!("{:.1}", links[2].rtt_ms),
            format!("{:.1}", links[3].rtt_ms),
        ]);
    }
    report.tables.push(t);
    report.notes.push(
        "paper Table 6: WiFi 11.4/16.6/40.9/55.1; LTE 22.2/25.6/54.6/63.2; 5G 18.1/22.8/49.5/60.8"
            .into(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scale, Scenario};

    #[test]
    fn rtts_increase_with_distance() {
        let scenario = Scenario::new(Scale::Quick, 9);
        let mut rng = scenario.rng(1);
        let links = qoe_links(&mut rng, AccessNetwork::Wifi);
        assert!(links[0].rtt_ms < links[1].rtt_ms);
        assert!(links[1].rtt_ms < links[2].rtt_ms);
        assert!(links[2].rtt_ms < links[3].rtt_ms);
        // Edge RTT in the paper's neighbourhood (11.4 ms WiFi).
        assert!(
            (9.0..25.0).contains(&links[0].rtt_ms),
            "edge rtt {}",
            links[0].rtt_ms
        );
    }

    #[test]
    fn table6_builds() {
        let scenario = Scenario::new(Scale::Quick, 10);
        let r = run(&scenario);
        assert_eq!(r.tables[0].rows().len(), 3);
    }
}

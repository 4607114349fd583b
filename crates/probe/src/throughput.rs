//! The throughput campaign (§2.1.1 → §3.2, Fig. 5).
//!
//! 25 volunteers in different cities run iPerf3 against 20 edge VMs (each
//! with 1 Gbps gateway bandwidth), 15 seconds per connection, both
//! directions. The output is Fig. 5's scatter: per test a (distance,
//! mean Mbps) point, labelled by access network, plus the Pearson
//! correlation per access/direction. The VM count and the run length
//! are the paper's and fixed; callers choose the users, the deployment
//! and the seed.
//!
//! Each user draws from their own RNG stream
//! (`stream_rng(seed, entity_tag(THROUGHPUT_USER, i))`) and records
//! metrics into their own scope.

use crate::user::VirtualUser;
use edgescope_analysis::sketch::StreamingPearson;
use edgescope_net::access::AccessNetwork;
use edgescope_net::path::{ue_path, TargetClass};
use edgescope_net::rng::{domains, entity_tag, stream_rng};
use edgescope_net::tcp::iperf;
use edgescope_obs as obs;
use edgescope_obs::pool::fan_out;
use edgescope_platform::deployment::Deployment;

/// One iperf test result.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputRow {
    /// Access network of the tester.
    pub access: AccessNetwork,
    /// Great-circle distance to the tested VM, km.
    pub distance_km: f64,
    /// Mean downlink goodput over the run, Mbps.
    pub down_mbps: f64,
    /// Mean uplink goodput over the run, Mbps.
    pub up_mbps: f64,
}

/// Edge VMs probed, at distinct cities (the paper's 20).
const N_VMS: usize = 20;

/// Pick `n` sites at distinct cities (deployment order).
fn distinct_city_sites(dep: &Deployment, n: usize) -> Vec<usize> {
    let mut seen: Vec<&str> = Vec::new();
    let mut out = Vec::new();
    for (i, s) in dep.sites.iter().enumerate() {
        if !seen.contains(&s.city.name) {
            seen.push(s.city.name);
            out.push(i);
            if out.len() == n {
                break;
            }
        }
    }
    out
}

/// Run the campaign: every user tests the first 20 distinct-city VMs of
/// `edge` in both directions, one 15 s iPerf run each. User `i` draws
/// radio conditions, paths, and iPerf runs from the
/// `(seed, entity_tag(THROUGHPUT_USER, i))` stream inside their own
/// metric scope, replayed in user order; rows come out in user × VM
/// order.
pub fn throughput_campaign(
    seed: u64,
    users: &[VirtualUser],
    edge: &Deployment,
) -> Vec<ThroughputRow> {
    assert!(!users.is_empty(), "campaign needs users");
    let vm_sites = distinct_city_sites(edge, N_VMS);
    assert!(!vm_sites.is_empty(), "no VM sites available");
    let per_user = fan_out(users.len(), 1, |i| {
        let u = &users[i];
        let mut rng = stream_rng(seed, entity_tag(domains::THROUGHPUT_USER, i));
        // The user's radio conditions are drawn once per session.
        let down_cap = u.access.sample_downlink_mbps(&mut rng);
        let up_cap = u.access.sample_uplink_mbps(&mut rng);
        vm_sites
            .iter()
            .map(|&si| {
                obs::counter_inc("probe.iperf_sessions");
                let d = edge.sites[si].geo().distance_km(&u.geo);
                let path = ue_path(&mut rng, u.access, d, TargetClass::EdgeSite);
                let down = iperf(&mut rng, &path, down_cap);
                let up = iperf(&mut rng, &path, up_cap);
                ThroughputRow {
                    access: u.access,
                    distance_km: d,
                    down_mbps: down.mean_mbps,
                    up_mbps: up.mean_mbps,
                }
            })
            .collect::<Vec<ThroughputRow>>()
    });
    per_user.into_iter().flatten().collect()
}

/// Fig. 5 summary for one access network and direction: the scatter
/// vectors and Pearson's r (0 below two pairs).
pub fn fig5_series(
    rows: &[ThroughputRow],
    access: AccessNetwork,
    downlink: bool,
) -> (Vec<f64>, Vec<f64>, f64) {
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    let mut pairs = StreamingPearson::new();
    for r in rows.iter().filter(|r| r.access == access) {
        let mbps = if downlink { r.down_mbps } else { r.up_mbps };
        xs.push(r.distance_km);
        ys.push(mbps);
        pairs.add(r.distance_km, mbps);
    }
    (xs, ys, pairs.r())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::user::VirtualUser;
    use edgescope_analysis::stats::mean;
    use edgescope_net::geo::GeoPoint;
    use edgescope_platform::geo_china::CITIES;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// 25 users at 25 distinct cities on a fixed access network.
    fn users_on(access: AccessNetwork) -> Vec<VirtualUser> {
        CITIES
            .iter()
            .take(25)
            .map(|c| VirtualUser {
                city: *c,
                geo: GeoPoint::new(c.lat_deg, c.lon_deg),
                access,
            })
            .collect()
    }

    fn run(access: AccessNetwork, seed: u64) -> Vec<ThroughputRow> {
        let mut rng = StdRng::seed_from_u64(seed);
        let edge = Deployment::nep(&mut rng, 200);
        throughput_campaign(seed, &users_on(access), &edge)
    }

    #[test]
    fn shape_25_users_20_vms() {
        let (rows, metrics) = edgescope_obs::scoped(|| run(AccessNetwork::Wifi, 1));
        assert_eq!(rows.len(), 25 * 20);
        assert_eq!(metrics.counter("probe.iperf_sessions"), 25 * 20);
    }

    #[test]
    fn wifi_lte_distance_correlation_negligible() {
        // Fig. 5: |r| < 0.2 for WiFi and LTE.
        for (access, seed) in [(AccessNetwork::Wifi, 2), (AccessNetwork::Lte, 3)] {
            let rows = run(access, seed);
            let (_, _, r_down) = fig5_series(&rows, access, true);
            let (_, _, r_up) = fig5_series(&rows, access, false);
            assert!(r_down.abs() < 0.25, "{access} down r {r_down}");
            assert!(r_up.abs() < 0.25, "{access} up r {r_up}");
        }
    }

    #[test]
    fn five_g_downlink_strongly_distance_bound() {
        // Fig. 5: 5G downlink |r| > 0.7 (negative: farther ⇒ slower).
        let rows = run(AccessNetwork::FiveG, 4);
        let (_, ys, r) = fig5_series(&rows, AccessNetwork::FiveG, true);
        assert!(r < -0.55, "5G down r {r}");
        let m = mean(&ys);
        assert!((300.0..650.0).contains(&m), "5G down mean {m}");
    }

    #[test]
    fn five_g_uplink_capped() {
        // Fig. 5: 5G uplink ≈52 Mbps, capped by the TDD slot ratio ⇒
        // negligible correlation.
        let rows = run(AccessNetwork::FiveG, 5);
        let (_, ys, r) = fig5_series(&rows, AccessNetwork::FiveG, false);
        assert!(r.abs() < 0.3, "5G up r {r}");
        let m = mean(&ys);
        assert!((40.0..65.0).contains(&m), "5G up mean {m}");
    }

    #[test]
    fn wired_behaves_like_5g_downlink() {
        let rows = run(AccessNetwork::Wired, 6);
        let (_, ys, r) = fig5_series(&rows, AccessNetwork::Wired, true);
        assert!(r < -0.5, "wired r {r}");
        let m = mean(&ys);
        assert!((300.0..620.0).contains(&m), "wired mean {m}");
    }

    #[test]
    fn wifi_throughput_under_capacity() {
        let rows = run(AccessNetwork::Wifi, 7);
        let (_, ys, _) = fig5_series(&rows, AccessNetwork::Wifi, true);
        let m = mean(&ys);
        assert!((30.0..110.0).contains(&m), "wifi mean {m}");
    }
}

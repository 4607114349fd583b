//! Robustness: a latency campaign's probes must degrade gracefully — not
//! panic or emit non-finite stats — when the network is hostile, and the
//! obs counters must account for every probe sent.
//!
//! Campaigns always probe a clean network, so these tests drive
//! [`PingEngine::with_fault`], the engine the campaign engine's outages
//! use, through the campaign's own per-user probe
//! ([`UserResult::probe`]) on the campaign's per-user streams.

use edgescope_net::fault::FaultInjector;
use edgescope_net::ping::PingEngine;
use edgescope_net::rng::{domains, entity_tag, stream_rng};
use edgescope_obs as obs;
use edgescope_platform::deployment::Deployment;
use edgescope_probe::latency::{LatencyCampaign, LatencyConfig, UserResult};
use edgescope_probe::user::{recruit, VirtualUser};
use rand::rngs::StdRng;
use rand::SeedableRng;

const USERS: usize = 12;
const EDGE_SITES: usize = 30;
const CLOUD_REGIONS: usize = 12; // Deployment::alicloud()
const PINGS: usize = 10;

/// Probe every user's targets through an engine with `fault`, inside a
/// metric scope.
fn run_with(fault: FaultInjector, seed: u64) -> (LatencyCampaign, obs::MetricSet) {
    run_with_pings(fault, seed, PINGS)
}

fn world(seed: u64) -> (Deployment, Deployment, Vec<VirtualUser>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let edge = Deployment::nep(&mut rng, EDGE_SITES);
    let users = recruit(&mut rng, USERS);
    (edge, Deployment::alicloud(), users)
}

fn run_with_pings(
    fault: FaultInjector,
    seed: u64,
    pings: usize,
) -> (LatencyCampaign, obs::MetricSet) {
    let (edge, cloud, users) = world(seed);
    let engine = PingEngine::with_fault(fault);
    obs::scoped(|| {
        let results = users
            .iter()
            .enumerate()
            .map(|(i, u)| {
                let mut rng = stream_rng(seed, entity_tag(domains::LATENCY_USER, i));
                let edge_km = edge.sites.iter().map(|s| s.geo().distance_km(&u.geo));
                UserResult::probe(&mut rng, &engine, u.clone(), edge_km, &cloud, pings)
            })
            .collect();
        LatencyCampaign { results }
    })
}

fn n_targets(c: &LatencyCampaign) -> usize {
    c.results.iter().map(|r| r.edge.len() + r.cloud.len()).sum()
}

#[test]
fn clean_campaign_sends_every_probe_and_drops_none() {
    let (clean, set) = run_with(FaultInjector::none(), 11);
    // With no injector the harness is the campaign itself.
    let (edge, cloud, users) = world(11);
    let cfg = LatencyConfig {
        pings_per_target: PINGS,
    };
    let campaign = LatencyCampaign::run(11, &users, &edge, &cloud, &cfg, 1);
    assert_eq!(clean.results, campaign.results);
    let expected = (USERS * (EDGE_SITES + CLOUD_REGIONS) * PINGS) as u64;
    assert_eq!(
        set.counter("net.probes_sent"),
        expected,
        "every probe accounted for"
    );
    assert_eq!(
        set.counter("net.probes_dropped_fault"),
        0,
        "no injector, no injected drops"
    );
    assert_eq!(
        set.counter("probe.ping_targets_measured"),
        n_targets(&clean) as u64,
        "one measured-target count per surviving target"
    );
}

#[test]
fn hostile_network_degrades_gracefully() {
    let (clean, _) = run_with(FaultInjector::none(), 12);
    let (hostile, set) = run_with(FaultInjector::hostile(), 12);

    // Same probe volume, but now the injector eats some of it.
    let expected = (USERS * (EDGE_SITES + CLOUD_REGIONS) * PINGS) as u64;
    assert_eq!(set.counter("net.probes_sent"), expected);
    assert!(
        set.counter("net.probes_dropped_fault") > 0,
        "hostile() must drop probes"
    );

    // Degraded, never corrupted: every surviving stat stays finite, and
    // hostility cannot *create* targets.
    assert!(n_targets(&hostile) <= n_targets(&clean));
    for r in &hostile.results {
        for t in r.edge.iter().chain(&r.cloud) {
            assert!(
                t.mean_rtt_ms.is_finite() && t.mean_rtt_ms > 0.0,
                "rtt {}",
                t.mean_rtt_ms
            );
            assert!(t.cv.is_finite() && t.cv >= 0.0, "cv {}", t.cv);
        }
    }
    // The RTT histogram only records probes that actually returned.
    let h = set
        .histogram("net.rtt_ms")
        .expect("some probes must survive hostile()");
    assert_eq!(
        h.count() + set.counter("net.probes_lost_path") + set.counter("net.probes_dropped_fault"),
        expected,
        "sent = observed + lost to path + dropped by injector"
    );
}

#[test]
fn single_probe_targets_are_dropped_not_reported_stable() {
    // Regression: a target whose probe run returns exactly one sample has
    // no dispersion estimate. It used to be reported with CV = 0 —
    // "perfectly stable" — which biased the Fig. 2(b) CDF downward under
    // loss. Such targets must now be dropped and accounted separately.
    let (campaign, set) = run_with_pings(FaultInjector::none(), 14, 1);
    let total = (USERS * (EDGE_SITES + CLOUD_REGIONS)) as u64;
    assert_eq!(
        n_targets(&campaign),
        0,
        "at most one returned probe per target, so all are dropped"
    );
    assert_eq!(set.counter("probe.ping_targets_measured"), 0);
    // Path loss can still eat the single probe of a few targets, which
    // makes them unreachable rather than low-sample; together the two
    // buckets must account for every target, and the low-sample bucket
    // (the regression's subject) must dominate.
    let low = set.counter("probe.ping_targets_low_sample");
    let unreachable = set.counter("probe.ping_targets_unreachable");
    assert_eq!(low + unreachable, total);
    assert!(
        low > unreachable,
        "low-sample {low} vs unreachable {unreachable}"
    );
}

#[test]
fn every_target_is_accounted_under_hostile_fault() {
    // measured + unreachable + low-sample partitions the target set, at
    // every loss level.
    let total = (USERS * (EDGE_SITES + CLOUD_REGIONS)) as u64;
    for (fault, seed) in [
        (FaultInjector::none(), 15),
        (FaultInjector::hostile(), 16),
        (
            FaultInjector {
                drop_chance: 0.9,
                ..FaultInjector::hostile()
            },
            17,
        ),
    ] {
        let (campaign, set) = run_with(fault, seed);
        assert_eq!(
            set.counter("probe.ping_targets_measured")
                + set.counter("probe.ping_targets_unreachable")
                + set.counter("probe.ping_targets_low_sample"),
            total,
            "target accounting at drop_chance {}",
            fault.drop_chance
        );
        assert_eq!(
            set.counter("probe.ping_targets_measured"),
            n_targets(&campaign) as u64
        );
    }
}

#[test]
fn total_blackout_loses_every_target_without_panicking() {
    let blackout = FaultInjector {
        drop_chance: 1.0,
        ..FaultInjector::hostile()
    };
    let (campaign, set) = run_with(blackout, 13);
    assert_eq!(
        n_targets(&campaign),
        0,
        "no probe returns, no target survives"
    );
    assert_eq!(
        set.counter("probe.ping_targets_unreachable"),
        (USERS * (EDGE_SITES + CLOUD_REGIONS)) as u64,
        "every target counted as unreachable"
    );
    assert_eq!(set.counter("probe.ping_targets_measured"), 0);
    for r in &campaign.results {
        let b = r.baselines();
        assert!(b.nearest_edge.is_none());
        assert!(b.nearest_cloud.is_none());
        assert!(b.all_clouds.is_none());
    }
}

//! A full crowd-sourced measurement campaign: latency + throughput +
//! inter-site scan — the paper's §3 pipeline end to end, with fault
//! injection to show the harness degrades gracefully on a hostile network.
//!
//! ```sh
//! cargo run --release --example crowd_campaign [n_users] [n_sites]
//! ```

use edgescope::analysis::stats::{median, Summary};
use edgescope::net::access::AccessNetwork;
use edgescope::net::fault::FaultInjector;
use edgescope::net::ping::PingEngine;
use edgescope::obs::cli::{self, Spec, UsageError};
use edgescope::probe::intersite::{intersite_scan, mean_neighbours};
use edgescope::probe::latency::{LatencyCampaign, LatencyConfig};
use edgescope::probe::throughput::{fig5_series, throughput_campaign};
use edgescope::probe::user::recruit;
use edgescope::{Scale, Scenario};
use rand::SeedableRng;
use std::process::ExitCode;

const USAGE: &str = "usage: crowd_campaign [n_users] [n_sites]";
const SPEC: Spec = Spec {
    values: &[],
    switches: &[],
    positionals: 2,
};

/// `(n_users, n_sites)`, 80 and 100 when not given.
fn sizes() -> Result<(usize, usize), UsageError> {
    let a = cli::scan(&SPEC, std::env::args().skip(1))?;
    let n_users = a.positional(0, "n_users", cli::positive)?.unwrap_or(80);
    let n_sites = a.positional(1, "n_sites", cli::positive)?.unwrap_or(100);
    Ok((n_users, n_sites))
}

fn main() -> ExitCode {
    let (n_users, n_sites) = match sizes() {
        Ok(sizes) => sizes,
        Err(e) => return e.exit(USAGE),
    };

    let mut scenario = Scenario::new(Scale::Quick, 11);
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    scenario.nep = edgescope::platform::deployment::Deployment::nep(&mut rng, n_sites);
    let users = recruit(&mut rng, n_users);
    println!("campaign: {n_users} users x {n_sites} edge sites + 12 cloud regions");

    // --- latency ---------------------------------------------------------
    let campaign = LatencyCampaign::run(
        99,
        &users,
        &scenario.nep,
        &scenario.alicloud,
        &LatencyConfig::default(),
        1,
    );
    for net in [AccessNetwork::Wifi, AccessNetwork::Lte] {
        let a = campaign.fig2a(net);
        let b = campaign.fig2b(net);
        // A small crowd can leave an access network without a user.
        if a.nearest_edge.is_empty() {
            println!("{}: no users", net.label());
            continue;
        }
        println!(
            "{}: edge {:.1} ms (CV {:.1}%), cloud {:.1} ms (CV {:.1}%)",
            net.label(),
            median(&a.nearest_edge),
            100.0 * median(&b.nearest_edge),
            median(&a.nearest_cloud),
            100.0 * median(&b.nearest_cloud),
        );
    }
    let (edge_hops, cloud_hops) = campaign.fig3();
    println!(
        "hops: edge {} (median), cloud {} (median)",
        median(&edge_hops),
        median(&cloud_hops)
    );

    // --- throughput --------------------------------------------------------
    let rows = throughput_campaign(100, &users[..25.min(users.len())], &scenario.nep);
    for net in [AccessNetwork::Wifi, AccessNetwork::FiveG] {
        let (_, ys, r) = fig5_series(&rows, net, true);
        if ys.len() >= 2 {
            let s = Summary::of(&ys);
            println!(
                "{} downlink: mean {:.0} Mbps, p95 {:.0} Mbps, distance corr {:.2}",
                net.label(),
                s.mean,
                s.p95,
                r
            );
        }
    }

    // --- inter-site --------------------------------------------------------
    if n_sites < 2 {
        println!("inter-site: no site pairs");
    } else {
        let scan = intersite_scan(101, &scenario.nep);
        let (n5, n10, n20) = mean_neighbours(&scan.neighbours);
        println!(
            "inter-site: {:.1}/{:.1}/{:.1} neighbours within 5/10/20 ms",
            n5, n10, n20
        );
    }

    // --- fault injection ----------------------------------------------------
    // The same harness under a hostile network: losses rise, jitter
    // inflates, but the pipeline still reports.
    let engine = PingEngine::with_fault(FaultInjector::hostile());
    let user = &users[0];
    let d = scenario.nep.sites[0].geo().distance_km(&user.geo);
    let path = edgescope::net::path::ue_path(
        &mut rng,
        user.access,
        d,
        edgescope::net::path::TargetClass::EdgeSite,
    );
    let stats = engine.probe(&mut rng, &path, 30);
    println!(
        "hostile-network probe: {} of 30 probes lost, CV {:.1}%",
        stats.lost,
        100.0 * stats.cv().unwrap_or(0.0)
    );
    ExitCode::SUCCESS
}

//! Quickstart: build a small simulated world, run a crowd latency
//! campaign, and print the paper's headline comparison (nearest edge vs
//! nearest cloud vs all clouds).
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use edgescope::analysis::stats::median;
use edgescope::net::access::AccessNetwork;
use edgescope::probe::latency::{LatencyCampaign, LatencyConfig};
use edgescope::probe::user::recruit;
use edgescope::{Scale, Scenario};
use rand::SeedableRng;

fn main() {
    // A deterministic world: 60 edge sites, AliCloud's 12 regions.
    let scenario = Scenario::new(Scale::Quick, 7);
    println!(
        "world: {} NEP edge sites, {} AliCloud regions, {} users",
        scenario.nep.n_sites(),
        scenario.alicloud.n_sites(),
        scenario.users.len()
    );

    // Recruit a fresh crowd and run the paper's §2.1.1 speed test: every
    // user pings every edge site and cloud region 30 times.
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let users = recruit(&mut rng, 60);
    let campaign = LatencyCampaign::run(
        1,
        &users,
        &scenario.nep,
        &scenario.alicloud,
        &LatencyConfig::default(),
        1,
    );

    println!("\nmedian mean-RTT per user (ms):");
    println!(
        "{:<8} {:>12} {:>14} {:>11}",
        "network", "nearest edge", "nearest cloud", "all clouds"
    );
    for net in [
        AccessNetwork::Wifi,
        AccessNetwork::Lte,
        AccessNetwork::FiveG,
    ] {
        let s = campaign.fig2a(net);
        if s.nearest_edge.len() < 3 {
            continue;
        }
        println!(
            "{:<8} {:>12.1} {:>14.1} {:>11.1}",
            net.label(),
            median(&s.nearest_edge),
            median(&s.nearest_cloud),
            median(&s.all_clouds)
        );
    }
    println!("\n(the paper's Fig. 2a medians: WiFi 16.1 / 23.6 / 40.0 ms)");
}

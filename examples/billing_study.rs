//! Billing study (§4.5 / Appendix D): price one app's month on NEP and on
//! both clouds under all three network models, then reproduce the Table 3
//! sweep over the heaviest apps of a generated trace.
//!
//! ```sh
//! cargo run --release --example billing_study
//! ```

use edgescope::billing::bill::{cloud_network_month, nep_network_month, scale_to_month};
use edgescope::billing::tariff::{hardware_month, CloudTariff, NetworkModel, Operator};
use edgescope::billing::vcloud::{table3_ratios, TrafficGranularity};
use edgescope::platform::deployment::Deployment;
use edgescope::trace::dataset::TraceDataset;
use edgescope::trace::series::TraceConfig;

fn main() {
    let ali = CloudTariff::alicloud();
    let hw = CloudTariff::huawei();

    // --- one hand-built app: a steady live-streaming service -------------
    // 10 VMs x (8 cores, 32 GB, 100 GB) pushing a combined ~200 Mbps with
    // an evening peak of ~320 Mbps, at a Chengdu site on China Mobile.
    println!("== a steady video app: 10x(8C/32G/100G), ~200 Mbps, Chengdu/CMCC ==");
    let mut bw = Vec::new();
    for _day in 0..30 {
        for slot in 0..288 {
            let h = slot as f64 / 12.0;
            let level = if (19.0..23.0).contains(&h) {
                320.0
            } else {
                170.0
            };
            bw.push(level);
        }
    }
    let nep_hw = 10.0 * hardware_month(8, 32, 100);
    let nep_net = nep_network_month(&bw, 5, "Chengdu", Operator::Cmcc);
    println!(
        "NEP:      hardware {nep_hw:.0} + network {nep_net:.0} = {:.0} RMB/month",
        nep_hw + nep_net
    );
    for (name, t) in [("AliCloud", &ali), ("Huawei  ", &hw)] {
        let cloud_hw = 10.0 * t.hardware_month(8, 32, 100);
        for model in NetworkModel::ALL {
            let net = match model {
                NetworkModel::PreReservedFixed => cloud_network_month(t, model, &bw, 5),
                _ => scale_to_month(cloud_network_month(t, model, &bw, 5), 30.0),
            };
            println!(
                "{name} [{}]: hardware {cloud_hw:.0} + network {net:.0} = {:.0} RMB/month ({:.2}x NEP)",
                model.label(),
                cloud_hw + net,
                (cloud_hw + net) / (nep_hw + nep_net)
            );
        }
    }

    // --- the bursty counter-example (§4.5's education app) ----------------
    println!("\n== a bursty education app: same mean traffic, 10x peaks 9-12 AM ==");
    let mut bursty = Vec::new();
    for _day in 0..30 {
        for slot in 0..288 {
            let h = slot as f64 / 12.0;
            bursty.push(if (9.0..12.0).contains(&h) {
                1100.0
            } else {
                72.0
            });
        }
    }
    let nep_b = nep_network_month(&bursty, 5, "Chengdu", Operator::Cmcc);
    let ali_b = scale_to_month(
        cloud_network_month(&ali, NetworkModel::OnDemandByBandwidth, &bursty, 5),
        30.0,
    );
    println!("NEP bills the daily peak:   {nep_b:.0} RMB/month");
    println!(
        "AliCloud bills level-hours: {ali_b:.0} RMB/month ({:.2}x NEP — cloud wins here)",
        ali_b / nep_b
    );

    // --- Table 3 over a generated trace -----------------------------------
    println!("\n== Table 3 sweep over the 20 heaviest apps of a generated trace ==");
    let cfg = TraceConfig {
        days: 14,
        cpu_interval_min: 30,
        bw_interval_min: 15,
        start_weekday: 0,
    };
    let (ds, dep) = TraceDataset::generate_nep(21, 50, 60, cfg, 1);
    let regions = Deployment::alicloud();
    let views = [(&ali, &regions, TrafficGranularity::MergedPerRegion)];
    let report = table3_ratios(&ds, &dep, &views, 20).remove(0);
    for (model, r, _) in &report.by_model {
        println!(
            "{:<26} range {:.2}x-{:.2}x  mean {:.2}x  median {:.2}x",
            model.label(),
            r.min,
            r.max,
            r.mean,
            r.median
        );
    }
    println!(
        "network is {:.0}% of the NEP bill on average (paper: 76%)",
        100.0 * report.nep_network_share_mean
    );
}

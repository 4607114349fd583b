//! Operate an edge platform (the §5 extensions): schedule end-user
//! traffic across sites, rebalance with VM migration under a disruption
//! budget, and decide IaaS-vs-serverless per workload.
//!
//! ```sh
//! cargo run --release --example edge_operations
//! ```

use edgescope::analysis::stats::peak_max;
use edgescope::net::geo::GeoPoint;
use edgescope::platform::deployment::Deployment;
use edgescope::sched::elastic::evaluate;
use edgescope::sched::gslb::{CandidateTable, SchedulingPolicy};
use edgescope::sched::migration::{rebalance, SchedVm};
use edgescope::sched::requests::DemandModel;
use edgescope::sched::simulate::simulate_day;
use edgescope::trace::app::AppCategory;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(77);
    let dep = Deployment::nep(&mut rng, 120);
    println!(
        "platform: {} edge sites / {} servers\n",
        dep.n_sites(),
        dep.n_servers()
    );

    // --- 1. cross-site request scheduling ---------------------------------
    println!("== request scheduling: one day of live-streaming demand ==");
    let demand = DemandModel::new(&mut rng, AppCategory::LiveStreaming, 120_000.0);
    let table = CandidateTable::gazetteer(&dep);
    for policy in [
        SchedulingPolicy::NearestSite,
        SchedulingPolicy::RoundRobinNearest(8),
        SchedulingPolicy::LoadAware(8),
        SchedulingPolicy::DelayConstrained { budget_ms: 5.0 },
    ] {
        let mut prng = StdRng::seed_from_u64(7);
        let out = simulate_day(&mut prng, &table, &demand, policy);
        println!(
            "{:<42} delay {:>5.1} ms (p95 {:>5.1})   load CV {:.2}",
            out.policy_label, out.mean_delay_ms, out.p95_delay_ms, out.load_cv
        );
    }

    // --- 2. VM migration ----------------------------------------------------
    println!("\n== VM migration: a skewed 10-site metro ==");
    let sites: Vec<GeoPoint> = (0..10)
        .map(|i| GeoPoint::new(31.0 + 0.05 * i as f64, 121.0 + 0.05 * i as f64))
        .collect();
    let mut vms: Vec<SchedVm> = (0..400)
        .map(|_| SchedVm {
            site: if rng.gen::<f64>() < 0.6 {
                0
            } else {
                rng.gen_range(0..10)
            },
            load: rng.gen_range(0.5..8.0),
            mem_gb: [8.0, 16.0, 32.0, 64.0][rng.gen_range(0..4)],
        })
        .collect();
    for budget in [0usize, 10, 50, 400] {
        let mut trial = vms.clone();
        let out = rebalance(&sites, &mut trial, budget);
        println!(
            "budget {:>4}: CV {:.2} -> {:.2}  ({} migrations, {:.0} GB moved, {:.1} s downtime)",
            budget,
            out.cv_before,
            out.cv_after,
            out.steps.len(),
            out.moved_gb,
            out.total_downtime_s
        );
        if budget == 400 {
            vms = trial;
        }
    }

    // --- 3. IaaS vs serverless ----------------------------------------------
    println!("\n== elasticity: who should go serverless? ==");
    for (label, cat) in [
        ("online education", AppCategory::OnlineEducation),
        ("live streaming", AppCategory::LiveStreaming),
        ("video surveillance", AppCategory::VideoSurveillance),
    ] {
        let profile: Vec<f64> = (0..96).map(|i| cat.diurnal(i as f64 / 4.0)).collect();
        let peak_profile = peak_max(&profile);
        let demand: Vec<f64> = (0..30 * 96)
            .map(|i| 60_000.0 * cat.diurnal((i % 96) as f64 / 4.0) / peak_profile)
            .collect();
        let out = evaluate(&demand);
        let verdict = if out.cost_ratio() > 1.0 {
            "serverless"
        } else {
            "IaaS"
        };
        println!(
            "{:<20} IaaS {:>6.0} vs FaaS {:>6.0} RMB/mo (util {:>3.0}%, cold p95 {:>4.0} ms) -> {}",
            label,
            out.iaas_cost_month,
            out.faas_cost_month,
            100.0 * out.iaas_utilization,
            out.faas_p95_ms,
            verdict
        );
    }
    println!("\n(cold-start tails are why 5.2 says serverless 'can barely meet' low-delay apps)");
}

//! Property-based tests of the scheduling/migration/elasticity models.

use edgescope_net::geo::GeoPoint;
use edgescope_platform::deployment::Deployment;
use edgescope_sched::elastic::{evaluate, REQ_PER_CORE_INTERVAL, WARM_MS};
use edgescope_sched::gslb::{CandidateTable, SchedulingPolicy};
use edgescope_sched::migration::{rebalance, SchedVm};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn policy_from(idx: usize, k: usize, budget: f64) -> SchedulingPolicy {
    match idx % 4 {
        0 => SchedulingPolicy::NearestSite,
        1 => SchedulingPolicy::RoundRobinNearest(k),
        2 => SchedulingPolicy::LoadAware(k),
        _ => SchedulingPolicy::DelayConstrained { budget_ms: budget },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pick_always_returns_a_candidate(
        seed in 0u64..500,
        policy_idx in 0usize..4,
        k in 1usize..12,
        budget in 0.0..30.0f64,
        city in 0usize..10,
        load_scale in 0.0..1e6f64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dep = Deployment::nep(&mut rng, 40);
        let table = CandidateTable::gazetteer(&dep);
        let loads: Vec<f64> = (0..dep.n_sites()).map(|i| load_scale * (i % 7) as f64).collect();
        let mut rr = vec![0usize; table.per_city.len()];
        let policy = policy_from(policy_idx, k, budget);
        let (site, extra) = table.pick(policy, city, &loads, &mut rr, |_| true).unwrap();
        prop_assert!(table.per_city[city].iter().any(|c| c.0 == site),
            "{policy:?} picked a non-candidate");
        prop_assert!(extra >= 0.0);
        if let SchedulingPolicy::DelayConstrained { budget_ms } = policy {
            // Either within budget, or the nearest fallback (extra 0).
            prop_assert!(extra <= budget_ms || extra == table.per_city[city][0].2);
        }
    }

    #[test]
    fn migration_conserves_load_and_respects_budget(
        seed in 0u64..500,
        n_sites in 2usize..10,
        n_vms in 2usize..120,
        budget in 0usize..60,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let sites: Vec<GeoPoint> = (0..n_sites)
            .map(|i| GeoPoint::new(30.0 + 0.03 * i as f64, 110.0 + 0.04 * i as f64))
            .collect();
        let mut vms: Vec<SchedVm> = (0..n_vms)
            .map(|_| SchedVm {
                site: rng.gen_range(0..n_sites),
                load: rng.gen_range(0.1..10.0),
                mem_gb: rng.gen_range(1.0..64.0),
            })
            .collect();
        let before: f64 = vms.iter().map(|v| v.load).sum();
        let out = rebalance(&sites, &mut vms, budget);
        let after: f64 = vms.iter().map(|v| v.load).sum();
        prop_assert!((before - after).abs() < 1e-9, "load conserved");
        prop_assert!(out.steps.len() <= budget);
        prop_assert!(out.cv_after <= out.cv_before + 1e-9, "never worse");
        prop_assert!(out.moved_gb >= 0.0);
        for v in &vms {
            prop_assert!(v.site < n_sites);
        }
        for s in &out.steps {
            prop_assert!(s.copy_s > 0.0);
            prop_assert!(s.from != s.to);
        }
    }

    #[test]
    fn elastic_outcomes_always_sane(
        peak in 100.0..100_000.0f64,
        trough_frac in 0.01..1.0f64,
        days in 1usize..20,
    ) {
        let trough = peak * trough_frac;
        let demand: Vec<f64> = (0..days * 96)
            .map(|i| {
                let h = (i % 96) as f64 / 4.0;
                if (19.0..23.0).contains(&h) { peak } else { trough }
            })
            .collect();
        let out = evaluate(&demand);
        prop_assert!(out.iaas_cost_month > 0.0);
        prop_assert!(out.faas_cost_month > 0.0);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&out.cold_fraction));
        prop_assert!(out.iaas_utilization > 0.0 && out.iaas_utilization <= 1.0 + 1e-9);
        prop_assert!(out.faas_p95_ms >= WARM_MS);
        // IaaS fleet must cover the peak with headroom.
        prop_assert!(out.iaas_cores * REQ_PER_CORE_INTERVAL >= peak);
    }

    #[test]
    fn flatter_demand_pushes_cost_ratio_down(
        peak in 1000.0..50_000.0f64,
    ) {
        // The elasticity crossover: the flatter the load, the better IaaS
        // looks (monotone in trough fraction at fixed peak).
        let ratio_at = |frac: f64| {
            let demand: Vec<f64> = (0..96 * 20)
                .map(|i| {
                    let h = (i % 96) as f64 / 4.0;
                    if (19.0..23.0).contains(&h) { peak } else { peak * frac }
                })
                .collect();
            evaluate(&demand).cost_ratio()
        };
        prop_assert!(ratio_at(0.05) >= ratio_at(0.9) - 1e-9,
            "peaky {} vs flat {}", ratio_at(0.05), ratio_at(0.9));
    }
}

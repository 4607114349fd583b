//! NaN regression tests for every scheduler comparator swept in the
//! `partial_cmp().unwrap()` → `f64::total_cmp` pass (the same bug class
//! PRs 3–4 and 8 eradicated from `analysis` and fig11–13).
//!
//! Contract under test: a NaN rate/latency/load/score must neither
//! panic a policy nor *win* a min/max selection. One exception is noted
//! inline: `elastic::evaluate`'s NaN demand (NaN propagates into cost
//! arithmetic by design — the sort just must not panic), and
//! `predictive::placement_study` generates its world internally from
//! the RNG, so NaN is injected through the extracted
//! `placement_outcomes` core instead.

use edgescope_net::geo::GeoPoint;
use edgescope_platform::deployment::Deployment;
use edgescope_sched::elastic::evaluate;
use edgescope_sched::gslb::{CandidateTable, SchedulingPolicy};
use edgescope_sched::migration::{rebalance, SchedVm};
use edgescope_sched::predictive::{
    placement_outcomes, HISTORY_DAYS, N_VMS, PLACEMENT_HOUR, VM_LOAD,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn table() -> (Deployment, CandidateTable) {
    let mut rng = StdRng::seed_from_u64(1);
    let dep = Deployment::nep(&mut rng, 80);
    let t = CandidateTable::gazetteer(&dep);
    (dep, t)
}

#[test]
fn gslb_pick_nan_load_never_wins() {
    let (dep, t) = table();
    for policy in [
        SchedulingPolicy::LoadAware(4),
        SchedulingPolicy::DelayConstrained { budget_ms: 50.0 },
    ] {
        for city in 0..t.per_city.len() {
            // Poison every candidate except the city's second-nearest:
            // the NaN sites must all lose the least-loaded selection.
            let mut loads = vec![f64::NAN; dep.n_sites()];
            let clean = t.per_city[city][1].0;
            loads[clean] = 3.0;
            let mut rr = vec![0usize; t.per_city.len()];
            let (site, _) = t.pick(policy, city, &loads, &mut rr, |_| true).unwrap();
            assert_eq!(
                site, clean,
                "NaN-loaded site won {policy:?} for city {city}"
            );
        }
    }
}

#[test]
fn gslb_pick_all_nan_loads_no_panic() {
    let (dep, t) = table();
    let loads = vec![f64::NAN; dep.n_sites()];
    let mut rr = vec![0usize; t.per_city.len()];
    for policy in [
        SchedulingPolicy::NearestSite,
        SchedulingPolicy::RoundRobinNearest(3),
        SchedulingPolicy::LoadAware(4),
        SchedulingPolicy::DelayConstrained { budget_ms: 10.0 },
    ] {
        // Nothing to prefer — any candidate is acceptable, but the pick
        // must not panic.
        let (site, _) = t.pick(policy, 0, &loads, &mut rr, |_| true).unwrap();
        assert!(site < dep.n_sites());
    }
}

#[test]
fn gslb_pick_nan_load_never_wins_among_available_sites() {
    let (dep, t) = table();
    let mut loads = vec![f64::NAN; dep.n_sites()];
    let clean = t.per_city[0][2].0;
    loads[clean] = 7.0;
    let down = t.per_city[0][0].0;
    let mut rr = vec![0usize; t.per_city.len()];
    for policy in [
        SchedulingPolicy::LoadAware(6),
        SchedulingPolicy::DelayConstrained { budget_ms: 50.0 },
    ] {
        let picked = t
            .pick(policy, 0, &loads, &mut rr, |s| s != down)
            .expect("candidates exist");
        assert_eq!(picked.0, clean, "NaN-loaded site won {policy:?}");
    }
}

#[test]
fn migration_nan_site_never_hot_or_cold() {
    // Three sites close together; site 2's load is poisoned by a NaN VM.
    // The rebalancer must still move load from the genuinely hot site 0
    // to the cool site 1, never touching site 2 in either role.
    let geo = [
        GeoPoint {
            lat_deg: 31.0,
            lon_deg: 121.0,
        },
        GeoPoint {
            lat_deg: 31.1,
            lon_deg: 121.1,
        },
        GeoPoint {
            lat_deg: 31.2,
            lon_deg: 121.2,
        },
    ];
    let mut vms: Vec<SchedVm> = (0..10)
        .map(|i| SchedVm {
            site: 0,
            load: 10.0 + i as f64,
            mem_gb: 4.0,
        })
        .collect();
    vms.push(SchedVm {
        site: 1,
        load: 5.0,
        mem_gb: 4.0,
    });
    vms.push(SchedVm {
        site: 2,
        load: f64::NAN,
        mem_gb: 4.0,
    });
    let out = rebalance(&geo, &mut vms, 200);
    assert!(!out.steps.is_empty(), "rebalancer must still act");
    for step in &out.steps {
        assert_ne!(step.from, 2, "NaN-loaded site chosen as hot");
        assert_ne!(step.to, 2, "NaN-loaded site chosen as cold");
    }
    // The NaN VM itself must never migrate.
    assert_eq!(vms.last().unwrap().site, 2);
}

#[test]
fn migration_nan_vm_on_hot_site_not_moved() {
    let geo = [
        GeoPoint {
            lat_deg: 31.0,
            lon_deg: 121.0,
        },
        GeoPoint {
            lat_deg: 31.1,
            lon_deg: 121.1,
        },
    ];
    // Hot site 0 carries one NaN VM among movable finite ones.
    let mut vms = vec![
        SchedVm {
            site: 0,
            load: f64::NAN,
            mem_gb: 8.0,
        },
        SchedVm {
            site: 0,
            load: 20.0,
            mem_gb: 4.0,
        },
        SchedVm {
            site: 0,
            load: 30.0,
            mem_gb: 4.0,
        },
        SchedVm {
            site: 0,
            load: 40.0,
            mem_gb: 4.0,
        },
        SchedVm {
            site: 1,
            load: 5.0,
            mem_gb: 4.0,
        },
    ];
    let out = rebalance(&geo, &mut vms, 200);
    for step in &out.steps {
        assert_ne!(step.vm_idx, 0, "NaN-load VM selected for migration");
    }
    assert_eq!(vms[0].site, 0);
}

#[test]
fn elastic_nan_demand_no_panic() {
    // A NaN interval must not panic the weighted-p95 sort. The cost
    // outputs may be NaN (it propagates through sums by design); the
    // call completing is the contract.
    let mut demand: Vec<f64> = (0..96).map(|i| 100.0 + (i % 24) as f64 * 40.0).collect();
    demand[17] = f64::NAN;
    let out = evaluate(&demand);
    assert!(
        out.faas_p95_ms.is_finite(),
        "p95 scan must stop before the NaN tail"
    );
}

#[test]
fn predictive_nan_score_site_gets_no_vms() {
    // World with site 0's series and forecast fully poisoned: every
    // policy's score for it is NaN, so with total_cmp it must never win
    // the min and must end the study with zero placements.
    let horizon = (HISTORY_DAYS + 1) * 24;
    let t_place = HISTORY_DAYS * 24 + PLACEMENT_HOUR;
    let mut sites = vec![
        vec![f64::NAN; horizon],
        vec![30.0; horizon],
        vec![50.0; horizon],
    ];
    sites[1][t_place] = 20.0;
    let forecasts = vec![vec![f64::NAN; 24], vec![30.0; 24], vec![50.0; 24]];
    let outcomes = placement_outcomes(&sites, &forecasts, t_place);
    assert_eq!(outcomes.len(), 3);
    for o in &outcomes {
        assert_eq!(
            o.placed_per_site[0], 0.0,
            "NaN-score site won a placement under {:?}",
            o.policy
        );
        let placed_total: f64 = o.placed_per_site.iter().sum();
        assert_eq!(o.placed_per_site.len(), sites.len());
        assert_eq!(placed_total, VM_LOAD * N_VMS as f64);
    }
}

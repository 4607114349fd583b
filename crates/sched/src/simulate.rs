//! The scheduling simulator: score a policy on delay vs. balance.
//!
//! Discrete time over one day in fixed [`INTERVAL_MIN`] steps, with
//! every site up (the campaign engine, `core::engine`, adds outages on
//! top of the same pick, step width and service time). Each interval,
//! every city emits demand; the policy assigns it to sites through
//! [`CandidateTable::pick`]; each site's latency inflates with
//! utilization (an M/M/1-style queueing factor on top of the
//! propagation delay); we record per-request delay and per-site load.
//! Outcome: mean and p95 delay, plus the across-site load CV — exactly
//! the §4.3 trade-off ("inter-site request scheduling may increase the
//! user-perceived network delay").

use crate::gslb::{CandidateTable, SchedulingPolicy};
use crate::requests::DemandModel;
use edgescope_analysis::stats::{coefficient_of_variation, mean, percentile_in_place};
use rand::Rng;

/// Result of one simulated day.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Label of the evaluated policy.
    pub policy_label: String,
    /// Mean request delay (one-way scheduling-relevant part), ms.
    pub mean_delay_ms: f64,
    /// 95th-percentile request delay, ms.
    pub p95_delay_ms: f64,
    /// Coefficient of variation of total per-site load (the §4.3 balance
    /// metric; lower is better).
    pub load_cv: f64,
    /// Peak single-site utilization observed (1.0 = at capacity).
    pub peak_utilization: f64,
    /// Fraction of intervals×sites above 80 % utilization (the paper's
    /// "safe threshold" from Fig. 13b).
    pub overload_fraction: f64,
}

/// Step width of both day loops (this simulator and the campaign
/// engine), minutes.
pub const INTERVAL_MIN: u32 = 15;

/// Base service time added to every request by both day loops, ms.
pub const SERVICE_MS: f64 = 5.0;

/// Per-site service capacity of the simulated day, requests per
/// interval.
const SITE_CAPACITY: f64 = 4000.0;

/// Queueing inflation factor at utilization `rho` (capped M/M/1 shape:
/// 1/(1-rho) up to 5x at/over capacity). Public because the campaign
/// engine (`core::engine`) reuses the same capped shape — the cap is
/// what keeps delays finite under regional failures.
///
/// Both arms are computed and one is selected, so the day loops pay no
/// mispredicted jump when loads hover around the knee.
#[inline]
pub fn queue_factor(rho: f64) -> f64 {
    // Beyond the knee the model caps — overload shows up in the
    // overload_fraction metric instead of infinite delays.
    std::hint::select_unpredictable(rho >= 0.8, 5.0, 1.0 / (1.0 - rho))
}

/// Simulate one day of demand under `policy` over a prebuilt candidate
/// `table` (from [`CandidateTable::gazetteer`]; its cities must be the
/// demand model's, in the same order).
///
/// The table is the only input that depends on the deployment alone, so
/// a caller answering many queries against one deployment pays for the
/// haversine-and-sort candidate search once, not once per day simulated.
pub fn simulate_day(
    rng: &mut impl Rng,
    table: &CandidateTable,
    demand: &DemandModel,
    policy: SchedulingPolicy,
) -> SimOutcome {
    debug_assert_eq!(
        table.per_city.len(),
        demand.cities.len(),
        "candidate table and demand model cover different cities"
    );
    let n_sites = table.n_sites;
    let n_cities = table.per_city.len();
    let intervals = (24 * 60 / INTERVAL_MIN) as usize;
    // Split each city's demand into a few DNS-resolution batches so
    // load-aware policies can react within the interval.
    let batches = 4;

    let mut total_load = vec![0.0f64; n_sites];
    let mut interval_load = vec![0.0f64; n_sites];
    let mut rr = vec![0usize; n_cities];
    let mut delays: Vec<f64> = Vec::with_capacity(intervals * n_cities * batches);
    let mut peak_util: f64 = 0.0;
    let mut overloaded = 0usize;
    let mut active_cells = 0usize;
    let mut rates = vec![0.0f64; n_cities];
    // Per city: service time plus the one-way delay to its nearest site.
    let nearest_ms: Vec<f64> = table
        .per_city
        .iter()
        .map(|cands| SERVICE_MS + crate::gslb::base_one_way_ms(cands[0].1))
        .collect();

    for step in 0..intervals {
        let h = step as f64 * f64::from(INTERVAL_MIN) / 60.0;
        interval_load.fill(0.0);
        // One demand draw per interval: the policy draws nothing, so
        // drawing every city's noise up front keeps the stream order.
        demand.fill_rates(rng, h, &mut rates);
        // Demand assignment: per city, the interval's requests go through
        // the policy in one batch (DNS-granularity scheduling), with the
        // load snapshot from the interval as it fills.
        for (city, &rate) in rates.iter().enumerate() {
            if rate <= 0.0 {
                continue;
            }
            let portion = rate / batches as f64;
            for _ in 0..batches {
                let (site, extra_ms) = table
                    .pick(policy, city, &interval_load, &mut rr, |_| true)
                    .expect("every site is up");
                interval_load[site] += portion;
                let base_ms = nearest_ms[city] + extra_ms;
                let rho = interval_load[site] / SITE_CAPACITY;
                delays.push(base_ms * queue_factor(rho.min(1.5)));
            }
        }
        for (s, &l) in interval_load.iter().enumerate() {
            total_load[s] += l;
            let util = l / SITE_CAPACITY;
            peak_util = peak_util.max(util);
            if l > 0.0 {
                active_cells += 1;
                if util > 0.8 {
                    overloaded += 1;
                }
            }
        }
    }

    // Balance over sites that could ever receive traffic (candidate sets).
    let mut reachable = vec![false; n_sites];
    for cands in &table.per_city {
        for c in cands {
            reachable[c.0] = true;
        }
    }
    let loads: Vec<f64> = total_load
        .iter()
        .zip(&reachable)
        .filter(|(_, &r)| r)
        .map(|(&l, _)| l)
        .collect();

    // The mean is summed in request order (+0.0 on a day without
    // requests); only then may selection reorder the delays.
    let mean_delay_ms = mean(&delays);
    let p95_delay_ms = if delays.is_empty() {
        0.0
    } else {
        percentile_in_place(&mut delays, 95.0)
    };
    SimOutcome {
        policy_label: policy.label(),
        mean_delay_ms,
        p95_delay_ms,
        load_cv: coefficient_of_variation(&loads),
        peak_utilization: peak_util,
        overload_fraction: overloaded as f64 / active_cells.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgescope_platform::deployment::Deployment;
    use edgescope_trace::app::AppCategory;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn world(seed: u64) -> (Deployment, DemandModel) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dep = Deployment::nep(&mut rng, 100);
        let demand = DemandModel::new(&mut rng, AppCategory::LiveStreaming, 60_000.0);
        (dep, demand)
    }

    fn run(policy: SchedulingPolicy, seed: u64) -> SimOutcome {
        let (dep, demand) = world(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xf00d);
        simulate_day(&mut rng, &CandidateTable::gazetteer(&dep), &demand, policy)
    }

    #[test]
    fn load_aware_balances_better_than_nearest() {
        // The §4.3 thesis: the status quo leaves load unbalanced; a GSLB
        // reduces the cross-site CV.
        let nearest = run(SchedulingPolicy::NearestSite, 1);
        let gslb = run(SchedulingPolicy::LoadAware(8), 1);
        assert!(
            gslb.load_cv < nearest.load_cv * 0.8,
            "gslb CV {:.2} vs nearest {:.2}",
            gslb.load_cv,
            nearest.load_cv
        );
    }

    #[test]
    fn unconstrained_balancing_costs_delay() {
        // ... and the flip side: load-blind spreading adds delay.
        let nearest = run(SchedulingPolicy::NearestSite, 2);
        let rr = run(SchedulingPolicy::RoundRobinNearest(8), 2);
        assert!(
            rr.mean_delay_ms > nearest.mean_delay_ms,
            "rr must pay extra distance"
        );
    }

    #[test]
    fn delay_constrained_is_the_sweet_spot() {
        // The paper's proposal: within a small delay budget, get most of
        // the balance with little delay.
        let nearest = run(SchedulingPolicy::NearestSite, 3);
        let constrained = run(SchedulingPolicy::DelayConstrained { budget_ms: 5.0 }, 3);
        assert!(constrained.load_cv < nearest.load_cv);
        assert!(
            constrained.mean_delay_ms < nearest.mean_delay_ms * 1.6,
            "delay {:.1} vs {:.1}",
            constrained.mean_delay_ms,
            nearest.mean_delay_ms
        );
    }

    #[test]
    fn a_day_without_requests_reports_positive_zero_delays() {
        // 5e-324 rps (the smallest positive f64) spread over the cities
        // rounds every rate to zero, so no request is routed.
        let (dep, _) = world(5);
        let mut rng = StdRng::seed_from_u64(5);
        let demand = DemandModel::new(&mut rng, AppCategory::LiveStreaming, 5e-324);
        let table = CandidateTable::gazetteer(&dep);
        let o = simulate_day(&mut rng, &table, &demand, SchedulingPolicy::NearestSite);
        assert_eq!(o.mean_delay_ms.to_bits(), 0.0f64.to_bits());
        assert_eq!(o.p95_delay_ms.to_bits(), 0.0f64.to_bits());
        assert_eq!(o.peak_utilization, 0.0);
    }

    #[test]
    fn outcome_fields_sane() {
        let o = run(SchedulingPolicy::LoadAware(4), 4);
        assert!(o.mean_delay_ms > 0.0);
        assert!(o.p95_delay_ms >= o.mean_delay_ms * 0.5);
        assert!(o.load_cv >= 0.0);
        assert!((0.0..=1.0).contains(&o.overload_fraction));
        assert!(o.peak_utilization >= 0.0);
    }

    /// The reference day loop: every pick through the
    /// collect-then-`min_by` reference, the nearest delay and the batch
    /// portion recomputed per batch, the capped queue factor as a
    /// branch, and the p95 over a copy.
    fn reference_day(
        rng: &mut impl Rng,
        table: &CandidateTable,
        demand: &DemandModel,
        policy: SchedulingPolicy,
    ) -> SimOutcome {
        let n_sites = table.n_sites;
        let n_cities = table.per_city.len();
        let intervals = (24 * 60 / INTERVAL_MIN) as usize;
        let batches = 4;
        let mut total_load = vec![0.0f64; n_sites];
        let mut interval_load = vec![0.0f64; n_sites];
        let mut rr = vec![0usize; n_cities];
        let mut delays: Vec<f64> = Vec::new();
        let mut peak_util: f64 = 0.0;
        let mut overloaded = 0usize;
        let mut active_cells = 0usize;
        let mut rates = vec![0.0f64; n_cities];
        for step in 0..intervals {
            let h = step as f64 * f64::from(INTERVAL_MIN) / 60.0;
            interval_load.fill(0.0);
            demand.fill_rates(rng, h, &mut rates);
            for (city, &rate) in rates.iter().enumerate() {
                if rate <= 0.0 {
                    continue;
                }
                let nearest_ms =
                    SERVICE_MS + crate::gslb::base_one_way_ms(table.per_city[city][0].1);
                for _ in 0..batches {
                    let portion = rate / batches as f64;
                    let (site, extra_ms) = crate::gslb::tests::reference_pick(
                        table,
                        policy,
                        city,
                        &interval_load,
                        &mut rr,
                        |_| true,
                    )
                    .expect("every site is up");
                    interval_load[site] += portion;
                    let rho = (interval_load[site] / SITE_CAPACITY).min(1.5);
                    let factor = if rho >= 0.8 { 5.0 } else { 1.0 / (1.0 - rho) };
                    delays.push((nearest_ms + extra_ms) * factor);
                }
            }
            for (s, &l) in interval_load.iter().enumerate() {
                total_load[s] += l;
                let util = l / SITE_CAPACITY;
                peak_util = peak_util.max(util);
                if l > 0.0 {
                    active_cells += 1;
                    if util > 0.8 {
                        overloaded += 1;
                    }
                }
            }
        }
        let mut reachable = vec![false; n_sites];
        for cands in &table.per_city {
            for c in cands {
                reachable[c.0] = true;
            }
        }
        let loads: Vec<f64> = total_load
            .iter()
            .zip(&reachable)
            .filter(|(_, &r)| r)
            .map(|(&l, _)| l)
            .collect();
        SimOutcome {
            policy_label: policy.label(),
            mean_delay_ms: mean(&delays),
            p95_delay_ms: if delays.is_empty() {
                0.0
            } else {
                edgescope_analysis::stats::percentile(&delays, 95.0)
            },
            load_cv: coefficient_of_variation(&loads),
            peak_utilization: peak_util,
            overload_fraction: overloaded as f64 / active_cells.max(1) as f64,
        }
    }

    fn bits(o: &SimOutcome) -> (String, [u64; 5]) {
        (
            o.policy_label.clone(),
            [
                o.mean_delay_ms,
                o.p95_delay_ms,
                o.load_cv,
                o.peak_utilization,
                o.overload_fraction,
            ]
            .map(f64::to_bits),
        )
    }

    #[test]
    fn simulate_day_equals_the_reference_loop_bit_for_bit() {
        // Seeded cases over every policy, k in 0..=12 (beyond the 10
        // candidates), budgets 0, negative, NaN, 0–15 ms and +inf, a
        // 150-site and a 53-site deployment, every app category and
        // demand from light to far over capacity. Both loops must agree
        // on all five outcome fields and leave the RNG in one state.
        let mut rng = StdRng::seed_from_u64(0xda7);
        let tables: Vec<CandidateTable> = [150, 53]
            .map(|n| CandidateTable::gazetteer(&Deployment::nep(&mut rng, n)))
            .into();
        let (mut overloaded_days, mut fallback_days) = (0usize, 0usize);
        for case in 0..80 {
            let k = rng.gen_range(0..=12usize);
            let policy = match case % 4 {
                0 => SchedulingPolicy::NearestSite,
                1 => SchedulingPolicy::RoundRobinNearest(k),
                2 => SchedulingPolicy::LoadAware(k),
                _ => SchedulingPolicy::DelayConstrained {
                    budget_ms: match (case / 4) % 5 {
                        0 => 0.0,
                        1 => -rng.gen_range(0.0..5.0),
                        2 => f64::NAN,
                        3 => f64::INFINITY,
                        _ => rng.gen_range(0.0..15.0),
                    },
                },
            };
            if let SchedulingPolicy::DelayConstrained { budget_ms } = policy {
                fallback_days += usize::from(budget_ms.is_nan() || budget_ms < 0.0);
            }
            // Each category meets every policy on both deployments.
            let table = &tables[(case / 4) % 2];
            let category = AppCategory::ALL[(case / 8) % AppCategory::ALL.len()];
            let total_rps = 10f64.powf(rng.gen_range(3.0..7.0));
            let demand = DemandModel::new(&mut rng, category, total_rps);
            let mut fast = StdRng::seed_from_u64(rng.gen());
            let mut slow = fast.clone();
            let got = simulate_day(&mut fast, table, &demand, policy);
            let want = reference_day(&mut slow, table, &demand, policy);
            assert_eq!(
                bits(&got),
                bits(&want),
                "case {case}: {policy:?} {category:?} {total_rps} rps, {} sites",
                table.n_sites
            );
            assert_eq!(
                fast.gen::<u64>(),
                slow.gen::<u64>(),
                "case {case}: RNG end state"
            );
            overloaded_days += usize::from(got.overload_fraction > 0.0);
        }
        assert!(
            overloaded_days >= 5,
            "only {overloaded_days} overloaded days"
        );
        assert!(fallback_days >= 2, "only {fallback_days} fallback days");
    }

    #[test]
    fn deterministic() {
        let a = run(SchedulingPolicy::NearestSite, 5);
        let b = run(SchedulingPolicy::NearestSite, 5);
        assert_eq!(a.mean_delay_ms, b.mean_delay_ms);
        assert_eq!(a.load_cv, b.load_cv);
    }
}

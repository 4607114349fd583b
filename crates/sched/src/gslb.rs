//! Cross-site request scheduling policies.
//!
//! §2: "edge customers typically route user requests to their nearby
//! sites based on DNS or HTTP 302" — the nearest-site status quo, which
//! §4.3 shows "often fail\[s\] to deliver" load balance. The alternatives
//! follow the paper's discussion: spreading over the k nearest sites,
//! classic GSLB (pick the least-loaded candidate), and the
//! delay-constrained load-aware policy it advocates — balance only among
//! sites whose extra delay stays within a budget, exploiting Fig. 4's
//! observation that several sites sit within a few ms of each other.

use edgescope_platform::deployment::Deployment;
use edgescope_platform::geo_china::CITIES;
use std::hint::select_unpredictable;

/// A request-scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedulingPolicy {
    /// Route every request to the geographically nearest site (status
    /// quo).
    NearestSite,
    /// Spread round-robin over the `k` nearest sites, load-blind.
    RoundRobinNearest(usize),
    /// Among the `k` nearest sites, pick the currently least-loaded.
    LoadAware(usize),
    /// Among sites within `budget_ms` of extra one-way delay vs. the
    /// nearest, pick the least-loaded (the paper's proposal).
    DelayConstrained {
        /// Maximum extra one-way delay accepted vs. the nearest site.
        budget_ms: f64,
    },
}

impl SchedulingPolicy {
    /// Human-readable label for reports. A budget of at least 1 µs
    /// prints in full (`+5 ms`); a smaller one, which `{}` would spell
    /// out to hundreds of digits, prints in scientific notation
    /// (`+1e-300 ms`).
    pub fn label(&self) -> String {
        match self {
            SchedulingPolicy::NearestSite => "nearest-site (status quo)".into(),
            SchedulingPolicy::RoundRobinNearest(k) => format!("round-robin over {k} nearest"),
            SchedulingPolicy::LoadAware(k) => format!("load-aware over {k} nearest"),
            SchedulingPolicy::DelayConstrained { budget_ms } if *budget_ms >= 1e-3 => {
                format!("delay-constrained load-aware (+{budget_ms} ms)")
            }
            SchedulingPolicy::DelayConstrained { budget_ms } => {
                format!("delay-constrained load-aware (+{budget_ms:e} ms)")
            }
        }
    }
}

/// Pre-computed per-city candidate sets: site indices ordered by
/// distance, with the approximate extra one-way delay vs. the nearest.
///
/// The table depends only on the deployment, never on demand or policy,
/// so callers that run many simulations against one deployment build it
/// once ([`CandidateTable::gazetteer`]).
#[derive(Debug, Clone)]
pub struct CandidateTable {
    /// Per city: `(site index, distance km, extra_delay_ms)`, nearest
    /// first. Distance and extra delay are both nondecreasing along a
    /// city's list (the first extra delay is +0.0), and
    /// [`CandidateTable::pick`] relies on the order of the extra delays.
    pub per_city: Vec<Vec<(usize, f64, f64)>>,
    /// Sites in the deployment the table was built from (the index
    /// space of every candidate and of the per-site load vectors).
    pub n_sites: usize,
}

/// Approximate one-way WAN delay between a user and a site at `d` km —
/// the Fig. 4 slope (half of the RTT model's 0.021 ms/km plus a base).
pub fn base_one_way_ms(d_km: f64) -> f64 {
    1.5 + 0.0105 * d_km
}

/// Candidate sites considered per city by both day loops
/// (`simulate::simulate_day` and the campaign engine).
pub(crate) const MAX_CANDIDATES: usize = 10;

impl CandidateTable {
    /// The table both day loops route over on `dep`: up to 10 sites
    /// (`MAX_CANDIDATES`) for every gazetteer city, in the city
    /// order of [`crate::requests::DemandModel`]. Build it once per
    /// deployment and reuse it for every demand draw and policy.
    pub fn gazetteer(dep: &Deployment) -> Self {
        let per_city = CITIES
            .iter()
            .map(|city| {
                let ordered = dep.nearest_sites(city.geo(), MAX_CANDIDATES);
                let nearest_d = ordered[0].1;
                ordered
                    .into_iter()
                    .map(|(idx, d)| (idx, d, base_one_way_ms(d) - base_one_way_ms(nearest_d)))
                    .collect()
            })
            .collect();
        CandidateTable {
            per_city,
            n_sites: dep.n_sites(),
        }
    }

    /// Pick a site for one request from `city_idx` under `policy`,
    /// skipping sites for which `available` returns `false` (drained or
    /// blackholed by an active event; callers with every site up pass
    /// `|_| true`).
    ///
    /// `loads` is the current per-site load (same index space as the
    /// deployment), `rr_state` a per-city round-robin cursor. Returns the
    /// site index and the extra one-way delay vs. the city's nearest
    /// site, or `None` when *no* candidate for the city is available —
    /// the caller treats the request as rejected (admission control
    /// under regional failure) instead of panicking.
    ///
    /// Unavailable candidates are filtered *before* the policy applies,
    /// so e.g. `NearestSite` falls over to the nearest *available* site
    /// — exactly the DNS failover behaviour a real GSLB exhibits. The
    /// filter is lazy: a pick allocates nothing.
    ///
    /// Load comparisons follow [`f64::total_cmp`] (the same documented
    /// NaN convention as `edgescope_analysis::stats`): a NaN load orders
    /// after `+inf`, so a site whose load tracker was corrupted can never
    /// win a least-loaded selection — and the comparison can never panic
    /// mid-request. `LoadAware` and `DelayConstrained` find their least
    /// loaded candidate in one scan over the city's candidates. The scan
    /// compares each load's integer key `b ^ (((b >> 63) as u64) >> 1)`
    /// (`b` its bits as `i64`), which orders exactly like `total_cmp`,
    /// and replaces the best only on a strict `<`: among equal loads the
    /// nearest candidate wins, as with `min_by(total_cmp)`.
    pub fn pick(
        &self,
        policy: SchedulingPolicy,
        city_idx: usize,
        loads: &[f64],
        rr_state: &mut [usize],
        available: impl Fn(usize) -> bool,
    ) -> Option<(usize, f64)> {
        let all = &self.per_city[city_idx];
        let available = &available;
        let nearest = all.iter().position(|c| available(c.0))?;
        let c = match policy {
            SchedulingPolicy::NearestSite => &all[nearest],
            SchedulingPolicy::RoundRobinNearest(k) => {
                let rr = rr_state[city_idx];
                rr_state[city_idx] = rr.wrapping_add(1);
                round_robin(&all[nearest..], k.max(1), rr, available)
            }
            SchedulingPolicy::LoadAware(k) => {
                // The first max(k, 1) available candidates.
                let k = k.max(1);
                let mut taken = 0usize;
                &all[least_loaded(all, nearest, loads, |c| {
                    let up = available(c.0);
                    let in_scope = up & (taken < k);
                    taken += usize::from(up);
                    in_scope
                })]
            }
            SchedulingPolicy::DelayConstrained { budget_ms } => {
                &all[least_loaded(all, nearest, loads, |c| available(c.0) & (c.2 <= budget_ms))]
            }
        };
        Some((c.0, c.2))
    }
}

/// The round-robin choice among the first `k` (≥ 1) candidates of
/// `cands` that are `available`: the one in slot `rr % n`, where `n` is
/// how many of them there are (`k`, or fewer when fewer are up).
/// `cands[0]` must be available.
///
/// When the first `k` candidates are all up — always, when every site
/// is — slot `rr % k` indexes them directly, and with an always-true
/// `available` the check compiles away. Otherwise two walks count `n`
/// and find slot `rr % n`.
fn round_robin(
    cands: &[(usize, f64, f64)],
    k: usize,
    rr: usize,
    available: impl Fn(usize) -> bool,
) -> &(usize, f64, f64) {
    if let Some(first) = cands.get(..k) {
        if first.iter().all(|c| available(c.0)) {
            return &first[rr % k];
        }
    }
    let up = || cands.iter().filter(|c| available(c.0));
    let n = up().take(k).count();
    up().nth(rr % n).expect("n counts available candidates")
}

/// An integer that orders like [`f64::total_cmp`] orders `x`: the bits
/// of `x` as `i64`, with every bit but the sign flipped when the sign is
/// set (`-NaN < -inf < … < -0.0 < +0.0 < … < +inf < +NaN`).
fn total_order_key(x: f64) -> i64 {
    let b = x.to_bits() as i64;
    b ^ (((b >> 63) as u64) >> 1) as i64
}

/// Position in `cands` of the first least-loaded candidate that
/// `in_scope` admits, or `nearest` when none is admitted. `in_scope`
/// sees every candidate once, in order.
///
/// `nearest` must be the first available candidate. It is in scope
/// whenever any candidate is: `LoadAware` always admits it, and
/// `DelayConstrained` admits it whenever it admits a later one, because
/// extra delays are nondecreasing along a city's candidates (see
/// [`CandidateTable::per_city`]). So the scan can start from it with the
/// largest key, `i64::MAX`: a load with that key (only the NaN whose
/// payload bits are all set) never displaces it, and if every admitted
/// load has that key, `nearest` is their first.
///
/// One pass, and every update is a select rather than a jump: on nearly
/// balanced loads the winner changes unpredictably from pick to pick,
/// so a branch on the comparison would mispredict, and the critical
/// path through the scan is one compare and one select per candidate.
fn least_loaded(
    cands: &[(usize, f64, f64)],
    nearest: usize,
    loads: &[f64],
    mut in_scope: impl FnMut(&(usize, f64, f64)) -> bool,
) -> usize {
    let mut best = nearest;
    let mut best_key = i64::MAX;
    for (i, c) in cands.iter().enumerate() {
        let key = select_unpredictable(in_scope(c), total_order_key(loads[c.0]), i64::MAX);
        // Strict: among equal loads the earlier (nearer) candidate stays.
        let wins = key < best_key;
        best = select_unpredictable(wins, i, best);
        best_key = select_unpredictable(wins, key, best_key);
    }
    best
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn table() -> (Deployment, CandidateTable) {
        let mut rng = StdRng::seed_from_u64(1);
        let dep = Deployment::nep(&mut rng, 80);
        let t = CandidateTable::gazetteer(&dep);
        (dep, t)
    }

    /// A pick with every site up.
    fn pick_up(
        t: &CandidateTable,
        policy: SchedulingPolicy,
        city: usize,
        loads: &[f64],
        rr: &mut [usize],
    ) -> (usize, f64) {
        t.pick(policy, city, loads, rr, |_| true)
            .expect("every site is up")
    }

    #[test]
    fn candidates_ordered_by_distance() {
        let (_, t) = table();
        for cands in &t.per_city {
            for w in cands.windows(2) {
                assert!(w[0].1 <= w[1].1);
                assert!(w[0].2 <= w[1].2, "extra delays are nondecreasing");
            }
            assert_eq!(
                cands[0].2.to_bits(),
                0.0f64.to_bits(),
                "nearest has +0.0 extra delay"
            );
            assert!(cands.iter().all(|c| c.2 >= 0.0));
        }
    }

    #[test]
    fn gazetteer_table_covers_every_city() {
        let (dep, t) = table();
        assert_eq!(t.per_city.len(), CITIES.len());
        assert!(t.per_city.iter().all(|c| c.len() == MAX_CANDIDATES));
        assert_eq!(t.n_sites, dep.n_sites());
    }

    #[test]
    fn nearest_site_always_first_candidate() {
        let (dep, t) = table();
        let loads = vec![0.0; dep.n_sites()];
        let mut rr = vec![0usize; t.per_city.len()];
        for city in 0..t.per_city.len() {
            let (site, extra) = pick_up(&t, SchedulingPolicy::NearestSite, city, &loads, &mut rr);
            assert_eq!(site, t.per_city[city][0].0);
            assert_eq!(extra, 0.0);
        }
    }

    #[test]
    fn round_robin_cycles() {
        let (dep, t) = table();
        let loads = vec![0.0; dep.n_sites()];
        let mut rr = vec![0usize; t.per_city.len()];
        let picks: Vec<usize> = (0..6)
            .map(|_| {
                pick_up(
                    &t,
                    SchedulingPolicy::RoundRobinNearest(3),
                    0,
                    &loads,
                    &mut rr,
                )
                .0
            })
            .collect();
        assert_eq!(picks[0], picks[3]);
        assert_eq!(picks[1], picks[4]);
        assert_eq!(picks[2], picks[5]);
        let mut uniq = picks.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert!(uniq.len() >= 2, "must actually spread");
    }

    #[test]
    fn load_aware_avoids_hot_site() {
        let (dep, t) = table();
        let mut loads = vec![0.0; dep.n_sites()];
        let hot = t.per_city[0][0].0;
        loads[hot] = 1e9;
        let mut rr = vec![0usize; t.per_city.len()];
        let (site, _) = pick_up(&t, SchedulingPolicy::LoadAware(4), 0, &loads, &mut rr);
        assert_ne!(site, hot);
    }

    #[test]
    fn delay_constrained_respects_budget() {
        let (dep, t) = table();
        let mut loads = vec![0.0; dep.n_sites()];
        // Overload everything close; policy must still not violate the
        // budget.
        for c in &t.per_city[0] {
            if c.2 <= 2.0 {
                loads[c.0] = 1e9;
            }
        }
        let mut rr = vec![0usize; t.per_city.len()];
        let (site, extra) = pick_up(
            &t,
            SchedulingPolicy::DelayConstrained { budget_ms: 2.0 },
            0,
            &loads,
            &mut rr,
        );
        assert!(extra <= 2.0, "extra {extra}");
        // It must be one of the in-budget candidates (even if loaded).
        assert!(t.per_city[0].iter().any(|c| c.0 == site && c.2 <= 2.0));
    }

    #[test]
    fn zero_budget_degenerates_to_nearest() {
        let (dep, t) = table();
        let loads = vec![1.0; dep.n_sites()];
        let mut rr = vec![0usize; t.per_city.len()];
        let (site, _) = pick_up(
            &t,
            SchedulingPolicy::DelayConstrained { budget_ms: 0.0 },
            2,
            &loads,
            &mut rr,
        );
        assert_eq!(site, t.per_city[2][0].0);
    }

    #[test]
    fn nearest_site_fails_over_to_nearest_available() {
        let (dep, t) = table();
        let loads = vec![0.0; dep.n_sites()];
        let mut rr = vec![0usize; t.per_city.len()];
        let nearest = t.per_city[0][0].0;
        let (site, extra) = t
            .pick(SchedulingPolicy::NearestSite, 0, &loads, &mut rr, |s| {
                s != nearest
            })
            .expect("other candidates remain");
        assert_ne!(site, nearest);
        assert_eq!(site, t.per_city[0][1].0, "fails over to second-nearest");
        assert_eq!(extra, t.per_city[0][1].2, "and pays its extra delay");
    }

    #[test]
    fn pick_rejects_when_all_candidates_down() {
        let (dep, t) = table();
        let loads = vec![0.0; dep.n_sites()];
        let mut rr = vec![0usize; t.per_city.len()];
        for policy in [
            SchedulingPolicy::NearestSite,
            SchedulingPolicy::RoundRobinNearest(3),
            SchedulingPolicy::LoadAware(4),
            SchedulingPolicy::DelayConstrained { budget_ms: 2.0 },
        ] {
            assert_eq!(t.pick(policy, 0, &loads, &mut rr, |_| false), None);
        }
        assert!(
            rr.iter().all(|&r| r == 0),
            "a rejected pick advances no cursor"
        );
    }

    /// The NaN whose order key is `i64::MAX`, the largest value under
    /// `total_cmp`.
    const KEY_MAX_NAN: f64 = f64::from_bits(u64::MAX >> 1);

    #[test]
    fn total_order_key_orders_like_total_cmp() {
        let mut xs = vec![
            f64::NAN,
            -f64::NAN,
            KEY_MAX_NAN,
            -KEY_MAX_NAN,
            f64::from_bits(0x7ff0_0000_0000_0001), // signalling NaN
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1), // smallest subnormal
            -f64::from_bits(1),
            0.0,
            -0.0,
            1.0,
            -1.0,
        ];
        let mut rng = StdRng::seed_from_u64(0x0cde);
        xs.extend((0..200).map(|_| f64::from_bits(rng.gen())));
        for &a in &xs {
            for &b in &xs {
                assert_eq!(
                    total_order_key(a).cmp(&total_order_key(b)),
                    a.total_cmp(&b),
                    "{a:?} ({:#x}) vs {b:?} ({:#x})",
                    a.to_bits(),
                    b.to_bits()
                );
            }
        }
        assert_eq!(total_order_key(KEY_MAX_NAN), i64::MAX);
    }

    /// The reference pick: collect the available candidates, then apply
    /// the policy to that list, finding the least loaded by
    /// `min_by(total_cmp)`. The day-loop reference in `simulate` routes
    /// through it too.
    pub(crate) fn reference_pick(
        t: &CandidateTable,
        policy: SchedulingPolicy,
        city_idx: usize,
        loads: &[f64],
        rr_state: &mut [usize],
        available: impl Fn(usize) -> bool,
    ) -> Option<(usize, f64)> {
        let cands: Vec<(usize, f64, f64)> = t.per_city[city_idx]
            .iter()
            .filter(|c| available(c.0))
            .copied()
            .collect();
        if cands.is_empty() {
            return None;
        }
        Some(match policy {
            SchedulingPolicy::NearestSite => (cands[0].0, cands[0].2),
            SchedulingPolicy::RoundRobinNearest(k) => {
                let k = k.clamp(1, cands.len());
                let c = cands[rr_state[city_idx] % k];
                rr_state[city_idx] = rr_state[city_idx].wrapping_add(1);
                (c.0, c.2)
            }
            SchedulingPolicy::LoadAware(k) => {
                let k = k.clamp(1, cands.len());
                let best = cands[..k]
                    .iter()
                    .min_by(|a, b| loads[a.0].total_cmp(&loads[b.0]))
                    .unwrap();
                (best.0, best.2)
            }
            SchedulingPolicy::DelayConstrained { budget_ms } => {
                let best = cands
                    .iter()
                    .filter(|c| c.2 <= budget_ms)
                    .min_by(|a, b| loads[a.0].total_cmp(&loads[b.0]))
                    .unwrap_or(&cands[0]);
                (best.0, best.2)
            }
        })
    }

    #[test]
    fn pick_matches_the_collect_then_apply_reference() {
        // Seeded property: every policy, loads with NaN and infinities,
        // random availability masks (all down included) and several
        // round-robin steps per case. Both sides must agree bit for bit
        // on the pick and on the cursor they leave behind.
        let (dep, t) = table();
        let n_cities = t.per_city.len();
        let mut rng = StdRng::seed_from_u64(0x651b);
        let (mut failovers, mut rejections) = (0usize, 0usize);
        for case in 0..2_000 {
            let k = rng.gen_range(0..=10usize);
            let policy = match case % 4 {
                0 => SchedulingPolicy::NearestSite,
                1 => SchedulingPolicy::RoundRobinNearest(k),
                2 => SchedulingPolicy::LoadAware(k),
                _ => SchedulingPolicy::DelayConstrained {
                    budget_ms: match rng.gen_range(0..8) {
                        0 => 0.0,
                        1 => -1.0,
                        2 => f64::NAN,
                        3 => f64::INFINITY,
                        _ => rng.gen_range(0.0..12.0),
                    },
                },
            };
            // Every region of `total_cmp`'s order, and many exact ties.
            let mut loads: Vec<f64> = (0..dep.n_sites())
                .map(|_| match rng.gen_range(0..14) {
                    0 => f64::NAN,
                    1 => -f64::NAN,
                    2 => KEY_MAX_NAN,
                    3 => f64::INFINITY,
                    4 => f64::NEG_INFINITY,
                    5 => 0.0,
                    6 => -0.0,
                    7..=9 => f64::from(rng.gen_range(1..=3u8)),
                    _ => rng.gen_range(0.0..1e4),
                })
                .collect();
            let mut rr_lazy = vec![0usize; n_cities];
            let mut rr_ref = vec![0usize; n_cities];
            let city = rng.gen_range(0..n_cities);
            rr_lazy[city] = rng.gen_range(0..1_000);
            rr_ref[city] = rr_lazy[city];
            let up_share = [0.0, 0.3, 0.7, 1.0][rng.gen_range(0..4)];
            for _step in 0..6 {
                let up: Vec<bool> = (0..dep.n_sites()).map(|_| rng.gen_bool(up_share)).collect();
                let lazy = t.pick(policy, city, &loads, &mut rr_lazy, |s| up[s]);
                let want = reference_pick(&t, policy, city, &loads, &mut rr_ref, |s| up[s]);
                assert_eq!(
                    lazy.map(|(s, e)| (s, e.to_bits())),
                    want.map(|(s, e)| (s, e.to_bits())),
                    "case {case}: {policy:?} city {city}"
                );
                assert_eq!(rr_lazy, rr_ref, "case {case}: {policy:?} cursor");
                match lazy {
                    None => rejections += 1,
                    Some((site, _)) => {
                        failovers += usize::from(!up[t.per_city[city][0].0]);
                        // Route the request, so the next step sees it.
                        loads[site] += 1.0;
                    }
                }
            }
        }
        assert!(failovers > 1_000, "only {failovers} failed-over picks");
        assert!(rejections > 1_000, "only {rejections} rejected picks");
    }
}

//! Shared immutable service state, the per-endpoint metric store and
//! the memo of simulated placement days.

use crate::json::Json;
use edgescope_analysis::stats::median;
use edgescope_core::experiments::{Needs, Studies};
use edgescope_core::scenario::{Platform, Scenario};
use edgescope_net::access::AccessNetwork;
use edgescope_net::rng::{domains, entity_tag, stream_rng};
use edgescope_obs::MetricSet;
use edgescope_sched::gslb::{CandidateTable, SchedulingPolicy};
use edgescope_sched::simulate::SimOutcome;
use edgescope_trace::app::AppCategory;
use rand::rngs::StdRng;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The serve crate's tag namespace under the scenario seed. Each
/// endpoint derives its request streams from `TAG ^ endpoint_tag`, so
/// `/query/qoe?seed=1` and `/query/bill?seed=1` never share a stream.
pub const TAG: u64 = 0x5e4e_0000;

/// Most simulated placement days a [`ServeState`] remembers. An insert
/// into a full memo first clears it; one outcome is ≈ 150 bytes.
pub const PLACEMENT_MEMO_CAPACITY: usize = 1024;

/// The canonical inputs of one `/query/placement` day. Its outcome is a
/// pure function of them, so every spelling of one query maps to one
/// key: the policy is the parsed [`SchedulingPolicy`] value, which
/// carries `k` only for round-robin and load-aware and `budget_ms` only
/// for delay-constrained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct PlacementKey {
    provider: Platform,
    policy: (u8, u64),
    app: AppCategory,
    total_rps_bits: u64,
    seed: u32,
}

impl PlacementKey {
    /// The key of a day on `provider`'s candidate table under `policy`,
    /// for `app` at `total_rps`, drawn from the request RNG of `seed`.
    pub(crate) fn new(
        provider: Platform,
        policy: SchedulingPolicy,
        app: AppCategory,
        total_rps: f64,
        seed: u32,
    ) -> Self {
        let policy = match policy {
            SchedulingPolicy::NearestSite => (0, 0),
            SchedulingPolicy::RoundRobinNearest(k) => (1, k as u64),
            SchedulingPolicy::LoadAware(k) => (2, k as u64),
            SchedulingPolicy::DelayConstrained { budget_ms } => (3, budget_ms.to_bits()),
        };
        PlacementKey {
            provider,
            policy,
            app,
            total_rps_bits: total_rps.to_bits(),
            seed,
        }
    }
}

/// Everything a request handler may read: the scenario, which studies
/// were built at startup, the request-invariant tables derived from
/// them, and nothing mutable except the metric store and the placement
/// memo.
///
/// Handlers never mutate the scenario. The shared mutable
/// state is two maps: the per-endpoint [`MetricSet`] map, which feeds
/// `/metrics` and deliberately carries no wall-clock or worker-count
/// data (response bodies must be byte-identical across deployments),
/// and the memo of simulated placement days (`placement_day`), which
/// holds only values its key determines, so no body and no `/metrics`
/// row depends on whether a request hit it.
pub struct ServeState {
    /// The world every query runs against.
    pub scenario: Scenario,
    /// The studies built at startup, which `/healthz` and
    /// `/experiments` report; the studies themselves are dropped once
    /// the crowd medians are taken from them.
    pub(crate) built: Needs,
    /// `/query/placement`'s candidate table of each edge platform (each
    /// [`Platform`] with a profile), in [`Platform::ALL`] order, built
    /// once at startup by [`CandidateTable::gazetteer`] (it depends only
    /// on the deployment, never on the request).
    pub(crate) candidates: Vec<(Platform, CandidateTable)>,
    /// `/query/qoe`'s crowd context, one slot per
    /// [`AccessNetwork::ALL`] entry: the latency study's median
    /// nearest-edge RTT over that access network's users, built once at
    /// startup (see [`ServeState::crowd_median`]).
    crowd_medians: [Option<f64>; AccessNetwork::ALL.len()],
    metrics: Mutex<BTreeMap<&'static str, MetricSet>>,
    placements: Mutex<HashMap<PlacementKey, SimOutcome>>,
}

impl ServeState {
    /// Wrap a scenario, and build from it and its pre-built studies
    /// what the handlers would otherwise recompute per request: the
    /// placement candidate tables of the edge platforms and the `qoe`
    /// crowd medians. Only which studies were built is kept.
    pub fn new(scenario: Scenario, studies: Studies) -> Self {
        let candidates = Platform::ALL
            .into_iter()
            .filter(|p| p.profile().is_some())
            .map(|p| (p, CandidateTable::gazetteer(scenario.deployment(p))))
            .collect();
        let crowd_medians = AccessNetwork::ALL.map(|access| {
            let study = studies.latency.as_ref()?;
            let rtts: Vec<f64> = study
                .campaign
                .users_on(access)
                .iter()
                .filter_map(|u| u.baselines().nearest_edge.map(|t| t.mean_rtt_ms))
                .collect();
            (!rtts.is_empty()).then(|| median(&rtts))
        });
        ServeState {
            candidates,
            crowd_medians,
            scenario,
            built: studies.built(),
            metrics: Mutex::new(BTreeMap::new()),
            placements: Mutex::new(HashMap::new()),
        }
    }

    /// The latency study's median nearest-edge RTT over the crowd's
    /// users on `access`; `None` when the study is not loaded or no user
    /// is on that access network.
    pub fn crowd_median(&self, access: AccessNetwork) -> Option<f64> {
        let slot = AccessNetwork::ALL.iter().position(|&a| a == access)?;
        self.crowd_medians[slot]
    }

    /// The deterministic RNG for one request: derived from the world
    /// seed, the endpoint's tag, and the client's `seed` query parameter
    /// via the same `stream_seed`/`entity_tag` scheme the campaigns use
    /// (domain [`domains::SERVE`]). Identical `(endpoint, seed)` ⇒
    /// identical stream, independent of workers or arrival order.
    pub fn request_rng(&self, endpoint_tag: u64, client_seed: u32) -> StdRng {
        let base = self.scenario.stream_seed(TAG ^ endpoint_tag);
        stream_rng(base, entity_tag(domains::SERVE, client_seed as usize))
    }

    /// The metric store. No handler runs while it is held, and a panic
    /// inside `merge` (a histogram bound mismatch) leaves every set
    /// well-formed, so a poisoned lock is recovered, not propagated to
    /// every later request.
    fn metric_store(&self) -> MutexGuard<'_, BTreeMap<&'static str, MetricSet>> {
        self.metrics.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The placement memo. Its lock guards only lookups and inserts, so
    /// a poisoned lock is recovered like the metric store's.
    fn placement_memo(&self) -> MutexGuard<'_, HashMap<PlacementKey, SimOutcome>> {
        self.placements
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The simulated day of `key`: the remembered outcome when an
    /// earlier request computed it, else `simulate`'s, remembered for
    /// the next request (a full memo is cleared first). `simulate` runs
    /// without the lock, so two workers missing on one key both compute
    /// it and insert equal outcomes. It must record no `obs` metric,
    /// since a hit skips it.
    pub(crate) fn placement_day(
        &self,
        key: PlacementKey,
        simulate: impl FnOnce() -> SimOutcome,
    ) -> SimOutcome {
        let hit = self.placement_memo().get(&key).cloned();
        if let Some(out) = hit {
            return out;
        }
        let out = simulate();
        let mut memo = self.placement_memo();
        if memo.len() >= PLACEMENT_MEMO_CAPACITY {
            memo.clear();
        }
        memo.insert(key, out.clone());
        out
    }

    /// How many placement outcomes the memo holds (at most
    /// [`PLACEMENT_MEMO_CAPACITY`]).
    pub fn placement_memo_len(&self) -> usize {
        self.placement_memo().len()
    }

    /// Merge one finished request scope into the endpoint's metric set.
    pub fn record(&self, endpoint: &'static str, set: &MetricSet) {
        self.metric_store().entry(endpoint).or_default().merge(set);
    }

    /// The `/metrics` document: per-endpoint counter/histogram rows in
    /// deterministic (BTreeMap) order, schema `edgescope-serve-metrics/1`.
    pub fn metrics_json(&self) -> Json {
        let map = self.metric_store();
        let endpoints = map
            .iter()
            .map(|(endpoint, set)| {
                let rows = set
                    .rows()
                    .into_iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("name", Json::from(r.name)),
                            ("kind", Json::from(r.kind)),
                            ("value", Json::Raw(r.value.to_json())),
                        ])
                    })
                    .collect();
                Json::obj(vec![
                    ("endpoint", Json::from(*endpoint)),
                    ("metrics", Json::arr(rows)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("schema", Json::from("edgescope-serve-metrics/1")),
            ("endpoints", Json::arr(endpoints)),
        ])
    }
}

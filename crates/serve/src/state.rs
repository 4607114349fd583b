//! Shared immutable service state plus the per-endpoint metric store.

use crate::json::Json;
use edgescope_analysis::stats::median;
use edgescope_core::experiments::{contention, Studies};
use edgescope_core::scenario::Scenario;
use edgescope_net::access::AccessNetwork;
use edgescope_net::rng::{domains, entity_tag, stream_rng};
use edgescope_obs::MetricSet;
use edgescope_platform::deployment::Deployment;
use edgescope_sched::gslb::CandidateTable;
use rand::rngs::StdRng;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The serve crate's tag namespace under the scenario seed. Each
/// endpoint derives its request streams from `TAG ^ endpoint_tag`, so
/// `/query/qoe?seed=1` and `/query/bill?seed=1` never share a stream.
pub const TAG: u64 = 0x5e4e_0000;

/// Everything a request handler may read: the scenario, the studies
/// built at startup, the request-invariant tables derived from them, and
/// nothing mutable except the metric store.
///
/// Handlers never mutate the scenario or studies — the only shared
/// mutable state is the per-endpoint [`MetricSet`] map, which feeds
/// `/metrics` and deliberately carries no wall-clock or worker-count
/// data (response bodies must be byte-identical across deployments).
pub struct ServeState {
    /// The world every query runs against.
    pub scenario: Scenario,
    /// Studies built once at startup; unset fields answer `null`.
    pub studies: Studies,
    /// The synthetic second provider's deployment (`provider=metroedge`),
    /// built once at startup from the same deterministic builder the
    /// `ctn_providers` experiment uses — server and experiment agree on
    /// the world.
    pub metro_edge: Deployment,
    /// `/query/placement`'s candidate table on `scenario.nep`, built
    /// once at startup by [`CandidateTable::gazetteer`] (it depends only
    /// on the deployment, never on the request).
    pub nep_candidates: CandidateTable,
    /// The same for [`ServeState::metro_edge`] (`provider=metroedge`).
    pub metro_candidates: CandidateTable,
    /// `/query/qoe`'s crowd context, one slot per
    /// [`AccessNetwork::ALL`] entry: the latency study's median
    /// nearest-edge RTT over that access network's users, built once at
    /// startup (see [`ServeState::crowd_median`]).
    crowd_medians: [Option<f64>; AccessNetwork::ALL.len()],
    metrics: Mutex<BTreeMap<&'static str, MetricSet>>,
}

impl ServeState {
    /// Wrap a scenario and its pre-built studies, and build what the
    /// handlers would otherwise recompute per request: the placement
    /// candidate tables of both providers and the `qoe` crowd medians.
    pub fn new(scenario: Scenario, studies: Studies) -> Self {
        let metro_edge = contention::metro_edge_deployment(&scenario);
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
            nep_candidates: CandidateTable::gazetteer(&scenario.nep),
            metro_candidates: CandidateTable::gazetteer(&metro_edge),
            crowd_medians,
            scenario,
            studies,
            metro_edge,
            metrics: Mutex::new(BTreeMap::new()),
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

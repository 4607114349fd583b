//! Endpoint handlers: the what-if query vocabulary over the cached
//! studies.
//!
//! Every handler is a pure function of `(state, request)` — the request
//! RNG comes from the client's `seed` parameter through
//! [`ServeState::request_rng`], never from clocks, sockets, or worker
//! identity — so identical requests produce byte-identical bodies at any
//! pool width. Each request runs inside its own [`edgescope_obs`] scope;
//! the merged per-endpoint sets are exported by `/metrics`.

use crate::http::{Request, Response};
use crate::json::Json;
use crate::query::{Choice, Params};
use crate::state::{PlacementKey, ServeState};
use edgescope_analysis::stats::{mean, percentile};
use edgescope_billing::bill::{cloud_network_month, nep_contended_network_month};
use edgescope_billing::tariff::{NetworkModel, Operator};
use edgescope_core::experiments::table6::QOE_DISTANCES_KM;
use edgescope_core::experiments::{registry_for, Needs};
use edgescope_core::scenario::Platform;
use edgescope_net::access::AccessNetwork;
use edgescope_net::path::averaged_rtt_ms;
use edgescope_net::rng::{standard_normal, LogNormalParams};
use edgescope_obs as obs;
use edgescope_platform::contention::{Contention, PRESETS};
use edgescope_platform::deployment::Deployment;
use edgescope_platform::geo_china::{City, CITIES};
use edgescope_qoe::gaming::GamingPipeline;
use edgescope_qoe::link::{LinkProfile, JITTER_CV};
use edgescope_qoe::streaming::StreamingPipeline;
use edgescope_sched::gslb::{CandidateTable, SchedulingPolicy};
use edgescope_sched::requests::DemandModel;
use edgescope_sched::simulate::{simulate_day, SimOutcome};
use edgescope_trace::app::AppCategory;

/// Per-endpoint tags under [`crate::state::TAG`] — one RNG namespace
/// per endpoint, so equal client seeds never alias across endpoints.
const QOE_TAG: u64 = 0x01;
const BILL_TAG: u64 = 0x02;
const PLACEMENT_TAG: u64 = 0x03;

/// QoE samples drawn per pipeline (the paper extracts 50 per test; 25
/// keeps a request comfortably under a millisecond of compute).
const QOE_SAMPLES: usize = 25;

/// Histogram bounds for `serve.response_bytes` (fixed, so merges are
/// deterministic).
const RESPONSE_BYTES_BOUNDS: [f64; 6] = [256.0, 512.0, 1024.0, 2048.0, 4096.0, 8192.0];

/// A handler's body, or the message of its 400.
type HandlerResult = Result<Json, String>;

/// An endpoint handler: the parsed query and the client seed in, a body
/// out.
type Handler = fn(&ServeState, &Params, u32) -> HandlerResult;

/// Every endpoint: its path, its name in `/metrics` and its handler.
const ROUTES: [(&str, &str, Handler); 6] = [
    ("/healthz", "healthz", healthz),
    ("/experiments", "experiments", experiments),
    ("/metrics", "metrics", metrics),
    ("/query/qoe", "qoe", qoe),
    ("/query/bill", "bill", bill),
    ("/query/placement", "placement", placement),
];

/// Route one request to its endpoint. Unknown paths are a structured
/// 404 listing the routing table.
pub fn route(state: &ServeState, req: &Request) -> Response {
    match ROUTES.iter().find(|&&(path, ..)| path == req.path) {
        Some(&(_, endpoint, handler)) => instrumented(state, endpoint, req, handler),
        None => {
            let paths = ROUTES.iter().map(|&(path, ..)| Json::from(path)).collect();
            let body = Json::obj(vec![
                ("error", Json::from(format!("unknown path '{}'", req.path))),
                ("paths", Json::arr(paths)),
            ]);
            Response::json(404, body.render())
        }
    }
}

/// Wrap a handler in query parsing, an `obs` scope, and the standard
/// request counters. Every error is a 400. The scope's metric set is
/// merged into the endpoint's slot after the response is built.
fn instrumented(
    state: &ServeState,
    endpoint: &'static str,
    req: &Request,
    handler: Handler,
) -> Response {
    let (response, set) = obs::scoped(|| {
        obs::counter_inc("serve.requests");
        let outcome =
            Params::parse(&req.query).and_then(|params| handler(state, &params, params.seed()?));
        let response = match outcome {
            Ok(body) => Response::json(200, body.render()),
            Err(message) => {
                obs::counter_inc("serve.errors");
                Response::json(
                    400,
                    Json::obj(vec![("error", Json::from(message))]).render(),
                )
            }
        };
        obs::observe(
            "serve.response_bytes",
            response.body.len() as f64,
            &RESPONSE_BYTES_BOUNDS,
        );
        response
    });
    state.record(endpoint, &set);
    response
}

fn find_city(name: &str) -> Result<&'static City, String> {
    CITIES
        .iter()
        .find(|c| c.name.eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            format!(
                "unknown city '{name}' (the gazetteer covers {} cities)",
                CITIES.len()
            )
        })
}

/// `access`: the four networks under their lower-cased labels, plus
/// `4g` and `fiveg`.
fn access_choices() -> [Choice<AccessNetwork>; 4] {
    AccessNetwork::ALL.map(|access| {
        let aliases: &[&str] = match access {
            AccessNetwork::Lte => &["4g"],
            AccessNetwork::FiveG => &["fiveg"],
            AccessNetwork::Wifi | AccessNetwork::Wired => &[],
        };
        (access, access.label(), aliases)
    })
}

/// `deployment`: the deployment a `qoe` user reaches, one per
/// [`Platform`] under its name.
fn deployment_choices(state: &ServeState) -> [Choice<&Deployment>; 4] {
    Platform::ALL.map(|p| (state.scenario.deployment(p), p.name(), &[][..]))
}

/// `provider`: the edge platform a placement day runs on, with its
/// candidate table.
fn provider_choices(state: &ServeState) -> Vec<Choice<(Platform, &CandidateTable)>> {
    state
        .candidates
        .iter()
        .map(|(p, table)| ((*p, table), p.name(), &[][..]))
        .collect()
}

/// `contention`: the [`PRESETS`] under their names.
fn contention_choices() -> [Choice<Contention>; 3] {
    PRESETS.map(|(name, contention)| (contention, name, &[][..]))
}

/// `app`: the ten categories under their labels.
fn app_choices() -> [Choice<AppCategory>; 10] {
    AppCategory::ALL.map(|app| (app, app.label(), &[][..]))
}

/// `operator`: NEP's two bandwidth operators (Table 5).
const OPERATORS: [Choice<Operator>; 2] = [
    (Operator::Telecom, "telecom", &[]),
    (Operator::Cmcc, "cmcc", &["mobile"]),
];

/// `policy`: the scheduling policies, the two `k`-nearest ones over `k`
/// candidates and the delay-constrained one within `budget_ms`.
fn policy_choices(k: usize, budget_ms: f64) -> [Choice<SchedulingPolicy>; 4] {
    [
        (SchedulingPolicy::NearestSite, "nearest", &[]),
        (
            SchedulingPolicy::RoundRobinNearest(k),
            "round-robin",
            &["round_robin"],
        ),
        (
            SchedulingPolicy::LoadAware(k),
            "load-aware",
            &["load_aware"],
        ),
        (
            SchedulingPolicy::DelayConstrained { budget_ms },
            "delay-constrained",
            &["delay_constrained"],
        ),
    ]
}

/// The `contention` (preset) and `density` (colocation) parameters
/// shared by `/query/qoe` and `/query/bill`. Defaults (`off`, 0.0) are
/// the identity: responses without the parameters are byte-identical to
/// the pre-contention vocabulary's draws.
fn parse_contention(p: &Params) -> Result<(&'static str, Contention, f64), String> {
    let (label, contention) = p.choice("contention", &contention_choices())?;
    let density = p.fraction("density", 0.0)?;
    Ok((label, contention, density))
}

/// `GET /healthz` — liveness plus the world's identity. Deliberately
/// free of worker counts, uptime, and clocks: two replicas of the same
/// `(scale, seed, studies)` answer byte-identically.
fn healthz(state: &ServeState, p: &Params, _seed: u32) -> HandlerResult {
    p.check_allowed(&[])?;
    Ok(Json::obj(vec![
        ("status", Json::from("ok")),
        ("scale", Json::from(state.scenario.scale.name())),
        ("seed", Json::U64(state.scenario.seed)),
        ("studies", needs_json(state.built)),
    ]))
}

/// One flag per shared study: the `studies` a server holds and the
/// `needs` of an experiment.
fn needs_json(needs: Needs) -> Json {
    let Needs {
        latency,
        workload,
        prediction,
        streaming,
    } = needs;
    Json::obj(vec![
        ("latency", Json::Bool(latency)),
        ("workload", Json::Bool(workload)),
        ("prediction", Json::Bool(prediction)),
        ("streaming", Json::Bool(streaming)),
    ])
}

/// `GET /experiments` — the registry as a routing table: every
/// experiment name, its study needs, and whether this server instance
/// could run it with the studies it holds.
fn experiments(state: &ServeState, p: &Params, _seed: u32) -> HandlerResult {
    p.check_allowed(&[])?;
    let rows = registry_for(state.scenario.scale)
        .iter()
        .map(|s| {
            // Ready when every study it needs is built.
            let ready = s.needs.union(state.built) == state.built;
            Json::obj(vec![
                ("name", Json::from(s.name)),
                ("needs", needs_json(s.needs)),
                ("ready", Json::Bool(ready)),
            ])
        })
        .collect();
    Ok(Json::obj(vec![
        ("scale", Json::from(state.scenario.scale.name())),
        ("experiments", Json::arr(rows)),
    ]))
}

/// `GET /metrics` — the per-endpoint metric export. Inherently
/// stateful (it reflects the requests served so far), but a pure
/// function of the request-history multiset: no clocks, no worker ids.
fn metrics(state: &ServeState, p: &Params, _seed: u32) -> HandlerResult {
    p.check_allowed(&[])?;
    Ok(state.metrics_json())
}

/// `GET /query/qoe?city=..&access=..&deployment=..&contention=..&density=..&seed=..`
/// — what QoE does a user in `city` see against `deployment`? Answers
/// with the link profile to the nearest site, cloud-gaming and
/// video-streaming pipeline latencies, and (when the latency study is
/// loaded) the crowd's median nearest-edge RTT on the same access
/// network as context, which [`ServeState::new`] computed at startup.
/// `contention` (off/moderate/heavy) and `density` (colocation, 0–1)
/// degrade the VM-side link through the same model the `ctn_*`
/// experiments use; the defaults are the identity.
fn qoe(state: &ServeState, p: &Params, seed: u32) -> HandlerResult {
    p.check_allowed(&[
        "city",
        "access",
        "deployment",
        "contention",
        "density",
        "seed",
    ])?;
    let city = find_city(p.required("city")?)?;
    let (_, access) = p.choice("access", &access_choices())?;
    let (dep_label, deployment) = p.choice("deployment", &deployment_choices(state))?;
    let (ctn_label, contention, density) = parse_contention(p)?;
    let mut rng = state.request_rng(QOE_TAG, seed);
    obs::counter_inc("serve.qoe_queries");

    let (site_idx, distance_km) = deployment.nearest_sites(city.geo(), 1)[0];
    let link = LinkProfile {
        rtt_ms: averaged_rtt_ms(&mut rng, access, distance_km, deployment.kind),
        jitter_cv: JITTER_CV,
        uplink_mbps: access.sample_uplink_mbps(&mut rng),
        downlink_mbps: access.sample_downlink_mbps(&mut rng),
    }
    .under_contention(
        contention.cpu_steal_factor(density),
        contention.bw_available(density),
    );
    let (gaming_samples, _) = GamingPipeline::paper_default().run(&mut rng, &link, QOE_SAMPLES);
    let (streaming_samples, _) =
        StreamingPipeline::paper_default().run(&mut rng, &link, QOE_SAMPLES);

    Ok(Json::obj(vec![
        ("city", Json::from(city.name)),
        ("province", Json::from(city.province)),
        ("deployment", Json::from(dep_label)),
        ("access", Json::from(access.label())),
        ("seed", Json::U64(seed as u64)),
        (
            "nearest_site",
            Json::obj(vec![
                ("index", Json::U64(site_idx as u64)),
                ("distance_km", Json::F64(distance_km)),
            ]),
        ),
        (
            "link",
            Json::obj(vec![
                ("rtt_ms", Json::F64(link.rtt_ms)),
                ("uplink_mbps", Json::F64(link.uplink_mbps)),
                ("downlink_mbps", Json::F64(link.downlink_mbps)),
            ]),
        ),
        (
            "gaming",
            Json::obj(vec![
                ("mean_ms", Json::F64(mean(&gaming_samples))),
                ("p95_ms", Json::F64(percentile(&gaming_samples, 95.0))),
                ("samples", Json::U64(QOE_SAMPLES as u64)),
            ]),
        ),
        (
            "streaming",
            Json::obj(vec![
                ("mean_ms", Json::F64(mean(&streaming_samples))),
                ("p95_ms", Json::F64(percentile(&streaming_samples, 95.0))),
                ("samples", Json::U64(QOE_SAMPLES as u64)),
            ]),
        ),
        (
            "crowd_median_nearest_edge_rtt_ms",
            state.crowd_median(access).map_or(Json::Null, Json::F64),
        ),
        ("edge_vm_distance_km", Json::F64(QOE_DISTANCES_KM[0].0)),
        (
            "contention",
            Json::obj(vec![
                ("preset", Json::from(ctn_label)),
                ("density", Json::F64(density)),
                (
                    "cpu_steal_factor",
                    Json::F64(contention.cpu_steal_factor(density)),
                ),
                ("bw_available", Json::F64(contention.bw_available(density))),
            ]),
        ),
    ]))
}

/// Largest `peak_mbps` a bill query accepts: 1 Tbps, beyond any one
/// app's traffic at a city, and small enough that every bill in the
/// body stays finite.
const MAX_PEAK_MBPS: f64 = 1e6;

/// Days of synthetic demand the bill handler integrates.
const BILL_DAYS: usize = 30;
/// Sampling interval of the synthetic series (minutes).
const BILL_INTERVAL_MIN: usize = 15;
/// Relative noise of each sample around the app's diurnal level.
const BILL_NOISE_CV: f64 = 0.08;

/// `GET /query/bill?city=..&app=..&peak_mbps=..&operator=..&seed=..` —
/// what would a month of this app's traffic cost at `city` on NEP vs
/// the two virtual clouds under all three network billing models?
/// Synthesizes a 30-day bandwidth series from the app's diurnal profile
/// (peak level `peak_mbps`, log-normal noise from the request RNG) and
/// bills the identical series everywhere. The noise parameters depend
/// only on the time of day, so they are converted once per 15-minute
/// slot and each sample costs one standard normal and one `exp`.
/// `contention` + `density` additionally throttle the series to the
/// colocated fair share and report the NEP bill delta (bandwidth billing
/// shrinks when neighbours eat the NIC — but so does the delivered
/// traffic).
fn bill(state: &ServeState, p: &Params, seed: u32) -> HandlerResult {
    p.check_allowed(&[
        "city",
        "app",
        "peak_mbps",
        "operator",
        "contention",
        "density",
        "seed",
    ])?;
    let city = find_city(p.required("city")?)?;
    let (_, app) = p.choice("app", &app_choices())?;
    let (op_label, operator) = p.choice("operator", &OPERATORS)?;
    let (ctn_label, contention, density) = parse_contention(p)?;
    let peak_mbps = p.positive_f64("peak_mbps", 500.0, MAX_PEAK_MBPS)?;
    let mut rng = state.request_rng(BILL_TAG, seed);
    obs::counter_inc("serve.bill_queries");

    // One log-normal per 15-minute slot of the day; every day draws one
    // standard normal per slot through it.
    let per_day = 24 * 60 / BILL_INTERVAL_MIN;
    let slots: Vec<LogNormalParams> = (0..per_day)
        .map(|slot| {
            let h = (slot * BILL_INTERVAL_MIN) as f64 / 60.0;
            LogNormalParams::from_mean_cv((peak_mbps * app.diurnal(h)).max(1e-6), BILL_NOISE_CV)
        })
        .collect();
    let series: Vec<f64> = (0..BILL_DAYS * per_day)
        .map(|i| slots[i % per_day].transform(standard_normal(&mut rng)))
        .collect();

    // One p95 of the series serves the NEP month, the contended bill's
    // baseline and the charged level; at tariff scale 1.0 the baseline
    // is the NEP month bit for bit.
    let contended = nep_contended_network_month(
        &series,
        BILL_INTERVAL_MIN,
        city.name,
        operator,
        contention.bw_available(density),
        1.0,
    );
    let nep_month = contended.baseline_rmb;
    let mut clouds = Vec::new();
    let mut cheapest_cloud = f64::INFINITY;
    for platform in Platform::ALL {
        let Some(tariff) = platform.tariff() else {
            continue;
        };
        for model in NetworkModel::ALL {
            let cost = cloud_network_month(&tariff, model, &series, BILL_INTERVAL_MIN);
            cheapest_cloud = cheapest_cloud.min(cost);
            clouds.push(Json::obj(vec![
                ("platform", Json::from(platform.name())),
                ("model", Json::from(model.label())),
                ("month_rmb", Json::F64(cost)),
            ]));
        }
    }

    Ok(Json::obj(vec![
        ("city", Json::from(city.name)),
        ("app", Json::from(app.label())),
        ("operator", Json::from(op_label)),
        ("peak_mbps", Json::F64(peak_mbps)),
        ("seed", Json::U64(seed as u64)),
        (
            "p95_daily_peak_mbps",
            Json::F64(contended.baseline_level_mbps),
        ),
        ("nep_month_rmb", Json::F64(nep_month)),
        (
            "contention",
            Json::obj(vec![
                ("preset", Json::from(ctn_label)),
                ("density", Json::F64(density)),
                ("bw_available", Json::F64(contention.bw_available(density))),
                ("nep_contended_rmb", Json::F64(contended.contended_rmb)),
                ("nep_delta_rmb", Json::F64(contended.delta_rmb())),
                (
                    "delivered_fraction",
                    Json::F64(contended.delivered_fraction),
                ),
            ]),
        ),
        ("cloud_months_rmb", Json::arr(clouds)),
        // > 1 ⇒ the cheapest cloud model still costs more than NEP —
        // the Table 3 "edge is cheaper on network" direction.
        (
            "cheapest_cloud_over_nep",
            Json::F64(cheapest_cloud / nep_month.max(1e-9)),
        ),
    ]))
}

/// Largest `total_rps` a placement query accepts: a billion requests per
/// second at the daily peak, beyond any one app's demand, and small
/// enough that every statistic of the simulated day stays finite.
const MAX_TOTAL_RPS: f64 = 1e9;

/// Largest `budget_ms` a placement query accepts: 1 s of extra one-way
/// delay. Every candidate's extra delay is under 55 ms even across
/// China's ~5 000 km (`base_one_way_ms`), so a larger budget admits no
/// further candidate; it would only lengthen the echoed policy label.
const MAX_BUDGET_MS: f64 = 1000.0;

/// `GET /query/placement?policy=..&k=..&budget_ms=..&total_rps=..&app=..&provider=..&seed=..`
/// — run one simulated day of geo-skewed demand against an edge
/// deployment (`provider`: `nep` default, or the synthetic consolidated
/// `metroedge`) under a scheduling policy and report the delay/balance
/// outcome (the `ext_gslb` experiment as an interactive query).
///
/// The day is the only costly step (≈ 2 ms), and its outcome is a pure
/// function of the parsed inputs, so it goes through
/// [`ServeState::placement_day`]: a repeated query, however spelled,
/// costs a lookup. Parsing, validation, the `serve.placement_queries`
/// count and the body render run on every request, hit or miss, so the
/// body and `/metrics` cannot tell the two apart.
fn placement(state: &ServeState, p: &Params, seed: u32) -> HandlerResult {
    p.check_allowed(&[
        "policy",
        "k",
        "budget_ms",
        "total_rps",
        "app",
        "provider",
        "seed",
    ])?;
    let (provider_label, (provider, candidates)) =
        p.choice("provider", &provider_choices(state))?;
    let k = p.positive_usize("k", 8)?;
    let budget_ms = p.positive_f64("budget_ms", 5.0, MAX_BUDGET_MS)?;
    let total_rps = p.positive_f64("total_rps", 120_000.0, MAX_TOTAL_RPS)?;
    let (_, app) = p.choice("app", &app_choices())?;
    let (_, policy) = p.choice("policy", &policy_choices(k, budget_ms))?;
    obs::counter_inc("serve.placement_queries");
    let key = PlacementKey::new(provider, policy, app, total_rps, seed);
    let out = state.placement_day(key, || {
        simulate_placement(state, candidates, app, total_rps, policy, seed)
    });
    Ok(Json::obj(vec![
        ("policy", Json::from(out.policy_label.clone())),
        ("provider", Json::from(provider_label)),
        ("app", Json::from(app.label())),
        ("total_peak_rps", Json::F64(total_rps)),
        ("seed", Json::U64(seed as u64)),
        ("mean_delay_ms", Json::F64(out.mean_delay_ms)),
        ("p95_delay_ms", Json::F64(out.p95_delay_ms)),
        ("load_cv", Json::F64(out.load_cv)),
        ("peak_utilization", Json::F64(out.peak_utilization)),
        ("overload_fraction", Json::F64(out.overload_fraction)),
    ]))
}

/// The simulated day behind `/query/placement`, drawn from the request
/// RNG of `seed`: the step a memo hit skips.
fn simulate_placement(
    state: &ServeState,
    candidates: &CandidateTable,
    app: AppCategory,
    total_rps: f64,
    policy: SchedulingPolicy,
    seed: u32,
) -> SimOutcome {
    let mut rng = state.request_rng(PLACEMENT_TAG, seed);
    let demand = DemandModel::new(&mut rng, app, total_rps);
    simulate_day(&mut rng, candidates, &demand, policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgescope_core::experiments::Studies;
    use edgescope_core::scenario::{Scale, Scenario};

    /// Check one choice table and return its canonical names as the
    /// error lists them: every spelling of a row, as listed or upper-cased,
    /// parses to that row's canonical name; no spelling names two rows;
    /// an absent parameter is the first row; an unknown value's error
    /// lists the canonical names in table order.
    fn check_table<T: Copy>(name: &str, table: &[Choice<T>]) -> Vec<String> {
        let mut seen: Vec<String> = Vec::new();
        for &(_, canonical, aliases) in table {
            for spelling in std::iter::once(canonical).chain(aliases.iter().copied()) {
                for sent in [spelling.to_string(), spelling.to_ascii_uppercase()] {
                    let p = Params::parse(&format!("{name}={sent}")).unwrap();
                    let parsed = p.choice(name, table).map(|(c, _)| c);
                    assert_eq!(parsed, Ok(canonical), "{name}={sent}");
                }
                let lower = spelling.to_ascii_lowercase();
                assert!(!seen.contains(&lower), "{name}: {spelling} names two rows");
                seen.push(lower);
            }
        }
        let absent = Params::default().choice(name, table).map(|(c, _)| c);
        assert_eq!(absent, Ok(table[0].1), "{name} absent");
        let canonical: Vec<String> = table
            .iter()
            .map(|&(_, c, _)| c.to_ascii_lowercase())
            .collect();
        let unknown = Params::parse(&format!("{name}=No-Such")).unwrap();
        assert_eq!(
            unknown.choice(name, table).map(|(c, _)| c),
            Err(format!(
                "unknown {name} 'no-such'; valid: {}",
                canonical.join(", ")
            ))
        );
        canonical
    }

    #[test]
    fn every_choice_table_round_trips() {
        let state = ServeState::new(Scenario::new(Scale::Quick, 7), Studies::none());
        assert_eq!(
            check_table("access", &access_choices()),
            ["wifi", "lte", "5g", "wired"]
        );
        assert_eq!(access_choices().map(|(a, ..)| a), AccessNetwork::ALL);
        assert_eq!(
            check_table("deployment", &deployment_choices(&state)),
            ["nep", "metroedge", "alicloud", "huawei"]
        );
        assert_eq!(
            check_table("contention", &contention_choices()),
            ["off", "moderate", "heavy"]
        );
        let apps = check_table("app", &app_choices());
        assert_eq!(apps, AppCategory::ALL.map(|a| a.label()));
        assert_eq!(app_choices().map(|(a, ..)| a), AppCategory::ALL);
        assert_eq!(check_table("operator", &OPERATORS), ["telecom", "cmcc"]);
        assert_eq!(
            check_table("provider", &provider_choices(&state)),
            ["nep", "metroedge"]
        );
        assert_eq!(
            check_table("policy", &policy_choices(8, 5.0)),
            ["nearest", "round-robin", "load-aware", "delay-constrained"]
        );
    }

    /// Every platform's name parses back through the `deployment` table
    /// and, for an edge platform, the `provider` table; no two platforms
    /// share a name; and [`Platform::ALL`]'s order is the order of both
    /// `valid:` lists and of the `ctn_providers` artefacts.
    #[test]
    fn every_platform_name_round_trips() {
        let state = ServeState::new(Scenario::new(Scale::Quick, 7), Studies::none());
        let names = Platform::ALL.map(Platform::name);
        for (i, platform) in Platform::ALL.into_iter().enumerate() {
            let name = platform.name();
            assert!(
                !names[i + 1..].contains(&name),
                "{name} names two platforms"
            );
            let p = Params::parse(&format!("deployment={name}&provider={name}")).unwrap();
            let (parsed, dep) = p.choice("deployment", &deployment_choices(&state)).unwrap();
            assert_eq!(parsed, name);
            assert!(std::ptr::eq(dep, state.scenario.deployment(platform)));
            let provider = p.choice("provider", &provider_choices(&state));
            match platform.profile() {
                Some(_) => assert_eq!(provider.map(|(n, (p, _))| (n, p)), Ok((name, platform))),
                None => assert!(provider.is_err(), "{name} is no edge provider"),
            }
        }
        let edge: Vec<&str> = Platform::ALL
            .into_iter()
            .filter(|p| p.profile().is_some())
            .map(Platform::name)
            .collect();
        let unknown = Params::parse("deployment=azure&provider=azure").unwrap();
        assert_eq!(
            unknown
                .choice("deployment", &deployment_choices(&state))
                .map(|(n, _)| n),
            Err(format!(
                "unknown deployment 'azure'; valid: {}",
                names.join(", ")
            ))
        );
        assert_eq!(
            unknown
                .choice("provider", &provider_choices(&state))
                .map(|(n, _)| n),
            Err(format!(
                "unknown provider 'azure'; valid: {}",
                edge.join(", ")
            ))
        );
        let report = edgescope_core::experiments::contention::run_providers(&state.scenario);
        let compared: Vec<&str> = report
            .csv
            .iter()
            .map(|(file, _)| file.strip_suffix("_nearest_rtt_cdf").unwrap())
            .collect();
        let in_table_order: Vec<&str> =
            names.into_iter().filter(|n| compared.contains(n)).collect();
        assert_eq!(compared, in_table_order);
        assert_eq!(compared, ["nep", "metroedge", "alicloud"]);
    }

    /// A memo hit skips the simulated day, so the day must record no
    /// metric: one recorded inside it would vanish from `/metrics` on
    /// every hit.
    #[test]
    fn the_simulated_day_records_no_metric() {
        let state = ServeState::new(Scenario::new(Scale::Quick, 7), Studies::none());
        for (_, candidates) in &state.candidates {
            for policy in [
                SchedulingPolicy::NearestSite,
                SchedulingPolicy::RoundRobinNearest(8),
                SchedulingPolicy::LoadAware(8),
                SchedulingPolicy::DelayConstrained { budget_ms: 5.0 },
            ] {
                let (_, set) = obs::scoped(|| {
                    simulate_placement(
                        &state,
                        candidates,
                        AppCategory::LiveStreaming,
                        120_000.0,
                        policy,
                        1,
                    )
                });
                assert!(set.is_empty(), "{policy:?} recorded {set:?}");
            }
        }
    }
}

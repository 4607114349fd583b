//! End-to-end determinism and error-handling tests for the serve layer.
//!
//! The contract under test (ISSUE 9): identical `(path, query, seed)`
//! requests return **byte-identical** bodies — same request twice,
//! under concurrent load from many client threads, and across servers
//! with different worker-pool widths — and malformed requests return
//! structured JSON 4xx errors, never a panic.

use edgescope_analysis::stats::median;
use edgescope_core::experiments::latency_study::LatencyStudy;
use edgescope_core::experiments::Studies;
use edgescope_core::scenario::{Scale, Scenario};
use edgescope_net::access::AccessNetwork;
use edgescope_serve::http::{Server, IO_TIMEOUT};
use edgescope_serve::json::Json;
use edgescope_serve::state::{ServeState, PLACEMENT_MEMO_CAPACITY};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

/// One shared world for every test server (studies deliberately empty:
/// handlers must answer with `null` context, not panic).
fn state() -> Arc<ServeState> {
    Arc::new(ServeState::new(
        Scenario::new(Scale::Quick, 7),
        Studies::none(),
    ))
}

/// The same world with the crowd latency study built (one job), shared
/// by every test that needs the `qoe` crowd-context branch.
fn state_with_latency() -> Arc<ServeState> {
    static STATE: OnceLock<Arc<ServeState>> = OnceLock::new();
    Arc::clone(STATE.get_or_init(|| {
        let scenario = Scenario::new(Scale::Quick, 7);
        let studies = Studies {
            latency: Some(LatencyStudy::run(&scenario, 1)),
            ..Studies::none()
        };
        Arc::new(ServeState::new(scenario, studies))
    }))
}

fn spawn(workers: usize, state: Arc<ServeState>) -> SocketAddr {
    Server::bind("127.0.0.1:0", workers, state)
        .unwrap()
        .spawn()
        .unwrap()
}

/// Minimal HTTP client: one GET, returns (status, body).
fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    (status, body.to_string())
}

fn raw_request(addr: SocketAddr, request: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    (status, body.to_string())
}

const QUERIES: [&str; 4] = [
    "/query/qoe?city=Shanghai&access=wifi&deployment=nep&seed=11",
    "/query/qoe?city=Chengdu&access=5g&deployment=alicloud&seed=3",
    "/query/bill?city=Guangzhou&app=live-streaming&peak_mbps=800&operator=cmcc&seed=5",
    "/query/placement?policy=delay-constrained&budget_ms=5&seed=2",
];

#[test]
fn same_request_twice_is_byte_identical() {
    let addr = spawn(2, state());
    for q in QUERIES {
        let (s1, b1) = get(addr, q);
        let (s2, b2) = get(addr, q);
        assert_eq!(s1, 200, "{q}: {b1}");
        assert_eq!(s2, 200);
        assert_eq!(b1, b2, "{q} not byte-identical across repeats");
    }
}

#[test]
fn byte_identical_across_worker_counts() {
    // Two servers over the SAME world, one single-threaded, one wide:
    // the pool width must be invisible in every body.
    let st = state();
    let addr1 = spawn(1, Arc::clone(&st));
    let addr4 = spawn(4, st);
    for q in QUERIES {
        let (_, b1) = get(addr1, q);
        let (_, b4) = get(addr4, q);
        assert_eq!(b1, b4, "{q} differs between 1-worker and 4-worker servers");
    }
    let (_, h1) = get(addr1, "/healthz");
    let (_, h4) = get(addr4, "/healthz");
    assert_eq!(h1, h4, "/healthz must not leak worker count");
}

#[test]
fn byte_identical_under_concurrent_load() {
    let addr = spawn(4, state());
    let mut baselines = Vec::new();
    for q in QUERIES {
        baselines.push(get(addr, q).1);
    }
    // 16 client threads hammer all endpoints at once, interleaving
    // requests with *different* seeds between the probed ones.
    let handles: Vec<_> = (0..16)
        .map(|i| {
            thread::spawn(move || {
                let q = QUERIES[i % QUERIES.len()];
                let noise = format!("/query/qoe?city=Beijing&seed={}", 100 + i);
                let (_, _) = get(addr, &noise);
                let (status, body) = get(addr, q);
                (q, status, body)
            })
        })
        .collect();
    for h in handles {
        let (q, status, body) = h.join().unwrap();
        assert_eq!(status, 200);
        let idx = QUERIES.iter().position(|x| *x == q).unwrap();
        assert_eq!(body, baselines[idx], "{q} changed under concurrent load");
    }
    // And again after the burst: still the same bytes.
    for (q, baseline) in QUERIES.iter().zip(&baselines) {
        assert_eq!(&get(addr, q).1, baseline, "{q} changed after load");
    }
}

#[test]
fn different_seeds_differ() {
    // Sanity check that the seed actually feeds the RNG — otherwise the
    // identity tests above would pass vacuously.
    let addr = spawn(2, state());
    let (_, a) = get(addr, "/query/qoe?city=Shanghai&seed=1");
    let (_, b) = get(addr, "/query/qoe?city=Shanghai&seed=2");
    assert_ne!(a, b, "distinct seeds must produce distinct draws");
}

#[test]
fn unknown_inputs_are_structured_4xx() {
    let addr = spawn(2, state());
    let cases = [
        ("/query/qoe?city=Atlantis", 400),
        ("/query/qoe", 400),                               // missing city
        ("/query/qoe?city=Shanghai&access=6g", 400),       // unknown access
        ("/query/qoe?city=Shanghai&deployment=aws", 400),  // unknown deployment
        ("/query/qoe?city=Shanghai&seed=4294967296", 400), // u32 overflow
        ("/query/qoe?city=Shanghai&flavor=spicy", 400),    // unknown param
        ("/query/bill?city=Shanghai&peak_mbps=NaN", 400),  // NaN at the boundary
        ("/query/bill?city=Shanghai&peak_mbps=-3", 400),
        ("/query/bill?city=Shanghai&app=mining", 400), // unknown app
        ("/query/placement?policy=teleport", 400),     // unknown policy
        ("/query/placement?k=0", 400),
        ("/query/placement?provider=aws", 400), // unknown provider
        ("/query/qoe?city=Shanghai&contention=extreme", 400), // unknown preset
        ("/query/qoe?city=Shanghai&density=1.5", 400), // density out of range
        ("/query/bill?city=Shanghai&density=NaN", 400), // NaN density
        ("/nope", 404),
    ];
    for (target, expect) in cases {
        let (status, body) = get(addr, target);
        assert_eq!(status, expect, "{target}: {body}");
        assert!(
            body.starts_with('{') && body.contains("\"error\""),
            "{target}: {body}"
        );
    }
    // Non-GET methods are a 405, also structured.
    let (status, body) = raw_request(
        addr,
        "POST /query/qoe HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 405, "{body}");
    assert!(body.contains("\"error\""));
}

/// `peak_mbps` and `total_rps` stop at a physical ceiling: a query at
/// the ceiling answers with every field finite (no `null`), and one
/// above it is a 400 naming the accepted range. At the floor, the
/// smallest positive `total_rps` routes no request, its delays are +0,
/// not -0, and it echoes in scientific notation: a 201-byte body, not
/// one with a 326-character decimal.
#[test]
fn numeric_parameters_stop_at_their_ceiling() {
    let addr = spawn(2, state());
    for target in [
        "/query/bill?city=Shanghai&peak_mbps=1e6&seed=3",
        "/query/bill?city=Beijing&app=cloud-gaming&operator=cmcc&contention=heavy&density=1&peak_mbps=1000000",
        "/query/placement?total_rps=1e9&seed=3",
        "/query/placement?policy=load-aware&provider=metroedge&app=database&total_rps=1000000000",
    ] {
        let (status, body) = get(addr, target);
        assert_eq!(status, 200, "{target}: {body}");
        assert!(!body.contains("null"), "{target}: {body}");
    }
    for (target, want) in [
        (
            "/query/bill?city=Shanghai&peak_mbps=1e300",
            r#"{"error":"peak_mbps '1e300' must be in (0, 1000000]"}"#,
        ),
        (
            "/query/bill?city=Shanghai&peak_mbps=1000000.5",
            r#"{"error":"peak_mbps '1000000.5' must be in (0, 1000000]"}"#,
        ),
        (
            "/query/placement?total_rps=1e200",
            r#"{"error":"total_rps '1e200' must be in (0, 1000000000]"}"#,
        ),
    ] {
        assert_eq!(get(addr, target), (400, want.to_string()), "{target}");
    }
    let want = r#"{"policy":"nearest-site (status quo)","provider":"nep","app":"live-streaming","total_peak_rps":5e-324,"seed":3,"mean_delay_ms":0,"p95_delay_ms":0,"load_cv":0,"peak_utilization":0,"overload_fraction":0}"#;
    assert_eq!(
        get(addr, "/query/placement?total_rps=5e-324&seed=3"),
        (200, want.to_string())
    );
}

/// `budget_ms` stops at 1000 ms, beyond every candidate's extra one-way
/// delay: a budget at the ceiling places like any budget that admits
/// every candidate (only the echoed label differs), and one above it is
/// a 400 naming the accepted range. At the other end a budget below
/// 1 µs echoes in scientific notation, so the label stays short however
/// small the accepted value, and places like 1 µs.
#[test]
fn budget_stops_at_its_ceiling() {
    let addr = spawn(2, state());
    let answer = |budget: &str| {
        let target = format!("/query/placement?policy=delay-constrained&budget_ms={budget}&seed=3");
        let (status, body) = get(addr, &target);
        assert_eq!(status, 200, "{target}: {body}");
        let (label, rest) = body
            .split_once(",\"provider\"")
            .expect("policy comes first");
        (label.to_string(), rest.to_string())
    };
    let (label, at_ceiling) = answer("1000");
    assert_eq!(
        label,
        r#"{"policy":"delay-constrained load-aware (+1000 ms)""#
    );
    assert_eq!(at_ceiling, answer("100").1);
    let (label, tiny) = answer("1e-300");
    assert_eq!(
        label,
        r#"{"policy":"delay-constrained load-aware (+1e-300 ms)""#
    );
    let (label, small) = answer("0.001");
    assert_eq!(
        label,
        r#"{"policy":"delay-constrained load-aware (+0.001 ms)""#
    );
    assert_eq!(tiny, small);
    assert_eq!(
        answer("0.0001").0,
        r#"{"policy":"delay-constrained load-aware (+1e-4 ms)""#
    );
    for (target, want) in [
        (
            "/query/placement?policy=delay-constrained&budget_ms=1e300",
            r#"{"error":"budget_ms '1e300' must be in (0, 1000]"}"#,
        ),
        (
            "/query/placement?policy=delay-constrained&budget_ms=1000.5",
            r#"{"error":"budget_ms '1000.5' must be in (0, 1000]"}"#,
        ),
    ] {
        assert_eq!(get(addr, target), (400, want.to_string()), "{target}");
    }
}

/// Exact 4xx bodies: every choice parameter's unknown value (sent in
/// mixed case), the first error of a request with several bad
/// parameters (parameters are read in a fixed order, after the
/// parameter names and the seed), and the 404's routing table.
const ERROR_BODIES: [(&str, u16, &str); 21] = [
    (
        "/query/qoe?city=Shanghai&access=6G",
        400,
        r#"{"error":"unknown access '6g'; valid: wifi, lte, 5g, wired"}"#,
    ),
    (
        "/query/qoe?city=Shanghai&deployment=AWS",
        400,
        r#"{"error":"unknown deployment 'aws'; valid: nep, metroedge, alicloud, huawei"}"#,
    ),
    (
        "/query/qoe?city=Shanghai&contention=Extreme",
        400,
        r#"{"error":"unknown contention 'extreme'; valid: off, moderate, heavy"}"#,
    ),
    (
        "/query/bill?city=Shanghai&app=Mining",
        400,
        r#"{"error":"unknown app 'mining'; valid: live-streaming, online-education, content-delivery, video-conference, video-surveillance, cloud-gaming, web-service, dev-test, batch-compute, database"}"#,
    ),
    (
        "/query/bill?city=Shanghai&operator=Unicom",
        400,
        r#"{"error":"unknown operator 'unicom'; valid: telecom, cmcc"}"#,
    ),
    (
        "/query/placement?provider=AWS",
        400,
        r#"{"error":"unknown provider 'aws'; valid: nep, metroedge"}"#,
    ),
    (
        "/query/placement?policy=Teleport",
        400,
        r#"{"error":"unknown policy 'teleport'; valid: nearest, round-robin, load-aware, delay-constrained"}"#,
    ),
    (
        "/query/qoe?flavor=spicy&city=Atlantis&seed=abc",
        400,
        r#"{"error":"seed 'abc' must be an unsigned 32-bit integer"}"#,
    ),
    (
        "/query/qoe?flavor=spicy&city=Atlantis&access=6g",
        400,
        r#"{"error":"unknown parameter 'flavor'; allowed parameters: city, access, deployment, contention, density, seed"}"#,
    ),
    (
        "/query/qoe?access=6g&deployment=aws",
        400,
        r#"{"error":"missing required parameter 'city'"}"#,
    ),
    (
        "/query/qoe?city=Atlantis&access=6g",
        400,
        r#"{"error":"unknown city 'Atlantis' (the gazetteer covers 137 cities)"}"#,
    ),
    (
        "/query/qoe?city=Shanghai&access=6g&deployment=aws&contention=x",
        400,
        r#"{"error":"unknown access '6g'; valid: wifi, lte, 5g, wired"}"#,
    ),
    (
        "/query/qoe?city=Shanghai&deployment=aws&contention=x",
        400,
        r#"{"error":"unknown deployment 'aws'; valid: nep, metroedge, alicloud, huawei"}"#,
    ),
    (
        "/query/qoe?city=Shanghai&contention=x&density=2",
        400,
        r#"{"error":"unknown contention 'x'; valid: off, moderate, heavy"}"#,
    ),
    (
        "/query/bill?city=Shanghai&app=x&operator=y&contention=z&peak_mbps=-1",
        400,
        r#"{"error":"unknown app 'x'; valid: live-streaming, online-education, content-delivery, video-conference, video-surveillance, cloud-gaming, web-service, dev-test, batch-compute, database"}"#,
    ),
    (
        "/query/bill?city=Shanghai&operator=y&contention=z&peak_mbps=-1",
        400,
        r#"{"error":"unknown operator 'y'; valid: telecom, cmcc"}"#,
    ),
    (
        "/query/bill?city=Shanghai&contention=z&peak_mbps=-1",
        400,
        r#"{"error":"unknown contention 'z'; valid: off, moderate, heavy"}"#,
    ),
    (
        "/query/placement?provider=x&k=0&app=y&policy=z",
        400,
        r#"{"error":"unknown provider 'x'; valid: nep, metroedge"}"#,
    ),
    (
        "/query/placement?k=0&app=y&policy=z",
        400,
        r#"{"error":"k must be >= 1"}"#,
    ),
    (
        "/query/placement?app=y&policy=z",
        400,
        r#"{"error":"unknown app 'y'; valid: live-streaming, online-education, content-delivery, video-conference, video-surveillance, cloud-gaming, web-service, dev-test, batch-compute, database"}"#,
    ),
    (
        "/query/nope?city=Shanghai",
        404,
        r#"{"error":"unknown path '/query/nope'","paths":["/healthz","/experiments","/metrics","/query/qoe","/query/bill","/query/placement"]}"#,
    ),
];

#[test]
fn error_bodies_are_pinned() {
    let addr = spawn(2, state());
    let mut observed = String::new();
    let mut mismatches = 0;
    for (target, want_status, want) in ERROR_BODIES {
        let (status, body) = get(addr, target);
        observed.push_str(&format!(
            "    (\n        {target:?},\n        {status},\n        r#\"{body}\"#,\n    ),\n"
        ));
        if (status, body.as_str()) != (want_status, want) {
            mismatches += 1;
        }
    }
    assert_eq!(mismatches, 0, "error bodies drifted; observed:\n{observed}");
}

/// Spellings other than the canonical name that each choice parameter
/// accepts: any case, plus the aliases `4g`, `fiveg`, `mobile` and the
/// underscore forms of the policies. Each answers like its canonical
/// spelling.
const SPELLINGS: [(&str, &str); 12] = [
    (
        "/query/qoe?city=Shanghai&access=4G&seed=3",
        "/query/qoe?city=Shanghai&access=lte&seed=3",
    ),
    (
        "/query/qoe?city=Shanghai&access=FiveG&seed=3",
        "/query/qoe?city=Shanghai&access=5g&seed=3",
    ),
    (
        "/query/qoe?city=Shanghai&access=WiFi&seed=3",
        "/query/qoe?city=Shanghai&access=wifi&seed=3",
    ),
    (
        "/query/qoe?city=Shanghai&deployment=AliCloud&seed=3",
        "/query/qoe?city=Shanghai&deployment=alicloud&seed=3",
    ),
    (
        "/query/qoe?city=Shanghai&contention=Heavy&density=0.5&seed=3",
        "/query/qoe?city=Shanghai&contention=heavy&density=0.5&seed=3",
    ),
    (
        "/query/bill?city=Wuhan&operator=Mobile&seed=6",
        "/query/bill?city=Wuhan&operator=cmcc&seed=6",
    ),
    (
        "/query/bill?city=Wuhan&app=Web-Service&seed=6",
        "/query/bill?city=Wuhan&app=web-service&seed=6",
    ),
    (
        "/query/placement?policy=Round_Robin&seed=4",
        "/query/placement?policy=round-robin&seed=4",
    ),
    (
        "/query/placement?policy=delay_constrained&seed=4",
        "/query/placement?policy=delay-constrained&seed=4",
    ),
    (
        "/query/placement?policy=NEAREST&seed=4",
        "/query/placement?policy=nearest&seed=4",
    ),
    (
        "/query/placement?provider=MetroEdge&seed=4",
        "/query/placement?provider=metroedge&seed=4",
    ),
    (
        "/query/placement?app=Cloud-Gaming&seed=4",
        "/query/placement?app=cloud-gaming&seed=4",
    ),
];

#[test]
fn choice_spellings_answer_like_the_canonical_name() {
    let addr = spawn(2, state());
    for (spelled, canonical) in SPELLINGS {
        let (status, body) = get(addr, spelled);
        assert_eq!(status, 200, "{spelled}: {body}");
        assert_eq!(body, get(addr, canonical).1, "{spelled}");
    }
}

#[test]
fn health_experiments_and_metrics_answer() {
    let addr = spawn(2, state());
    let (status, health) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(health.contains("\"status\":\"ok\""), "{health}");
    assert!(health.contains("\"scale\":\"quick\""), "{health}");
    assert!(health.contains("\"latency\":false"), "{health}");

    let (status, experiments) = get(addr, "/experiments");
    assert_eq!(status, 200);
    assert!(experiments.contains("\"name\":\"fig2a\""), "{experiments}");
    // fig2a needs the latency study, which this server did not build.
    assert!(
        experiments
            .contains("{\"name\":\"fig2a\",\"needs\":{\"latency\":true,\"workload\":false,\"prediction\":false,\"streaming\":false},\"ready\":false}"),
        "{experiments}"
    );

    // Serve a couple of queries, then check they are accounted for.
    let _ = get(addr, "/query/qoe?city=Shanghai&seed=1");
    let _ = get(addr, "/query/qoe?city=Wuhan&seed=9");
    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("\"schema\":\"edgescope-serve-metrics/1\""),
        "{metrics}"
    );
    assert!(metrics.contains("\"endpoint\":\"qoe\""), "{metrics}");
    assert!(metrics.contains("serve.requests"), "{metrics}");
    assert!(metrics.contains("serve.response_bytes"), "{metrics}");
}

/// `/healthz` and `/experiments` in full, for a server without studies
/// and one with the latency study: the `studies` flags, each
/// experiment's `needs` and its `ready` verdict.
const STUDY_BODIES: [(&str, bool, &str); 4] = [
    (
        "/healthz",
        false,
        r#"{"status":"ok","scale":"quick","seed":7,"studies":{"latency":false,"workload":false,"prediction":false,"streaming":false}}"#,
    ),
    (
        "/healthz",
        true,
        r#"{"status":"ok","scale":"quick","seed":7,"studies":{"latency":true,"workload":false,"prediction":false,"streaming":false}}"#,
    ),
    (
        "/experiments",
        false,
        r#"{"scale":"quick","experiments":[{"name":"table1","needs":{"latency":false,"workload":false,"prediction":false,"streaming":false},"ready":true},{"name":"fig2a","needs":{"latency":true,"workload":false,"prediction":false,"streaming":false},"ready":false},{"name":"fig2b","needs":{"latency":true,"workload":false,"prediction":false,"streaming":false},"ready":false},{"name":"table2","needs":{"latency":true,"workload":false,"prediction":false,"streaming":false},"ready":false},{"name":"fig3","needs":{"latency":true,"workload":false,"prediction":false,"streaming":false},"ready":false},{"name":"fig4","needs":{"latency":false,"workload":false,"prediction":false,"streaming":false},"ready":true},{"name":"fig5","needs":{"latency":false,"workload":false,"prediction":false,"streaming":false},"ready":true},{"name":"fig6","needs":{"latency":false,"workload":false,"prediction":false,"streaming":false},"ready":true},{"name":"fig7","needs":{"latency":false,"workload":false,"prediction":false,"streaming":false},"ready":true},{"name":"table6","needs":{"latency":false,"workload":false,"prediction":false,"streaming":false},"ready":true},{"name":"fig8","needs":{"latency":false,"workload":true,"prediction":false,"streaming":false},"ready":false},{"name":"fig9","needs":{"latency":false,"workload":true,"prediction":false,"streaming":false},"ready":false},{"name":"sales","needs":{"latency":false,"workload":true,"prediction":false,"streaming":false},"ready":false},{"name":"fig10","needs":{"latency":false,"workload":true,"prediction":false,"streaming":false},"ready":false},{"name":"fig11","needs":{"latency":false,"workload":true,"prediction":false,"streaming":false},"ready":false},{"name":"fig12","needs":{"latency":false,"workload":true,"prediction":false,"streaming":false},"ready":false},{"name":"fig13","needs":{"latency":false,"workload":true,"prediction":false,"streaming":false},"ready":false},{"name":"fig14","needs":{"latency":false,"workload":false,"prediction":true,"streaming":false},"ready":false},{"name":"table3","needs":{"latency":false,"workload":true,"prediction":false,"streaming":false},"ready":false},{"name":"table4","needs":{"latency":false,"workload":false,"prediction":false,"streaming":false},"ready":true},{"name":"table5","needs":{"latency":false,"workload":false,"prediction":false,"streaming":false},"ready":true},{"name":"ext_gslb","needs":{"latency":false,"workload":false,"prediction":false,"streaming":false},"ready":true},{"name":"ext_migration","needs":{"latency":false,"workload":true,"prediction":false,"streaming":false},"ready":false},{"name":"ext_elastic","needs":{"latency":false,"workload":false,"prediction":false,"streaming":false},"ready":true},{"name":"ext_predictive","needs":{"latency":false,"workload":false,"prediction":true,"streaming":false},"ready":false},{"name":"ext_predictors","needs":{"latency":false,"workload":false,"prediction":true,"streaming":false},"ready":false},{"name":"ext_fragmentation","needs":{"latency":false,"workload":false,"prediction":false,"streaming":false},"ready":true},{"name":"ext_billing","needs":{"latency":false,"workload":true,"prediction":false,"streaming":false},"ready":false},{"name":"ext_framesim","needs":{"latency":false,"workload":false,"prediction":false,"streaming":false},"ready":true},{"name":"ctn_qoe_density","needs":{"latency":false,"workload":false,"prediction":false,"streaming":false},"ready":true},{"name":"ctn_placement","needs":{"latency":false,"workload":false,"prediction":false,"streaming":false},"ready":true},{"name":"ctn_providers","needs":{"latency":false,"workload":false,"prediction":false,"streaming":false},"ready":true},{"name":"dyn_outage_qoe","needs":{"latency":false,"workload":false,"prediction":false,"streaming":false},"ready":true},{"name":"dyn_flashcrowd_admission","needs":{"latency":false,"workload":false,"prediction":false,"streaming":false},"ready":true},{"name":"dyn_drain_migration","needs":{"latency":false,"workload":false,"prediction":false,"streaming":false},"ready":true},{"name":"dyn_mobility_rtt","needs":{"latency":false,"workload":false,"prediction":false,"streaming":false},"ready":true},{"name":"metro_latency","needs":{"latency":false,"workload":false,"prediction":false,"streaming":true},"ready":false},{"name":"metro_intersite","needs":{"latency":false,"workload":false,"prediction":false,"streaming":true},"ready":false},{"name":"metro_workload","needs":{"latency":false,"workload":false,"prediction":false,"streaming":true},"ready":false}]}"#,
    ),
    (
        "/experiments",
        true,
        r#"{"scale":"quick","experiments":[{"name":"table1","needs":{"latency":false,"workload":false,"prediction":false,"streaming":false},"ready":true},{"name":"fig2a","needs":{"latency":true,"workload":false,"prediction":false,"streaming":false},"ready":true},{"name":"fig2b","needs":{"latency":true,"workload":false,"prediction":false,"streaming":false},"ready":true},{"name":"table2","needs":{"latency":true,"workload":false,"prediction":false,"streaming":false},"ready":true},{"name":"fig3","needs":{"latency":true,"workload":false,"prediction":false,"streaming":false},"ready":true},{"name":"fig4","needs":{"latency":false,"workload":false,"prediction":false,"streaming":false},"ready":true},{"name":"fig5","needs":{"latency":false,"workload":false,"prediction":false,"streaming":false},"ready":true},{"name":"fig6","needs":{"latency":false,"workload":false,"prediction":false,"streaming":false},"ready":true},{"name":"fig7","needs":{"latency":false,"workload":false,"prediction":false,"streaming":false},"ready":true},{"name":"table6","needs":{"latency":false,"workload":false,"prediction":false,"streaming":false},"ready":true},{"name":"fig8","needs":{"latency":false,"workload":true,"prediction":false,"streaming":false},"ready":false},{"name":"fig9","needs":{"latency":false,"workload":true,"prediction":false,"streaming":false},"ready":false},{"name":"sales","needs":{"latency":false,"workload":true,"prediction":false,"streaming":false},"ready":false},{"name":"fig10","needs":{"latency":false,"workload":true,"prediction":false,"streaming":false},"ready":false},{"name":"fig11","needs":{"latency":false,"workload":true,"prediction":false,"streaming":false},"ready":false},{"name":"fig12","needs":{"latency":false,"workload":true,"prediction":false,"streaming":false},"ready":false},{"name":"fig13","needs":{"latency":false,"workload":true,"prediction":false,"streaming":false},"ready":false},{"name":"fig14","needs":{"latency":false,"workload":false,"prediction":true,"streaming":false},"ready":false},{"name":"table3","needs":{"latency":false,"workload":true,"prediction":false,"streaming":false},"ready":false},{"name":"table4","needs":{"latency":false,"workload":false,"prediction":false,"streaming":false},"ready":true},{"name":"table5","needs":{"latency":false,"workload":false,"prediction":false,"streaming":false},"ready":true},{"name":"ext_gslb","needs":{"latency":false,"workload":false,"prediction":false,"streaming":false},"ready":true},{"name":"ext_migration","needs":{"latency":false,"workload":true,"prediction":false,"streaming":false},"ready":false},{"name":"ext_elastic","needs":{"latency":false,"workload":false,"prediction":false,"streaming":false},"ready":true},{"name":"ext_predictive","needs":{"latency":false,"workload":false,"prediction":true,"streaming":false},"ready":false},{"name":"ext_predictors","needs":{"latency":false,"workload":false,"prediction":true,"streaming":false},"ready":false},{"name":"ext_fragmentation","needs":{"latency":false,"workload":false,"prediction":false,"streaming":false},"ready":true},{"name":"ext_billing","needs":{"latency":false,"workload":true,"prediction":false,"streaming":false},"ready":false},{"name":"ext_framesim","needs":{"latency":false,"workload":false,"prediction":false,"streaming":false},"ready":true},{"name":"ctn_qoe_density","needs":{"latency":false,"workload":false,"prediction":false,"streaming":false},"ready":true},{"name":"ctn_placement","needs":{"latency":false,"workload":false,"prediction":false,"streaming":false},"ready":true},{"name":"ctn_providers","needs":{"latency":false,"workload":false,"prediction":false,"streaming":false},"ready":true},{"name":"dyn_outage_qoe","needs":{"latency":false,"workload":false,"prediction":false,"streaming":false},"ready":true},{"name":"dyn_flashcrowd_admission","needs":{"latency":false,"workload":false,"prediction":false,"streaming":false},"ready":true},{"name":"dyn_drain_migration","needs":{"latency":false,"workload":false,"prediction":false,"streaming":false},"ready":true},{"name":"dyn_mobility_rtt","needs":{"latency":false,"workload":false,"prediction":false,"streaming":false},"ready":true},{"name":"metro_latency","needs":{"latency":false,"workload":false,"prediction":false,"streaming":true},"ready":false},{"name":"metro_intersite","needs":{"latency":false,"workload":false,"prediction":false,"streaming":true},"ready":false},{"name":"metro_workload","needs":{"latency":false,"workload":false,"prediction":false,"streaming":true},"ready":false}]}"#,
    ),
];

#[test]
fn study_bodies_are_pinned() {
    let (plain, with_latency) = (spawn(2, state()), spawn(2, state_with_latency()));
    let mut observed = String::new();
    let mut mismatches = 0;
    for (target, latency, want) in STUDY_BODIES {
        let (status, body) = get(if latency { with_latency } else { plain }, target);
        assert_eq!(status, 200, "{target}: {body}");
        observed.push_str(&format!(
            "    (\n        {target:?},\n        {latency},\n        r#\"{body}\"#,\n    ),\n"
        ));
        if body != want {
            mismatches += 1;
        }
    }
    assert_eq!(mismatches, 0, "study bodies drifted; observed:\n{observed}");
}

#[test]
fn contention_defaults_are_the_identity() {
    // Spelling out the default knobs must not change a single byte:
    // `contention=off&density=0` is the identity transform and consumes
    // no RNG.
    let addr = spawn(2, state());
    for (bare, explicit) in [
        (
            "/query/qoe?city=Shanghai&seed=4",
            "/query/qoe?city=Shanghai&contention=off&density=0&seed=4",
        ),
        (
            "/query/bill?city=Wuhan&seed=6",
            "/query/bill?city=Wuhan&contention=off&density=0&seed=6",
        ),
    ] {
        let (s1, a) = get(addr, bare);
        let (s2, b) = get(addr, explicit);
        assert_eq!((s1, s2), (200, 200), "{a} / {b}");
        assert_eq!(a, b, "explicit identity knobs changed the body");
    }
}

#[test]
fn contention_and_provider_knobs_change_the_answer() {
    let addr = spawn(2, state());
    let (_, calm) = get(addr, "/query/qoe?city=Shanghai&seed=4");
    let (status, packed) = get(
        addr,
        "/query/qoe?city=Shanghai&contention=heavy&density=1&seed=4",
    );
    assert_eq!(status, 200, "{packed}");
    assert_ne!(calm, packed, "heavy contention must degrade the QoE draws");
    assert!(packed.contains("\"preset\":\"heavy\""), "{packed}");

    let (status, body) = get(addr, "/query/qoe?city=Shanghai&deployment=metroedge&seed=4");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"deployment\":\"metroedge\""), "{body}");

    let (status, bill) = get(
        addr,
        "/query/bill?city=Wuhan&contention=moderate&density=0.8&seed=6",
    );
    assert_eq!(status, 200, "{bill}");
    assert!(bill.contains("\"nep_contended_rmb\""), "{bill}");

    let (status, placed) = get(addr, "/query/placement?provider=metroedge&seed=2");
    assert_eq!(status, 200, "{placed}");
    assert!(placed.contains("\"provider\":\"metroedge\""), "{placed}");
}

#[test]
fn query_bodies_do_not_depend_on_metrics_state() {
    // /metrics is stateful by design; the /query endpoints must not be.
    let addr = spawn(2, state());
    let q = "/query/bill?city=Shenzhen&seed=8";
    let (_, before) = get(addr, q);
    for i in 0..10 {
        let _ = get(
            addr,
            &format!("/query/placement?policy=load-aware&seed={i}"),
        );
        let _ = get(addr, "/metrics");
    }
    let (_, after) = get(addr, q);
    assert_eq!(before, after);
}

#[test]
fn idle_connections_cannot_starve_healthz() {
    // More idle sockets than workers: without socket timeouts every
    // worker blocks on a head that never comes and /healthz hangs until
    // the idle clients hang up.
    let workers = 4;
    let addr = spawn(workers, state());
    let idle: Vec<TcpStream> = (0..workers + 2)
        .map(|_| TcpStream::connect(addr).unwrap())
        .collect();

    let deadline = Duration::from_secs(5);
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(deadline)).unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
        .unwrap();
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .expect("/healthz must answer within the client deadline");
    assert!(raw.starts_with("HTTP/1.1 200 "), "{raw}");
    assert!(started.elapsed() < deadline, "took {:?}", started.elapsed());

    // Each idle client is told why it was dropped, in JSON.
    for mut socket in idle {
        socket.set_read_timeout(Some(deadline)).unwrap();
        let mut raw = String::new();
        socket.read_to_string(&mut raw).unwrap();
        let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
        assert!(head.starts_with("HTTP/1.1 408 Request Timeout"), "{head}");
        assert!(
            body.starts_with("{\"error\":\"request head not received"),
            "{body}"
        );
    }
}

#[test]
fn a_trickling_client_is_cut_off_at_the_head_deadline() {
    // One worker. A client sends its request line, then one header byte
    // every 0.5 s: each read returns within the socket timeout, so only
    // a deadline for the whole head stops it from holding the worker for
    // as long as it keeps sending.
    let addr = spawn(1, state());
    let started = Instant::now();
    let mut trickler = TcpStream::connect(addr).unwrap();
    trickler.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
    let mut drip = trickler.try_clone().unwrap();
    let sender = thread::spawn(move || {
        for _ in 0..20 {
            thread::sleep(Duration::from_millis(500));
            if drip.write_all(b"x").is_err() {
                break;
            }
        }
    });
    // A concurrent /healthz queues behind the trickler: connections are
    // accepted and handed to the worker in connect order.
    let healthz = thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(IO_TIMEOUT + Duration::from_secs(3)))
            .unwrap();
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
            .unwrap();
        let mut raw = String::new();
        let read = stream.read_to_string(&mut raw);
        (read.map_err(|e| e.to_string()), raw)
    });

    trickler
        .set_read_timeout(Some(Duration::from_secs(15)))
        .unwrap();
    let mut raw = String::new();
    // The server closes with the last trickled bytes unread, so the
    // read may end in a reset after the response has arrived.
    let _ = trickler.read_to_string(&mut raw);
    let cut_off = started.elapsed();
    assert!(raw.starts_with("HTTP/1.1 408 Request Timeout"), "{raw:?}");
    assert!(
        cut_off < IO_TIMEOUT + Duration::from_secs(1),
        "408 after {cut_off:?}"
    );

    let (read, raw) = healthz.join().unwrap();
    assert!(
        read.is_ok(),
        "/healthz: {read:?} after {:?}",
        started.elapsed()
    );
    assert!(raw.starts_with("HTTP/1.1 200 "), "{raw}");
    sender.join().unwrap();
}

/// Exact bodies of [`QUERIES`] plus a `metroedge` load-aware placement,
/// answered by a quick-scale server that holds the latency study. Any
/// refactor of the handlers, the candidate tables or the statistics
/// kernels that claims byte identity must leave these untouched.
///
/// The last seven cover the other branches: the `qoe` crowd slots of
/// LTE and wired (the quick crowd has no wired user, so that slot is
/// `null`), `bill` for a second app under heavy contention, and the
/// nearest, round-robin and metroedge delay-constrained placements.
const GOLDEN: [(&str, &str); 12] = [
    (
        "/query/qoe?city=Shanghai&access=wifi&deployment=nep&seed=11",
        r#"{"city":"Shanghai","province":"Shanghai","deployment":"nep","access":"WiFi","seed":11,"nearest_site":{"index":46,"distance_km":17.223464521647898},"link":{"rtt_ms":15.331608128117571,"uplink_mbps":38.325699967871124,"downlink_mbps":128.33725099702448},"gaming":{"mean_ms":99.2071763898499,"p95_ms":112.91001456466572,"samples":25},"streaming":{"mean_ms":368.79722371404694,"p95_ms":384.8036107875496,"samples":25},"crowd_median_nearest_edge_rtt_ms":16.919441777752773,"edge_vm_distance_km":12,"contention":{"preset":"off","density":0,"cpu_steal_factor":1,"bw_available":1}}"#,
    ),
    (
        "/query/qoe?city=Chengdu&access=5g&deployment=alicloud&seed=3",
        r#"{"city":"Chengdu","province":"Sichuan","deployment":"alicloud","access":"5G","seed":3,"nearest_site":{"index":8,"distance_km":0},"link":{"rtt_ms":12.423008517112244,"uplink_mbps":53.09430610838733,"downlink_mbps":545.0345398940991},"gaming":{"mean_ms":96.8069977969988,"p95_ms":110.75372541483463,"samples":25},"streaming":{"mean_ms":354.94640966875806,"p95_ms":374.6070175843174,"samples":25},"crowd_median_nearest_edge_rtt_ms":10.631576313160632,"edge_vm_distance_km":12,"contention":{"preset":"off","density":0,"cpu_steal_factor":1,"bw_available":1}}"#,
    ),
    (
        "/query/bill?city=Guangzhou&app=live-streaming&peak_mbps=800&operator=cmcc&seed=5",
        r#"{"city":"Guangzhou","app":"live-streaming","operator":"cmcc","peak_mbps":800,"seed":5,"p95_daily_peak_mbps":956.3568317755966,"nep_month_rmb":28690.704953267898,"contention":{"preset":"off","density":0,"bw_available":1,"nep_contended_rmb":28690.704953267898,"nep_delta_rmb":0,"delivered_fraction":1},"cloud_months_rmb":[{"platform":"alicloud","model":"on-demand, by bandwidth","month_rmb":51647.73853199894},{"platform":"alicloud","model":"on-demand, by quantity","month_rmb":75939.29786903058},{"platform":"alicloud","model":"pre-reserved (fixed)","month_rmb":77805},{"platform":"huawei","model":"on-demand, by bandwidth","month_rmb":52062.423520160155},{"platform":"huawei","model":"on-demand, by quantity","month_rmb":75939.29786903058},{"platform":"huawei","model":"pre-reserved (fixed)","month_rmb":77795}],"cheapest_cloud_over_nep":1.8001557862075541}"#,
    ),
    (
        "/query/placement?policy=delay-constrained&budget_ms=5&seed=2",
        r#"{"policy":"delay-constrained load-aware (+5 ms)","provider":"nep","app":"live-streaming","total_peak_rps":120000,"seed":2,"mean_delay_ms":11.476155817808056,"p95_delay_ms":17.866843396236312,"load_cv":0.20972939424579842,"peak_utilization":0.7498057453105489,"overload_fraction":0}"#,
    ),
    (
        "/query/placement?provider=metroedge&policy=load-aware&seed=9",
        r#"{"policy":"load-aware over 8 nearest","provider":"metroedge","app":"live-streaming","total_peak_rps":120000,"seed":9,"mean_delay_ms":24.794388420531245,"p95_delay_ms":67.58852883293633,"load_cv":0.011946673954207291,"peak_utilization":1.5057054574940316,"overload_fraction":0.3080357142857143}"#,
    ),
    (
        "/query/qoe?city=Beijing&access=lte&deployment=nep&seed=21",
        r#"{"city":"Beijing","province":"Beijing","deployment":"nep","access":"LTE","seed":21,"nearest_site":{"index":39,"distance_km":24.021874309291537},"link":{"rtt_ms":36.17975424094732,"uplink_mbps":19.998472761014146,"downlink_mbps":102.43704565354571},"gaming":{"mean_ms":120.000898048387,"p95_ms":130.4791329751776,"samples":25},"streaming":{"mean_ms":408.8099365703388,"p95_ms":424.47340258729673,"samples":25},"crowd_median_nearest_edge_rtt_ms":34.42927754142474,"edge_vm_distance_km":12,"contention":{"preset":"off","density":0,"cpu_steal_factor":1,"bw_available":1}}"#,
    ),
    (
        "/query/qoe?city=Wuhan&access=wired&deployment=huawei&seed=8",
        r#"{"city":"Wuhan","province":"Hubei","deployment":"huawei","access":"Wired","seed":8,"nearest_site":{"index":1,"distance_km":686.6547919989002},"link":{"rtt_ms":18.853815215112036,"uplink_mbps":423.5882432125403,"downlink_mbps":474.51971049265603},"gaming":{"mean_ms":102.28975652425747,"p95_ms":114.88857301379821,"samples":25},"streaming":{"mean_ms":355.50331425008795,"p95_ms":378.5659790214986,"samples":25},"crowd_median_nearest_edge_rtt_ms":null,"edge_vm_distance_km":12,"contention":{"preset":"off","density":0,"cpu_steal_factor":1,"bw_available":1}}"#,
    ),
    (
        "/query/qoe?city=Harbin&access=lte&deployment=metroedge&contention=moderate&density=0.3&seed=2",
        r#"{"city":"Harbin","province":"Heilongjiang","deployment":"metroedge","access":"LTE","seed":2,"nearest_site":{"index":0,"distance_km":731.6426274552296},"link":{"rtt_ms":54.95154585738902,"uplink_mbps":9.272874018068105,"downlink_mbps":12.839308333498092},"gaming":{"mean_ms":139.68761004590937,"p95_ms":151.27643245144844,"samples":25},"streaming":{"mean_ms":510.7638477341503,"p95_ms":526.8403246173114,"samples":25},"crowd_median_nearest_edge_rtt_ms":34.42927754142474,"edge_vm_distance_km":12,"contention":{"preset":"moderate","density":0.3,"cpu_steal_factor":1.0315,"bw_available":0.85}}"#,
    ),
    (
        "/query/bill?city=Chengdu&app=online-education&peak_mbps=300&operator=telecom&contention=heavy&density=0.5&seed=14",
        r#"{"city":"Chengdu","app":"online-education","operator":"telecom","peak_mbps":300,"seed":14,"p95_daily_peak_mbps":337.97679205540993,"nep_month_rmb":8449.419801385247,"contention":{"preset":"heavy","density":0.5,"bw_available":0.6,"nep_contended_rmb":5069.651880831148,"nep_delta_rmb":-3379.767920554099,"delivered_fraction":0.6},"cloud_months_rmb":[{"platform":"alicloud","model":"on-demand, by bandwidth","month_rmb":7887.885520840638},{"platform":"alicloud","model":"on-demand, by quantity","month_rmb":12416.930594768673},{"platform":"alicloud","model":"pre-reserved (fixed)","month_rmb":28285},{"platform":"huawei","model":"on-demand, by bandwidth","month_rmb":7949.668468589356},{"platform":"huawei","model":"on-demand, by quantity","month_rmb":12416.930594768673},{"platform":"huawei","model":"pre-reserved (fixed)","month_rmb":28275}],"cheapest_cloud_over_nep":0.9335416757902657}"#,
    ),
    (
        "/query/placement?policy=nearest&seed=3",
        r#"{"policy":"nearest-site (status quo)","provider":"nep","app":"live-streaming","total_peak_rps":120000,"seed":3,"mean_delay_ms":10.63847471194653,"p95_delay_ms":24.28675201703544,"load_cv":1.0923833995362076,"peak_utilization":3.663114747997439,"overload_fraction":0.06483843537414966}"#,
    ),
    (
        "/query/placement?policy=round-robin&k=4&app=cloud-gaming&total_rps=80000&seed=6",
        r#"{"policy":"round-robin over 4 nearest","provider":"nep","app":"cloud-gaming","total_peak_rps":80000,"seed":6,"mean_delay_ms":9.941007933577428,"p95_delay_ms":15.159594793561492,"load_cv":0.47490247718511786,"peak_utilization":0.8248009901321227,"overload_fraction":0.00017361111111111112}"#,
    ),
    (
        "/query/placement?provider=metroedge&policy=delay-constrained&budget_ms=3&seed=5",
        r#"{"policy":"delay-constrained load-aware (+3 ms)","provider":"metroedge","app":"live-streaming","total_peak_rps":120000,"seed":5,"mean_delay_ms":19.083371404038125,"p95_delay_ms":52.82470681263217,"load_cv":0.5093684035628582,"peak_utilization":5.20377496043104,"overload_fraction":0.2757936507936508}"#,
    ),
];

#[test]
fn query_bodies_match_golden() {
    let addr = spawn(2, state_with_latency());
    let mut observed = String::new();
    let mut mismatches = 0;
    for (target, want) in GOLDEN {
        let (status, body) = get(addr, target);
        assert_eq!(status, 200, "{target}: {body}");
        observed.push_str(&format!(
            "    (\n        {target:?},\n        r#\"{body}\"#,\n    ),\n"
        ));
        if body != want {
            mismatches += 1;
        }
    }
    assert_eq!(mismatches, 0, "query bodies drifted; observed:\n{observed}");
}

#[test]
fn qoe_crowd_context_is_the_study_median() {
    let study = LatencyStudy::run(&Scenario::new(Scale::Quick, 7), 1);
    let addr = spawn(2, state_with_latency());
    let bare = spawn(1, state());
    for (label, access) in [("wifi", AccessNetwork::Wifi), ("5g", AccessNetwork::FiveG)] {
        let rtts: Vec<f64> = study
            .campaign
            .users_on(access)
            .iter()
            .filter_map(|u| u.baselines().nearest_edge.map(|t| t.mean_rtt_ms))
            .collect();
        assert!(!rtts.is_empty(), "quick crowd has {label} users");
        let want = format!(
            "\"crowd_median_nearest_edge_rtt_ms\":{}",
            Json::F64(median(&rtts)).render()
        );
        let target = format!("/query/qoe?city=Hangzhou&access={label}&seed=3");
        let (status, body) = get(addr, &target);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains(&want), "{target}: want {want} in {body}");

        let (status, body) = get(bare, &target);
        assert_eq!(status, 200, "{body}");
        assert!(
            body.contains("\"crowd_median_nearest_edge_rtt_ms\":null"),
            "{body}"
        );
    }
}

/// A mixed sequence in which placements repeat, some spelled another
/// way. Against a cold server each target misses the placement memo.
const MIXED: [&str; 8] = [
    "/query/placement?policy=load-aware&seed=4",
    "/query/qoe?city=Shanghai&seed=4",
    "/query/placement?policy=nearest&provider=metroedge&seed=1",
    "/query/placement?policy=load-aware&seed=4",
    "/query/bill?city=Wuhan&seed=6",
    "/query/placement?policy=Load_Aware&k=8&budget_ms=2&seed=4",
    "/query/placement?policy=nearest&provider=metroedge&seed=1",
    "/query/placement?policy=round-robin&k=3&seed=4",
];

#[test]
fn a_warm_placement_memo_answers_like_a_cold_server() {
    let addr = spawn(2, state());
    for target in MIXED {
        let (status, warm) = get(addr, target);
        let (_, cold) = get(spawn(1, state()), target);
        assert_eq!(status, 200, "{target}: {warm}");
        assert_eq!(warm, cold, "{target}: a warm server answered otherwise");
    }
}

/// The `(name, value)` rows of `endpoint` in a `/metrics` body.
fn endpoint_rows(metrics: &str, endpoint: &str) -> Vec<(String, f64)> {
    let start = format!("{{\"endpoint\":\"{endpoint}\",\"metrics\":[");
    let section = &metrics[metrics.find(&start).expect(endpoint) + start.len()..];
    let section = &section[..section.find("]}").expect("end of the endpoint")];
    section
        .split("{\"name\":\"")
        .skip(1)
        .map(|row| {
            let (name, rest) = row.split_once('"').unwrap();
            let value = rest.split("\"value\":").nth(1).unwrap();
            let value = value.trim_end_matches([',', '}']);
            (name.to_string(), value.parse().unwrap())
        })
        .collect()
}

#[test]
fn placement_metrics_count_memo_hits_like_misses() {
    let target = "/query/placement?provider=metroedge&policy=delay-constrained&seed=8";
    let cold = spawn(1, state());
    let _ = get(cold, target);
    let once = endpoint_rows(&get(cold, "/metrics").1, "placement");

    let warm = spawn(1, state());
    let _ = get(warm, target);
    let _ = get(warm, target);
    let twice = endpoint_rows(&get(warm, "/metrics").1, "placement");

    assert!(
        once.iter()
            .any(|(name, _)| name == "serve.placement_queries"),
        "{once:?}"
    );
    let doubled: Vec<(String, f64)> = once.into_iter().map(|(n, v)| (n, 2.0 * v)).collect();
    assert_eq!(twice, doubled, "a memo hit changed the placement rows");
}

#[test]
fn placement_spellings_share_one_memo_entry() {
    let st = state();
    let addr = spawn(2, Arc::clone(&st));
    let base = "/query/placement?policy=load-aware&seed=5";
    let (_, body) = get(addr, base);
    assert_eq!(st.placement_memo_len(), 1);
    for same in [
        "/query/placement?policy=Load-Aware&seed=5",
        "/query/placement?policy=load_aware&k=8&seed=5",
        "/query/placement?policy=load-aware&budget_ms=9&seed=5",
        "/query/placement?policy=LOAD-AWARE&provider=NEP&app=live-streaming&total_rps=120000&seed=5",
    ] {
        let (status, same_body) = get(addr, same);
        assert_eq!(status, 200, "{same}: {same_body}");
        assert_eq!(same_body, body, "{same}");
        assert_eq!(st.placement_memo_len(), 1, "{same} took a second entry");
    }
    // Each of these changes one input the day reads.
    for (n, other) in [
        "/query/placement?policy=load-aware&provider=metroedge&seed=5",
        "/query/placement?policy=round-robin&seed=5",
        "/query/placement?policy=load-aware&k=4&seed=5",
        "/query/placement?policy=delay-constrained&seed=5",
        "/query/placement?policy=delay-constrained&budget_ms=6&seed=5",
        "/query/placement?policy=load-aware&app=cloud-gaming&seed=5",
        "/query/placement?policy=load-aware&total_rps=80000&seed=5",
        "/query/placement?policy=load-aware&seed=6",
    ]
    .into_iter()
    .enumerate()
    {
        let (status, other_body) = get(addr, other);
        assert_eq!(status, 200, "{other}: {other_body}");
        assert_ne!(other_body, body, "{other}");
        assert_eq!(st.placement_memo_len(), n + 2, "{other} shared an entry");
    }
    // A policy that reads neither `k` nor `budget_ms` ignores both.
    let (_, nearest) = get(addr, "/query/placement?policy=nearest&seed=5");
    let (_, spelled) = get(
        addr,
        "/query/placement?policy=nearest&k=3&budget_ms=1&seed=5",
    );
    assert_eq!(nearest, spelled);
    assert_eq!(st.placement_memo_len(), 10);
}

#[test]
fn the_placement_memo_stays_bounded() {
    let st = state();
    let addr = spawn(2, Arc::clone(&st));
    let target = |seed: usize| format!("/query/placement?policy=nearest&seed={seed}");
    let first = get(addr, &target(0)).1;
    let overflow = PLACEMENT_MEMO_CAPACITY + 8;
    let bodies: Vec<String> = (1..overflow)
        .map(|seed| {
            let body = get(addr, &target(seed)).1;
            let len = st.placement_memo_len();
            assert!(
                len <= PLACEMENT_MEMO_CAPACITY,
                "{len} entries at seed {seed}"
            );
            if seed == PLACEMENT_MEMO_CAPACITY - 1 {
                assert_eq!(len, PLACEMENT_MEMO_CAPACITY, "the memo never filled");
            }
            body
        })
        .collect();
    assert_eq!(
        get(addr, &target(0)).1,
        first,
        "seed 0 after the memo filled"
    );
    for seed in [1, PLACEMENT_MEMO_CAPACITY - 1, overflow - 1] {
        assert_eq!(get(addr, &target(seed)).1, bodies[seed - 1], "seed {seed}");
    }
    assert!(st.placement_memo_len() <= PLACEMENT_MEMO_CAPACITY);
}

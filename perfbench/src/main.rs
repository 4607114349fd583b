//! Measurement helper for `perfbench/run.py`.
//!
//! ```text
//! perfbench cities
//! perfbench load --addr HOST:PORT --conns N --schedule FILE --out FILE [--closed]
//! perfbench trace-campaign --seed S --jobs N --out DIR --spans FILE
//! ```
//!
//! `cities` prints the gazetteer, one `name<TAB>population_m` line per
//! city.
//!
//! `load` replays a schedule file (one `due_us<TAB>target` line per
//! request) over `N` worker threads, each sending `GET target` over a
//! fresh connection (the server answers `Connection: close`). Open loop
//! by default: a request is sent at its due time, or as soon as a worker
//! is free if all are busy, and its latency is later measured from the
//! due time. `--closed` ignores the due times and sends back to back. It
//! writes one line per request: `index due_us send_us done_us status
//! fnv64(body)`.
//!
//! `trace-campaign` rebuilds the `reproduce` campaign at default scale
//! from the public calls its studies make, records one wall-clock span
//! per call plus the deterministic counters the call incremented, prints
//! every report like `reproduce` does, writes the CSV series into `DIR`
//! and the spans as JSON into `FILE`.

use edgescope_core::experiments::prediction_study::{self, cohort, ModelPair, PredictionStudy};
use edgescope_core::experiments::streaming_study::{self, StreamingStudy};
use edgescope_core::experiments::{
    latency_study::LatencyStudy, registry_for, workload_study::WorkloadStudy, Studies,
};
use edgescope_core::obs::{self, MetricSet};
use edgescope_core::platform::geo_china::CITIES;
use edgescope_core::predict::eval::{
    evaluate_baseline_jobs, evaluate_holt_winters_jobs, evaluate_lstm_jobs, BaselineKind,
};
use edgescope_core::predict::lstm::LstmConfig;
use edgescope_core::predict::window::Aggregation;
use edgescope_core::probe::latency::{LatencyCampaign, LatencyConfig};
use edgescope_core::probe::stream::{
    streaming_intersite_scan_jobs, LatencySketchCampaign, SketchCampaignConfig,
};
use edgescope_core::scenario::{Scale, Scenario};
use edgescope_core::trace::dataset::TraceDataset;
use edgescope_core::trace::stream::{stream_azure_stats_jobs, stream_nep_stats_jobs};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("cities") => {
            for c in CITIES {
                println!("{}\t{}", c.name, c.population_m);
            }
            Ok(())
        }
        Some("load") => load(&args[1..]),
        Some("trace-campaign") => trace_campaign(&args[1..]),
        _ => Err("usage: perfbench cities|load|trace-campaign ...".to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// The value following `--name`, if present.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn required<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    flag(args, name).ok_or_else(|| format!("missing {name}"))
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    required(args, name)?
        .parse()
        .map_err(|_| format!("invalid {name}"))
}

/// FNV-1a, 64 bit: a cheap content fingerprint for response bodies.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

struct Scheduled {
    due_us: u64,
    target: String,
}

struct Outcome {
    send_us: u64,
    done_us: u64,
    status: u16,
    hash: u64,
}

fn read_schedule(path: &str) -> Result<Vec<Scheduled>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| !l.is_empty())
        .map(|l| {
            let (due, target) = l
                .split_once('\t')
                .ok_or_else(|| format!("bad line {l:?}"))?;
            let due_us = due.parse().map_err(|_| format!("bad due time in {l:?}"))?;
            Ok(Scheduled {
                due_us,
                target: target.to_string(),
            })
        })
        .collect()
}

/// Replay `reqs` over `conns` worker threads; `send(target)` performs
/// one request and returns `(status, body hash)`.
fn replay(
    reqs: &[Scheduled],
    conns: usize,
    closed: bool,
    send: impl Fn(&str) -> (u16, u64) + Sync,
) -> Vec<Outcome> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Outcome>>> = reqs.iter().map(|_| Mutex::new(None)).collect();
    // A short lead so every worker is waiting before the first due time.
    let t0 = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|sc| {
        for _ in 0..conns.max(1) {
            let (next, slots, send) = (&next, &slots, &send);
            sc.spawn(move || {
                sleep_until(t0);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(req) = reqs.get(i) else { break };
                    if !closed {
                        sleep_until(t0 + Duration::from_micros(req.due_us));
                    }
                    let send_us = t0.elapsed().as_micros() as u64;
                    let (status, hash) = send(&req.target);
                    let done_us = t0.elapsed().as_micros() as u64;
                    *slots[i].lock().expect("no worker panics holding a slot") = Some(Outcome {
                        send_us,
                        done_us,
                        status,
                        hash,
                    });
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("no worker panics holding a slot")
                .expect("every request ran")
        })
        .collect()
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

fn write_outcomes(path: &str, reqs: &[Scheduled], outcomes: &[Outcome]) -> Result<(), String> {
    let mut out = String::with_capacity(outcomes.len() * 48);
    for (i, (r, o)) in reqs.iter().zip(outcomes).enumerate() {
        out.push_str(&format!(
            "{i}\t{}\t{}\t{}\t{}\t{:016x}\n",
            r.due_us, o.send_us, o.done_us, o.status, o.hash
        ));
    }
    std::fs::write(path, out).map_err(|e| format!("{path}: {e}"))
}

/// One `GET` over a fresh connection. Status 0 means the exchange
/// failed (refused, reset, timed out or unparsable).
fn http_get(addr: SocketAddr, target: &str) -> (u16, u64) {
    let exchange = || -> std::io::Result<Vec<u8>> {
        let mut s = TcpStream::connect_timeout(&addr, Duration::from_secs(10))?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(30)))?;
        s.write_all(format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())?;
        let mut buf = Vec::with_capacity(2048);
        s.read_to_end(&mut buf)?;
        Ok(buf)
    };
    let Ok(buf) = exchange() else { return (0, 0) };
    let Some(split) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return (0, 0);
    };
    let status = std::str::from_utf8(&buf[..split])
        .ok()
        .and_then(|head| head.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .unwrap_or(0);
    (status, fnv64(&buf[split + 4..]))
}

fn load(args: &[String]) -> Result<(), String> {
    let addr: SocketAddr = parse(args, "--addr")?;
    let conns: usize = parse(args, "--conns")?;
    let reqs = read_schedule(required(args, "--schedule")?)?;
    let closed = args.iter().any(|a| a == "--closed");
    let outcomes = replay(&reqs, conns, closed, |target| http_get(addr, target));
    write_outcomes(required(args, "--out")?, &reqs, &outcomes)
}

/// One recorded call: wall-clock interval relative to the trace start,
/// its parent span, and the deterministic counters it incremented.
struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u128,
    end_ns: u128,
    counters: MetricSet,
}

/// In-memory span recorder, written out once when the run ends.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Run `f` as a span named `name`, nested under the open span.
    fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.stack.last().copied(),
            start_ns: self.t0.elapsed().as_nanos(),
            end_ns: 0,
            counters: MetricSet::new(),
        });
        self.stack.push(id);
        let (out, counters) = obs::scoped(|| f(self));
        self.stack.pop();
        let span = &mut self.spans[id];
        span.end_ns = self.t0.elapsed().as_nanos();
        span.counters = counters;
        // Counters also belong to every enclosing span.
        obs::record_set(&span.counters);
        out
    }

    fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let counters: Vec<String> =
                    s.counters.counters().map(|(k, v)| format!("\"{k}\":{v}")).collect();
                format!(
                    "{{\"id\":{id},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"counters\":{{{}}}}}",
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    counters.join(",")
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

/// The studies of `Executor::run`, rebuilt call by call with the
/// arguments `LatencyStudy`, `WorkloadStudy`, `PredictionStudy` and
/// `StreamingStudy::run_jobs` pass.
fn traced_studies(tr: &mut Tracer, sc: &Scenario, jobs: usize) -> Studies {
    let s = &sc.sizing;
    let latency = tr.span("study:latency", |tr| {
        let campaign = tr.span("probe.latency", |_| {
            LatencyCampaign::run_jobs(
                sc.stream_seed(0x1a7e),
                &sc.users,
                &sc.path_model,
                &sc.nep,
                &sc.alicloud,
                &LatencyConfig {
                    pings_per_target: s.pings_per_target,
                    ..LatencyConfig::default()
                },
                jobs,
            )
        });
        LatencyStudy { campaign }
    });
    let workload = tr.span("study:workload", |tr| {
        let (nep, nep_deployment) = tr.span("trace.generate.nep", |_| {
            TraceDataset::generate_nep_jobs(
                sc.seed ^ 0xeda0,
                s.trace_sites,
                s.trace_apps,
                s.trace_config.clone(),
                jobs,
            )
        });
        let azure = tr.span("trace.generate.azure", |_| {
            TraceDataset::generate_azure_jobs(
                sc.seed ^ 0xa20e,
                10,
                s.trace_apps,
                s.trace_config.clone(),
                jobs,
            )
        });
        WorkloadStudy {
            nep,
            nep_deployment,
            azure,
        }
    });
    let prediction = tr.span("study:prediction", |tr| {
        let n = s.predict_vms;
        let (nep_cohort, azure_cohort) = tr.span("predict.cohort", |_| {
            (cohort(&workload.nep, n), cohort(&workload.azure, n))
        });
        let sphh_nep = workload.nep.config.cpu_samples_per_half_hour();
        let sphh_azure = workload.azure.config.cpu_samples_per_half_hour();
        let lstm_cfg = LstmConfig {
            epochs: if n <= 8 { 2 } else { 3 },
            stride: 3,
            lookback: 12,
            seed: sc.stream_seed(prediction_study::TAG),
            ..Default::default()
        };
        let (nc, ac) = (&nep_cohort, &azure_cohort);
        let hw = |tr: &mut Tracer, agg| {
            tr.span("predict.holt_winters", |_| ModelPair {
                nep: evaluate_holt_winters_jobs(nc, sphh_nep, agg, jobs),
                azure: evaluate_holt_winters_jobs(ac, sphh_azure, agg, jobs),
            })
        };
        let hw_max = hw(tr, Aggregation::Max);
        let hw_mean = hw(tr, Aggregation::Mean);
        let lstm = |tr: &mut Tracer, agg| {
            tr.span("predict.lstm", |_| ModelPair {
                nep: evaluate_lstm_jobs(nc, sphh_nep, agg, &lstm_cfg, jobs),
                azure: evaluate_lstm_jobs(ac, sphh_azure, agg, &lstm_cfg, jobs),
            })
        };
        let lstm_max = lstm(tr, Aggregation::Max);
        let lstm_mean = lstm(tr, Aggregation::Mean);
        let baseline = |tr: &mut Tracer, kind| {
            tr.span("predict.baselines", |_| ModelPair {
                nep: evaluate_baseline_jobs(nc, sphh_nep, Aggregation::Mean, kind, jobs),
                azure: evaluate_baseline_jobs(ac, sphh_azure, Aggregation::Mean, kind, jobs),
            })
        };
        let naive_mean = baseline(tr, BaselineKind::Naive);
        let seasonal_naive_mean = baseline(tr, BaselineKind::SeasonalNaive);
        let seasonal_ar_mean = baseline(tr, BaselineKind::SeasonalAr);
        PredictionStudy {
            nep_cohort,
            azure_cohort,
            sphh_nep,
            sphh_azure,
            nep_interval_min: workload.nep.config.cpu_interval_min,
            azure_interval_min: workload.azure.config.cpu_interval_min,
            lstm_cfg,
            hw_max,
            hw_mean,
            lstm_max,
            lstm_mean,
            naive_mean,
            seasonal_naive_mean,
            seasonal_ar_mean,
        }
    });
    let streaming = tr.span("study:streaming", |tr| {
        let cfg = SketchCampaignConfig {
            pings_per_target: s.pings_per_target,
            ..Default::default()
        };
        let latency = tr.span("probe.stream.latency", |_| {
            LatencySketchCampaign::run_jobs(
                sc.stream_seed(streaming_study::LATENCY_TAG),
                s.n_users,
                &sc.path_model,
                &sc.nep,
                &sc.alicloud,
                &cfg,
                jobs,
            )
        });
        let intersite = tr.span("probe.stream.intersite", |_| {
            streaming_intersite_scan_jobs(
                sc.stream_seed(streaming_study::INTERSITE_TAG),
                &sc.path_model,
                &sc.nep,
                s.pings_per_target,
                jobs,
            )
        });
        let (nep, _) = tr.span("trace.stream.nep", |_| {
            stream_nep_stats_jobs(
                sc.seed ^ streaming_study::NEP_TRACE_TAG,
                s.trace_sites,
                s.trace_apps,
                s.trace_config.clone(),
                jobs,
            )
        });
        let azure = tr.span("trace.stream.azure", |_| {
            stream_azure_stats_jobs(
                sc.seed ^ streaming_study::AZURE_TRACE_TAG,
                10,
                s.trace_apps,
                s.trace_config.clone(),
                jobs,
            )
        });
        StreamingStudy {
            latency,
            intersite,
            nep,
            azure,
        }
    });
    Studies {
        latency: Some(latency),
        workload: Some(workload),
        prediction: Some(prediction),
        streaming: Some(streaming),
    }
}

fn trace_campaign(args: &[String]) -> Result<(), String> {
    let seed: u64 = parse(args, "--seed")?;
    let jobs: usize = parse(args, "--jobs")?;
    let out_dir = PathBuf::from(required(args, "--out")?);
    let spans_path = required(args, "--spans")?;
    let mut tr = Tracer::new();
    let stdout = tr.span("campaign", |tr| -> Result<String, String> {
        let sc = tr.span("scenario.new", |_| Scenario::new(Scale::Default, seed));
        let studies = traced_studies(tr, &sc, jobs);
        let reports: Vec<_> = registry_for(sc.scale)
            .iter()
            .map(|spec| {
                tr.span(&format!("experiment:{}", spec.name), |_| {
                    spec.run(&sc, &studies)
                })
            })
            .collect();
        tr.span("report.render", |_| {
            let mut out = String::new();
            for r in &reports {
                out.push_str(&r.render());
                out.push('\n');
                r.save_csv(Path::new(&out_dir))
                    .map_err(|e| format!("csv: {e}"))?;
            }
            Ok(out)
        })
    })?;
    std::io::stdout()
        .write_all(stdout.as_bytes())
        .map_err(|e| e.to_string())?;
    std::fs::write(spans_path, tr.to_json()).map_err(|e| format!("{spans_path}: {e}"))
}

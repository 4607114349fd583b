//! The `edgescope-serve` binary: build the latency study once, then
//! answer what-if queries over HTTP until killed.

use edgescope_core::executor::{build_studies, parse_jobs, resolve_jobs};
use edgescope_core::experiments::Needs;
use edgescope_core::scenario::{Scale, Scenario};
use edgescope_obs::log::{resolve_log, Emitter, LogFormat};
use edgescope_serve::http::Server;
use edgescope_serve::state::ServeState;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "usage: edgescope-serve [--addr HOST] [--port N] [--scale TIER] \
                     [--seed N] [--jobs N] [--workers N] [--log off|pretty|json]\n\
                     defaults: 127.0.0.1:7878, scale quick, seed 42";

fn main() -> ExitCode {
    let mut addr = "127.0.0.1".to_string();
    let mut port: u16 = 7878;
    let mut scale_arg: Option<String> = None;
    let mut seed_arg: Option<String> = None;
    let mut jobs_arg: Option<String> = None;
    let mut workers: usize = 4;
    let mut log_arg: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let take = |val: Option<String>, flag: &str| -> Result<String, ExitCode> {
            val.ok_or_else(|| {
                eprintln!("error: {flag} needs a value\n{USAGE}");
                ExitCode::from(2)
            })
        };
        macro_rules! flag_value {
            ($name:literal) => {{
                let v = if let Some(v) = a.strip_prefix(concat!($name, "=")) {
                    Some(v.to_string())
                } else {
                    args.next()
                };
                match take(v, $name) {
                    Ok(v) => v,
                    Err(code) => return code,
                }
            }};
        }
        match a.split('=').next().unwrap_or("") {
            "--addr" => addr = flag_value!("--addr"),
            "--port" => {
                let raw = flag_value!("--port");
                match raw.parse::<u16>() {
                    Ok(p) => port = p,
                    Err(_) => {
                        eprintln!("error: invalid --port {raw:?}\n{USAGE}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--scale" => scale_arg = Some(flag_value!("--scale")),
            "--seed" => seed_arg = Some(flag_value!("--seed")),
            "--jobs" => jobs_arg = Some(flag_value!("--jobs")),
            "--workers" => {
                let raw = flag_value!("--workers");
                match raw.parse::<usize>() {
                    Ok(w) if w >= 1 => workers = w,
                    _ => {
                        eprintln!("error: invalid --workers {raw:?} (need >= 1)\n{USAGE}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--log" => log_arg = Some(flag_value!("--log")),
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ => {
                eprintln!("unknown flag {a:?}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    // Scale: --scale beats EDGESCOPE_SCALE; unknown tiers are an error,
    // not a silent fallback (same contract as `reproduce`).
    let scale_raw = scale_arg.or_else(|| std::env::var("EDGESCOPE_SCALE").ok());
    let scale = match scale_raw {
        None => Scale::Quick,
        Some(s) => match Scale::parse(&s) {
            Some(scale) => scale,
            None => {
                eprintln!("error: unknown scale {s:?}; valid tiers: {}", Scale::NAMES.join(", "));
                return ExitCode::from(2);
            }
        },
    };
    if scale == Scale::Metro {
        // The metro tier never materializes the crowd and only runs the
        // streaming sketch campaigns; the query handlers need the batch
        // world. Refuse instead of silently serving a degraded world.
        eprintln!("error: edgescope-serve needs a batch tier (quick, default, paper), not metro");
        return ExitCode::from(2);
    }
    let seed: u64 = seed_arg
        .or_else(|| std::env::var("EDGESCOPE_SEED").ok())
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);

    let log = resolve_log(log_arg.as_deref(), std::env::var("EDGESCOPE_LOG").ok().as_deref());
    let emitter = Emitter::new(log);
    let say = |msg: &str| emitter.status("serve", msg, true);
    if let Some(l) = log_arg.as_deref() {
        if LogFormat::parse(l).is_none() {
            say(&format!("warning: invalid --log value {l:?}; falling back to EDGESCOPE_LOG/off"));
        }
    }
    if let Some(j) = jobs_arg.as_deref() {
        if parse_jobs(j).is_none() {
            say(&format!(
                "warning: invalid --jobs value {j:?}; falling back to EDGESCOPE_JOBS/default"
            ));
        }
    }
    let jobs = resolve_jobs(jobs_arg.as_deref(), std::env::var("EDGESCOPE_JOBS").ok().as_deref());

    say(&format!(
        "edgescope-serve: scale {}, seed {seed}, building studies with {jobs} job(s)",
        scale.name()
    ));
    let scenario = Scenario::new(scale, seed);
    // Exactly what the handlers read: `qoe`'s crowd context is the
    // latency study; `bill` and `placement` need only the scenario.
    let needs = Needs { latency: true, ..Needs::default() };
    let build = build_studies(&scenario, needs, jobs, &emitter);
    for stage in &build.scopes {
        say(&format!("built {} in {:.0} ms", stage.name, stage.wall_ms));
    }
    let state = Arc::new(ServeState::new(scenario, build.studies));

    let server = match Server::bind((addr.as_str(), port), workers, state) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind {addr}:{port}: {e}");
            return ExitCode::from(2);
        }
    };
    match server.local_addr() {
        Ok(bound) => say(&format!("listening on http://{bound} with {workers} worker(s)")),
        Err(_) => say("listening"),
    }
    server.run();
    ExitCode::SUCCESS
}

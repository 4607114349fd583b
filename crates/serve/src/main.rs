//! The `edgescope-serve` binary: build the latency study once, then
//! answer what-if queries over HTTP until killed.

use edgescope_core::executor::build_studies;
use edgescope_core::experiments::Needs;
use edgescope_core::scenario::{Scale, Scenario, SCALE};
use edgescope_obs::cli::{self, Spec, UsageError};
use edgescope_obs::log::{Emitter, LogFormat};
use edgescope_serve::http::Server;
use edgescope_serve::state::ServeState;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "usage: edgescope-serve [--addr HOST] [--port N] [--scale TIER] \
                     [--seed N] [--jobs N] [--workers N] [--log off|pretty|json]\n\
                     defaults: 127.0.0.1:7878, scale quick, seed 42";

const SPEC: Spec = Spec {
    values: &[
        "--addr",
        "--port",
        "--scale",
        "--seed",
        "--jobs",
        "--workers",
        "--log",
    ],
    switches: &["--help", "-h"],
    positionals: 0,
};

/// What one invocation asks for.
struct Config {
    addr: String,
    port: u16,
    scale: Scale,
    seed: u64,
    jobs: usize,
    workers: usize,
    log: LogFormat,
    /// Invalid `--jobs`/`--log` values that fell back, to report once
    /// the log format is known.
    warnings: Vec<String>,
}

/// The configuration `argv` and the environment ask for; `None` for `--help`.
fn config(argv: impl IntoIterator<Item = String>) -> Result<Option<Config>, UsageError> {
    let args = cli::scan(&SPEC, argv)?;
    if args.switch("--help") || args.switch("-h") {
        return Ok(None);
    }
    let scale = SCALE.resolve(args.raw("--scale"), || Scale::Quick)?.value;
    if scale == Scale::Metro {
        // The metro tier never materializes the crowd and only runs the
        // streaming sketch campaigns; the query handlers need the batch
        // world. Refuse instead of silently serving a degraded world.
        return Err(UsageError(
            "edgescope-serve needs a batch tier (quick, default, paper), not metro".into(),
        ));
    }
    let log = cli::LOG.resolve(args.raw("--log"), LogFormat::default)?;
    let jobs = cli::JOBS.resolve(args.raw("--jobs"), cli::default_jobs)?;
    Ok(Some(Config {
        addr: args.raw("--addr").unwrap_or("127.0.0.1").to_string(),
        port: args.value("--port")?.unwrap_or(7878),
        scale,
        seed: cli::SEED.resolve(args.raw("--seed"), || 42)?.value,
        jobs: jobs.value,
        workers: args.get("--workers", cli::positive)?.unwrap_or(4),
        log: log.value,
        warnings: [log.warnings, jobs.warnings].concat(),
    }))
}

fn main() -> ExitCode {
    let Config {
        addr,
        port,
        scale,
        seed,
        jobs,
        workers,
        log,
        warnings,
    } = match config(std::env::args().skip(1)) {
        Ok(Some(config)) => config,
        Ok(None) => {
            eprintln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => return e.exit(USAGE),
    };
    let emitter = Emitter::new(log);
    let say = |msg: &str| emitter.status("serve", msg);
    for warning in &warnings {
        say(warning);
    }

    say(&format!(
        "edgescope-serve: scale {}, seed {seed}, building studies with {jobs} job(s)",
        scale.name()
    ));
    let scenario = Scenario::new(scale, seed);
    // Exactly what the handlers read: `qoe`'s crowd context is the
    // latency study; `bill` and `placement` need only the scenario.
    let needs = Needs {
        latency: true,
        ..Needs::default()
    };
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
        Ok(bound) => say(&format!(
            "listening on http://{bound} with {workers} worker(s)"
        )),
        Err(_) => say("listening"),
    }
    server.run();
    ExitCode::SUCCESS
}

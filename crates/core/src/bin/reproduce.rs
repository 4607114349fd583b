//! Regenerate the tables and figures of the paper.
//!
//! ```text
//! EDGESCOPE_SCALE=quick|default|paper|metro EDGESCOPE_SEED=42 EDGESCOPE_JOBS=N \
//!     EDGESCOPE_LOG=off|pretty|json \
//!     cargo run --release -p edgescope-core --bin reproduce -- \
//!     [--jobs N] [--only fig2a,table3,...] [--log off|pretty|json] [results_dir]
//! ```
//!
//! Prints every selected experiment's tables to stdout and writes under
//! `results_dir` (default `results/`): the CSV series, a browsable
//! `index.html` with timing and metrics summaries, `timings.csv`
//! (`name,kind,workers,wall_ms`; one `stage` row per shared study build
//! carrying the `--jobs` width it fanned out over, one `experiment` row
//! per experiment on one worker, one `total` row), and
//! `metrics.json` (deterministic per-scope campaign metrics, schema
//! `edgescope-metrics/1`; totals identical across worker counts).
//!
//! `--jobs` (or `EDGESCOPE_JOBS`) sets the worker-thread count, default
//! = available parallelism; an invalid value is reported and falls back
//! to the next layer.
//! Reports are byte-identical across worker counts for the same seed.
//! `--only` filters the registry by experiment name; unknown names abort
//! with the list of valid names.
//! An unknown `EDGESCOPE_SCALE` exits 2 with the list of valid tiers,
//! and an `EDGESCOPE_SEED` that is not an unsigned integer exits 2 too
//! (no silent fallback to another world). Every flag takes `--flag
//! value` or `--flag=value`; an unknown flag, a flag without its value
//! or a second results directory exits 2 (see `edgescope_obs::cli`). A
//! CSV or results file that cannot be written is reported on stderr and
//! makes the run exit 1.
//! At `metro` scale the registry narrows to the
//! streaming experiments (`metro_latency`, `metro_intersite`,
//! `metro_workload`) — the batch studies would not fit the tier's
//! memory budget.
//! The `dyn_*` names select the dynamic scenarios (time-stepped
//! campaigns through scheduled outages, flash crowds, drains and
//! mobility waves, run by `core::engine`); their catalogue is
//! `SCENARIOS.md` at the repo root.
//! `--log` (or `EDGESCOPE_LOG`) selects span logging on stderr:
//! `off` (default, stderr carries only the binary's status lines),
//! `pretty` (one human-readable line per event), or `json` (every
//! stderr line — executor events *and* status lines — is one JSON
//! object, so `jq` can consume the whole stream). Stdout renders are
//! byte-identical in every mode.

use edgescope_core::executor;
use edgescope_core::experiments::{registry_for, select_experiments};
use edgescope_core::report::render_html_page;
use edgescope_core::scenario::{Scale, Scenario, SCALE};
use edgescope_obs::cli::{self, Spec, UsageError};
use edgescope_obs::log::{Emitter, LogFormat};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: reproduce [--jobs N] [--only name1,name2,...] [--log off|pretty|json] [results_dir]";

const SPEC: Spec = Spec {
    values: &["--jobs", "--only", "--log"],
    switches: &["--help", "-h"],
    positionals: 1,
};

/// What one invocation asks for.
struct Config {
    scale: Scale,
    seed: u64,
    jobs: usize,
    log: LogFormat,
    only: Option<String>,
    out_dir: PathBuf,
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
    // Scale and seed come from the environment only.
    let scale = SCALE.resolve(None, || Scale::Default)?.value;
    let seed = cli::SEED.resolve(None, || 42)?.value;
    let log = cli::LOG.resolve(args.raw("--log"), LogFormat::default)?;
    let jobs = cli::JOBS.resolve(args.raw("--jobs"), cli::default_jobs)?;
    Ok(Some(Config {
        scale,
        seed,
        jobs: jobs.value,
        log: log.value,
        only: args.raw("--only").map(String::from),
        out_dir: args
            .positionals()
            .first()
            .map_or_else(|| "results".into(), PathBuf::from),
        warnings: [log.warnings, jobs.warnings].concat(),
    }))
}

fn main() -> ExitCode {
    let Config {
        scale,
        seed,
        jobs,
        log,
        only,
        out_dir,
        warnings,
    } = match config(std::env::args().skip(1)) {
        Ok(Some(config)) => config,
        Ok(None) => {
            eprintln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => return e.exit(USAGE),
    };
    // All of the binary's own status lines route through the emitter so
    // that in json mode every stderr line is a parseable object.
    let emitter = Emitter::new(log);
    let say = |msg: &str| emitter.status("reproduce", msg);
    for warning in &warnings {
        say(warning);
    }

    let specs = match only.as_deref() {
        None => registry_for(scale),
        Some(only) => match select_experiments(registry_for(scale), only) {
            Ok(specs) => specs,
            Err(e) => {
                say(&format!("error: {e}"));
                return ExitCode::from(2);
            }
        },
    };

    say(&format!(
        "edgescope reproduce: scale {}, seed {seed}, {} experiment(s), {jobs} job(s), output {out_dir:?}",
        scale.name(),
        specs.len()
    ));
    let scenario = Scenario::new(scale, seed);
    let execution = executor::run(&scenario, specs, jobs, log);
    // A write failure is reported where it happens and turns the exit
    // status into 1 once everything that can be written has been.
    let mut write_failed = false;
    for r in &execution.reports {
        println!("{}", r.render());
        match r.save_csv(&out_dir) {
            Ok(files) => {
                if !files.is_empty() {
                    say(&format!("[{}] wrote {} csv files", r.id, files.len()));
                }
            }
            Err(e) => {
                say(&format!("[{}] csv write failed: {e}", r.id));
                write_failed = true;
            }
        }
    }

    let mut appendix = vec![("timings", "Execution timings", execution.timings_table())];
    appendix.extend(
        execution
            .metrics_table()
            .map(|t| ("metrics", "Campaign metrics", t)),
    );
    let html = render_html_page(&execution.reports, &appendix);
    match std::fs::create_dir_all(&out_dir)
        .and_then(|_| std::fs::write(out_dir.join("index.html"), html))
        .and_then(|_| std::fs::write(out_dir.join("timings.csv"), execution.timings_csv()))
        .and_then(|_| std::fs::write(out_dir.join("metrics.json"), execution.metrics_json()))
    {
        Ok(()) => say(&format!(
            "wrote {}, {} and {}",
            out_dir.join("index.html").display(),
            out_dir.join("timings.csv").display(),
            out_dir.join("metrics.json").display()
        )),
        Err(e) => {
            say(&format!("results write failed: {e}"));
            write_failed = true;
        }
    }

    match execution.peak() {
        Some(peak) => say(&format!(
            "done: {} experiments in {:.1}s on {jobs} job(s) (slowest: {} at {:.1}ms)",
            execution.reports.len(),
            execution.total_ms / 1e3,
            peak.name,
            peak.wall_ms
        )),
        None => say(&format!(
            "done: 0 experiments in {:.1}s",
            execution.total_ms / 1e3
        )),
    }
    if write_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

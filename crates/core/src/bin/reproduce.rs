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
//! = available parallelism; invalid values fall back to the default.
//! Reports are byte-identical across worker counts for the same seed.
//! `--only` filters the registry by experiment name; unknown names abort
//! with the list of valid names.
//! An unknown `EDGESCOPE_SCALE` exits 2 with the list of valid tiers
//! (no silent fallback). A CSV or results file that cannot be written
//! is reported on stderr and makes the run exit 1.
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

use edgescope_core::executor::{self, parse_jobs, resolve_jobs};
use edgescope_core::experiments::{registry_for, select_experiments};
use edgescope_core::report::render_html_page;
use edgescope_core::scenario::{Scale, Scenario};
use edgescope_obs::log::{resolve_log, Emitter, LogFormat};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: reproduce [--jobs N] [--only name1,name2,...] [--log off|pretty|json] [results_dir]";

fn main() -> ExitCode {
    // An unknown EDGESCOPE_SCALE is an error, not a silent fallback — a
    // typo like `metro ` or `big` must not quietly run Default-scale
    // experiments and overwrite results.
    let scale = match std::env::var("EDGESCOPE_SCALE") {
        Err(_) => Scale::Default,
        Ok(s) => match Scale::parse(&s) {
            Some(scale) => scale,
            None => {
                eprintln!(
                    "error: unknown EDGESCOPE_SCALE {s:?}; valid tiers: {}",
                    Scale::NAMES.join(", ")
                );
                return ExitCode::from(2);
            }
        },
    };
    let seed = std::env::var("EDGESCOPE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42u64);

    let mut jobs_arg: Option<String> = None;
    let mut only_arg: Option<String> = None;
    let mut log_arg: Option<String> = None;
    let mut out_dir: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let slot = match a.split('=').next().unwrap_or("") {
            "--jobs" => Some(&mut jobs_arg),
            "--only" => Some(&mut only_arg),
            "--log" => Some(&mut log_arg),
            _ => None,
        };
        if let Some(slot) = slot {
            // `--flag=value` or `--flag value`; a trailing `--flag` is an
            // error, not a silent full-registry run.
            match a.split_once('=').map(|(_, v)| v.to_string()).or_else(|| args.next()) {
                Some(v) => *slot = Some(v),
                None => {
                    eprintln!("error: {a} needs a value\n{USAGE}");
                    return ExitCode::from(2);
                }
            }
        } else if a == "--help" || a == "-h" {
            eprintln!("{USAGE}");
            return ExitCode::SUCCESS;
        } else if a.starts_with('-') {
            eprintln!("unknown flag {a:?}\n{USAGE}");
            return ExitCode::from(2);
        } else if out_dir.is_none() {
            out_dir = Some(a.into());
        } else {
            eprintln!("unexpected extra argument {a:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    let out_dir = out_dir.unwrap_or_else(|| "results".into());

    let log = resolve_log(log_arg.as_deref(), std::env::var("EDGESCOPE_LOG").ok().as_deref());
    // All of the binary's own status lines route through the emitter so
    // that in json mode every stderr line is a parseable object.
    let emitter = Emitter::new(log);
    let say = |msg: &str| emitter.status("reproduce", msg, true);

    if let Some(l) = log_arg.as_deref() {
        if LogFormat::parse(l).is_none() {
            say(&format!(
                "warning: invalid --log value {l:?}; falling back to EDGESCOPE_LOG/off"
            ));
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

    let specs = match only_arg.as_deref() {
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
        "edgescope reproduce: scale {scale:?}, seed {seed}, {} experiment(s), {jobs} job(s), output {out_dir:?}",
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
    appendix.extend(execution.metrics_table().map(|t| ("metrics", "Campaign metrics", t)));
    let html = render_html_page("EdgeScope reproduction", &execution.reports, &appendix);
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
        None => say(&format!("done: 0 experiments in {:.1}s", execution.total_ms / 1e3)),
    }
    if write_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

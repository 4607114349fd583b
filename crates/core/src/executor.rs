//! Parallel experiment execution with per-scope timing, metrics, and
//! span logging.
//!
//! [`run`] fans the runners of an experiment registry (see
//! [`crate::experiments::registry`]) out with [`obs::pool::fan_out`] —
//! the workspace's one scoped-thread pool — and collects the reports
//! back **in registry order**, so the rendered output is independent of
//! the worker count. This is safe because of the determinism contract
//! documented in [`crate::scenario`]: every experiment derives its own
//! RNG from `(seed, tag)` and shares no mutable state with its peers.
//!
//! The shared study builds run one after the other, each data-parallel
//! inside itself: [`build_studies`] passes the campaign's `--jobs` into
//! [`LatencyStudy::run`] / [`WorkloadStudy::run`] /
//! [`PredictionStudy::run`] / [`StreamingStudy::run`], whose campaign
//! loops (the same `fan_out`) give every entity (user, VM, evaluated
//! series) an independent RNG stream and merge in entity order — so the
//! studies, too, are byte-identical at every worker count. The prediction
//! and streaming studies both consume the workload study, so declaring
//! [`crate::experiments::Needs::prediction`] or
//! [`crate::experiments::Needs::streaming`] implies a workload build even
//! when no experiment reads the traces directly.
//!
//! Every study build ("stage") and every experiment is one [`Scope`]: a
//! `study.start`/`close` or `experiment.start`/`close` span event pair
//! on stderr (format chosen by `--log`, default off), its wall-clock,
//! and the deterministic `edgescope-obs` metrics recorded inside its own
//! [`obs::scoped`] metric scope on its worker thread — so the counters a
//! runner's substrate calls increment (probes sent, placements made, VMs
//! generated, …) are attributed exactly to it. The [`Execution`] keeps
//! one list of scopes (stages in build order, then experiments in
//! registry order) and derives everything the `reproduce` binary writes
//! from it: `results/timings.csv`, `results/metrics.json` and the
//! "Execution timings" and "Campaign metrics" sections of the HTML page.
//! Metrics are identical across worker counts by construction (scopes
//! are per-experiment and merged in registry order), and collection
//! draws no randomness, so renders stay byte-identical.

use crate::experiments::{
    latency_study::LatencyStudy, prediction_study::PredictionStudy,
    streaming_study::StreamingStudy, workload_study::WorkloadStudy,
};
use crate::experiments::{ExperimentSpec, Needs, Studies};
use crate::report::ExperimentReport;
use crate::scenario::Scenario;
use edgescope_analysis::table::Table;
use edgescope_obs as obs;
use edgescope_obs::log::{json_escape, Emitter, Field, LogFormat};
use edgescope_obs::{MetricRow, MetricSet};
use std::time::Instant;

/// The `kind` of a shared study build.
const STAGE: &str = "stage";
/// The `kind` of one experiment.
const EXPERIMENT: &str = "experiment";

/// One timed, metric-scoped unit of a campaign: a shared study build or
/// one experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Scope {
    /// An experiment name, or `study:latency` / `study:workload` /
    /// `study:prediction` / `study:streaming` for the shared stages.
    pub name: String,
    /// `"stage"` for study builds, `"experiment"` for experiments.
    pub kind: &'static str,
    /// Worker threads the scope ran with: the campaign's `--jobs` for
    /// data-parallel study builds, 1 for experiments (each runs entirely
    /// on one worker).
    pub workers: usize,
    /// Wall-clock duration in milliseconds.
    pub wall_ms: f64,
    /// Everything recorded while the scope ran.
    pub set: MetricSet,
}

/// Run `f` as one scope named `label`: span events, wall-clock, and its
/// own metric scope.
fn run_scope<T>(
    emitter: &Emitter,
    kind: &'static str,
    label: &'static str,
    workers: usize,
    f: impl FnOnce() -> T,
) -> (T, Scope) {
    let (start, close, key, name) = if kind == STAGE {
        (
            "study.start",
            "study.close",
            "study",
            format!("study:{label}"),
        )
    } else {
        (
            "experiment.start",
            "experiment.close",
            "name",
            label.to_string(),
        )
    };
    emitter.event("executor", start, &[(key, Field::Str(label))]);
    let t = Instant::now();
    let (value, set) = obs::scoped(f);
    let wall_ms = elapsed_ms(t);
    emitter.event(
        "executor",
        close,
        &[(key, Field::Str(label)), ("wall_ms", Field::F64(wall_ms))],
    );
    (
        value,
        Scope {
            name,
            kind,
            workers,
            wall_ms,
            set,
        },
    )
}

/// The outcome of one [`run`] campaign: reports in registry order plus
/// one [`Scope`] per study build and experiment.
#[derive(Debug, Clone)]
pub struct Execution {
    /// One report per executed experiment, in registry order — identical
    /// across worker counts for the same scenario.
    pub reports: Vec<ExperimentReport>,
    /// Stages in build order, then experiments in registry order.
    pub scopes: Vec<Scope>,
    /// Worker threads the campaign ran with.
    pub jobs: usize,
    /// End-to-end wall-clock of the whole campaign in milliseconds
    /// (studies + experiments; less than the per-scope sum when `jobs > 1`).
    pub total_ms: f64,
}

impl Execution {
    /// Fold every scope's metrics into campaign totals.
    pub fn totals(&self) -> MetricSet {
        let mut total = MetricSet::new();
        for s in &self.scopes {
            total.merge(&s.set);
        }
        total
    }

    /// The slowest single experiment, if any ran.
    pub fn peak(&self) -> Option<&Scope> {
        self.scopes
            .iter()
            .filter(|s| s.kind == EXPERIMENT)
            .max_by(|a, b| a.wall_ms.total_cmp(&b.wall_ms))
    }

    /// Render `results/timings.csv`: [`Execution::timings_table`] as CSV,
    /// with the schema `name,kind,workers,wall_ms` where `kind` is
    /// `stage` (shared study build), `experiment`, or `total` (one final
    /// row with the campaign wall-clock and the campaign's `--jobs`).
    pub fn timings_csv(&self) -> String {
        self.timings_table().to_csv()
    }

    /// The timings as a renderable [`Table`] — the "Execution timings"
    /// section of the HTML page and the rows of `timings.csv`, wall
    /// times in milliseconds to three decimals.
    pub fn timings_table(&self) -> Table {
        let mut t = Table::new(
            format!("Execution timings ({} worker(s))", self.jobs),
            &["name", "kind", "workers", "wall_ms"],
        );
        for s in &self.scopes {
            t.row(vec![
                s.name.clone(),
                s.kind.into(),
                s.workers.to_string(),
                format!("{:.3}", s.wall_ms),
            ]);
        }
        t.row(vec![
            "total".into(),
            "total".into(),
            self.jobs.to_string(),
            format!("{:.3}", self.total_ms),
        ]);
        t
    }

    /// Serialize the scopes' metrics as the `results/metrics.json`
    /// document:
    ///
    /// ```json
    /// {
    ///   "schema": "edgescope-metrics/1",
    ///   "scopes": [
    ///     {"scope": "study:latency", "kind": "stage",
    ///      "metrics": [{"name": "net.probes_sent", "kind": "counter", "value": 5040}]}
    ///   ],
    ///   "totals": [{"name": "net.probes_sent", "kind": "counter", "value": 5040}]
    /// }
    /// ```
    ///
    /// Histogram components appear as `name[le=B]` / `name[count]` /
    /// `name[sum]` rows of kind `histogram`. Wall-clock and the worker
    /// count appear nowhere, so the output is byte-stable for a given
    /// scenario regardless of `--jobs`.
    pub fn metrics_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"edgescope-metrics/1\",\n  \"scopes\": [");
        for (i, s) in self.scopes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"scope\": ");
            out.push_str(&json_escape(&s.name));
            out.push_str(", \"kind\": ");
            out.push_str(&json_escape(s.kind));
            out.push_str(", \"metrics\": [");
            push_rows(&mut out, &s.set.rows(), "\n      ", "\n    ");
            out.push_str("]}");
        }
        if !self.scopes.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"totals\": [");
        push_rows(&mut out, &self.totals().rows(), "\n    ", "\n  ");
        out.push_str("]\n}\n");
        out
    }

    /// Campaign totals as a renderable [`Table`] — the "Campaign
    /// metrics" section of the HTML page (per-scope breakdowns live in
    /// `metrics.json` only) — or `None` when no scope recorded anything.
    pub fn metrics_table(&self) -> Option<Table> {
        let totals = self.totals();
        if totals.is_empty() {
            return None;
        }
        let mut t = Table::new(
            "Campaign metrics (totals across studies and experiments)".to_string(),
            &["name", "kind", "value"],
        );
        for r in totals.rows() {
            t.row(vec![r.name, r.kind.into(), r.value.to_string()]);
        }
        Some(t)
    }
}

/// Append `rows` as JSON objects, each after `indent`, closing with
/// `close` when there is at least one.
fn push_rows(out: &mut String, rows: &[MetricRow], indent: &str, close: &str) {
    for (j, r) in rows.iter().enumerate() {
        if j > 0 {
            out.push(',');
        }
        out.push_str(indent);
        out.push_str(&format!(
            "{{\"name\": {}, \"kind\": {}, \"value\": {}}}",
            json_escape(&r.name),
            json_escape(r.kind),
            r.value.to_json()
        ));
    }
    if !rows.is_empty() {
        out.push_str(close);
    }
}

/// The product of [`build_studies`]: the studies themselves plus one
/// `study:*` [`Scope`] per build. (Not `Clone`/`Debug`: the studies hold
/// whole campaigns and trained models — services share one build behind
/// an `Arc` instead of copying it.)
pub struct StudyBuild {
    /// The built studies — fields populated per the requested [`Needs`]
    /// (prediction and streaming each imply workload).
    pub studies: Studies,
    /// One `study:*` scope per build, in build order.
    pub scopes: Vec<Scope>,
}

/// Build the shared studies `needs` asks for, each data-parallel at
/// `jobs` width inside its own [`Scope`], with `study.start`/`study.close`
/// span events on `emitter`.
///
/// This is the library entry point behind both [`run`] (which derives
/// `needs` from its specs) and long-running services such as
/// `edgescope-serve` (which build the studies once at startup and then
/// answer queries against them). Studies build one after the other,
/// each data-parallel inside itself at the full `jobs` width —
/// intra-study fan-out keeps every worker busy for the whole build,
/// which beats overlapping two serial builds (the latency study
/// dominates and would leave the other workers idle once the workload
/// build finishes). The prediction study trains on the trace pair and
/// the streaming study sketches it, so `needs.prediction` and
/// `needs.streaming` each force a workload build even when
/// `needs.workload` is unset.
pub fn build_studies(
    scenario: &Scenario,
    needs: Needs,
    jobs: usize,
    emitter: &Emitter,
) -> StudyBuild {
    let jobs = jobs.max(1);
    let mut scopes = Vec::new();
    let mut studies = Studies::none();
    if needs.latency {
        let (study, scope) = run_scope(emitter, STAGE, "latency", jobs, || {
            LatencyStudy::run(scenario, jobs)
        });
        studies.latency = Some(study);
        scopes.push(scope);
    }
    if needs.workload || needs.prediction || needs.streaming {
        let (study, scope) = run_scope(emitter, STAGE, "workload", jobs, || {
            WorkloadStudy::run(scenario, jobs)
        });
        studies.workload = Some(study);
        scopes.push(scope);
    }
    if needs.prediction {
        let workload = studies
            .workload
            .as_ref()
            .expect("workload study built above");
        let (study, scope) = run_scope(emitter, STAGE, "prediction", jobs, || {
            PredictionStudy::run(scenario, workload, jobs)
        });
        studies.prediction = Some(study);
        scopes.push(scope);
    }
    if needs.streaming {
        let workload = studies
            .workload
            .as_ref()
            .expect("workload study built above");
        let (study, scope) = run_scope(emitter, STAGE, "streaming", jobs, || {
            StreamingStudy::run(scenario, workload, jobs)
        });
        studies.streaming = Some(study);
        scopes.push(scope);
    }
    StudyBuild { studies, scopes }
}

/// Run every spec against `scenario` on up to `jobs` worker threads
/// (clamped to at least 1), with span events on stderr in the `log`
/// format, and collect reports in spec order. The shared studies the
/// specs need are built first, one after the other, each fanned out at
/// the full `jobs` width inside itself (see [`build_studies`]); then the
/// experiment runners fan out over `jobs` workers with
/// [`obs::pool::fan_out`], each inside its own [`Scope`] on one worker.
pub fn run(
    scenario: &Scenario,
    specs: Vec<ExperimentSpec>,
    jobs: usize,
    log: LogFormat,
) -> Execution {
    let jobs = jobs.max(1);
    let t0 = Instant::now();
    let emitter = Emitter::new(log);
    emitter.event(
        "executor",
        "campaign.start",
        &[
            ("jobs", Field::U64(jobs as u64)),
            ("experiments", Field::U64(specs.len() as u64)),
            ("seed", Field::U64(scenario.seed)),
        ],
    );

    let StudyBuild {
        studies,
        mut scopes,
    } = build_studies(scenario, Needs::of_specs(&specs), jobs, &emitter);
    let per_spec = obs::pool::fan_out(specs.len(), jobs, |i| {
        run_scope(&emitter, EXPERIMENT, specs[i].name, 1, || {
            specs[i].run(scenario, &studies)
        })
    });
    let mut reports = Vec::with_capacity(specs.len());
    for (report, scope) in per_spec {
        reports.push(report);
        scopes.push(scope);
    }

    let total_ms = elapsed_ms(t0);
    emitter.event(
        "executor",
        "campaign.close",
        &[("wall_ms", Field::F64(total_ms))],
    );
    Execution {
        reports,
        scopes,
        jobs,
        total_ms,
    }
}

fn elapsed_ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{registry, select_experiments, Runner};
    use crate::scenario::Scale;

    fn tiny_spec(name: &'static str) -> ExperimentSpec {
        ExperimentSpec::new(
            name,
            Runner::Scenario(|_| {
                let mut r = ExperimentReport::new("tiny", "tiny experiment");
                r.notes.push("ok".into());
                r
            }),
        )
    }

    fn names<'a>(exec: &'a Execution, kind: &str) -> Vec<&'a str> {
        exec.scopes
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.name.as_str())
            .collect()
    }

    #[test]
    fn run_clamps_jobs() {
        let scenario = Scenario::new(Scale::Quick, 7);
        assert_eq!(
            run(&scenario, vec![tiny_spec("a")], 0, LogFormat::Off).jobs,
            1
        );
        assert_eq!(
            run(&scenario, vec![tiny_spec("a")], 8, LogFormat::Off).jobs,
            8
        );
    }

    #[test]
    fn parallel_preserves_spec_order_and_times_everything() {
        let specs = vec![
            tiny_spec("e1"),
            tiny_spec("e2"),
            tiny_spec("e3"),
            tiny_spec("e4"),
            tiny_spec("e5"),
            tiny_spec("e6"),
        ];
        let scenario = Scenario::new(Scale::Quick, 7);
        let exec = run(&scenario, specs, 4, LogFormat::Off);
        assert_eq!(exec.reports.len(), 6);
        assert_eq!(
            names(&exec, EXPERIMENT),
            ["e1", "e2", "e3", "e4", "e5", "e6"]
        );
        assert!(
            names(&exec, STAGE).is_empty(),
            "no study needed by tiny specs"
        );
        assert!(exec
            .scopes
            .iter()
            .all(|s| s.wall_ms >= 0.0 && s.workers == 1));
        assert!(exec.peak().is_some());
        // Tiny specs touch no instrumented substrate: scopes exist (one
        // per experiment) but record nothing.
        assert_eq!(exec.scopes.len(), 6);
        assert!(exec.totals().is_empty());
        assert!(exec.metrics_table().is_none());
    }

    #[test]
    fn timings_csv_schema() {
        let scenario = Scenario::new(Scale::Quick, 7);
        let exec = run(
            &scenario,
            vec![tiny_spec("a"), tiny_spec("b")],
            2,
            LogFormat::Off,
        );
        let csv = exec.timings_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "name,kind,workers,wall_ms");
        // 2 experiments + total, no stages.
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with("a,experiment,1,"));
        assert!(lines[2].starts_with("b,experiment,1,"));
        assert!(lines[3].starts_with("total,total,2,"));
        let table = exec.timings_table();
        assert_eq!(table.rows().len(), 3);
    }

    #[test]
    fn stage_entries_carry_the_jobs_count() {
        let specs = select_experiments(registry(), "fig3").expect("fig3 exists");
        let scenario = Scenario::new(Scale::Quick, 7);
        let exec = run(&scenario, specs, 3, LogFormat::Off);
        assert_eq!(names(&exec, STAGE), ["study:latency"]);
        assert_eq!(exec.scopes[0].workers, 3);
        assert!(exec
            .timings_csv()
            .lines()
            .any(|l| l.starts_with("study:latency,stage,3,")));
    }

    #[test]
    fn stages_recorded_when_studies_needed() {
        let specs = select_experiments(registry(), "fig3").expect("fig3 exists");
        let scenario = Scenario::new(Scale::Quick, 7);
        let exec = run(&scenario, specs, 1, LogFormat::Off);
        assert_eq!(
            names(&exec, STAGE),
            ["study:latency"],
            "only the needed study is built"
        );
        assert_eq!(exec.reports.len(), 1);
        assert_eq!(exec.reports[0].id, "fig3");
    }

    #[test]
    fn prediction_need_builds_workload_then_prediction_stage() {
        // fig14 declares only needs.prediction; the executor must build
        // the workload study (the prediction study's input) and then the
        // prediction study, each as its own timed, metric-scoped stage.
        let specs = select_experiments(registry(), "fig14").expect("fig14 exists");
        assert!(specs[0].needs.prediction && !specs[0].needs.workload);
        let scenario = Scenario::new(Scale::Quick, 7);
        let exec = run(&scenario, specs, 2, LogFormat::Off);
        assert_eq!(names(&exec, STAGE), ["study:workload", "study:prediction"]);
        assert!(exec
            .scopes
            .iter()
            .filter(|s| s.kind == STAGE)
            .all(|s| s.workers == 2));
        let scope_names: Vec<&str> = exec.scopes.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(scope_names, ["study:workload", "study:prediction", "fig14"]);
        // The training happens in the prediction stage, not in fig14.
        let pred = &exec.scopes[1].set;
        assert!(pred.counter("predict.series_trained") > 0);
        assert!(pred.counter("predict.epochs_run") > 0);
        assert_eq!(exec.scopes[2].set.counter("predict.series_trained"), 0);
    }

    #[test]
    fn streaming_need_builds_workload_then_streaming_stage() {
        // metro_workload declares only needs.streaming; the executor must
        // build the workload study (whose traces the streaming study
        // sketches) and then the streaming study, each as its own stage.
        let specs = select_experiments(registry(), "metro_workload").expect("known name");
        assert!(specs[0].needs.streaming && !specs[0].needs.workload);
        let scenario = Scenario::new(Scale::Quick, 7);
        let exec = run(&scenario, specs, 2, LogFormat::Off);
        let scope_names: Vec<&str> = exec.scopes.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            scope_names,
            ["study:workload", "study:streaming", "metro_workload"]
        );
        assert!(exec
            .scopes
            .iter()
            .filter(|s| s.kind == STAGE)
            .all(|s| s.workers == 2));
        // The traces are synthesized once, in the workload stage.
        assert!(exec.scopes[0].set.counter("trace.vms_generated") > 0);
        assert_eq!(exec.scopes[1].set.counter("trace.vms_generated"), 0);
        let workload = exec.scopes[0].set.counter("trace.vms_generated");
        let render = exec.reports[0].render();
        let streamed = render
            .lines()
            .find(|l| l.contains("VMs streamed"))
            .expect("VM count row");
        let counts: u64 = streamed
            .split_whitespace()
            .filter_map(|w| w.parse::<u64>().ok())
            .sum();
        assert_eq!(counts, workload, "NEP + Azure VMs streamed: {streamed}");
    }

    #[test]
    fn metrics_attributed_per_scope() {
        let specs = select_experiments(registry(), "fig3").expect("fig3 exists");
        let scenario = Scenario::new(Scale::Quick, 7);
        let exec = run(&scenario, specs, 1, LogFormat::Off);
        let scope_names: Vec<&str> = exec.scopes.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(scope_names, ["study:latency", "fig3"]);
        assert_eq!(exec.scopes[0].kind, "stage");
        assert_eq!(exec.scopes[1].kind, "experiment");
        // The probing happens in the shared study, not the aggregation.
        assert!(exec.scopes[0].set.counter("net.probes_sent") > 0);
        let totals = exec.totals();
        assert!(totals.counter("net.probes_sent") > 0);
        assert!(totals.counter("probe.ping_targets_measured") > 0);
    }

    #[test]
    fn metrics_json_shape() {
        let specs = select_experiments(registry(), "fig3").expect("fig3 exists");
        let scenario = Scenario::new(Scale::Quick, 7);
        let exec = run(&scenario, specs, 1, LogFormat::Off);
        let json = exec.metrics_json();
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"schema\": \"edgescope-metrics/1\""));
        assert!(json.contains("\"scope\": \"study:latency\""));
        assert!(json.contains("\"name\": \"net.probes_sent\""));
        assert!(json.contains("\"totals\": ["));
        assert!(
            !json.contains("jobs"),
            "worker count must not leak into metrics.json"
        );
        assert!(
            !json.contains("wall_ms"),
            "wall-clock must not leak into metrics.json"
        );
        let table = exec.metrics_table().expect("fig3 records metrics");
        assert!(!table.rows().is_empty());
    }
}

//! Parallel experiment execution with per-experiment timing, metrics,
//! and span logging.
//!
//! The [`Executor`] fans the runners of an experiment registry (see
//! [`crate::experiments::registry`]) out with [`obs::pool::fan_out`] —
//! the workspace's one scoped-thread pool — and collects the reports
//! back **in registry order**, so the rendered output is independent of
//! the worker count. This is safe because of the determinism contract
//! documented in [`crate::scenario`]: every experiment derives its own
//! RNG from `(seed, tag)` and shares no mutable state with its peers.
//!
//! The shared study builds run one after the other, each data-parallel
//! inside itself: the executor passes its `--jobs` into
//! [`LatencyStudy::run`] / [`WorkloadStudy::run`] /
//! [`PredictionStudy::run`] / [`StreamingStudy::run`], whose campaign
//! loops (the same `fan_out`) give every entity (user, VM, evaluated
//! series) an independent RNG stream and merge in entity order — so the
//! studies, too, are byte-identical at every worker count. The prediction study
//! consumes the workload study, so declaring
//! [`crate::experiments::Needs::prediction`] implies a workload build
//! even when no experiment reads the traces directly.
//!
//! Alongside the reports, the executor records wall-clock [`Timings`]:
//! one entry per shared study build ("stage") and one per experiment,
//! exported as `results/timings.csv` by the `reproduce` binary and as a
//! summary table on the HTML page.
//!
//! It also snapshots the deterministic `edgescope-obs` metrics: each
//! study build and each experiment runs inside its own
//! [`obs::scoped`] metric scope on its worker thread, so the counters a
//! runner's substrate calls increment (probes sent, placements made,
//! VMs generated, …) are attributed exactly to it. The per-scope sets
//! plus their fold are the [`CampaignMetrics`] on the returned
//! [`Execution`], written as `results/metrics.json` and a "Campaign
//! metrics" HTML section by the binary. Metric totals are identical
//! across worker counts by construction (scopes are per-experiment and
//! merged in registry order), and collection draws no randomness, so
//! renders stay byte-identical.
//!
//! Span-style logging uses [`Emitter`]: a `campaign.start`/`close` pair
//! around the run, a `study.start`/`close` pair per shared study, and an
//! `experiment.start`/`close` pair per experiment — on stderr, format
//! chosen by [`Executor::with_log`] (default off).

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

/// One named wall-clock measurement, in milliseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedEntry {
    /// What was timed — an experiment name, or `study:latency` /
    /// `study:workload` / `study:prediction` / `study:streaming` for the
    /// shared stages.
    pub name: String,
    /// Worker threads this entry ran with: the executor's `--jobs` for
    /// data-parallel study builds, 1 for experiments (each runs entirely
    /// on one worker).
    pub workers: usize,
    /// Wall-clock duration in milliseconds.
    pub wall_ms: f64,
}

/// Wall-clock timings of one [`Executor::run`] campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct Timings {
    /// Worker threads the campaign ran with.
    pub jobs: usize,
    /// Shared study builds (`study:latency`, `study:workload`,
    /// `study:prediction`, `study:streaming`), in build order.
    pub stages: Vec<TimedEntry>,
    /// One entry per experiment, in registry order.
    pub experiments: Vec<TimedEntry>,
    /// End-to-end wall-clock of the whole campaign in milliseconds
    /// (studies + experiments; less than the per-entry sum when `jobs > 1`).
    pub total_ms: f64,
}

impl Timings {
    /// The slowest single experiment, if any ran.
    pub fn peak(&self) -> Option<&TimedEntry> {
        self.experiments
            .iter()
            .max_by(|a, b| a.wall_ms.total_cmp(&b.wall_ms))
    }

    /// Render as CSV with the schema `name,kind,workers,wall_ms` where
    /// `kind` is `stage` (shared study build), `experiment`, or `total`
    /// (one final row with the campaign wall-clock and the campaign's
    /// `--jobs`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("name,kind,workers,wall_ms\n");
        for e in &self.stages {
            out.push_str(&format!("{},stage,{},{:.3}\n", e.name, e.workers, e.wall_ms));
        }
        for e in &self.experiments {
            out.push_str(&format!("{},experiment,{},{:.3}\n", e.name, e.workers, e.wall_ms));
        }
        out.push_str(&format!("total,total,{},{:.3}\n", self.jobs, self.total_ms));
        out
    }

    /// The timings as a renderable [`Table`] (the HTML page appends it
    /// after the experiment sections).
    pub fn summary_table(&self) -> Table {
        let mut t = Table::new(
            format!("Execution timings ({} worker(s))", self.jobs),
            &["name", "kind", "workers", "wall_ms"],
        );
        for e in &self.stages {
            t.row(vec![
                e.name.clone(),
                "stage".into(),
                e.workers.to_string(),
                format!("{:.1}", e.wall_ms),
            ]);
        }
        for e in &self.experiments {
            t.row(vec![
                e.name.clone(),
                "experiment".into(),
                e.workers.to_string(),
                format!("{:.1}", e.wall_ms),
            ]);
        }
        t.row(vec![
            "total".into(),
            "total".into(),
            self.jobs.to_string(),
            format!("{:.1}", self.total_ms),
        ]);
        t
    }
}

/// The metrics one scope (a shared study build or one experiment)
/// recorded on its worker thread.
#[derive(Debug, Clone, PartialEq)]
pub struct ScopeMetrics {
    /// Scope name: an experiment name, or `study:latency` /
    /// `study:workload` / `study:prediction` / `study:streaming`.
    pub name: String,
    /// `"stage"` for study builds, `"experiment"` for experiments —
    /// matching the `kind` column of `timings.csv`.
    pub kind: &'static str,
    /// Everything recorded while the scope ran.
    pub set: MetricSet,
}

/// All metric scopes of one campaign, in deterministic order (stages in
/// build order, then experiments in registry order). Totals and JSON
/// are derived, never stored, so the struct has exactly one source of
/// truth and `--jobs 1` vs `--jobs 4` produce identical output
/// (deliberately, the worker count appears nowhere in the JSON).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignMetrics {
    /// Per-scope metric sets.
    pub scopes: Vec<ScopeMetrics>,
}

impl CampaignMetrics {
    /// Fold every scope's set into campaign totals.
    pub fn totals(&self) -> MetricSet {
        let mut total = MetricSet::new();
        for s in &self.scopes {
            total.merge(&s.set);
        }
        total
    }

    /// True when no scope recorded anything.
    pub fn is_empty(&self) -> bool {
        self.scopes.iter().all(|s| s.set.is_empty())
    }

    /// Serialize as the `results/metrics.json` document:
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
    /// `name[sum]` rows of kind `histogram`. Output is byte-stable for
    /// a given scenario regardless of worker count.
    pub fn to_json(&self) -> String {
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
            let rows = s.set.rows();
            for (j, r) in rows.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("\n      ");
                out.push_str(&row_json(r));
            }
            if !rows.is_empty() {
                out.push_str("\n    ");
            }
            out.push_str("]}");
        }
        if !self.scopes.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"totals\": [");
        let totals = self.totals().rows();
        for (j, r) in totals.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            out.push_str(&row_json(r));
        }
        if !totals.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Campaign totals as a renderable [`Table`] — the "Campaign
    /// metrics" section of the HTML page (per-scope breakdowns live in
    /// `metrics.json` only; the page shows the fold).
    pub fn summary_table(&self) -> Table {
        let mut t = Table::new(
            "Campaign metrics (totals across studies and experiments)".to_string(),
            &["name", "kind", "value"],
        );
        for r in self.totals().rows() {
            t.row(vec![r.name, r.kind.into(), r.value.to_string()]);
        }
        t
    }
}

fn row_json(r: &MetricRow) -> String {
    format!(
        "{{\"name\": {}, \"kind\": {}, \"value\": {}}}",
        json_escape(&r.name),
        json_escape(r.kind),
        r.value.to_json()
    )
}

/// The outcome of one [`Executor::run`] campaign: reports in registry
/// order plus the recorded [`Timings`] and [`CampaignMetrics`].
#[derive(Debug, Clone)]
pub struct Execution {
    /// One report per executed experiment, in registry order — identical
    /// across worker counts for the same scenario.
    pub reports: Vec<ExperimentReport>,
    /// Per-stage and per-experiment wall-clock.
    pub timings: Timings,
    /// Per-stage and per-experiment deterministic metrics.
    pub metrics: CampaignMetrics,
}

/// The product of [`build_studies`]: the studies themselves plus the
/// `study:*` stage timings and per-stage metric scopes recorded while
/// building them. (Not `Clone`/`Debug`: the studies hold whole
/// campaigns and trained models — services share one build behind an
/// `Arc` instead of copying it.)
pub struct StudyBuild {
    /// The built studies — fields populated per the requested [`Needs`]
    /// (prediction implies workload).
    pub studies: Studies,
    /// One `study:*` timing entry per build, in build order.
    pub stages: Vec<TimedEntry>,
    /// One `study:*` metric scope per build, matching `stages`.
    pub stage_metrics: Vec<ScopeMetrics>,
}

/// Build the shared studies `needs` asks for, each data-parallel at
/// `jobs` width inside its own [`obs::scoped`] metric scope, with
/// `study.start`/`study.close` span events on `emitter`.
///
/// This is the library entry point behind both [`Executor::run`] (which
/// derives `needs` from its specs) and long-running services such as
/// `edgescope-serve` (which build the studies once at startup and then
/// answer queries against them). Studies build one after the other,
/// each data-parallel inside itself at the full `jobs` width —
/// intra-study fan-out keeps every worker busy for the whole build,
/// which beats overlapping two serial builds (the latency study
/// dominates and would leave the other workers idle once the workload
/// build finishes). The prediction study trains on the trace pair, so
/// `needs.prediction` forces a workload build even when `needs.workload`
/// is unset.
pub fn build_studies(
    scenario: &Scenario,
    needs: Needs,
    jobs: usize,
    emitter: &Emitter,
) -> StudyBuild {
    let jobs = jobs.max(1);
    let mut stages: Vec<TimedEntry> = Vec::new();
    let mut stage_metrics: Vec<ScopeMetrics> = Vec::new();
    let mut studies = Studies::none();

    // One study build: span events, wall-clock, and its own metric scope.
    fn stage<T>(
        name: &'static str,
        jobs: usize,
        emitter: &Emitter,
        stages: &mut Vec<TimedEntry>,
        stage_metrics: &mut Vec<ScopeMetrics>,
        f: impl FnOnce() -> T,
    ) -> T {
        emitter.event("executor", "study.start", &[("study", Field::Str(name))]);
        let t = Instant::now();
        let (study, set) = obs::scoped(f);
        let ms = elapsed_ms(t);
        emitter.event(
            "executor",
            "study.close",
            &[("study", Field::Str(name)), ("wall_ms", Field::F64(ms))],
        );
        stages.push(TimedEntry { name: format!("study:{name}"), workers: jobs, wall_ms: ms });
        stage_metrics.push(ScopeMetrics { name: format!("study:{name}"), kind: "stage", set });
        study
    }

    if needs.latency {
        studies.latency =
            Some(stage("latency", jobs, emitter, &mut stages, &mut stage_metrics, || {
                LatencyStudy::run(scenario, jobs)
            }));
    }
    if needs.workload || needs.prediction {
        studies.workload =
            Some(stage("workload", jobs, emitter, &mut stages, &mut stage_metrics, || {
                WorkloadStudy::run(scenario, jobs)
            }));
    }
    if needs.prediction {
        let workload = studies.workload.as_ref().expect("workload study built above");
        studies.prediction =
            Some(stage("prediction", jobs, emitter, &mut stages, &mut stage_metrics, || {
                PredictionStudy::run(scenario, workload, jobs)
            }));
    }
    if needs.streaming {
        studies.streaming =
            Some(stage("streaming", jobs, emitter, &mut stages, &mut stage_metrics, || {
                StreamingStudy::run(scenario, jobs)
            }));
    }
    StudyBuild { studies, stages, stage_metrics }
}

/// Runs a set of [`ExperimentSpec`]s over up to `jobs` worker threads.
#[derive(Debug, Clone, Copy)]
pub struct Executor {
    jobs: usize,
    log: LogFormat,
}

impl Executor {
    /// An executor with `jobs` worker threads (clamped to at least 1)
    /// and logging off.
    pub fn new(jobs: usize) -> Self {
        Executor { jobs: jobs.max(1), log: LogFormat::Off }
    }

    /// The same executor with span logging in the given format
    /// (stderr-only; stdout renders are unaffected).
    pub fn with_log(mut self, log: LogFormat) -> Self {
        self.log = log;
        self
    }

    /// The worker-thread count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The configured log format.
    pub fn log_format(&self) -> LogFormat {
        self.log
    }

    /// Run every spec against `scenario` and collect reports in spec
    /// order. The shared studies the specs need are built first, one
    /// after the other, each fanned out at the full `jobs` width inside
    /// itself (see [`build_studies`]); then the experiment runners fan
    /// out over `jobs` workers with [`obs::pool::fan_out`]. Every study
    /// build and experiment runs inside its own metric scope; see
    /// [`CampaignMetrics`].
    pub fn run(&self, scenario: &Scenario, specs: Vec<ExperimentSpec>) -> Execution {
        let t0 = Instant::now();
        let emitter = Emitter::new(self.log);
        emitter.event(
            "executor",
            "campaign.start",
            &[
                ("jobs", Field::U64(self.jobs as u64)),
                ("experiments", Field::U64(specs.len() as u64)),
                ("seed", Field::U64(scenario.seed)),
            ],
        );

        let StudyBuild { studies, stages, stage_metrics } =
            build_studies(scenario, Needs::of_specs(&specs), self.jobs, &emitter);

        // Each experiment runs entirely on one worker thread inside its
        // own metric scope, so the scope captures exactly its increments.
        let per_spec = obs::pool::fan_out(specs.len(), self.jobs, |i| {
            let name = specs[i].name;
            emitter.event("executor", "experiment.start", &[("name", Field::Str(name))]);
            let ((report, wall_ms), set) = obs::scoped(|| {
                let t = Instant::now();
                let report = specs[i].run(scenario, &studies);
                (report, elapsed_ms(t))
            });
            emitter.event(
                "executor",
                "experiment.close",
                &[("name", Field::Str(name)), ("wall_ms", Field::F64(wall_ms))],
            );
            (report, wall_ms, set)
        });
        let mut reports = Vec::with_capacity(specs.len());
        let mut experiments = Vec::with_capacity(specs.len());
        let mut experiment_metrics = Vec::with_capacity(specs.len());
        for (spec, (report, wall_ms, set)) in specs.iter().zip(per_spec) {
            experiments.push(TimedEntry { name: spec.name.to_string(), workers: 1, wall_ms });
            experiment_metrics.push(ScopeMetrics {
                name: spec.name.to_string(),
                kind: "experiment",
                set,
            });
            reports.push(report);
        }

        let total_ms = elapsed_ms(t0);
        emitter.event("executor", "campaign.close", &[("wall_ms", Field::F64(total_ms))]);
        let mut scopes = stage_metrics;
        scopes.extend(experiment_metrics);
        Execution {
            reports,
            timings: Timings { jobs: self.jobs, stages, experiments, total_ms },
            metrics: CampaignMetrics { scopes },
        }
    }
}

fn elapsed_ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Parse a `--jobs` / `EDGESCOPE_JOBS` value: a positive integer, else
/// `None`.
pub fn parse_jobs(s: &str) -> Option<usize> {
    match s.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => None,
    }
}

/// Resolve the worker count: CLI value, then environment value, then
/// [`default_jobs`]. Invalid values at any layer fall through to the
/// next.
pub fn resolve_jobs(cli: Option<&str>, env: Option<&str>) -> usize {
    cli.and_then(parse_jobs)
        .or_else(|| env.and_then(parse_jobs))
        .unwrap_or_else(default_jobs)
}

/// The machine's available parallelism (1 if it cannot be queried).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{registry, select_experiments, Needs};
    use crate::scenario::Scale;

    fn tiny_spec(name: &'static str) -> ExperimentSpec {
        ExperimentSpec::new(name, Needs::default(), |_, _| {
            let mut r = ExperimentReport::new("tiny", "tiny experiment");
            r.notes.push("ok".into());
            r
        })
    }

    #[test]
    fn jobs_parsing() {
        assert_eq!(parse_jobs("4"), Some(4));
        assert_eq!(parse_jobs(" 2 "), Some(2));
        assert_eq!(parse_jobs("0"), None);
        assert_eq!(parse_jobs("-3"), None);
        assert_eq!(parse_jobs("many"), None);
        assert_eq!(parse_jobs(""), None);
    }

    #[test]
    fn jobs_resolution_falls_back_cleanly() {
        assert_eq!(resolve_jobs(Some("3"), Some("7")), 3);
        assert_eq!(resolve_jobs(Some("bogus"), Some("7")), 7);
        assert_eq!(resolve_jobs(None, Some("7")), 7);
        assert_eq!(resolve_jobs(Some("0"), None), default_jobs());
        assert_eq!(resolve_jobs(None, None), default_jobs());
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn executor_clamps_jobs() {
        assert_eq!(Executor::new(0).jobs(), 1);
        assert_eq!(Executor::new(8).jobs(), 8);
    }

    #[test]
    fn log_format_defaults_off_and_is_configurable() {
        assert_eq!(Executor::new(2).log_format(), LogFormat::Off);
        assert_eq!(Executor::new(2).with_log(LogFormat::Json).log_format(), LogFormat::Json);
        assert_eq!(Executor::new(2).with_log(LogFormat::Json).jobs(), 2);
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
        let exec = Executor::new(4).run(&scenario, specs);
        assert_eq!(exec.reports.len(), 6);
        let names: Vec<&str> = exec.timings.experiments.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["e1", "e2", "e3", "e4", "e5", "e6"]);
        assert!(exec.timings.stages.is_empty(), "no study needed by tiny specs");
        assert!(exec.timings.experiments.iter().all(|e| e.wall_ms >= 0.0));
        assert!(exec.timings.peak().is_some());
        // Tiny specs touch no instrumented substrate: scopes exist (one
        // per experiment) but record nothing.
        assert_eq!(exec.metrics.scopes.len(), 6);
        assert!(exec.metrics.is_empty());
    }

    #[test]
    fn timings_csv_schema() {
        let scenario = Scenario::new(Scale::Quick, 7);
        let exec = Executor::new(2).run(&scenario, vec![tiny_spec("a"), tiny_spec("b")]);
        let csv = exec.timings.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "name,kind,workers,wall_ms");
        // 2 experiments + total, no stages.
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with("a,experiment,1,"));
        assert!(lines[2].starts_with("b,experiment,1,"));
        assert!(lines[3].starts_with("total,total,2,"));
        let table = exec.timings.summary_table();
        assert_eq!(table.n_rows(), 3);
    }

    #[test]
    fn stage_entries_carry_the_jobs_count() {
        let specs = select_experiments(registry(), "fig3").expect("fig3 exists");
        let scenario = Scenario::new(Scale::Quick, 7);
        let exec = Executor::new(3).run(&scenario, specs);
        assert_eq!(exec.timings.stages.len(), 1);
        assert_eq!(exec.timings.stages[0].workers, 3);
        assert!(exec
            .timings
            .to_csv()
            .lines()
            .any(|l| l.starts_with("study:latency,stage,3,")));
    }

    #[test]
    fn stages_recorded_when_studies_needed() {
        let specs = select_experiments(registry(), "fig3").expect("fig3 exists");
        let scenario = Scenario::new(Scale::Quick, 7);
        let exec = Executor::new(1).run(&scenario, specs);
        let stage_names: Vec<&str> = exec.timings.stages.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(stage_names, ["study:latency"], "only the needed study is built");
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
        let exec = Executor::new(2).run(&scenario, specs);
        let stage_names: Vec<&str> = exec.timings.stages.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(stage_names, ["study:workload", "study:prediction"]);
        assert!(exec.timings.stages.iter().all(|e| e.workers == 2));
        let scope_names: Vec<&str> =
            exec.metrics.scopes.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(scope_names, ["study:workload", "study:prediction", "fig14"]);
        // The training happens in the prediction stage, not in fig14.
        let pred = &exec.metrics.scopes[1].set;
        assert!(pred.counter("predict.series_trained") > 0);
        assert!(pred.counter("predict.epochs_run") > 0);
        assert_eq!(exec.metrics.scopes[2].set.counter("predict.series_trained"), 0);
    }

    #[test]
    fn metrics_attributed_per_scope() {
        let specs = select_experiments(registry(), "fig3").expect("fig3 exists");
        let scenario = Scenario::new(Scale::Quick, 7);
        let exec = Executor::new(1).run(&scenario, specs);
        let scope_names: Vec<&str> =
            exec.metrics.scopes.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(scope_names, ["study:latency", "fig3"]);
        assert_eq!(exec.metrics.scopes[0].kind, "stage");
        assert_eq!(exec.metrics.scopes[1].kind, "experiment");
        // The probing happens in the shared study, not the aggregation.
        assert!(exec.metrics.scopes[0].set.counter("net.probes_sent") > 0);
        let totals = exec.metrics.totals();
        assert!(totals.counter("net.probes_sent") > 0);
        assert!(totals.counter("probe.ping_targets_measured") > 0);
    }

    #[test]
    fn metrics_json_shape() {
        let specs = select_experiments(registry(), "fig3").expect("fig3 exists");
        let scenario = Scenario::new(Scale::Quick, 7);
        let exec = Executor::new(1).run(&scenario, specs);
        let json = exec.metrics.to_json();
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"schema\": \"edgescope-metrics/1\""));
        assert!(json.contains("\"scope\": \"study:latency\""));
        assert!(json.contains("\"name\": \"net.probes_sent\""));
        assert!(json.contains("\"totals\": ["));
        assert!(!json.contains("jobs"), "worker count must not leak into metrics.json");
        let table = exec.metrics.summary_table();
        assert!(table.n_rows() > 0);
    }
}

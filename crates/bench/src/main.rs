//! `edgescope-bench`: regenerates the committed `BENCH_*.json` documents
//! and enforces their CI floors ([`USAGE`] lists the arguments).
//!
//! `study-parallel` (`BENCH_study_parallel.json`) times the latency and
//! workload study builds at `default` scale, serial vs. [`GATE_WORKERS`];
//! `predict` (`BENCH_predict.json`) times the Holt-Winters and LSTM
//! trainings of an 8-VM `quick` cohort the same way, plus the packed-GEMM
//! LSTM against its scalar reference; `scale` (`BENCH_scale.json`) runs
//! the whole registry once per tier, each in a fresh child process, for
//! wall-clock and peak RSS. Every document records the host it ran on and
//! the floors `--check` applies; `--check` exits 1 when one fails.
//! "Bench thresholds" in EXPERIMENTS.md explains each floor. End-to-end
//! and per-layer timings of the campaign and of `edgescope-serve` come
//! from `perfbench/run.py` (see `BENCHMARK.json`).

use std::hint::black_box;
use std::process::{Command, ExitCode};
use std::time::Instant;

use edgescope_core::analysis::stats::select;
use edgescope_core::executor;
use edgescope_core::experiments::latency_study::LatencyStudy;
use edgescope_core::experiments::prediction_study::{cohort, lstm_config};
use edgescope_core::experiments::registry_for;
use edgescope_core::experiments::workload_study::WorkloadStudy;
use edgescope_core::obs::cli::{self, Spec, UsageError};
use edgescope_core::obs::log::{json_escape, LogFormat};
use edgescope_core::predict::eval::{
    evaluate_holt_winters, evaluate_lstm, evaluate_lstm_reference,
};
use edgescope_core::predict::window::Aggregation;
use edgescope_core::{Scale, Scenario};

/// The world seed of every bench scenario, so runs compare like with like.
const BENCH_SEED: u64 = 0xbe7c;
/// Fan-out width of every parallel column and of each `scale` child.
const GATE_WORKERS: usize = 4;
/// Samples per median.
const ITERS: usize = 5;
/// Version of every document's schema, `edgescope-bench-<subcommand>/3`:
/// the one writer gives the three documents one layout.
const SCHEMA_VERSION: u32 = 3;
/// `predict`'s cohort: wide enough that every worker gets series, small
/// enough that a run finishes in seconds at `quick`.
const COHORT_VMS: usize = 8;

/// Command-line usage, printed with every argument error.
const USAGE: &str = "usage: edgescope-bench study-parallel|predict [--out FILE] [--check]\n       \
                     edgescope-bench scale [--tiers quick,default,paper,metro] [--out FILE] [--check]";
/// The internal subcommand a `scale` run re-executes itself with, once per tier.
const CHILD: &str = "scale-child";
/// Prefix of the one machine-readable line a `scale` child prints.
const RESULT_PREFIX: &str = "SCALE_RESULT";
/// The keys of that line, in document order; `peak_rss_mb` comes last.
const TIER_KEYS: [&str; 5] = [
    "users",
    "nep_sites",
    "experiments",
    "wall_ms",
    "peak_rss_mb",
];

/// A CI floor on one measured value: a speedup must reach `limit` (×), a
/// memory budget must stay below it (MB).
struct Floor {
    /// The reading's key in a document's `floors` block and in
    /// EXPERIMENTS.md's "Bench thresholds" table.
    name: &'static str,
    limit: f64,
    at_least: bool,
}

/// Latency-study fan-out at `default` scale; at `quick` each worker gets
/// ~1 ms of work and thread setup eats the win.
const LATENCY_SPEEDUP: Floor = Floor {
    name: "latency_speedup",
    limit: 1.5,
    at_least: true,
};
/// LSTM training fan-out, the training that dominates the campaign.
const LSTM_SPEEDUP: Floor = Floor {
    name: "lstm_speedup",
    limit: 1.5,
    at_least: true,
};
/// Packed-GEMM LSTM over its scalar reference, both serial on identical
/// work, so machine-independent; floored below the measured ratio.
const KERNEL_SPEEDUP: Floor = Floor {
    name: "kernel_speedup",
    limit: 1.5,
    at_least: true,
};
/// Default tier peak RSS: the workload study folds each VM's CPU and
/// bandwidth series at synthesis and keeps only their statistics.
const DEFAULT_PEAK_RSS_MB: Floor = Floor {
    name: "default_peak_rss_mb",
    limit: 21.0,
    at_least: false,
};
/// Metro tier peak RSS: the crowd streams through sketches, never
/// materialized.
const METRO_PEAK_RSS_MB: Floor = Floor {
    name: "metro_peak_rss_mb",
    limit: 256.0,
    at_least: false,
};
/// The tiers whose peak RSS the `scale` floors read, in floor order.
const RSS_FLOOR_TIERS: [Scale; 2] = [Scale::Default, Scale::Metro];

impl Floor {
    /// Whether `reading` meets the floor; a missing reading never does.
    fn holds(&self, reading: Option<f64>) -> bool {
        reading.is_some_and(|x| {
            if self.at_least {
                x >= self.limit
            } else {
                x < self.limit
            }
        })
    }

    /// The floor as EXPERIMENTS.md writes it, e.g. `≥ 1.5×`.
    fn text(&self) -> String {
        if self.at_least {
            format!("≥ {}×", self.limit)
        } else {
            format!("< {} MB", self.limit)
        }
    }

    fn json(&self) -> String {
        obj(&[(
            if self.at_least { "min" } else { "below" },
            self.limit.to_string(),
        )])
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Sub {
    StudyParallel,
    Predict,
    Scale,
}

impl Sub {
    const ALL: [Sub; 3] = [Sub::StudyParallel, Sub::Predict, Sub::Scale];

    fn name(self) -> &'static str {
        match self {
            Sub::StudyParallel => "study-parallel",
            Sub::Predict => "predict",
            Sub::Scale => "scale",
        }
    }

    /// The floors `--check` applies, in the order [`Measured::readings`]
    /// lists their readings.
    fn floors(self) -> &'static [Floor] {
        match self {
            Sub::StudyParallel => &[LATENCY_SPEEDUP],
            Sub::Predict => &[LSTM_SPEEDUP, KERNEL_SPEEDUP],
            Sub::Scale => &[DEFAULT_PEAK_RSS_MB, METRO_PEAK_RSS_MB],
        }
    }

    /// The document's `schema` value.
    fn schema(self) -> String {
        json_escape(&format!("edgescope-bench-{}/{SCHEMA_VERSION}", self.name()))
    }

    /// The document's `floors` block: each floor's limit under its name.
    fn floors_json(self) -> String {
        obj(&self
            .floors()
            .iter()
            .map(|f| (f.name, f.json()))
            .collect::<Vec<_>>())
    }
}

#[derive(Debug, PartialEq)]
enum Cmd {
    Run {
        sub: Sub,
        out: Option<String>,
        check: bool,
        tiers: Vec<Scale>,
    },
    /// One `scale` tier, run in this fresh process.
    Child(Scale),
}

/// `run`'s arguments after the subcommand.
const RUN_SPEC: Spec = Spec {
    values: &["--out", "--tiers"],
    switches: &["--check"],
    positionals: 0,
};
/// `scale-child`'s one argument, the tier.
const CHILD_SPEC: Spec = Spec {
    values: &[],
    switches: &[],
    positionals: 1,
};

fn parse_tier(s: &str) -> Result<Scale, String> {
    Scale::from_arg(s).map_err(|e| format!("unknown tier {s:?}; {e}"))
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Cmd, String> {
    let mut args = args.into_iter();
    let first = args.next().ok_or("missing subcommand")?;
    if first == CHILD {
        let child = cli::scan(&CHILD_SPEC, args).map_err(|e| e.0)?;
        let tier = child
            .positionals()
            .first()
            .ok_or("scale-child needs a tier")?;
        return parse_tier(tier).map(Cmd::Child);
    }
    let sub = Sub::ALL
        .into_iter()
        .find(|s| s.name() == first)
        .ok_or_else(|| format!("unknown subcommand {first:?}"))?;
    let a = cli::scan(&RUN_SPEC, args).map_err(|e| e.0)?;
    let listed = a.get("--tiers", |v| {
        v.split(',').map(|t| parse_tier(t.trim())).collect()
    });
    let tiers = match (sub, listed.map_err(|e| e.0)?) {
        (Sub::Scale, Some(tiers)) => tiers,
        (Sub::Scale, None) => Scale::ALL.to_vec(),
        (_, None) => vec![],
        (_, Some(_)) => {
            return Err(format!(
                "--tiers applies to `scale` only, not `{}`",
                sub.name()
            ))
        }
    };
    let check = a.switch("--check");
    if sub == Sub::Scale && check && !RSS_FLOOR_TIERS.iter().all(|t| tiers.contains(t)) {
        return Err("scale --check needs the default and metro tiers in --tiers".into());
    }
    Ok(Cmd::Run {
        sub,
        out: a.raw("--out").map(String::from),
        check,
        tiers,
    })
}

/// Median wall-clock milliseconds of each closure over [`ITERS`] samples.
///
/// Every closure first runs once untimed, so first-touch costs (page
/// faults, lazy statics, allocator growth) land in no column. The samples
/// then interleave, round `r` starting at closure `r mod N`, so drift on
/// the host spreads over every column instead of biasing whichever ran
/// last.
fn medians_ms<const N: usize>(mut fs: [&mut dyn FnMut(); N]) -> [f64; N] {
    fs.iter_mut().for_each(|f| f());
    let mut samples: [Vec<f64>; N] = std::array::from_fn(|_| Vec::with_capacity(ITERS));
    for r in 0..ITERS {
        for k in 0..N {
            let i = (r + k) % N;
            let t = Instant::now();
            fs[i]();
            samples[i].push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    samples.map(|mut s| select(&mut s, ITERS / 2))
}

/// One serial vs. [`GATE_WORKERS`] measurement.
struct Row {
    name: &'static str,
    serial_ms: f64,
    parallel_ms: f64,
}

impl Row {
    fn measure(name: &'static str, mut serial: impl FnMut(), mut parallel: impl FnMut()) -> Row {
        let [serial_ms, parallel_ms] = medians_ms([&mut serial, &mut parallel]);
        Row {
            name,
            serial_ms,
            parallel_ms,
        }
    }

    fn speedup(&self) -> f64 {
        self.serial_ms / self.parallel_ms.max(1e-9)
    }

    fn json(&self) -> (&'static str, String) {
        let fields = [
            ("serial_ms", format!("{:.3}", self.serial_ms)),
            ("parallel_ms", format!("{:.3}", self.parallel_ms)),
            ("speedup", format!("{:.3}", self.speedup())),
        ];
        (self.name, obj(&fields))
    }
}

/// A JSON object on one line; values are already-rendered JSON.
fn obj(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_escape(k)))
        .collect();
    format!("{{ {} }}", body.join(", "))
}

/// A JSON object with one key per line, nested `depth` levels deep.
fn block(fields: &[(&str, String)], depth: usize) -> String {
    let pad = "  ".repeat(depth + 1);
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{pad}{}: {v}", json_escape(k)))
        .collect();
    format!("{{\n{}\n{}}}", body.join(",\n"), "  ".repeat(depth))
}

/// The host envelope, under perfbench's names: a fan-out floor read with
/// more workers than cores proves nothing, so the document says when.
fn host() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let stdout = |cmd: &str, args: &[&str]| {
        let out = Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success());
        out.map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let rev = stdout("git", &["rev-parse", "HEAD"]).map(|head| {
        let status = stdout("git", &["status", "--porcelain", "--untracked-files=no"]);
        git_rev(&head, &status.unwrap_or_default())
    });
    let json = |v: Option<String>| v.map_or("null".into(), |v| json_escape(&v));
    obj(&[
        ("available_parallelism", cores.to_string()),
        ("rustc", json(stdout("rustc", &["-V"]))),
        ("git_rev", json(rev)),
        ("oversubscribed", (GATE_WORKERS > cores).to_string()),
    ])
}

/// The commit `head` names, with `-dirty` appended when `status` (`git
/// status --porcelain --untracked-files=no`) lists a changed tracked
/// file: a document measured on an uncommitted tree must not name its
/// parent commit as the code it measured. The `BENCH_*.json` documents
/// at the root do not count, so one subcommand's fresh output leaves the
/// next one's rev clean.
fn git_rev(head: &str, status: &str) -> String {
    let bench_doc = |path: &str| path.starts_with("BENCH_") && path.ends_with(".json");
    let mut paths = status.lines().filter_map(|l| l.split_whitespace().last());
    if paths.all(bench_doc) {
        head.to_string()
    } else {
        format!("{head}-dirty")
    }
}

/// A subcommand's document fields and one reading per [`Sub::floors`] entry.
struct Measured {
    fields: Vec<(&'static str, String)>,
    readings: Vec<Option<f64>>,
}

fn study_parallel() -> Measured {
    let scenario = Scenario::new(Scale::Default, BENCH_SEED);
    let latency = Row::measure(
        "latency",
        || drop(black_box(LatencyStudy::run(&scenario, 1))),
        || drop(black_box(LatencyStudy::run(&scenario, GATE_WORKERS))),
    );
    let workload = Row::measure(
        "workload",
        || drop(black_box(WorkloadStudy::run(&scenario, 1))),
        || drop(black_box(WorkloadStudy::run(&scenario, GATE_WORKERS))),
    );
    Measured {
        readings: vec![Some(latency.speedup())],
        fields: vec![
            ("scale", json_escape(Scale::Default.name())),
            ("iterations", ITERS.to_string()),
            ("studies", block(&[latency.json(), workload.json()], 1)),
        ],
    }
}

fn predict() -> Measured {
    let scenario = Scenario::new(Scale::Quick, BENCH_SEED);
    let wl = WorkloadStudy::run(&scenario, GATE_WORKERS);
    let series = cohort(&wl.nep, COHORT_VMS);
    let sphh = wl.nep.config.cpu_samples_per_half_hour();
    let cfg = lstm_config(COHORT_VMS, &scenario);
    let mean = Aggregation::Mean;
    let holt_winters = Row::measure(
        "holt_winters",
        || drop(black_box(evaluate_holt_winters(&series, sphh, mean, 1))),
        || {
            drop(black_box(evaluate_holt_winters(
                &series,
                sphh,
                mean,
                GATE_WORKERS,
            )))
        },
    );
    // The scalar reference samples alongside the packed LSTM, serial only:
    // the kernel comparison is per-element arithmetic, not fan-out.
    let [serial_ms, parallel_ms, scalar_ms] = medians_ms([
        &mut || drop(black_box(evaluate_lstm(&series, sphh, mean, &cfg, 1))),
        &mut || {
            drop(black_box(evaluate_lstm(
                &series,
                sphh,
                mean,
                &cfg,
                GATE_WORKERS,
            )))
        },
        &mut || {
            drop(black_box(evaluate_lstm_reference(
                &series, sphh, mean, &cfg,
            )))
        },
    ]);
    let lstm = Row {
        name: "lstm",
        serial_ms,
        parallel_ms,
    };
    let kernel_speedup = scalar_ms / serial_ms.max(1e-9);
    let models = [
        holt_winters.json(),
        lstm.json(),
        (
            "lstm_scalar",
            obj(&[("serial_ms", format!("{scalar_ms:.3}"))]),
        ),
    ];
    Measured {
        readings: vec![Some(lstm.speedup()), Some(kernel_speedup)],
        fields: vec![
            ("scale", json_escape(Scale::Quick.name())),
            ("cohort_vms", COHORT_VMS.to_string()),
            ("iterations", ITERS.to_string()),
            ("models", block(&models, 1)),
            ("kernel_speedup", format!("{kernel_speedup:.3}")),
        ],
    }
}

/// Child mode: run one tier's registry end to end and print the result line.
fn scale_child(scale: Scale) {
    let t = Instant::now();
    let scenario = Scenario::new(scale, BENCH_SEED);
    let specs = registry_for(scale);
    let n = specs.len();
    let execution = executor::run(&scenario, specs, GATE_WORKERS, LogFormat::Off);
    assert_eq!(execution.reports.len(), n, "every experiment must report");
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    // Peak resident set (`VmHWM`, kB), where the platform has procfs.
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:")?.split_whitespace().next());
    let rss = kb
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or("null".into(), |kb| format!("{:.1}", kb / 1024.0));
    println!(
        "{RESULT_PREFIX} users={} nep_sites={} experiments={n} wall_ms={wall_ms:.1} peak_rss_mb={rss}",
        scenario.sizing.n_users, scenario.sizing.nep_sites,
    );
}

/// A child's values, one per [`TIER_KEYS`] entry (`None` for `null`).
fn parse_result(stdout: &str) -> Result<Vec<Option<f64>>, String> {
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix(RESULT_PREFIX))
        .ok_or_else(|| format!("child printed no result line; stdout:\n{stdout}"))?;
    let value = |key: &str| -> Result<Option<f64>, String> {
        let v = line
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='));
        match v {
            Some("null") => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{key}: not a number: {v:?}")),
            None => Err(format!("malformed result line {line:?} (missing {key})")),
        }
    };
    TIER_KEYS.iter().map(|key| value(key)).collect()
}

fn scale(tiers: &[Scale]) -> Result<Measured, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable path: {e}"))?;
    let (mut rows, mut peak_mb) = (Vec::new(), Vec::new());
    for &tier in tiers {
        eprintln!(
            "scale: running tier {} ({GATE_WORKERS} workers)...",
            tier.name()
        );
        let output = Command::new(&exe)
            .args([CHILD, tier.name()])
            .output()
            .map_err(|e| format!("cannot re-exec {exe:?}: {e}"))?;
        if !output.status.success() {
            let stderr = String::from_utf8_lossy(&output.stderr);
            return Err(format!(
                "tier {} failed ({}):\n{stderr}",
                tier.name(),
                output.status
            ));
        }
        let values = parse_result(&String::from_utf8_lossy(&output.stdout))
            .map_err(|e| format!("tier {}: {e}", tier.name()))?;
        peak_mb.push((tier, values[TIER_KEYS.len() - 1]));
        let render = |v: &Option<f64>| v.map_or("null".into(), |x| x.to_string());
        let fields: Vec<_> = TIER_KEYS
            .into_iter()
            .zip(values.iter().map(render))
            .collect();
        rows.push((tier.name(), obj(&fields)));
    }
    let readings = RSS_FLOOR_TIERS
        .iter()
        .map(|t| {
            peak_mb
                .iter()
                .find(|(tier, _)| tier == t)
                .and_then(|&(_, mb)| mb)
        })
        .collect();
    Ok(Measured {
        fields: vec![("tiers", block(&rows, 1))],
        readings,
    })
}

fn run(sub: Sub, out: Option<&str>, check: bool, tiers: &[Scale]) -> Result<bool, String> {
    let measured = match sub {
        Sub::StudyParallel => study_parallel(),
        Sub::Predict => predict(),
        Sub::Scale => scale(tiers)?,
    };
    let floors = sub.floors();
    assert_eq!(
        measured.readings.len(),
        floors.len(),
        "one reading per floor"
    );
    let mut fields = vec![
        ("schema", sub.schema()),
        ("seed", BENCH_SEED.to_string()),
        ("workers", GATE_WORKERS.to_string()),
        ("host", host()),
        ("floors", sub.floors_json()),
    ];
    fields.extend(measured.fields);
    let doc = block(&fields, 0) + "\n";
    match out {
        Some(path) => {
            std::fs::write(path, &doc).map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("wrote {path}");
        }
        None => print!("{doc}"),
    }
    let mut passed = true;
    for (floor, &reading) in floors.iter().zip(&measured.readings).filter(|_| check) {
        let shown = reading.map_or("unavailable".into(), |x| format!("{x:.2}"));
        if floor.holds(reading) {
            println!("check passed: {} {shown} {}", floor.name, floor.text());
        } else {
            eprintln!(
                "FAIL: {} {shown} misses its floor {}",
                floor.name,
                floor.text()
            );
            passed = false;
        }
    }
    Ok(passed)
}

fn main() -> ExitCode {
    match parse(std::env::args().skip(1)) {
        Err(e) => UsageError(e).exit(USAGE),
        Ok(Cmd::Child(scale)) => {
            scale_child(scale);
            ExitCode::SUCCESS
        }
        Ok(Cmd::Run {
            sub,
            out,
            check,
            tiers,
        }) => match run(sub, out.as_deref(), check, &tiers) {
            Ok(passed) => ExitCode::from(u8::from(!passed)),
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(1)
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    fn args(line: &str) -> Result<Cmd, String> {
        parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parse_accepts_each_subcommand() {
        for sub in Sub::ALL {
            let cmd = args(&format!("{} --out x.json --check", sub.name())).expect("valid");
            let Cmd::Run {
                sub: got,
                out,
                check,
                ..
            } = cmd
            else {
                panic!("not a run")
            };
            assert_eq!((got, out.as_deref(), check), (sub, Some("x.json"), true));
        }
        let Ok(Cmd::Run { tiers, .. }) = args("scale --tiers quick,default,metro --check") else {
            panic!("scale with default and metro must parse")
        };
        assert_eq!(tiers, [Scale::Quick, Scale::Default, Scale::Metro]);
        let Ok(Cmd::Run { tiers, .. }) = args("scale --check") else {
            panic!("bare scale")
        };
        assert_eq!(
            tiers,
            [Scale::Quick, Scale::Default, Scale::Paper, Scale::Metro]
        );
        assert_eq!(args("scale-child metro"), Ok(Cmd::Child(Scale::Metro)));
    }

    #[test]
    fn parse_rejects_bad_input() {
        for bad in [
            "",
            "campaign",
            "predict --check 1.5",
            "predict --jobs 4",
            "study-parallel --out",
            "scale --tiers quick,huge",
            "predict --tiers quick",
            "scale --tiers quick,paper --check",
            "scale --tiers quick,metro --check",
            "scale --tiers default --check",
            "scale-child huge",
        ] {
            assert!(args(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn floors_hold_on_one_side_only() {
        for floor in Sub::ALL.iter().flat_map(|s| s.floors()) {
            let x = floor.limit;
            let (pass, fail) = if floor.at_least {
                (x, x - 0.01)
            } else {
                (x - 0.1, x)
            };
            assert!(
                floor.holds(Some(pass)),
                "{} must pass at {pass}",
                floor.name
            );
            assert!(
                !floor.holds(Some(fail)),
                "{} must fail at {fail}",
                floor.name
            );
            assert!(
                !floor.holds(None),
                "{} must fail without a reading",
                floor.name
            );
        }
        let names: Vec<&str> = Sub::ALL
            .iter()
            .flat_map(|s| s.floors())
            .map(|f| f.name)
            .collect();
        assert_eq!(
            names,
            [
                "latency_speedup",
                "lstm_speedup",
                "kernel_speedup",
                "default_peak_rss_mb",
                "metro_peak_rss_mb"
            ]
        );
    }

    #[test]
    fn git_rev_marks_an_uncommitted_tree_dirty() {
        assert_eq!(git_rev("0123abcd", ""), "0123abcd");
        assert_eq!(git_rev("0123abcd", "\n"), "0123abcd");
        assert_eq!(
            git_rev("0123abcd", " M crates/bench/src/main.rs"),
            "0123abcd-dirty"
        );
        assert_eq!(git_rev("0123abcd", "M  a.rs\n D b.rs"), "0123abcd-dirty");
        // The bench documents themselves never mark the tree dirty.
        assert_eq!(
            git_rev(
                "0123abcd",
                "M BENCH_study_parallel.json\n M BENCH_scale.json"
            ),
            "0123abcd"
        );
        assert_eq!(
            git_rev(
                "0123abcd",
                "M BENCH_scale.json\n M crates/bench/src/main.rs"
            ),
            "0123abcd-dirty"
        );
        assert_eq!(
            git_rev("0123abcd", " M crates/bench/BENCH_scale.json"),
            "0123abcd-dirty"
        );
    }

    #[test]
    fn samples_warm_up_every_closure_then_interleave() {
        let calls = RefCell::new(Vec::new());
        medians_ms([&mut || calls.borrow_mut().push(0), &mut || {
            calls.borrow_mut().push(1)
        }]);
        // One untimed warm-up each, then rounds alternating which side leads.
        assert_eq!(calls.into_inner(), [0, 1, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1]);
    }

    #[test]
    fn child_result_line_round_trips_and_rejects_missing_keys() {
        let line = "noise\nSCALE_RESULT users=40 nep_sites=60 experiments=39 wall_ms=2037.9 peak_rss_mb=34.4\n";
        let values = [Some(40.0), Some(60.0), Some(39.0), Some(2037.9), Some(34.4)];
        assert_eq!(parse_result(line), Ok(values.to_vec()));
        let no_procfs = line.replace("34.4", "null");
        assert_eq!(parse_result(&no_procfs).expect("null RSS")[4], None);
        for key in TIER_KEYS {
            let dropped: String = line
                .split(' ')
                .filter(|t| !t.starts_with(key))
                .collect::<Vec<_>>()
                .join(" ");
            assert!(
                parse_result(&dropped).is_err(),
                "a line without {key} must be rejected"
            );
        }
        assert!(parse_result(&line.replace("users=40", "users=")).is_err());
        assert!(parse_result("no result here").is_err());
    }

    #[test]
    fn bench_thresholds_table_matches_the_floors() {
        // EXPERIMENTS.md's "Bench thresholds" table must name every
        // subcommand's gate and every floor with the value the code uses.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
        let md = std::fs::read_to_string(path).expect("EXPERIMENTS.md");
        let section = md
            .split("### Bench thresholds")
            .nth(1)
            .expect("Bench thresholds section");
        let table = section.split("\n### ").next().expect("section body");
        for sub in Sub::ALL {
            let gate = format!("`edgescope-bench {} --check`", sub.name());
            for floor in sub.floors() {
                let (name, text) = (format!("`{}`", floor.name), floor.text());
                assert!(
                    table
                        .lines()
                        .any(|l| l.contains(&gate) && l.contains(&name) && l.contains(&text)),
                    "Bench thresholds needs a row with {gate}, {name} and {text}"
                );
            }
        }
    }

    #[test]
    fn committed_bench_documents_carry_the_written_schema_and_floors() {
        // Each committed BENCH_*.json must have the `schema` and `floors`
        // lines this binary writes for its subcommand, so a floor changed
        // without regenerating its document fails here.
        for sub in Sub::ALL {
            let file = format!("BENCH_{}.json", sub.name().replace('-', "_"));
            let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
            let doc = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{file}: {e}"));
            for (key, value) in [("schema", sub.schema()), ("floors", sub.floors_json())] {
                let line = format!("  {}: {value},", json_escape(key));
                assert!(
                    doc.lines().any(|l| l == line),
                    "{file} lacks the line {line}; regenerate it with \
                     `edgescope-bench {} --out {file} --check`",
                    sub.name()
                );
            }
        }
    }
}

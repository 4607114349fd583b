//! Regenerates `BENCH_predict.json`: wall-clock of the per-VM forecaster
//! trainings, serial vs. fanned out, plus the speedup ratio — and, since
//! the kernel refactor, the packed-GEMM LSTM against the scalar
//! reference implementation it replaced.
//!
//! ```text
//! cargo run --release -p edgescope-bench --bin predict-baseline -- \
//!     [--out FILE] [--scale TIER] [--jobs N] [--iters N] \
//!     [--check MIN_SPEEDUP] [--check-kernel MIN_SPEEDUP]
//! ```
//!
//! Companion to `study-parallel-baseline`: the same committable-JSON
//! scheme (schema `edgescope-bench-predict/2`), applied to the
//! `predict::eval` fan-out the prediction study is built from.
//! Holt-Winters and the LSTM are timed separately because their
//! per-series cost profiles differ by an order of magnitude — the LSTM
//! row is the one that pays for the campaign, so `--check MIN_SPEEDUP`
//! gates on its fan-out ratio and `--check-kernel MIN_SPEEDUP` gates on
//! `kernel_speedup` (scalar-reference serial wall-clock over packed
//! serial wall-clock, identical work). Measured ~1.9x on the reference
//! container; CI runs `--check-kernel 1.5` to leave noise margin.

use std::time::Instant;

use edgescope_bench::{bench_scenario_at, BENCH_SEED};
use edgescope_core::experiments::prediction_study::{cohort, TAG};
use edgescope_core::experiments::workload_study::WorkloadStudy;
use edgescope_core::predict::eval::{evaluate_holt_winters, evaluate_lstm, evaluate_lstm_reference};
use edgescope_core::predict::lstm::LstmConfig;
use edgescope_core::predict::window::Aggregation;
use edgescope_core::Scale;

/// Cohort size: wide enough that 4 workers all get series, small enough
/// that `--iters 5` finishes in seconds at Quick scale.
const COHORT_VMS: usize = 8;

/// Median wall-clock milliseconds of `iters` runs of `f`.
fn median_ms<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    let mut samples: Vec<f64> = (0..iters.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

struct ModelRow {
    name: &'static str,
    serial_ms: f64,
    parallel_ms: f64,
}

impl ModelRow {
    fn speedup(&self) -> f64 {
        self.serial_ms / self.parallel_ms.max(1e-9)
    }

    fn json(&self) -> String {
        format!(
            "    \"{}\": {{ \"serial_ms\": {:.3}, \"parallel_ms\": {:.3}, \"speedup\": {:.3} }}",
            self.name,
            self.serial_ms,
            self.parallel_ms,
            self.speedup()
        )
    }
}

fn measure(
    series: &[Vec<f64>],
    sphh: usize,
    cfg: &LstmConfig,
    jobs: usize,
    iters: usize,
) -> Vec<ModelRow> {
    vec![
        ModelRow {
            name: "holt_winters",
            serial_ms: median_ms(iters, || {
                evaluate_holt_winters(series, sphh, Aggregation::Mean, 1);
            }),
            parallel_ms: median_ms(iters, || {
                evaluate_holt_winters(series, sphh, Aggregation::Mean, jobs);
            }),
        },
        ModelRow {
            name: "lstm",
            serial_ms: median_ms(iters, || {
                evaluate_lstm(series, sphh, Aggregation::Mean, cfg, 1);
            }),
            parallel_ms: median_ms(iters, || {
                evaluate_lstm(series, sphh, Aggregation::Mean, cfg, jobs);
            }),
        },
    ]
}

fn render(
    rows: &[ModelRow],
    scalar_serial_ms: f64,
    kernel_speedup: f64,
    scale: Scale,
    jobs: usize,
    iters: usize,
) -> String {
    let mut models: Vec<String> = rows.iter().map(ModelRow::json).collect();
    models.push(format!(
        "    \"lstm_scalar\": {{ \"serial_ms\": {scalar_serial_ms:.3} }}"
    ));
    format!(
        "{{\n  \"schema\": \"edgescope-bench-predict/2\",\n  \"status\": \"measured\",\n  \"scale\": \"{}\",\n  \"seed\": {BENCH_SEED},\n  \"cohort_vms\": {COHORT_VMS},\n  \"workers\": {jobs},\n  \"iterations\": {iters},\n  \"models\": {{\n{}\n  }},\n  \"kernel_speedup\": {kernel_speedup:.3}\n}}\n",
        scale.name(),
        models.join(",\n")
    )
}

fn main() {
    let mut out: Option<String> = None;
    let mut scale = Scale::Quick;
    let mut jobs = 4usize;
    let mut iters = 5usize;
    let mut check: Option<f64> = None;
    let mut check_kernel: Option<f64> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--out" => out = Some(value("--out")),
            "--scale" => {
                let v = value("--scale");
                scale = Scale::parse(&v).unwrap_or_else(|| {
                    eprintln!("unknown scale {v:?}");
                    std::process::exit(2);
                })
            }
            "--jobs" => {
                jobs = value("--jobs").parse().ok().filter(|&j: &usize| j > 0).unwrap_or_else(
                    || {
                        eprintln!("--jobs needs a positive integer");
                        std::process::exit(2);
                    },
                )
            }
            "--iters" => {
                iters = value("--iters").parse().ok().filter(|&i: &usize| i > 0).unwrap_or_else(
                    || {
                        eprintln!("--iters needs a positive integer");
                        std::process::exit(2);
                    },
                )
            }
            "--check" => {
                check = Some(value("--check").parse().unwrap_or_else(|_| {
                    eprintln!("--check needs a number");
                    std::process::exit(2);
                }))
            }
            "--check-kernel" => {
                check_kernel = Some(value("--check-kernel").parse().unwrap_or_else(|_| {
                    eprintln!("--check-kernel needs a number");
                    std::process::exit(2);
                }))
            }
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!(
                    "usage: predict-baseline [--out FILE] [--scale TIER] [--jobs N] [--iters N] [--check MIN_SPEEDUP] [--check-kernel MIN_SPEEDUP]"
                );
                std::process::exit(2);
            }
        }
    }

    let scenario = bench_scenario_at(scale);
    let wl = WorkloadStudy::run(&scenario, 1);
    let series = cohort(&wl.nep, COHORT_VMS);
    let sphh = wl.nep.config.cpu_samples_per_half_hour();
    let cfg = LstmConfig {
        epochs: 2,
        stride: 3,
        lookback: 12,
        seed: scenario.stream_seed(TAG),
        ..Default::default()
    };
    // One warm-up training so first-touch costs (page faults, lazy
    // statics) don't land in the serial column.
    evaluate_lstm(&series, sphh, Aggregation::Mean, &cfg, 1);

    let rows = measure(&series, sphh, &cfg, jobs, iters);
    // The scalar reference on identical work (serial only — the kernel
    // comparison is about per-element arithmetic, not fan-out).
    let scalar_serial_ms = median_ms(iters, || {
        evaluate_lstm_reference(&series, sphh, Aggregation::Mean, &cfg, 1);
    });
    let lstm_serial_ms = rows
        .iter()
        .find(|r| r.name == "lstm")
        .expect("lstm row")
        .serial_ms;
    let kernel_speedup = scalar_serial_ms / lstm_serial_ms.max(1e-9);

    for r in &rows {
        println!(
            "{}: serial {:.1} ms, {} workers {:.1} ms, speedup {:.2}x",
            r.name,
            r.serial_ms,
            jobs,
            r.parallel_ms,
            r.speedup()
        );
    }
    println!(
        "lstm_scalar: serial {scalar_serial_ms:.1} ms, kernel speedup {kernel_speedup:.2}x"
    );

    let doc = render(&rows, scalar_serial_ms, kernel_speedup, scale, jobs, iters);
    match &out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &doc) {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
            println!("wrote {path}");
        }
        None => print!("{doc}"),
    }

    if let Some(min) = check {
        let lstm = rows.iter().find(|r| r.name == "lstm").expect("lstm row");
        if lstm.speedup() < min {
            eprintln!(
                "FAIL: lstm training speedup {:.2}x below the {min:.2}x floor",
                lstm.speedup()
            );
            std::process::exit(1);
        }
        println!("check passed: lstm training speedup >= {min:.2}x");
    }
    if let Some(min) = check_kernel {
        if kernel_speedup < min {
            eprintln!(
                "FAIL: lstm kernel speedup {kernel_speedup:.2}x below the {min:.2}x floor"
            );
            std::process::exit(1);
        }
        println!("check passed: lstm kernel speedup >= {min:.2}x");
    }
}

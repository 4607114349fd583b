//! Regenerates `BENCH_study_parallel.json`: wall-clock of the two shared
//! study builds, serial vs. fanned out, plus the speedup ratio.
//!
//! ```text
//! cargo run --release -p edgescope-bench --bin study-parallel-baseline -- \
//!     [--out FILE] [--scale TIER] [--jobs N] [--iters N] [--check MIN_SPEEDUP]
//! ```
//!
//! Unlike the criterion group in `benches/study_parallel.rs` (which keeps
//! full statistics under `target/criterion`), this binary emits one small
//! committable JSON document (schema `edgescope-bench-study-parallel/1`)
//! so the perf trajectory lives in the repo. It deliberately avoids
//! criterion — that is a dev-dependency, unavailable to binaries.
//!
//! `--check MIN_SPEEDUP` exits non-zero if the latency-study speedup at
//! `--jobs` workers falls below the threshold. `--scale` picks the tier
//! the studies build at (default `quick`); the CI gate runs at
//! `default`, where each worker has enough per-user work for the
//! fan-out to win — see "Bench thresholds" in EXPERIMENTS.md.

use std::time::Instant;

use edgescope_bench::{bench_scenario_at, BENCH_SEED};
use edgescope_core::experiments::latency_study::LatencyStudy;
use edgescope_core::experiments::workload_study::WorkloadStudy;
use edgescope_core::{Scale, Scenario};

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

struct StudyRow {
    name: &'static str,
    serial_ms: f64,
    parallel_ms: f64,
}

impl StudyRow {
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

fn measure(scenario: &Scenario, jobs: usize, iters: usize) -> Vec<StudyRow> {
    vec![
        StudyRow {
            name: "latency",
            serial_ms: median_ms(iters, || {
                LatencyStudy::run(scenario, 1);
            }),
            parallel_ms: median_ms(iters, || {
                LatencyStudy::run(scenario, jobs);
            }),
        },
        StudyRow {
            name: "workload",
            serial_ms: median_ms(iters, || {
                WorkloadStudy::run(scenario, 1);
            }),
            parallel_ms: median_ms(iters, || {
                WorkloadStudy::run(scenario, jobs);
            }),
        },
    ]
}

fn render(rows: &[StudyRow], scale: Scale, jobs: usize, iters: usize) -> String {
    let studies: Vec<String> = rows.iter().map(StudyRow::json).collect();
    format!(
        "{{\n  \"schema\": \"edgescope-bench-study-parallel/1\",\n  \"status\": \"measured\",\n  \"scale\": \"{}\",\n  \"seed\": {BENCH_SEED},\n  \"workers\": {jobs},\n  \"iterations\": {iters},\n  \"studies\": {{\n{}\n  }}\n}}\n",
        scale.name(),
        studies.join(",\n")
    )
}

fn main() {
    let mut out: Option<String> = None;
    let mut scale = Scale::Quick;
    let mut jobs = 4usize;
    let mut iters = 5usize;
    let mut check: Option<f64> = None;

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
                    eprintln!(
                        "--scale: unknown tier {v:?}; valid tiers: {}",
                        Scale::NAMES.join(", ")
                    );
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
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!(
                    "usage: study-parallel-baseline [--out FILE] [--scale TIER] [--jobs N] [--iters N] [--check MIN_SPEEDUP]"
                );
                std::process::exit(2);
            }
        }
    }

    let scenario = bench_scenario_at(scale);
    // One warm-up build so first-touch costs (page faults, lazy statics)
    // don't land in the serial column.
    LatencyStudy::run(&scenario, 1);

    let rows = measure(&scenario, jobs, iters);
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

    let doc = render(&rows, scale, jobs, iters);
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
        let latency = rows.iter().find(|r| r.name == "latency").expect("latency row");
        if latency.speedup() < min {
            eprintln!(
                "FAIL: latency-study speedup {:.2}x below the {min:.2}x floor",
                latency.speedup()
            );
            std::process::exit(1);
        }
        println!("check passed: latency-study speedup >= {min:.2}x");
    }
}

#![warn(missing_docs)]
//! # edgescope-bench
//!
//! Baseline binaries that distil the serial vs. parallel comparisons
//! into committed JSON documents at the repo root:
//!
//! | binary | document | measures |
//! |---|---|---|
//! | `study-parallel-baseline` | `BENCH_study_parallel.json` | shared study builds, serial vs. fan-out (`--scale` selects the tier) |
//! | `predict-baseline` | `BENCH_predict.json` | per-VM forecaster trainings, serial vs. fan-out, plus the packed-GEMM kernel vs. its scalar reference (`--scale` selects the tier) |
//! | `campaign-baseline` | `BENCH_campaign.json` | the whole `reproduce` campaign at 1 vs. N workers (`--scale` selects the tier; CI regenerates at `default`) |
//! | `scale-bench` | `BENCH_scale.json` | wall-clock + peak RSS per scale tier, fresh child process each |
//!
//! End-to-end and per-layer timings of the whole campaign and of
//! `edgescope-serve` come from `perfbench/run.py` (see `BENCHMARK.json`).

/// The fixed seed all baseline binaries use, so runs compare like with
/// like.
pub const BENCH_SEED: u64 = 0xbe7c;

/// A bench scenario at an explicit scale tier (the baseline binaries
/// take `--scale`; speedup gates run at `default`, where the per-entity
/// fan-out has enough work per worker to amortize thread setup).
pub fn bench_scenario_at(scale: edgescope_core::Scale) -> edgescope_core::Scenario {
    edgescope_core::Scenario::new(scale, BENCH_SEED)
}

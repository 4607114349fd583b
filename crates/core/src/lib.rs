#![warn(missing_docs)]
//! # edgescope-core
//!
//! The paper-facing layer: calibrated scenarios and one experiment runner
//! per table/figure of *"From Cloud to Edge: A First Look at Public Edge
//! Platforms"* (IMC 2021).
//!
//! * [`scenario`] — the simulated world at three scales: `paper` (520
//!   edge sites, 158 users — the paper's campaign), `default` (a faithful
//!   but faster reduction), and `quick` (CI-sized);
//! * [`report`] — experiment outputs: aligned text tables plus CSV series
//!   for re-plotting;
//! * [`engine`] — the time-stepped "living platform": advances the whole
//!   world through simulated days under a scheduled
//!   [`net::fault::EventTimeline`] (outages, partitions, flash crowds,
//!   drains, mobility), powering the `dyn_*` dynamic-scenario
//!   experiments (see `SCENARIOS.md` at the workspace root);
//! * [`executor`] — the parallel campaign driver: fans the experiment
//!   [`experiments::registry`] out over worker threads (`--jobs` /
//!   `EDGESCOPE_JOBS`) and records every study build and experiment as
//!   one [`executor::Scope`]: wall-clock, deterministic metrics, and a
//!   span-style start/close event pair on stderr (`--log
//!   pretty|json|off` / `EDGESCOPE_LOG`, default off);
//! * [`experiments`] — `table1`, `fig2`, `table2`, `fig3`, `fig4`, `fig5`,
//!   `fig6`, `fig7`, `table6`, `fig8`, `fig9`, `sales_rate`, `fig10`,
//!   `fig11`, `fig12`, `fig13`, `fig14`, `table3` — each regenerates its
//!   artefact and returns an [`report::ExperimentReport`].
//!
//! The `reproduce` binary runs everything (in parallel with `--jobs N`,
//! filtered with `--only fig2a,table3`, logged with `--log json`) and
//! writes `results/`, including `timings.csv` and `metrics.json`, both
//! rendered from the campaign's scope list — see `EXPERIMENTS.md` at the
//! workspace root for paper-vs-measured values and `ARCHITECTURE.md` for
//! the crate map.

pub mod engine;
pub mod executor;
pub mod experiments;
pub mod report;
pub mod scenario;

pub use executor::{build_studies, Execution, Scope, StudyBuild};
pub use report::ExperimentReport;
pub use scenario::{Scale, Scenario};

// Re-export the substrate crates so downstream users (and the examples)
// need only one dependency.
pub use edgescope_analysis as analysis;
pub use edgescope_billing as billing;
pub use edgescope_net as net;
pub use edgescope_obs as obs;
pub use edgescope_platform as platform;
pub use edgescope_predict as predict;
pub use edgescope_probe as probe;
pub use edgescope_qoe as qoe;
pub use edgescope_sched as sched;
pub use edgescope_trace as trace;

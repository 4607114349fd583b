#![warn(missing_docs)]
//! # edgescope-trace
//!
//! Synthetic workload traces standing in for (a) NEP's proprietary
//! three-month VM trace and (b) the public Azure 2019 dataset, with the
//! §2.1.2 schema: a VM table (placement, customer, app), per-VM resource
//! sizes, CPU usage sampled every minute, and bandwidth sampled every five
//! minutes.
//!
//! The generators are *calibrated to the distributions the paper reports*
//! (§4.1–§4.4) rather than to any confidential raw data:
//!
//! | statistic | NEP target | Azure target |
//! |---|---|---|
//! | median vCPU / VM (Fig. 8) | 8 | 1 (90 % ≤ 4) |
//! | median memory / VM (Fig. 8) | 32 GB | 4 GB (70 % ≤ 4) |
//! | storage / VM | median 100 GB, mean 650 GB | n/a |
//! | apps with ≥ 50 VMs (Fig. 9) | ≈ 9.6 % | ≈ 6.1 % |
//! | VMs under 10 % mean CPU (Fig. 10a) | ≈ 74 % | ≈ 47 % |
//! | median CPU CV over time (Fig. 10b) | ≈ 0.48 | ≈ 0.24 |
//! | apps with > 50× cross-VM usage gap (Fig. 13a) | ≈ 16.3 % | ≈ 0.1 % |
//! | mean seasonal strength (§4.4) | ≈ 0.42 | ≈ 0.26 |
//!
//! Modules:
//! * [`app`] — application categories (§4.1's list) and their temporal
//!   shapes;
//! * [`flavor`] — the edge/cloud population parameter sets;
//! * [`population`] — VM-table generation, including NEP placement through
//!   `edgescope-platform`'s policy;
//! * [`series`] — CPU/bandwidth time-series generation (diurnal + weekly
//!   patterns, noise, drift);
//! * [`dataset`] — the assembled [`dataset::TraceDataset`] (VM table,
//!   folded per-VM CPU and bandwidth statistics, series regenerated on
//!   demand) with per-app / per-site accessors;
//! * [`per_vm`] — the per-VM series statistics (mean, P95 by selection,
//!   and the [`per_vm::CpuStats`] and [`per_vm::BwStats`] folds, the
//!   first with the CV)
//!   behind the dataset's folded rows and `trace-tool inspect`;
//! * [`stream`] — [`stream::StreamingTraceStats`], the metro
//!   experiments' fixed-memory sketches of a dataset's per-VM rows;
//! * [`io`] — TSV (VM table) and length-prefixed binary (series)
//!   serialization.
//!
//! ## Parallelism and determinism
//! Series synthesis is data-parallel over VMs: VM `i`'s series draws
//! from the `(seed, entity_tag(TRACE_VM, i))` stream
//! (`edgescope_net::rng::stream_rng`), and the app-level base draws come
//! from a dedicated `TRACE_APP` stream — so
//! [`dataset::TraceDataset::generate_nep`] /
//! [`dataset::TraceDataset::generate_azure`] produce byte-identical
//! datasets at every worker count (the fan-out is
//! `edgescope_obs::pool::fan_out`). The same purity makes
//! [`dataset::TraceDataset::cpu_series`] exact: a dropped CPU series is
//! regenerated bit for bit from the seed. A dropped bandwidth series is
//! replayed bit for bit by [`dataset::TraceDataset::bw_series`] from the
//! RNG state the VM's CPU draws left.
//!
//! ## Omitted
//! Kernel/image metadata from the schema (os type, image id) is carried as
//! opaque small integers — nothing in the paper's analysis reads more than
//! "same image = same app", which the generator encodes directly in
//! [`population`].
//!
//! ## Observability
//! Generators report to `edgescope-obs` scoped metrics when a scope is
//! active: `trace.vms_generated`, `trace.cpu_samples`,
//! `trace.bw_samples`, `trace.vm_requests_skipped` (population VMs
//! dropped because the platform was full). Counters draw no randomness
//! and never change generated data.

pub mod app;
pub mod dataset;
pub mod flavor;
pub mod io;
pub mod per_vm;
pub mod population;
pub mod series;
pub mod stream;
pub mod validate;

pub use app::AppCategory;
pub use dataset::{TraceDataset, VmSeries};
pub use flavor::{Flavor, FlavorParams};
pub use population::VmRecord;
pub use series::TraceConfig;
pub use stream::StreamingTraceStats;
pub use validate::{validate, Violation};

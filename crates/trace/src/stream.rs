//! Streaming (metro-scale) trace statistics.
//!
//! A [`TraceDataset`](crate::dataset::TraceDataset) keeps one folded
//! CPU and bandwidth row and one RNG state per VM — still linear in the
//! VM count, which at metro scale runs to tens of thousands.
//! [`StreamingTraceStats`] synthesizes and folds each VM through the same
//! `fold_vm` the batch dataset calls (so its statistics are bit-identical
//! to the batch `cpu_stats` and `bw_stats` rows), adds the per-VM
//! statistics the Fig. 10 distributions need to mergeable
//! [`PercentileSketch`]es, and keeps nothing per VM — one VM's series
//! are the only ones alive per worker at any time.
//!
//! ## Determinism contract
//! VM table and app table come from the same serial draws as the batch
//! generators (shared helpers in `dataset`), and VM `i`'s series is a
//! function of `(seed, i)` alone. VMs are folded in fixed-size chunks
//! (a constant, never derived from the worker count) and chunk
//! accumulators merge in chunk order, so results are byte-identical for
//! every `jobs` value. Sketch merges are integer-exact; chunking is
//! invisible to them entirely.

use crate::dataset::{app_table, fold_vm};
use crate::flavor::{Flavor, FlavorParams};
use crate::population::{generate_cloud, generate_nep, VmRecord};
use crate::series::TraceConfig;
use edgescope_analysis::sketch::PercentileSketch;
use edgescope_obs::pool::fan_out;
use edgescope_platform::deployment::Deployment;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// VMs folded per chunk accumulator. A constant so chunk boundaries
/// never depend on `jobs`.
const VM_CHUNK: usize = 1024;

/// Relative accuracy of the per-VM statistic sketches.
const SKETCH_ALPHA: f64 = 0.01;

fn cpu_sketch() -> PercentileSketch {
    // CPU percent: exact zeros go to the sketch's zero bucket.
    PercentileSketch::new(SKETCH_ALPHA, 0.01, 100.0)
}

fn cv_sketch() -> PercentileSketch {
    PercentileSketch::new(SKETCH_ALPHA, 1e-3, 100.0)
}

fn bw_sketch() -> PercentileSketch {
    PercentileSketch::new(SKETCH_ALPHA, 1e-3, 100_000.0)
}

/// Sketched per-VM statistics of one platform's trace — the streaming
/// analogue of the Fig. 10 accessor vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingTraceStats {
    /// Which platform this trace models.
    pub flavor: Flavor,
    /// Sampling configuration the series were synthesized under.
    pub config: TraceConfig,
    /// VMs folded in.
    pub n_vms: u64,
    /// Sketch over per-VM mean CPU utilization (percent).
    pub mean_cpu: PercentileSketch,
    /// Sketch over per-VM 95th-percentile CPU (Fig. 10a "P95 Max").
    pub p95_cpu: PercentileSketch,
    /// Sketch over per-VM across-time CPU CV (Fig. 10b).
    pub cpu_cv: PercentileSketch,
    /// Sketch over per-VM mean bandwidth (Mbps).
    pub mean_bw: PercentileSketch,
}

impl StreamingTraceStats {
    fn empty(flavor: Flavor, config: TraceConfig) -> Self {
        StreamingTraceStats {
            flavor,
            config,
            n_vms: 0,
            mean_cpu: cpu_sketch(),
            p95_cpu: cpu_sketch(),
            cpu_cv: cv_sketch(),
            mean_bw: bw_sketch(),
        }
    }

    fn merge(&mut self, other: &StreamingTraceStats) {
        self.n_vms += other.n_vms;
        self.mean_cpu.merge(&other.mean_cpu);
        self.p95_cpu.merge(&other.p95_cpu);
        self.cpu_cv.merge(&other.cpu_cv);
        self.mean_bw.merge(&other.mean_bw);
    }
}

fn stream_stats(
    seed: u64,
    flavor: Flavor,
    params: &FlavorParams,
    records: &[VmRecord],
    config: &TraceConfig,
    jobs: usize,
    chunk: usize,
) -> StreamingTraceStats {
    assert!(chunk > 0, "chunk size must be positive");
    let app_base = app_table(seed, params, records);
    let chunks = records.len().div_ceil(chunk);
    let per_chunk = fan_out(chunks, jobs, |c| {
        let mut acc = StreamingTraceStats::empty(flavor, config.clone());
        let hi = ((c + 1) * chunk).min(records.len());
        for (i, r) in records.iter().enumerate().take(hi).skip(c * chunk) {
            let vm = fold_vm(seed, params, r, app_base[&r.app], i, config);
            acc.mean_cpu.add(vm.cpu.mean);
            acc.p95_cpu.add(vm.cpu.p95);
            acc.cpu_cv.add(vm.cpu.cv);
            acc.mean_bw.add(vm.bw.mean);
            acc.n_vms += 1;
            vm.count();
        }
        acc
    });
    let mut out = StreamingTraceStats::empty(flavor, config.clone());
    for acc in &per_chunk {
        out.merge(acc);
    }
    out
}

/// Streaming analogue of
/// [`TraceDataset::generate_nep`](crate::dataset::TraceDataset::generate_nep):
/// same deployment, placement, VM table, and per-VM draws, but only the
/// sketched per-VM statistics are retained.
pub fn stream_nep_stats(
    seed: u64,
    n_sites: usize,
    n_apps: usize,
    config: TraceConfig,
    jobs: usize,
) -> (StreamingTraceStats, Deployment) {
    let params = FlavorParams::edge_nep();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut deployment = Deployment::nep_custom(&mut rng, n_sites, 10, 40);
    let records = generate_nep(&mut rng, &params, &mut deployment, n_apps);
    let stats = stream_stats(seed, Flavor::EdgeNep, &params, &records, &config, jobs, VM_CHUNK);
    (stats, deployment)
}

/// Streaming analogue of
/// [`TraceDataset::generate_azure`](crate::dataset::TraceDataset::generate_azure).
pub fn stream_azure_stats(
    seed: u64,
    n_regions: u32,
    n_apps: usize,
    config: TraceConfig,
    jobs: usize,
) -> StreamingTraceStats {
    let params = FlavorParams::cloud_azure();
    let mut rng = StdRng::seed_from_u64(seed);
    let records = generate_cloud(&mut rng, &params, n_regions, n_apps);
    stream_stats(seed, Flavor::CloudAzure, &params, &records, &config, jobs, VM_CHUNK)
}

/// [`stream_nep_stats`] and [`stream_azure_stats`] under their former
/// names, kept while `perfbench/src/main.rs` calls them.
#[doc(hidden)]
pub use self::{
    stream_azure_stats as stream_azure_stats_jobs, stream_nep_stats as stream_nep_stats_jobs,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::TraceDataset;
    use edgescope_obs as obs;

    fn small_cfg() -> TraceConfig {
        TraceConfig { days: 7, cpu_interval_min: 10, bw_interval_min: 30, start_weekday: 0 }
    }

    fn exact_median(mut xs: Vec<f64>) -> f64 {
        xs.sort_by(f64::total_cmp);
        edgescope_analysis::stats::median(&xs)
    }

    #[test]
    fn streaming_stats_match_batch_dataset() {
        let (ds, dep_batch) = TraceDataset::generate_nep(1, 20, 15, small_cfg(), 1);
        let (st, dep_stream) = stream_nep_stats(1, 20, 15, small_cfg(), 2);
        assert_eq!(dep_batch.n_sites(), dep_stream.n_sites());
        assert_eq!(st.n_vms as usize, ds.n_vms());
        assert_eq!(st.mean_cpu.count(), st.n_vms);
        // Sketch medians within the sketch's relative accuracy of the
        // exact per-VM statistic medians.
        let close = |sketch: &PercentileSketch, exact: Vec<f64>, what: &str| {
            let e = exact_median(exact);
            let s = sketch.median();
            assert!((s - e).abs() <= SKETCH_ALPHA * e.abs() + 1e-9, "{what}: {s} vs {e}");
        };
        close(&st.mean_cpu, ds.mean_cpu_per_vm(), "mean cpu");
        close(&st.p95_cpu, ds.p95_cpu_per_vm(), "p95 cpu");
        close(&st.cpu_cv, ds.cpu_cv_per_vm(), "cpu cv");
        close(&st.mean_bw, ds.mean_bw_per_vm(), "mean bw");
    }

    /// Both paths fold through `fold_vm`, so sketching the batch rows
    /// reproduces the streaming sketches exactly, not just within alpha.
    #[test]
    fn streaming_sketches_equal_the_sketched_batch_rows() {
        let (ds, _) = TraceDataset::generate_nep(5, 20, 15, small_cfg(), 1);
        let (st, _) = stream_nep_stats(5, 20, 15, small_cfg(), 2);
        let mut batch = StreamingTraceStats::empty(Flavor::EdgeNep, small_cfg());
        for (cpu, bw) in ds.cpu_stats.iter().zip(&ds.bw_stats) {
            batch.mean_cpu.add(cpu.mean);
            batch.p95_cpu.add(cpu.p95);
            batch.cpu_cv.add(cpu.cv);
            batch.mean_bw.add(bw.mean);
            batch.n_vms += 1;
        }
        assert_eq!(st, batch);
    }

    #[test]
    fn azure_streaming_stats_match_batch() {
        let ds = TraceDataset::generate_azure(2, 8, 30, small_cfg(), 1);
        let st = stream_azure_stats(2, 8, 30, small_cfg(), 4);
        assert_eq!(st.n_vms as usize, ds.n_vms());
        assert_eq!(st.flavor, Flavor::CloudAzure);
        let e = exact_median(ds.mean_cpu_per_vm());
        assert!((st.mean_cpu.median() - e).abs() <= SKETCH_ALPHA * e + 1e-9);
    }

    #[test]
    fn worker_and_chunk_invariance() {
        let params = FlavorParams::cloud_azure();
        let mut rng = StdRng::seed_from_u64(3);
        let records = generate_cloud(&mut rng, &params, 5, 20);
        let run = |jobs: usize, chunk: usize| {
            stream_stats(3, Flavor::CloudAzure, &params, &records, &small_cfg(), jobs, chunk)
        };
        // 7-VM chunks force multi-chunk merging even on this small table.
        let serial = run(1, 7);
        for jobs in [2, 4] {
            assert_eq!(serial, run(jobs, 7), "jobs {jobs}");
        }
        // Sketch merges are integer-exact, so even the chunk size is
        // invisible to the result.
        assert_eq!(serial, run(4, 13));
    }

    #[test]
    fn streaming_counters_match_batch() {
        let batch = obs::scoped(|| TraceDataset::generate_azure(4, 4, 12, small_cfg(), 2)).1;
        let stream = obs::scoped(|| stream_azure_stats(4, 4, 12, small_cfg(), 2)).1;
        for c in ["trace.vms_generated", "trace.cpu_samples", "trace.bw_samples"] {
            assert_eq!(stream.counter(c), batch.counter(c), "{c}");
        }
    }
}

//! Sketched trace statistics for the metro-scale experiments.
//!
//! [`StreamingTraceStats::of`] adds a [`TraceDataset`]'s folded per-VM
//! CPU and bandwidth rows to mergeable [`PercentileSketch`]es: the
//! Fig. 10 distributions in fixed memory. The rows are the ones every
//! other §4 analysis reads, so the sketches describe the same trace, VM
//! for VM. Sketch state is integer bucket counts filled in VM order, so
//! it is byte-identical whenever the dataset is (at every worker count).

use crate::dataset::TraceDataset;
use crate::flavor::Flavor;
use crate::series::TraceConfig;
use edgescope_analysis::sketch::PercentileSketch;
use edgescope_platform::deployment::Deployment;

fn cpu_sketch() -> PercentileSketch {
    // CPU percent: exact zeros go to the sketch's zero bucket.
    PercentileSketch::new(0.01, 100.0)
}

fn cv_sketch() -> PercentileSketch {
    PercentileSketch::new(1e-3, 100.0)
}

fn bw_sketch() -> PercentileSketch {
    PercentileSketch::new(1e-3, 100_000.0)
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
    /// Sketch `ds`'s `cpu_stats` and `bw_stats` rows in VM order. Draws
    /// nothing and regenerates no series.
    pub fn of(ds: &TraceDataset) -> Self {
        let mut out = StreamingTraceStats {
            flavor: ds.flavor,
            config: ds.config.clone(),
            n_vms: ds.n_vms() as u64,
            mean_cpu: cpu_sketch(),
            p95_cpu: cpu_sketch(),
            cpu_cv: cv_sketch(),
            mean_bw: bw_sketch(),
        };
        for (cpu, bw) in ds.cpu_stats.iter().zip(&ds.bw_stats) {
            out.mean_cpu.add(cpu.mean);
            out.p95_cpu.add(cpu.p95);
            out.cpu_cv.add(cpu.cv);
            out.mean_bw.add(bw.mean);
        }
        out
    }
}

/// [`TraceDataset::generate_nep`] then [`StreamingTraceStats::of`], kept
/// under its former name while `perfbench/src/main.rs` calls it.
#[doc(hidden)]
pub fn stream_nep_stats_jobs(
    seed: u64,
    n_sites: usize,
    n_apps: usize,
    config: TraceConfig,
    jobs: usize,
) -> (StreamingTraceStats, Deployment) {
    let (ds, deployment) = TraceDataset::generate_nep(seed, n_sites, n_apps, config, jobs);
    (StreamingTraceStats::of(&ds), deployment)
}

/// [`TraceDataset::generate_azure`] then [`StreamingTraceStats::of`],
/// kept under its former name while `perfbench/src/main.rs` calls it.
#[doc(hidden)]
pub fn stream_azure_stats_jobs(
    seed: u64,
    n_regions: u32,
    n_apps: usize,
    config: TraceConfig,
    jobs: usize,
) -> StreamingTraceStats {
    StreamingTraceStats::of(&TraceDataset::generate_azure(
        seed, n_regions, n_apps, config, jobs,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgescope_analysis::sketch;
    use edgescope_analysis::stats::percentile;

    fn small_cfg() -> TraceConfig {
        TraceConfig {
            days: 7,
            cpu_interval_min: 10,
            bw_interval_min: 30,
            start_weekday: 0,
        }
    }

    /// Every sketch percentile the metro experiments can read is within
    /// the sketch's relative accuracy of the exact percentile of the
    /// same dataset's rows, for both flavours and all four statistics.
    #[test]
    fn sketch_percentiles_are_within_alpha_of_the_exact_rows() {
        let (nep, _) = TraceDataset::generate_nep(1, 20, 15, small_cfg(), 2);
        let azure = TraceDataset::generate_azure(2, 8, 30, small_cfg(), 2);
        for ds in [&nep, &azure] {
            let st = StreamingTraceStats::of(ds);
            assert_eq!((st.flavor, st.n_vms), (ds.flavor, ds.n_vms() as u64));
            for (name, sketch, exact) in [
                ("mean cpu", &st.mean_cpu, ds.mean_cpu_per_vm()),
                ("p95 cpu", &st.p95_cpu, ds.p95_cpu_per_vm()),
                ("cpu cv", &st.cpu_cv, ds.cpu_cv_per_vm()),
                (
                    "mean bw",
                    &st.mean_bw,
                    ds.bw_stats.iter().map(|s| s.mean).collect(),
                ),
            ] {
                assert_eq!(sketch.count(), st.n_vms, "{name}");
                for p in [10.0, 25.0, 50.0, 75.0, 90.0] {
                    let (s, e) = (sketch.percentile(p), percentile(&exact, p));
                    assert!(
                        (s - e).abs() <= sketch::ALPHA * e.abs() + 1e-9,
                        "{:?} {name} p{p}: sketch {s} vs exact {e}",
                        ds.flavor
                    );
                }
            }
        }
    }
}

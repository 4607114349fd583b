//! Exactness of the folded per-VM statistics and of on-demand
//! regeneration.
//!
//! A [`TraceDataset`] folds every VM's CPU series into a [`CpuStats`] row
//! and its bandwidth series into a [`BwStats`] row at synthesis, and drops
//! both series; [`TraceDataset::cpu_series`] regenerates the CPU series
//! from the seed and [`TraceDataset::bw_series`] replays the bandwidth
//! from the RNG state the CPU draws left. For every VM of an NEP and an
//! Azure dataset, built at one and at four workers:
//!
//! * the folded mean and P95 equal the [`per_vm`] helpers, and the folded
//!   CV equals `coefficient_of_variation`, applied to the regenerated CPU
//!   series, bit for bit;
//! * the folded bandwidth mean and weekly means equal [`per_vm::mean`]
//!   and `resample_mean` of the regenerated bandwidth series, bit for
//!   bit;
//! * the regenerated series equal the pinned FNV-64 of their serialized
//!   bytes (first pinned from a dataset that kept its series resident;
//!   re-pinned at the polar-pair draw change from the kernel that
//!   `series.rs`'s per-sample test checks);
//! * regeneration records no metric, so it never inflates the `trace.*`
//!   counters of the synthesis it repeats.

use edgescope_analysis::stats::coefficient_of_variation;
use edgescope_analysis::timeseries::resample_mean;
use edgescope_obs as obs;
use edgescope_trace::io::series_to_bytes;
use edgescope_trace::per_vm::{self, BwStats, CpuStats};
use edgescope_trace::{TraceConfig, TraceDataset, VmSeries};

/// Pinned FNV-64 of the NEP dataset's serialized series (682 VMs).
const NEP_SERIES_FNV: u64 = 0xf718_c08b_183e_1291;
/// Pinned FNV-64 of the Azure dataset's serialized series (89 VMs).
const AZURE_SERIES_FNV: u64 = 0x987e_ef3c_aa3b_b49f;

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

fn cfg() -> TraceConfig {
    TraceConfig {
        days: 4,
        cpu_interval_min: 10,
        bw_interval_min: 30,
        start_weekday: 2,
    }
}

/// `(name, dataset, pinned series hash)` for each platform at `jobs`.
fn datasets(jobs: usize) -> [(&'static str, TraceDataset, u64); 2] {
    let (nep, _) = TraceDataset::generate_nep(31, 10, 12, cfg(), jobs);
    let azure = TraceDataset::generate_azure(32, 4, 12, cfg(), jobs);
    [
        ("nep", nep, NEP_SERIES_FNV),
        ("azure", azure, AZURE_SERIES_FNV),
    ]
}

fn bits(s: &CpuStats) -> [u64; 3] {
    [s.mean.to_bits(), s.p95.to_bits(), s.cv.to_bits()]
}

#[test]
fn folded_cpu_stats_equal_the_helpers_on_regenerated_series() {
    for jobs in [1, 4] {
        for (name, ds, _) in datasets(jobs) {
            assert_eq!(ds.cpu_stats.len(), ds.n_vms(), "{name} rows at jobs {jobs}");
            for (i, folded) in ds.cpu_stats.iter().enumerate() {
                let cpu = ds.cpu_series(i);
                assert_eq!(cpu.len(), ds.config.cpu_samples(), "{name} vm {i}");
                let helpers = CpuStats {
                    mean: per_vm::mean(&cpu),
                    p95: per_vm::p95(&cpu),
                    cv: coefficient_of_variation(
                        &cpu.iter().map(|&v| v as f64).collect::<Vec<_>>(),
                    ),
                };
                assert_eq!(bits(folded), bits(&helpers), "{name} vm {i} at jobs {jobs}");
            }
        }
    }
}

/// Two full weeks and a partial one, so the weekly fold has every kind
/// of chunk to get wrong.
fn multi_week_cfg() -> TraceConfig {
    TraceConfig {
        days: 17,
        cpu_interval_min: 60,
        bw_interval_min: 60,
        start_weekday: 2,
    }
}

#[test]
fn folded_bw_stats_equal_the_helpers_on_regenerated_series() {
    let per_week = multi_week_cfg().bw_samples_per_week();
    for jobs in [1, 4] {
        let (nep, _) = TraceDataset::generate_nep(31, 10, 12, multi_week_cfg(), jobs);
        let azure = TraceDataset::generate_azure(32, 4, 12, multi_week_cfg(), jobs);
        for (name, ds) in [("nep", nep), ("azure", azure)] {
            assert_eq!(ds.bw_stats.len(), ds.n_vms(), "{name} rows at jobs {jobs}");
            for (i, folded) in ds.bw_stats.iter().enumerate() {
                assert_eq!(folded.weekly.len(), 3, "{name} vm {i} weeks");
                let bw = ds.bw_series(i);
                assert_eq!(bw.len(), ds.config.bw_samples(), "{name} vm {i}");
                let wide: Vec<f64> = bw.iter().map(|&v| v as f64).collect();
                let helpers = BwStats {
                    mean: per_vm::mean(&bw),
                    weekly: resample_mean(&wide, per_week),
                };
                let bits = |s: &BwStats| {
                    (
                        s.mean.to_bits(),
                        s.weekly.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
                    )
                };
                assert_eq!(bits(folded), bits(&helpers), "{name} vm {i} at jobs {jobs}");
            }
        }
    }
}

#[test]
fn regenerated_series_equal_the_resident_series() {
    for jobs in [1, 4] {
        for (name, ds, pinned) in datasets(jobs) {
            let series: Vec<VmSeries> = (0..ds.n_vms()).map(|i| ds.vm_series(i)).collect();
            let got = fnv(&series_to_bytes(&series));
            assert_eq!(got, pinned, "{name} series at jobs {jobs}: got {got:#018x}");
        }
    }
}

#[test]
fn regeneration_records_no_metric() {
    for (name, ds, _) in datasets(2) {
        let ((), metrics) = obs::scoped(|| {
            for i in 0..ds.n_vms() {
                std::hint::black_box(ds.cpu_series(i));
                std::hint::black_box(ds.bw_series(i));
                std::hint::black_box(ds.vm_series(i));
            }
        });
        assert!(
            metrics.is_empty(),
            "{name}: regeneration recorded {:?}",
            metrics.rows()
        );
    }
}

//! NaN regression tests for the trace aggregations swept in the
//! `partial_cmp().unwrap()` → `f64::total_cmp` pass.
//!
//! Contract: a NaN CPU or bandwidth sample must neither panic an
//! aggregation nor *win* a heaviest-first ranking; where an aggregate
//! touches the poison, the NaN propagates (it is never laundered to 0).

use edgescope_trace::per_vm::{BwStats, CpuStats};
use edgescope_trace::{TraceConfig, TraceDataset};

fn small_cfg() -> TraceConfig {
    TraceConfig {
        days: 5,
        cpu_interval_min: 30,
        bw_interval_min: 60,
        start_weekday: 0,
    }
}

fn poisoned() -> TraceDataset {
    let (mut ds, _) = TraceDataset::generate_nep(11, 12, 20, small_cfg(), 1);
    assert!(ds.n_vms() > 2, "need VMs to poison");
    // Both series are folded at synthesis, so the poison goes into the
    // folds' input: VM 0's regenerated series, folded in place of its rows.
    let mut cpu = ds.cpu_series(0);
    cpu[1] = f32::NAN;
    ds.cpu_stats[0] = CpuStats::of(&cpu);
    let mut bw = ds.bw_series(0);
    bw[0] = f32::NAN;
    ds.bw_stats[0] = BwStats::of(&bw, ds.config.bw_samples_per_week());
    ds
}

#[test]
fn per_vm_aggregates_survive_nan_samples() {
    let ds = poisoned();
    // Folding a NaN CPU series must not panic; the poisoned VM's own
    // aggregates carry the NaN, every other VM stays finite.
    let p95 = ds.p95_cpu_per_vm();
    let means = ds.mean_cpu_per_vm();
    let cvs = ds.cpu_cv_per_vm();
    assert_eq!(p95.len(), ds.n_vms());
    assert!(means[0].is_nan(), "mean must propagate the poisoned sample");
    for i in 1..ds.n_vms() {
        assert!(
            means[i].is_finite() && p95[i].is_finite() && cvs[i].is_finite(),
            "vm {i}"
        );
    }
}

#[test]
fn heaviest_apps_demotes_nan_totals() {
    let ds = poisoned();
    let poisoned_app = ds.records[0].app;
    let ranked = ds.heaviest_apps(ds.records.len());
    assert!(!ranked.is_empty());
    // The poisoned app's total is NaN: it must rank last, never first —
    // under the raw IEEE total order it would have beaten every finite
    // volume into the §4.5 top-50.
    assert_ne!(
        ranked[0], poisoned_app,
        "NaN-volume app won the heaviest ranking"
    );
    assert_eq!(
        *ranked.last().unwrap(),
        poisoned_app,
        "NaN total must sort to the bottom"
    );
}

#[test]
fn site_aggregates_survive_nan_bandwidth() {
    let ds = poisoned();
    // The poisoned VM's folded row carries the NaN into its first week.
    assert!(
        ds.bw_stats[0].weekly[0].is_nan(),
        "weekly mean must carry the poison"
    );
    // The site rollup must not panic; the poisoned VM's site sums its
    // NaN mean in instead of dropping it. (The per-sample site series is
    // summed by billing; `edgescope-billing`'s NaN tests cover it.)
    let site = ds.records[0].site;
    let (_, total) = ds
        .site_bw()
        .into_iter()
        .find(|&(s, _)| s == site)
        .expect("site");
    assert!(total.is_nan(), "site bandwidth must carry the poison");
}

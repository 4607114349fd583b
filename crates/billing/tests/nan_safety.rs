//! NaN regression tests for the billing folds rerouted onto the
//! NaN-propagating `peak_max` helper.
//!
//! Contract: a NaN bandwidth sample must surface as a NaN charge, never
//! as a silently *cheaper* bill. The old `fold(0.0, f64::max)` idiom
//! dropped NaN operands, so a poisoned day billed as a free one; and a
//! descending `total_cmp` sort alone would re-launder the NaN into the
//! skipped top-3 days.

use edgescope_billing::bill::{
    cloud_network_month, daily_peaks, nep_network_month, p95_daily_peak,
};
use edgescope_billing::tariff::Operator;
use edgescope_billing::vcloud::add_series;
use edgescope_billing::{CloudTariff, NetworkModel};
use edgescope_trace::{TraceConfig, TraceDataset};
use std::collections::BTreeMap;

fn poisoned_month() -> Vec<f64> {
    let mut bw = vec![20.0; 288 * 30];
    bw[288 * 4 + 7] = f64::NAN; // one poisoned sample on day 5
    bw
}

#[test]
fn daily_peaks_propagate_nan() {
    let peaks = daily_peaks(&poisoned_month(), 5);
    assert_eq!(peaks.len(), 30);
    assert!(
        peaks[4].is_nan(),
        "the poisoned day's peak must be NaN, not 0"
    );
    for (d, p) in peaks.iter().enumerate() {
        if d != 4 {
            assert_eq!(*p, 20.0, "day {d}");
        }
    }
}

#[test]
fn p95_daily_peak_propagates_nan() {
    // The NaN day would land among the skipped top-3 under a descending
    // sort; the charge level must be NaN, not the clean 20.0.
    assert!(p95_daily_peak(&poisoned_month(), 5).is_nan());
    assert_eq!(p95_daily_peak(&vec![20.0; 288 * 30], 5), 20.0);
}

#[test]
fn monthly_bills_carry_the_poison() {
    let bw = poisoned_month();
    let nep = nep_network_month(&bw, 5, "Chengdu", Operator::Telecom);
    assert!(
        nep.is_nan(),
        "NEP bill must not silently price a poisoned series"
    );
}

#[test]
#[should_panic(expected = "negative bandwidth")]
fn fixed_reservation_rejects_nan_peak() {
    // The pre-reserved cloud model reserves for the peak. With the
    // NaN-propagating fold the poison reaches the tariff boundary, whose
    // own validity assert rejects it by name — the old `fold(0.0, max)`
    // silently reserved for the *clean* peak instead.
    cloud_network_month(
        &CloudTariff::alicloud(),
        NetworkModel::PreReservedFixed,
        &poisoned_month(),
        5,
    );
}

#[test]
fn site_aggregates_propagate_nan_bandwidth() {
    let cfg = TraceConfig {
        days: 5,
        cpu_interval_min: 30,
        bw_interval_min: 60,
        start_weekday: 0,
    };
    let (ds, _) = TraceDataset::generate_nep(11, 12, 20, cfg, 1);
    let site = ds.records[0].site;
    // Sum the site's regenerated series, VM 0's with a poisoned sample:
    // NaN propagates to the affected sample instead of vanishing into the
    // sum, and every other sample stays finite.
    let mut sites = BTreeMap::new();
    for i in (0..ds.n_vms()).filter(|&i| ds.records[i].site == site) {
        let mut bw = ds.bw_series(i);
        if i == 0 {
            bw[0] = f32::NAN;
        }
        let wide: Vec<f64> = bw.iter().map(|&v| v as f64).collect();
        add_series(&mut sites, site.0, &wide);
    }
    let series = &sites[&site.0];
    assert!(series[0].is_nan(), "site sum must carry the poison");
    assert!(
        series[1..].iter().all(|v| v.is_finite()),
        "only the poisoned sample is NaN"
    );
}

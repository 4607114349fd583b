//! Monthly bills from bandwidth traces.
//!
//! NEP (Appendix D): "the network traffic of VMs located in the same site
//! will be combined and charged together. The bandwidth charged … is the
//! 95-th percentile daily peak bandwidth of the month" — i.e. record the
//! peak bandwidth per day, take the 4th-highest daily peak of the month,
//! multiply by the city/operator unit price.
//!
//! Clouds bill fine-grained: the on-demand-by-bandwidth model integrates
//! the hourly tariff over the 5-minute samples; by-quantity charges the
//! transferred volume; pre-reserved charges the fixed schedule for the
//! reserved (peak) level.
//!
//! NEP has one price sheet, so the NEP bills take no tariff argument:
//! they price with [`hardware_month`] and [`bandwidth_unit_price`]. The
//! cloud bills take the [`CloudTariff`] to price under.

use crate::tariff::{bandwidth_unit_price, hardware_month, CloudTariff, NetworkModel, Operator};
use edgescope_analysis::stats::{peak_max, select};

/// Daily peak levels of a bandwidth series (`interval_min` minutes per
/// sample). A trailing partial day still yields a peak.
///
/// Peaks come from the NaN-propagating
/// [`edgescope_analysis::stats::peak_max`]: a NaN bandwidth sample makes
/// that day's peak NaN instead of silently flattening it to 0.0 (the old
/// `fold(0.0, f64::max)` idiom ignored NaN operands — a poisoned day
/// billed as a free one).
pub fn daily_peaks(bw_mbps: &[f64], interval_min: usize) -> Vec<f64> {
    assert!(interval_min > 0, "interval must be positive");
    let per_day = (24 * 60 / interval_min).max(1);
    bw_mbps.chunks(per_day).map(peak_max).collect()
}

/// The 95th-percentile daily peak — with ~30 daily peaks this is the
/// 4th-highest, matching Appendix D's description. Returns 0 for an empty
/// series.
///
/// A NaN anywhere in the series yields a NaN charge level: under the IEEE
/// total order a NaN daily peak would rank *above* +inf and land in the
/// silently-dropped top days, re-laundering the poison the peak fold just
/// preserved — so the NaN is propagated explicitly instead.
pub fn p95_daily_peak(bw_mbps: &[f64], interval_min: usize) -> f64 {
    let mut peaks = daily_peaks(bw_mbps, interval_min);
    if peaks.is_empty() {
        return 0.0;
    }
    if peaks.iter().any(|p| p.is_nan()) {
        return f64::NAN;
    }
    // Appendix D: the bill uses "the 4th highest one from all the daily
    // peak usage in this month" — i.e. the top 3 of ~30 days are dropped.
    // Generalized proportionally for shorter traces: drop round(n/10)
    // days, so the charge is the ascending rank n - 1 - skip.
    let n = peaks.len();
    let skip = ((n as f64) / 10.0).round() as usize;
    select(&mut peaks, n - 1 - skip.min(n - 1))
}

/// NEP monthly network bill of one traffic aggregate at a site.
///
/// `bw_mbps` is the site-level (or app-at-site-level) combined bandwidth
/// series; the charged level is [`p95_daily_peak`].
pub fn nep_network_month(
    bw_mbps: &[f64],
    interval_min: usize,
    city: &str,
    operator: Operator,
) -> f64 {
    let level = p95_daily_peak(bw_mbps, interval_min);
    level * bandwidth_unit_price(city, operator)
}

/// A monthly network bill with and without multi-tenant contention.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContendedBill {
    /// Charged level of the uncontended series (its
    /// [`p95_daily_peak`]), Mbps.
    pub baseline_level_mbps: f64,
    /// Bill on an uncontended server, RMB (tariff-scaled).
    pub baseline_rmb: f64,
    /// Bill when the tenant only gets `bw_available` of the NIC, RMB.
    pub contended_rmb: f64,
    /// Fraction of intended traffic volume actually delivered.
    pub delivered_fraction: f64,
}

impl ContendedBill {
    /// Contended minus baseline: negative — the p95 level drops with the
    /// throttled series — which is exactly the trap: the bill shrinks
    /// while the tenant silently delivers less traffic.
    pub fn delta_rmb(&self) -> f64 {
        self.contended_rmb - self.baseline_rmb
    }
}

/// NEP monthly network bill of one aggregate under bandwidth contention.
///
/// The tenant's intended series `bw_mbps` is throttled to the fair share
/// `bw_available` ∈ (0, 1] of the nominal link (a provider-level
/// `tariff_scale` multiplies both unit prices; 1.0 for the paper's NEP).
/// With `bw_available = 1.0` the baseline and contended bills coincide,
/// and the series is billed once.
pub fn nep_contended_network_month(
    bw_mbps: &[f64],
    interval_min: usize,
    city: &str,
    operator: Operator,
    bw_available: f64,
    tariff_scale: f64,
) -> ContendedBill {
    assert!(
        bw_available > 0.0 && bw_available <= 1.0,
        "bw share out of range"
    );
    assert!(tariff_scale > 0.0, "tariff scale must be positive");
    let price = bandwidth_unit_price(city, operator);
    let level = p95_daily_peak(bw_mbps, interval_min);
    let baseline = level * price * tariff_scale;
    // At the full share every `x * 1.0` is `x`: the throttled series is
    // the series, and so is its bill.
    let contended = if bw_available == 1.0 {
        baseline
    } else {
        let throttled: Vec<f64> = bw_mbps.iter().map(|&x| x * bw_available).collect();
        p95_daily_peak(&throttled, interval_min) * price * tariff_scale
    };
    ContendedBill {
        baseline_level_mbps: level,
        baseline_rmb: baseline,
        contended_rmb: contended,
        delivered_fraction: bw_available,
    }
}

/// Scale a bill computed over `days` of trace to a 30-day month — the
/// compact traces cover 2–4 weeks, but Table 3 quotes monthly costs.
pub fn scale_to_month(cost: f64, days: f64) -> f64 {
    assert!(days > 0.0, "trace must span time");
    cost * 30.0 / days
}

/// Cloud monthly network bill of one traffic aggregate under a given
/// model. The series is integrated at its native `interval_min`.
pub fn cloud_network_month(
    tariff: &CloudTariff,
    model: NetworkModel,
    bw_mbps: &[f64],
    interval_min: usize,
) -> f64 {
    let dt_hours = interval_min as f64 / 60.0;
    match model {
        NetworkModel::OnDemandByBandwidth => bw_mbps
            .iter()
            .map(|&x| tariff.on_demand_hour(x) * dt_hours)
            .sum(),
        NetworkModel::OnDemandByQuantity => {
            // Mbps over dt hours ⇒ GB: x·1e6/8 bytes/s · 3600·dt s / 1e9.
            let gb: f64 = bw_mbps
                .iter()
                .map(|&x| x * 1e6 / 8.0 * 3600.0 * dt_hours / 1e9)
                .sum();
            tariff.quantity(gb)
        }
        NetworkModel::PreReservedFixed => {
            // You must reserve for the observed peak.
            tariff.fixed_month(peak_max(bw_mbps))
        }
    }
}

/// An app's complete monthly NEP bill: hardware for every VM plus network
/// per site aggregate.
///
/// `per_site` maps a site's city name and operator to the app's combined
/// bandwidth series there.
pub fn nep_app_bill(
    vm_specs: &[(u32, u32, u32)],
    per_site: &[(String, Operator, Vec<f64>)],
    interval_min: usize,
) -> (f64, f64) {
    let hardware: f64 = vm_specs
        .iter()
        .map(|&(c, m, d)| hardware_month(c, m, d))
        .sum();
    // The charged network level is the p95 daily peak — a *level*, not a
    // duration — so a shorter trace needs no day-scaling (unlike clouds'
    // integrated on-demand bills).
    let network: f64 = per_site
        .iter()
        .map(|(city, op, bw)| nep_network_month(bw, interval_min, city, *op))
        .sum();
    (hardware, network)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn daily_peaks_basic() {
        // 4 samples/day at 360-min interval.
        let bw = [1.0, 5.0, 2.0, 3.0, 9.0, 1.0, 1.0, 1.0];
        let peaks = daily_peaks(&bw, 360);
        assert_eq!(peaks, vec![5.0, 9.0]);
    }

    #[test]
    fn p95_skips_top_days_of_a_month() {
        // 30 days: peaks 1..30 — skip round(3)=3 top values ⇒ 27.
        let mut bw = Vec::new();
        for d in 1..=30 {
            bw.extend(vec![d as f64; 4]);
        }
        let p = p95_daily_peak(&bw, 360);
        assert_eq!(p, 27.0, "4th highest of 30");
    }

    #[test]
    fn p95_short_series() {
        let p = p95_daily_peak(&[7.0, 3.0], 720);
        assert_eq!(p, 7.0);
        assert_eq!(p95_daily_peak(&[], 5), 0.0);
    }

    #[test]
    fn contended_bill_shrinks_with_the_fair_share() {
        let bw = vec![40.0; 288 * 30];
        let full = nep_contended_network_month(&bw, 5, "Chengdu", Operator::Telecom, 1.0, 1.0);
        assert_eq!(
            full.baseline_rmb, full.contended_rmb,
            "no contention, no delta"
        );
        assert_eq!(full.delta_rmb(), 0.0);
        let half = nep_contended_network_month(&bw, 5, "Chengdu", Operator::Telecom, 0.5, 1.0);
        assert!((half.contended_rmb - half.baseline_rmb / 2.0).abs() < 1e-9);
        assert!(
            half.delta_rmb() < 0.0,
            "cheaper bill, but half the traffic delivered"
        );
        assert_eq!(half.delivered_fraction, 0.5);
        // Provider tariff scale multiplies both sides.
        let scaled = nep_contended_network_month(&bw, 5, "Chengdu", Operator::Telecom, 0.5, 0.8);
        assert!((scaled.baseline_rmb - 0.8 * half.baseline_rmb).abs() < 1e-9);
    }

    #[test]
    fn contended_bill_equals_billing_each_series_separately() {
        // The one p95 of the series is the reported level and the
        // baseline; at the full share the contended bill is the bill of
        // the `x * 1.0` copy, bit for bit, also with a NaN sample.
        let mut bw: Vec<f64> = (0..96 * 30)
            .map(|i| 10.0 + ((i * 37) % 101) as f64 * 0.37)
            .collect();
        for poisoned in [false, true] {
            if poisoned {
                bw[500] = f64::NAN;
            }
            for (share, scale) in [(1.0, 1.0), (1.0, 0.8), (0.6, 1.0), (0.6, 1.3)] {
                let got =
                    nep_contended_network_month(&bw, 15, "Chengdu", Operator::Cmcc, share, scale);
                let throttled: Vec<f64> = bw.iter().map(|&x| x * share).collect();
                let month = |xs: &[f64]| nep_network_month(xs, 15, "Chengdu", Operator::Cmcc);
                let want = [
                    p95_daily_peak(&bw, 15),
                    month(&bw) * scale,
                    month(&throttled) * scale,
                ];
                assert_eq!(
                    [got.baseline_level_mbps, got.baseline_rmb, got.contended_rmb]
                        .map(f64::to_bits),
                    want.map(f64::to_bits),
                    "share {share}, scale {scale}, NaN {poisoned}"
                );
            }
        }
    }

    #[test]
    fn nep_bill_charges_peak_not_mean() {
        // Two apps with equal mean traffic but different peakiness: the
        // bursty one pays more on NEP (§4.5's education-app finding).
        let flat = vec![10.0; 288 * 30];
        let mut bursty = vec![1.0; 288 * 30];
        for d in 0..30 {
            for i in 0..29 {
                bursty[d * 288 + i] = 100.0; // ~2.4h burst/day
            }
        }
        let flat_mean: f64 = flat.iter().sum::<f64>() / flat.len() as f64;
        let bursty_mean: f64 = bursty.iter().sum::<f64>() / bursty.len() as f64;
        assert!((flat_mean - bursty_mean).abs() < 1.0);
        let c_flat = nep_network_month(&flat, 5, "Chengdu", Operator::Telecom);
        let c_bursty = nep_network_month(&bursty, 5, "Chengdu", Operator::Telecom);
        assert!(c_bursty > 5.0 * c_flat, "bursty {c_bursty} flat {c_flat}");
    }

    #[test]
    fn cloud_on_demand_integrates_over_time() {
        let t = CloudTariff::alicloud();
        // Constant 2 Mbps for 30 days at 5-min sampling ⇒ the appendix's
        // 90.72.
        let bw = vec![2.0; 288 * 30];
        let cost = cloud_network_month(&t, NetworkModel::OnDemandByBandwidth, &bw, 5);
        assert!((cost - 90.72).abs() < 0.01, "cost {cost}");
    }

    #[test]
    fn cloud_quantity_charges_volume() {
        let t = CloudTariff::alicloud();
        // 8 Mbps for one hour = 1 MB/s · 3600 s = 3.6 GB ⇒ 2.88 RMB.
        let bw = vec![8.0; 12];
        let cost = cloud_network_month(&t, NetworkModel::OnDemandByQuantity, &bw, 5);
        assert!((cost - 2.88).abs() < 0.01, "cost {cost}");
    }

    #[test]
    fn cloud_fixed_charges_reserved_peak() {
        let t = CloudTariff::huawei();
        let mut bw = vec![1.0; 100];
        bw[50] = 6.2; // forces a 7-Mbps reservation
        let cost = cloud_network_month(&t, NetworkModel::PreReservedFixed, &bw, 5);
        assert_eq!(cost, 275.0);
    }

    #[test]
    fn bursty_app_cheaper_on_cloud_than_nep() {
        // §4.5: apps with high temporal network variance (peak ≫ mean) can
        // be cheaper on cloud — NEP bills the peak, the cloud's on-demand
        // model bills the level-hours.
        let ali = CloudTariff::alicloud();
        let mut bursty = vec![0.5; 288 * 30];
        for d in 0..30 {
            for i in 0..36 {
                bursty[d * 288 + i] = 60.0; // 3 h/day at 60 Mbps (≈10× mean)
            }
        }
        let nep_cost = nep_network_month(&bursty, 5, "Guangzhou", Operator::Telecom);
        let cloud_cost = cloud_network_month(&ali, NetworkModel::OnDemandByBandwidth, &bursty, 5);
        assert!(
            cloud_cost < nep_cost,
            "cloud {cloud_cost} vs NEP {nep_cost}"
        );
    }

    #[test]
    fn steady_video_app_much_cheaper_on_nep() {
        // The headline §4.5 finding, for a steady bandwidth-heavy app.
        let ali = CloudTariff::alicloud();
        let bw = vec![80.0; 288 * 30];
        let nep_cost = nep_network_month(&bw, 5, "Chengdu", Operator::Cmcc);
        let cloud_cost = cloud_network_month(&ali, NetworkModel::OnDemandByBandwidth, &bw, 5);
        assert!(
            cloud_cost > 5.0 * nep_cost,
            "cloud {cloud_cost} vs NEP {nep_cost}"
        );
    }

    #[test]
    fn nep_app_bill_components() {
        let specs = [(8u32, 32u32, 100u32), (4, 16, 50)];
        let bw = vec![10.0; 288 * 30];
        let per_site = vec![("Chengdu".to_string(), Operator::Telecom, bw)];
        let (hw, net) = nep_app_bill(&specs, &per_site, 5);
        // hardware: (8·65 + 32·20 + 100·0.35) + (4·65 + 16·20 + 50·0.35) = 1792.5
        assert!((hw - 1792.5).abs() < 0.01, "hw {hw}");
        // network: 10 Mbps · 25 = 250.
        assert!((net - 250.0).abs() < 0.01, "net {net}");
    }
}

//! Property-based tests of the billing engines.

use edgescope_billing::bill::{
    cloud_network_month, daily_peaks, nep_network_month, p95_daily_peak,
};
use edgescope_billing::tariff::{hardware_month, CloudTariff, NetworkModel, Operator};
use proptest::prelude::*;

proptest! {
    #[test]
    fn p95_daily_peak_between_min_and_max_peak(
        bw in prop::collection::vec(0.0..1000.0f64, 1..2000),
    ) {
        let peaks = daily_peaks(&bw, 60);
        let p95 = p95_daily_peak(&bw, 60);
        let max = peaks.iter().cloned().fold(f64::MIN, f64::max);
        let min = peaks.iter().cloned().fold(f64::MAX, f64::min);
        prop_assert!(p95 <= max + 1e-9);
        prop_assert!(p95 >= min - 1e-9);
    }

    #[test]
    fn scaling_traffic_scales_nep_bill(
        bw in prop::collection::vec(0.1..500.0f64, 24..800),
        k in 1.0..10.0f64,
    ) {
        let scaled: Vec<f64> = bw.iter().map(|x| x * k).collect();
        let base = nep_network_month(&bw, 60, "Wuhan", Operator::Telecom);
        let big = nep_network_month(&scaled, 60, "Wuhan", Operator::Telecom);
        prop_assert!((big - base * k).abs() < 1e-6 * big.max(1.0), "linear in peak level");
    }

    #[test]
    fn cloud_bills_nonnegative_and_monotone_in_traffic(
        bw in prop::collection::vec(0.0..500.0f64, 1..500),
        extra in 0.0..100.0f64,
    ) {
        let t = CloudTariff::huawei();
        for model in NetworkModel::ALL {
            let base = cloud_network_month(&t, model, &bw, 5);
            prop_assert!(base >= 0.0);
            let more: Vec<f64> = bw.iter().map(|x| x + extra).collect();
            let bigger = cloud_network_month(&t, model, &more, 5);
            prop_assert!(bigger + 1e-9 >= base, "{model:?} must be monotone");
        }
    }

    #[test]
    fn fixed_tariff_merging_above_tier_costs_more(
        a in 6.0..200.0f64,
        b in 6.0..200.0f64,
    ) {
        // The first 5 Mbps are priced below the 80/Mbps marginal rate, so
        // two separate reservations (each enjoying the cheap tier) beat
        // one merged reservation — the structural reason the paper's
        // virtual-cloud baseline is sensitive to how traffic is merged.
        let t = CloudTariff::alicloud();
        prop_assert!(
            t.fixed_month(a + b) + 1e-9 >= t.fixed_month(a) + t.fixed_month(b)
                - t.fixed_month(5.0),
        );
    }

    #[test]
    fn hardware_bills_linear(
        cores in 1u32..64,
        mem in 1u32..256,
        disk in 0u32..1000,
        n in 1u32..20,
    ) {
        let one = hardware_month(cores, mem, disk);
        let many: f64 = (0..n).map(|_| hardware_month(cores, mem, disk)).sum();
        prop_assert!((many - one * n as f64).abs() < 1e-6);
        prop_assert!(one > 0.0);
    }

    #[test]
    fn nep_vs_cloud_unit_price_gap(mbps in 6.0..500.0f64) {
        // For steady traffic above the 5-Mbps tier, NEP's most expensive
        // city still undercuts AliCloud's on-demand rate (the §4.5
        // incentive). Guangzhou/Telecom = 50/Mbps/month; AliCloud
        // on-demand ≈ 0.248·720 ≈ 178/Mbps/month above the tier.
        let ali = CloudTariff::alicloud();
        let bw = vec![mbps; 288 * 30];
        let nep_cost = nep_network_month(&bw, 5, "Guangzhou", Operator::Telecom);
        let ali_cost = cloud_network_month(&ali, NetworkModel::OnDemandByBandwidth, &bw, 5);
        prop_assert!(nep_cost < ali_cost, "NEP {nep_cost} vs AliCloud {ali_cost}");
    }
}

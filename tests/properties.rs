//! Property-based tests over the public API: invariants that must hold
//! for *any* parameters, not just the paper's.

use edgescope::analysis::cdf::Cdf;
use edgescope::analysis::stats::{mean, percentile, std_dev};
use edgescope::billing::tariff::{bandwidth_unit_price, CloudTariff, Operator};
use edgescope::net::access::AccessNetwork;
use edgescope::net::geo::{haversine_km, GeoPoint};
use edgescope::net::path::{ue_path, TargetClass};
use edgescope::qoe::gaming::GamingPipeline;
use edgescope::qoe::link::LinkProfile;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #[test]
    fn percentiles_bounded_and_monotone(
        xs in prop::collection::vec(-1e6..1e6f64, 1..200),
        p1 in 0.0..100.0f64,
        p2 in 0.0..100.0f64,
    ) {
        let lo = p1.min(p2);
        let hi = p1.max(p2);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let vlo = percentile(&xs, lo);
        let vhi = percentile(&xs, hi);
        prop_assert!(vlo >= min - 1e-9 && vhi <= max + 1e-9);
        prop_assert!(vlo <= vhi + 1e-9);
    }

    #[test]
    fn mean_within_range(xs in prop::collection::vec(-1e3..1e3f64, 1..100)) {
        let m = mean(&xs);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= min - 1e-9 && m <= max + 1e-9);
        prop_assert!(std_dev(&xs) >= 0.0);
    }

    #[test]
    fn cdf_eval_quantile_consistent(
        xs in prop::collection::vec(0.0..1e4f64, 2..150),
        q in 0.0..1.0f64,
    ) {
        let cdf = Cdf::from_slice(&xs);
        let x = cdf.quantile(q);
        // F(F^-1(q)) >= q within one sample step, with F the fraction of
        // the sample at or below x.
        let step = 1.0 / xs.len() as f64;
        let f = xs.iter().filter(|&&v| v <= x).count() as f64 * step;
        prop_assert!(f + step >= q - 1e-9);
    }

    #[test]
    fn haversine_metric_properties(
        lat1 in -89.0..89.0f64, lon1 in -179.0..179.0f64,
        lat2 in -89.0..89.0f64, lon2 in -179.0..179.0f64,
    ) {
        let a = GeoPoint::new(lat1, lon1);
        let b = GeoPoint::new(lat2, lon2);
        let d = haversine_km(a, b);
        prop_assert!(d >= 0.0);
        prop_assert!(d <= 20_100.0, "no distance beyond half the circumference");
        prop_assert!((d - haversine_km(b, a)).abs() < 1e-6);
    }

    #[test]
    fn paths_always_sane(
        seed in 0u64..5000,
        distance in 0.0..4000.0f64,
        access_idx in 0usize..4,
        cloud in any::<bool>(),
    ) {
        let access = AccessNetwork::ALL[access_idx];
        let class = if cloud { TargetClass::CloudRegion } else { TargetClass::EdgeSite };
        let mut rng = StdRng::seed_from_u64(seed);
        let path = ue_path(&mut rng, access, distance, class);
        prop_assert!(path.hop_count() >= 3 && path.hop_count() <= 25);
        prop_assert!(path.mean_rtt_ms() > 0.0);
        prop_assert!(path.mean_rtt_ms() < 1000.0, "rtt {}", path.mean_rtt_ms());
        let sample = path.sample_rtt_ms(&mut rng);
        prop_assert!(sample > 0.0);
        let loss = path.loss_probability();
        prop_assert!((0.0..1.0).contains(&loss));
        // More distance, more expected RTT (statistically; here compare to
        // a same-seed path at distance zero).
        let mut rng0 = StdRng::seed_from_u64(seed);
        let near = ue_path(&mut rng0, access, 0.0, class);
        prop_assert!(path.mean_rtt_ms() >= near.mean_rtt_ms() - 5.0);
    }

    #[test]
    fn cloud_fixed_tariff_monotone(a in 0.0..500.0f64, b in 0.0..500.0f64) {
        let t = CloudTariff::alicloud();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(t.fixed_month(lo) <= t.fixed_month(hi) + 1e-9);
        let h = CloudTariff::huawei();
        prop_assert!(h.on_demand_hour(lo) <= h.on_demand_hour(hi) + 1e-9);
    }

    #[test]
    fn nep_bandwidth_price_in_operator_band(city_idx in 0usize..78) {
        let city = edgescope::platform::geo_china::CITIES[city_idx];
        let pt = bandwidth_unit_price(city.name, Operator::Telecom);
        let pc = bandwidth_unit_price(city.name, Operator::Cmcc);
        prop_assert!((25.0..=50.0).contains(&pt));
        prop_assert!((15.0..=30.0).contains(&pc));
    }

    #[test]
    fn gaming_delay_increases_with_rtt(seed in 0u64..2000, rtt in 5.0..200.0f64) {
        let p = GamingPipeline::paper_default();
        let mut rng = StdRng::seed_from_u64(seed);
        let (near, _) = p.run(&mut rng, &LinkProfile::with_rtt(rtt, 60.0), 30);
        let mut rng = StdRng::seed_from_u64(seed);
        let (far, _) = p.run(&mut rng, &LinkProfile::with_rtt(rtt + 60.0, 60.0), 30);
        prop_assert!(mean(&far) > mean(&near), "rtt must dominate: {} vs {}", mean(&far), mean(&near));
        prop_assert!(mean(&near) > 60.0, "server floor");
    }
}

//! Property-based tests of the network simulator.

use edgescope_net::access::AccessNetwork;
use edgescope_net::fault::FaultInjector;
use edgescope_net::path::{intersite_path, ue_path, TargetClass};
use edgescope_net::ping::PingEngine;
use edgescope_net::rng::{bounded_pareto, log_normal_mean_cv};
use edgescope_net::tcp::{iperf, steady_state_mbps, GATEWAY_MBPS, IPERF_SECS};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #[test]
    fn ping_never_loses_more_than_sent(
        seed in 0u64..2000,
        n in 1usize..60,
        drop in 0.0..1.0f64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let path = ue_path(&mut rng, AccessNetwork::Lte, 500.0, TargetClass::EdgeSite);
        let engine = PingEngine::with_fault(FaultInjector {
            drop_chance: drop,
            ..FaultInjector::none()
        });
        let stats = engine.probe(&mut rng, &path, n);
        prop_assert_eq!(stats.sent(), n);
        prop_assert!(stats.lost <= n);
        prop_assert!((0.0..=1.0).contains(&stats.loss_rate()));
        for r in &stats.rtts_ms {
            prop_assert!(*r > 0.0);
        }
    }

    #[test]
    fn iperf_steady_state_bounded(
        seed in 0u64..2000,
        d in 0.0..3000.0f64,
        cap in 1.0..2000.0f64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let path = ue_path(&mut rng, AccessNetwork::FiveG, d, TargetClass::EdgeSite);
        let steady = steady_state_mbps(&path, cap);
        prop_assert!(steady > 0.0);
        prop_assert!(steady <= cap + 1e-9, "never beyond last mile");
        prop_assert!(steady <= GATEWAY_MBPS + 1e-9, "never beyond gateway");
        let report = iperf(&mut rng, &path, cap);
        prop_assert_eq!(report.per_second_mbps.len(), IPERF_SECS);
        for v in &report.per_second_mbps {
            prop_assert!(*v > 0.0);
        }
    }

    #[test]
    fn distributions_respect_supports(
        seed in 0u64..2000,
        mean in 0.1..100.0f64,
        cv in 0.0..2.0f64,
        alpha in 0.1..3.0f64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        prop_assert!(log_normal_mean_cv(&mut rng, mean, cv) > 0.0);
        let p = bounded_pareto(&mut rng, alpha, 1.0, 1000.0);
        prop_assert!((1.0..=1000.0 + 1e-9).contains(&p));
    }

    #[test]
    fn intersite_paths_scale_with_distance(seed in 0u64..1000, d in 0.0..4000.0f64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = intersite_path(&mut rng, d);
        prop_assert!(p.mean_rtt_ms() > 0.0);
        prop_assert!(p.mean_rtt_ms() < 50.0 + d * 0.2, "rtt {} at {d} km", p.mean_rtt_ms());
        prop_assert!(p.hop_count() >= 3);
    }
}

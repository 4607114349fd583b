//! Property-based tests of the QoE pipelines.

use edgescope_qoe::device::Device;
use edgescope_qoe::gaming::GamingPipeline;
use edgescope_qoe::link::LinkProfile;
use edgescope_qoe::streaming::StreamingPipeline;
use edgescope_qoe::video::Resolution;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gaming_breakdown_nonnegative_and_consistent(
        seed in 0u64..3000,
        rtt in 1.0..300.0f64,
        mbps in 5.0..1000.0f64,
    ) {
        let p = GamingPipeline::paper_default();
        let link = LinkProfile::with_rtt(rtt, mbps);
        let mut rng = StdRng::seed_from_u64(seed);
        let (total, b) = p.sample(&mut rng, &link);
        prop_assert!((total - b.total_ms()).abs() < 1e-9);
        for v in [b.input_ms, b.uplink_ms, b.server_ms, b.encode_ms, b.downlink_ms, b.decode_ms, b.display_ms] {
            prop_assert!(v >= 0.0 && v.is_finite());
        }
        prop_assert!((0.0..=1.0).contains(&b.server_share()));
        prop_assert!(total > 30.0, "server work alone exceeds 30 ms");
    }

    #[test]
    fn streaming_breakdown_nonnegative(
        seed in 0u64..3000,
        rtt in 1.0..300.0f64,
        jb in prop::option::of(0.1..8.0f64),
    ) {
        let p = StreamingPipeline { jitter_buffer_mb: jb, ..StreamingPipeline::paper_default() };
        let link = LinkProfile::with_rtt(rtt, 60.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let (total, b) = p.sample(&mut rng, &link);
        prop_assert!((total - b.total_ms()).abs() < 1e-9);
        prop_assert!(b.jitter_buffer_ms >= 0.0);
        prop_assert!(total > 100.0, "capture+encode floor");
    }

    #[test]
    fn bigger_jitter_buffer_more_delay(
        seed in 0u64..1000,
        rtt in 5.0..100.0f64,
        mb1 in 0.1..4.0f64,
        extra in 0.5..4.0f64,
    ) {
        let link = LinkProfile::with_rtt(rtt, 60.0);
        let small = StreamingPipeline {
            jitter_buffer_mb: Some(mb1),
            ..StreamingPipeline::paper_default()
        };
        let large = StreamingPipeline {
            jitter_buffer_mb: Some(mb1 + extra),
            ..StreamingPipeline::paper_default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let (a, _) = small.run(&mut rng, &link, 20);
        let mut rng = StdRng::seed_from_u64(seed);
        let (b, _) = large.run(&mut rng, &link, 20);
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        prop_assert!(mean(&b) > mean(&a));
    }

    #[test]
    fn decode_cost_monotone_in_resolution(dev_idx in 0usize..3) {
        let d = Device::PHONES[dev_idx];
        let order = [Resolution::R800x600, Resolution::R720p, Resolution::R1080p];
        for w in order.windows(2) {
            prop_assert!(d.decode_ms(w[0]) < d.decode_ms(w[1]));
            prop_assert!(d.encode_ms(w[0]) < d.encode_ms(w[1]));
        }
    }

    #[test]
    fn frame_bytes_scale_with_bitrate_not_fps_total(
        fps in 10.0..120.0f64,
        res_idx in 0usize..3,
    ) {
        let res = [Resolution::R800x600, Resolution::R720p, Resolution::R1080p][res_idx];
        // Total bytes/second is constant in fps (bitrate fixed).
        let per_second = res.frame_bytes(fps) * fps;
        prop_assert!((per_second - res.stream_bitrate_mbps() * 1e6 / 8.0).abs() < 1.0);
    }
}

//! The live-streaming pipeline (Fig. 7).
//!
//! Streaming delay = camera capture + ISP + sender rendering stack →
//! sender encode → RTMP uplink → server relay (optional transcode) →
//! downlink → receiver decode → player render, plus an optional receiver
//! jitter buffer. §3.3.2's findings reproduced here:
//!
//! * without jitter buffer or transcoding the delay sits ≈400 ms and the
//!   network (≈50 ms) is *not* the bottleneck — capture+render ≈140 ms is;
//! * edge VMs shave at most ≈10–25 % off the far-cloud delay;
//! * 1080p→720p saves ≈67 ms (network + rendering);
//! * transcoding adds ≈400 ms (transcode + segment wait);
//! * a 2 MB jitter buffer pushes the delay to ≈2 s and erases the
//!   edge/cloud difference;
//! * MPlayer's pull/display path costs ≈90 ms more than ffplay.
//!
//! The paper holds the devices and the frame rate fixed, so they are
//! module constants: a Redmi Note 8 captures at 30 FPS and a MacBook
//! displays. What Fig. 7 varies (resolution, transcoding, jitter buffer,
//! player) is a field of [`StreamingPipeline`].

use crate::device::Device;
use crate::link::LinkProfile;
use crate::video::Resolution;
use edgescope_net::rng::log_normal_mean_cv;
use rand::Rng;

/// Receiver-side player software (§3.3.2's software finding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Player {
    /// The paper's default receiver player.
    MPlayer,
    /// ffplay: ≈90 ms faster pull/display path.
    FFplay,
}

impl Player {
    /// Pull + render overhead beyond pure decode, ms.
    fn render_ms(&self) -> f64 {
        match self {
            Player::MPlayer => 150.0,
            Player::FFplay => 60.0,
        }
    }
}

/// Mean per-stage breakdown of the streaming delay, ms.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StreamingBreakdown {
    /// Camera capture + ISP + sender system stack.
    pub capture_isp_ms: f64,
    /// Sender-side video encode.
    pub sender_encode_ms: f64,
    /// RTMP uplink + downlink (propagation and transmission).
    pub network_ms: f64,
    /// Server relay (and transcode when enabled).
    pub server_ms: f64,
    /// Receiver jitter-buffer delay.
    pub jitter_buffer_ms: f64,
    /// Receiver hardware decode.
    pub decode_ms: f64,
    /// Player pull/display path.
    pub player_render_ms: f64,
}

impl StreamingBreakdown {
    /// Total streaming delay.
    pub fn total_ms(&self) -> f64 {
        self.capture_isp_ms
            + self.sender_encode_ms
            + self.network_ms
            + self.server_ms
            + self.jitter_buffer_ms
            + self.decode_ms
            + self.player_render_ms
    }
}

/// The assembled streaming pipeline. Sender and receiver are in the same
/// city (the §3.3.2 scenario), so both traverse the same link profile to
/// the chosen VM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamingPipeline {
    /// Captured/encoded resolution.
    pub resolution: Resolution,
    /// Server-side transcode target; `None` = plain relay.
    pub transcode_to: Option<Resolution>,
    /// Receiver jitter buffer in MB; `None` = none (the paper's default).
    pub jitter_buffer_mb: Option<f64>,
    /// Receiver player software.
    pub player: Player,
}

/// The capturing phone.
const SENDER: Device = Device::XIAOMI_REDMI_NOTE8;
/// The displaying device.
const RECEIVER: Device = Device::MACBOOK_PRO16;
/// Captured frame rate.
const FPS: f64 = 30.0;

/// Server relay overhead (RTMP chunk handling), ms.
const RELAY_MS: f64 = 12.0;
/// Transcode compute + segment-wait cost at 1080p input, ms (§3.3.2:
/// ≈+400 ms).
const TRANSCODE_1080P_MS: f64 = 390.0;
/// Fraction of the jitter buffer that is typically filled before playout.
const JITTER_FILL: f64 = 0.60;

impl StreamingPipeline {
    /// The paper's default: 1080p, no transcode, no jitter buffer,
    /// MPlayer.
    pub fn paper_default() -> Self {
        StreamingPipeline {
            resolution: Resolution::R1080p,
            transcode_to: None,
            jitter_buffer_mb: None,
            player: Player::MPlayer,
        }
    }

    /// Sample one streaming-delay measurement (ms) with its breakdown.
    pub fn sample(&self, rng: &mut impl Rng, link: &LinkProfile) -> (f64, StreamingBreakdown) {
        let out_res = self.transcode_to.unwrap_or(self.resolution);
        // Capture + ISP + sender stack scales mildly with resolution.
        let capture = log_normal_mean_cv(
            rng,
            SENDER.capture_isp_ms * self.resolution.scale_vs_1080p().powf(0.35),
            0.08,
        );
        let encode = SENDER.encode_ms(self.resolution);
        // RTMP: a video chunk each direction plus propagation. Chunks are
        // ~4 frames of payload.
        let up_chunk = self.resolution.frame_bytes(FPS) * 4.0;
        let down_chunk = out_res.frame_bytes(FPS) * 4.0;
        let network = link.sample_one_way_ms(rng)
            + link.uplink_tx_ms(up_chunk)
            + link.sample_one_way_ms(rng)
            + link.downlink_tx_ms(down_chunk);
        let server = if self.transcode_to.is_some() {
            RELAY_MS
                + log_normal_mean_cv(
                    rng,
                    TRANSCODE_1080P_MS * self.resolution.scale_vs_1080p().powf(0.5),
                    0.12,
                )
        } else {
            RELAY_MS
        };
        let jitter = self.jitter_buffer_mb.map_or(0.0, |mb| {
            mb * 8.0 * JITTER_FILL / out_res.stream_bitrate_mbps() * 1000.0
        });
        let decode = RECEIVER.decode_ms(out_res);
        let render = self.player.render_ms() * out_res.scale_vs_1080p().powf(0.4);
        let b = StreamingBreakdown {
            capture_isp_ms: capture,
            sender_encode_ms: encode,
            network_ms: network,
            server_ms: server,
            jitter_buffer_ms: jitter,
            decode_ms: decode,
            player_render_ms: render,
        };
        (b.total_ms(), b)
    }

    /// Run `n` measurements (the paper extracts 50 per 20-second test).
    pub fn run(
        &self,
        rng: &mut impl Rng,
        link: &LinkProfile,
        n: usize,
    ) -> (Vec<f64>, StreamingBreakdown) {
        assert!(n > 0, "need at least one sample");
        let mut samples = Vec::with_capacity(n);
        let mut acc = StreamingBreakdown::default();
        for _ in 0..n {
            let (t, b) = self.sample(rng, link);
            samples.push(t);
            acc.capture_isp_ms += b.capture_isp_ms;
            acc.sender_encode_ms += b.sender_encode_ms;
            acc.network_ms += b.network_ms;
            acc.server_ms += b.server_ms;
            acc.jitter_buffer_ms += b.jitter_buffer_ms;
            acc.decode_ms += b.decode_ms;
            acc.player_render_ms += b.player_render_ms;
        }
        let k = n as f64;
        acc.capture_isp_ms /= k;
        acc.sender_encode_ms /= k;
        acc.network_ms /= k;
        acc.server_ms /= k;
        acc.jitter_buffer_ms /= k;
        acc.decode_ms /= k;
        acc.player_render_ms /= k;
        (samples, acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgescope_analysis::stats::mean;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn link(rtt: f64) -> LinkProfile {
        LinkProfile::with_rtt(rtt, 60.0)
    }

    #[test]
    fn baseline_around_400ms() {
        // §3.3.2: no jitter buffer, no transcode ⇒ ≈400 ms.
        let p = StreamingPipeline::paper_default();
        let mut rng = StdRng::seed_from_u64(1);
        let (s, _) = p.run(&mut rng, &link(11.4), 50);
        let m = mean(&s);
        assert!((340.0..470.0).contains(&m), "baseline {m}");
    }

    #[test]
    fn network_not_the_bottleneck() {
        // Breakdown: network ≈50 ms, capture+render ≈140 ms.
        let p = StreamingPipeline::paper_default();
        let mut rng = StdRng::seed_from_u64(2);
        let (_, b) = p.run(&mut rng, &link(30.0), 100);
        assert!(b.network_ms < 80.0, "network {}", b.network_ms);
        assert!(
            (110.0..180.0).contains(&b.capture_isp_ms),
            "capture {}",
            b.capture_isp_ms
        );
        assert!(b.capture_isp_ms > b.network_ms);
        // Encode ≈25 ms sender, decode ≈10 ms receiver.
        assert!((20.0..30.0).contains(&b.sender_encode_ms));
        assert!(b.decode_ms < 12.0);
    }

    #[test]
    fn edge_improvement_modest() {
        // Fig. 7: the edge shaves at most ~10–25 % off the farthest cloud.
        let p = StreamingPipeline::paper_default();
        let mut rng = StdRng::seed_from_u64(3);
        let (edge, _) = p.run(&mut rng, &link(18.1), 60); // Table 6, 5G
        let (cloud3, _) = p.run(&mut rng, &link(60.8), 60);
        let improvement = 1.0 - mean(&edge) / mean(&cloud3);
        assert!(
            (0.03..0.30).contains(&improvement),
            "improvement {improvement}"
        );
    }

    #[test]
    fn downscaling_saves_about_67ms() {
        let mut rng = StdRng::seed_from_u64(4);
        let p1080 = StreamingPipeline::paper_default();
        let p720 = StreamingPipeline {
            resolution: Resolution::R720p,
            ..p1080
        };
        let (a, _) = p1080.run(&mut rng, &link(11.4), 80);
        let (b, _) = p720.run(&mut rng, &link(11.4), 80);
        let saving = mean(&a) - mean(&b);
        assert!((35.0..100.0).contains(&saving), "720p saving {saving}");
    }

    #[test]
    fn transcoding_doubles_delay() {
        // §3.3.2: transcoding ≈+400 ms (≈2× under WiFi).
        let mut rng = StdRng::seed_from_u64(5);
        let plain = StreamingPipeline::paper_default();
        let trans = StreamingPipeline {
            transcode_to: Some(Resolution::R720p),
            ..plain
        };
        let (a, _) = plain.run(&mut rng, &link(11.4), 60);
        let (b, _) = trans.run(&mut rng, &link(11.4), 60);
        let added = mean(&b) - mean(&a);
        assert!((300.0..480.0).contains(&added), "transcode adds {added}");
        assert!(
            mean(&b) > 1.8 * mean(&a),
            "≈2x: {} vs {}",
            mean(&b),
            mean(&a)
        );
    }

    #[test]
    fn jitter_buffer_reaches_two_seconds_and_levels_platforms() {
        let mut rng = StdRng::seed_from_u64(6);
        let p = StreamingPipeline {
            jitter_buffer_mb: Some(2.0),
            ..StreamingPipeline::paper_default()
        };
        let (edge, _) = p.run(&mut rng, &link(11.4), 60);
        let (cloud, _) = p.run(&mut rng, &link(55.1), 60);
        assert!(mean(&edge) > 1500.0, "buffered delay {}", mean(&edge));
        let rel_diff = (mean(&cloud) - mean(&edge)) / mean(&edge);
        assert!(rel_diff < 0.05, "edge/cloud difference trivial: {rel_diff}");
    }

    #[test]
    fn ffplay_saves_about_90ms() {
        let mut rng = StdRng::seed_from_u64(7);
        let mp = StreamingPipeline::paper_default();
        let ff = StreamingPipeline {
            player: Player::FFplay,
            ..mp
        };
        let (a, _) = mp.run(&mut rng, &link(11.4), 80);
        let (b, _) = ff.run(&mut rng, &link(11.4), 80);
        let saving = mean(&a) - mean(&b);
        assert!((70.0..110.0).contains(&saving), "ffplay saving {saving}");
    }

    #[test]
    fn lan_saves_little() {
        // §3.3.2's LAN micro-experiment: wiring the server next to the UEs
        // only removes ≈40 ms.
        let mut rng = StdRng::seed_from_u64(8);
        let p = StreamingPipeline::paper_default();
        let (wan, _) = p.run(&mut rng, &link(40.9), 60);
        let (lan, _) = p.run(&mut rng, &link(1.0), 60);
        let saving = mean(&wan) - mean(&lan);
        assert!((20.0..70.0).contains(&saving), "lan saving {saving}");
    }

    #[test]
    fn breakdown_sums_to_total() {
        let p = StreamingPipeline::paper_default();
        let mut rng = StdRng::seed_from_u64(9);
        let (t, b) = p.sample(&mut rng, &link(20.0));
        assert!((t - b.total_ms()).abs() < 1e-9);
    }
}

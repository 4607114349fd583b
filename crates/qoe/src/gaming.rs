//! The cloud-gaming pipeline (Fig. 6).
//!
//! Response delay = input capture → uplink (touch event) → server game
//! logic + rendering → encode → downlink (one encoded frame) → hardware
//! decode → display vsync. §3.3.1's findings reproduced here:
//!
//! * with a nearby VM and WiFi, response delay lands under 100 ms;
//! * remote clouds lengthen it by up to ≈60 ms (pure RTT);
//! * the server side (≈70 ms with encode) dominates — not the network;
//! * GPU rendering saves ≈10–20 ms (the model takes the 15 ms midpoint).
//!
//! The paper holds the server and the stream fixed, so they are module
//! constants: the VM (8 vCPUs, one session) encodes a frame in 8 ms, and
//! GamingAnywhere streams 800×600 at 60 FPS. The VM has no core count
//! here, because the game loop is single-threaded and one session never
//! waits for a core; extra cores would add capacity, not speed. What a
//! figure varies (game, device, GPU rendering) is a field of
//! [`GamingPipeline`].

use crate::device::Device;
use crate::game::Game;
use crate::link::LinkProfile;
use crate::video::Resolution;
use edgescope_net::rng::log_normal_mean_cv;
use rand::Rng;

/// Mean per-stage breakdown of the response delay, ms.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GamingBreakdown {
    /// Touch digitizer + input-stack time.
    pub input_ms: f64,
    /// Uplink propagation + event transmission.
    pub uplink_ms: f64,
    /// Game logic + software rendering.
    pub server_ms: f64,
    /// Server-side video encode.
    pub encode_ms: f64,
    /// Downlink propagation + frame transmission.
    pub downlink_ms: f64,
    /// Hardware decode on the UE.
    pub decode_ms: f64,
    /// Wait for the next display refresh.
    pub display_ms: f64,
}

impl GamingBreakdown {
    /// Total response delay.
    pub fn total_ms(&self) -> f64 {
        self.input_ms
            + self.uplink_ms
            + self.server_ms
            + self.encode_ms
            + self.downlink_ms
            + self.decode_ms
            + self.display_ms
    }

    /// Server-side share (logic + render + encode), the §3.3.1 bottleneck
    /// claim.
    pub fn server_share(&self) -> f64 {
        (self.server_ms + self.encode_ms) / self.total_ms()
    }
}

/// The assembled pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GamingPipeline {
    /// The hosted game.
    pub game: Game,
    /// The client device.
    pub device: Device,
    /// Whether the server renders on a GPU (§3.3.1's laptop experiment:
    /// −10–20 ms).
    pub gpu: bool,
}

/// Video encode time per frame on the server, ms.
const SERVER_ENCODE_MS: f64 = 8.0;
/// GamingAnywhere's encoded game resolution.
const RESOLUTION: Resolution = Resolution::R800x600;
/// GamingAnywhere's frame rate.
const FPS: f64 = 60.0;

/// Size of one touch-event message on the uplink, bytes.
const INPUT_EVENT_BYTES: f64 = 120.0;
/// Touch digitizer + input-stack latency, ms.
const INPUT_CAPTURE_MS: f64 = 2.0;
/// GPU rendering saves 10–20 ms (§3.3.1); use the midpoint.
const GPU_SAVING_MS: f64 = 15.0;

impl GamingPipeline {
    /// The paper's default setting: Samsung Note 10+, game Flare,
    /// software rendering.
    pub fn paper_default() -> Self {
        GamingPipeline {
            game: Game::FLARE,
            device: Device::SAMSUNG_NOTE10P,
            gpu: false,
        }
    }

    /// Sample one response-delay measurement (ms) over `link`, also
    /// returning its stage breakdown.
    pub fn sample(&self, rng: &mut impl Rng, link: &LinkProfile) -> (f64, GamingBreakdown) {
        let mut server = log_normal_mean_cv(rng, self.game.logic_render_ms, self.game.jitter_cv);
        if self.gpu {
            server = (server - GPU_SAVING_MS).max(5.0);
        }
        let b = GamingBreakdown {
            input_ms: INPUT_CAPTURE_MS,
            uplink_ms: link.sample_one_way_ms(rng) + link.uplink_tx_ms(INPUT_EVENT_BYTES),
            server_ms: server,
            encode_ms: SERVER_ENCODE_MS,
            downlink_ms: link.sample_one_way_ms(rng)
                + link.downlink_tx_ms(RESOLUTION.frame_bytes(FPS)),
            decode_ms: self.device.decode_ms(RESOLUTION),
            display_ms: rng.gen_range(0.0..1000.0 / self.device.refresh_hz),
        };
        (b.total_ms(), b)
    }

    /// Run the paper's protocol: `n` repetitions (50 in §3.3.1), returning
    /// the samples and the mean breakdown.
    pub fn run(
        &self,
        rng: &mut impl Rng,
        link: &LinkProfile,
        n: usize,
    ) -> (Vec<f64>, GamingBreakdown) {
        assert!(n > 0, "need at least one sample");
        let mut samples = Vec::with_capacity(n);
        let mut acc = GamingBreakdown::default();
        for _ in 0..n {
            let (total, b) = self.sample(rng, link);
            samples.push(total);
            acc.input_ms += b.input_ms;
            acc.uplink_ms += b.uplink_ms;
            acc.server_ms += b.server_ms;
            acc.encode_ms += b.encode_ms;
            acc.downlink_ms += b.downlink_ms;
            acc.decode_ms += b.decode_ms;
            acc.display_ms += b.display_ms;
        }
        let k = n as f64;
        acc.input_ms /= k;
        acc.uplink_ms /= k;
        acc.server_ms /= k;
        acc.encode_ms /= k;
        acc.downlink_ms /= k;
        acc.decode_ms /= k;
        acc.display_ms /= k;
        (samples, acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgescope_analysis::stats::mean;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Table 6 WiFi RTTs: edge 11.4, cloud-1 16.6, cloud-2 40.9, cloud-3
    /// 55.1 ms.
    fn link(rtt: f64) -> LinkProfile {
        LinkProfile::with_rtt(rtt, 60.0)
    }

    #[test]
    fn edge_under_100ms() {
        // §3.3.1: nearby VM + WiFi ⇒ <100 ms response delay (≈91 ms).
        let p = GamingPipeline::paper_default();
        let mut rng = StdRng::seed_from_u64(1);
        let (samples, _) = p.run(&mut rng, &link(11.4), 50);
        let m = mean(&samples);
        assert!((80.0..100.0).contains(&m), "edge mean {m}");
    }

    #[test]
    fn far_cloud_adds_up_to_60ms() {
        // Fig. 6(a): remote VMs lengthen the delay by up to ≈60 ms; the
        // delta is approximately the RTT difference.
        let p = GamingPipeline::paper_default();
        let mut rng = StdRng::seed_from_u64(2);
        let (edge, _) = p.run(&mut rng, &link(11.4), 50);
        let (cloud3, _) = p.run(&mut rng, &link(55.1), 50);
        let delta = mean(&cloud3) - mean(&edge);
        assert!((30.0..62.0).contains(&delta), "delta {delta}");
    }

    #[test]
    fn server_side_dominates_on_edge() {
        // §3.3.1: the major portion is server-side (≈70 ms of ≈91 ms).
        let p = GamingPipeline::paper_default();
        let mut rng = StdRng::seed_from_u64(3);
        let (_, b) = p.run(&mut rng, &link(11.4), 100);
        assert!(b.server_share() > 0.60, "server share {}", b.server_share());
        assert!(
            (60.0..80.0).contains(&(b.server_ms + b.encode_ms)),
            "server+encode {}",
            b.server_ms + b.encode_ms
        );
        // Network pieces are NOT the bottleneck: propagation ≈11 ms and
        // frame transmission <10 ms.
        assert!(b.downlink_ms < 20.0, "downlink {}", b.downlink_ms);
    }

    #[test]
    fn gpu_rendering_saves_about_15ms() {
        let mut p = GamingPipeline::paper_default();
        let mut rng = StdRng::seed_from_u64(4);
        let (base, _) = p.run(&mut rng, &link(11.4), 100);
        p.gpu = true;
        let mut rng = StdRng::seed_from_u64(4);
        let (gpu, _) = p.run(&mut rng, &link(11.4), 100);
        let saving = mean(&base) - mean(&gpu);
        assert!((9.0..21.0).contains(&saving), "gpu saving {saving}");
    }

    #[test]
    fn pingus_slower_than_flare() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut p = GamingPipeline::paper_default();
        let (flare, _) = p.run(&mut rng, &link(11.4), 100);
        p.game = Game::PINGUS;
        let (pingus, _) = p.run(&mut rng, &link(11.4), 100);
        assert!(mean(&pingus) > mean(&flare) + 5.0);
    }

    #[test]
    fn devices_similar_note10_best() {
        // Fig. 6(b): Note 10+ slightly better, others close behind
        // (decode is hardware-fast everywhere).
        let mut means = Vec::new();
        for d in Device::PHONES {
            let p = GamingPipeline {
                device: d,
                ..GamingPipeline::paper_default()
            };
            let mut rng = StdRng::seed_from_u64(6);
            let (s, _) = p.run(&mut rng, &link(11.4), 100);
            means.push(mean(&s));
        }
        assert!(means[0] <= means[1] && means[0] <= means[2], "{means:?}");
        assert!(
            means[2] - means[0] < 10.0,
            "device spread too large {means:?}"
        );
    }

    #[test]
    fn breakdown_sums_to_total() {
        let p = GamingPipeline::paper_default();
        let mut rng = StdRng::seed_from_u64(7);
        let (total, b) = p.sample(&mut rng, &link(20.0));
        assert!((total - b.total_ms()).abs() < 1e-9);
    }
}

//! Frame-level live-streaming simulation.
//!
//! The stage-sum model in [`crate::streaming`] reproduces §3.3.2's mean
//! breakdowns; this module simulates the *dynamics* the jitter buffer
//! exists for: frames leave the sender on a fixed cadence, traverse a
//! jittery network (per-frame delay draws plus occasional spikes), and
//! the receiver either plays them on schedule or stalls.
//!
//! * Without a buffer, every delay spike larger than the playout slack
//!   stalls the video — low latency, poor smoothness.
//! * With a jitter buffer of `B` seconds, playout starts late and absorbs
//!   spikes up to `B` — §3.3.2's "with a small jitter buffer (e.g. 2MBs),
//!   the streaming delay reaches as high as 2 seconds and the difference
//!   between edge/clouds becomes trivial", which the tests reproduce as
//!   an emergent property.
//!
//! The buffer is [`simulate_stream`]'s one setting, since `ext_framesim`
//! sweeps it. The stream is fixed by module constants: 30 s of 1080p at
//! 30 fps, a 3 % chance per frame of a delay spike averaging 120 ms, and
//! 165 ms sender plus 160 ms receiver pipeline delay.

use crate::link::LinkProfile;
use crate::video::Resolution;
use edgescope_analysis::stats::mean;
use edgescope_net::rng::{exponential, log_normal_mean_cv};
use rand::Rng;

/// Captured/encoded resolution (§3.3.2's 1080p stream).
const RESOLUTION: Resolution = Resolution::R1080p;
/// Frame rate of the stream.
const FPS: f64 = 30.0;
/// Frames simulated per run (30 s).
const FRAMES: usize = 900;
/// Probability a frame hits a network delay spike.
const SPIKE_PROB: f64 = 0.03;
/// Mean spike size, ms.
const SPIKE_MEAN_MS: f64 = 120.0;
/// Fixed sender-side pipeline delay per frame (capture+encode), ms.
const SENDER_MS: f64 = 165.0;
/// Fixed receiver-side pipeline delay (decode+render), ms.
const RECEIVER_MS: f64 = 160.0;

/// Outcome of a frame-level run.
#[derive(Debug, Clone)]
pub struct FrameSimOutcome {
    /// Mean end-to-end display latency (event → shown), ms.
    pub mean_latency_ms: f64,
    /// 95th percentile display latency.
    pub p95_latency_ms: f64,
    /// Number of playback stalls (a frame missing its deadline).
    pub stalls: usize,
}

impl FrameSimOutcome {
    /// Stalls per minute of content.
    pub fn stalls_per_minute(&self) -> f64 {
        let minutes = FRAMES as f64 / FPS / 60.0;
        self.stalls as f64 / minutes.max(1e-9)
    }
}

/// Run the frame-level simulation over one link with a jitter buffer of
/// `buffer_s` seconds of content (0 plays every frame as soon as it can).
pub fn simulate_stream(rng: &mut impl Rng, link: &LinkProfile, buffer_s: f64) -> FrameSimOutcome {
    let frame_interval_ms = 1000.0 / FPS;
    let tx_ms = link.uplink_tx_ms(RESOLUTION.frame_bytes(FPS))
        + link.downlink_tx_ms(RESOLUTION.frame_bytes(FPS));

    // Arrival time of each frame at the receiver's renderer input.
    let mut arrivals = Vec::with_capacity(FRAMES);
    for i in 0..FRAMES {
        let capture_time = i as f64 * frame_interval_ms;
        let mut net = link.sample_one_way_ms(rng) * 2.0 + tx_ms;
        if rng.gen::<f64>() < SPIKE_PROB {
            net += exponential(rng, 1.0 / SPIKE_MEAN_MS);
        }
        // Mild per-frame pipeline jitter.
        let pipeline =
            log_normal_mean_cv(rng, SENDER_MS, 0.05) + log_normal_mean_cv(rng, RECEIVER_MS, 0.05);
        arrivals.push(capture_time + pipeline + net);
    }

    // Playout: the first frame is displayed at arrival + buffer + one
    // frame interval of implicit de-jitter slack (even "no-buffer"
    // players hold a frame), fixing the target latency. Later frames play
    // at their target slot; a late arrival stalls playback, after which
    // the player catches back up to the target at 1.25x speed (latency
    // chasing, as live players do).
    let buffer_ms = buffer_s * 1000.0;
    let target_latency = arrivals[0] + buffer_ms + frame_interval_ms; // latency of frame 0
    let mut display_time = target_latency;
    let mut latencies = Vec::with_capacity(FRAMES);
    let mut stalls = 0usize;
    latencies.push(display_time);
    for (i, &arrival) in arrivals.iter().enumerate().skip(1) {
        let desired = i as f64 * frame_interval_ms + target_latency;
        // Catch-up floor: never play faster than 1.25x (80 % spacing).
        let scheduled = desired.max(display_time + 0.8 * frame_interval_ms);
        let actual = if arrival > scheduled {
            stalls += 1;
            arrival
        } else {
            scheduled
        };
        display_time = actual;
        latencies.push(actual - i as f64 * frame_interval_ms);
    }
    // total_cmp: a NaN frame latency (e.g. a poisoned link profile) sorts
    // to the top of the tail instead of panicking mid-simulation — it then
    // surfaces as a NaN p95 rather than being dropped. The mean is summed
    // in this sorted order, which fixes its bits.
    latencies.sort_by(f64::total_cmp);
    FrameSimOutcome {
        mean_latency_ms: mean(&latencies),
        p95_latency_ms: latencies[((latencies.len() - 1) as f64 * 0.95) as usize],
        stalls,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run(rtt: f64, buffer_s: f64, seed: u64) -> FrameSimOutcome {
        let link = LinkProfile {
            jitter_cv: 0.15,
            ..LinkProfile::with_rtt(rtt, 60.0)
        };
        let mut rng = StdRng::seed_from_u64(seed);
        simulate_stream(&mut rng, &link, buffer_s)
    }

    #[test]
    fn unbuffered_stream_stalls_on_spikes() {
        let out = run(40.0, 0.0, 1);
        assert!(
            out.stalls > 5,
            "spikes must stall an unbuffered stream: {}",
            out.stalls
        );
        // Latency stays in the §3.3.2 ballpark (~400 ms at 1080p).
        assert!(
            (300.0..600.0).contains(&out.mean_latency_ms),
            "mean {}",
            out.mean_latency_ms
        );
    }

    #[test]
    fn buffer_trades_latency_for_smoothness() {
        let unbuffered = run(40.0, 0.0, 2);
        let buffered = run(40.0, 1.6, 2);
        assert!(
            buffered.stalls < unbuffered.stalls / 2,
            "buffered {} vs unbuffered {}",
            buffered.stalls,
            unbuffered.stalls
        );
        assert!(
            buffered.mean_latency_ms > unbuffered.mean_latency_ms + 1000.0,
            "the smoothness costs >1 s of latency"
        );
        // §3.3.2: the buffered delay reaches ~2 s.
        assert!(
            (1500.0..3000.0).contains(&buffered.mean_latency_ms),
            "buffered mean {}",
            buffered.mean_latency_ms
        );
    }

    #[test]
    fn buffered_edge_cloud_difference_trivial() {
        // §3.3.2: with the buffer, edge vs cloud becomes irrelevant.
        let edge = run(11.4, 1.6, 3);
        let cloud = run(55.1, 1.6, 3);
        let rel = (cloud.mean_latency_ms - edge.mean_latency_ms) / edge.mean_latency_ms;
        assert!(rel.abs() < 0.1, "relative gap {rel}");
        // Without the buffer the gap is visible.
        let edge_nb = run(11.4, 0.0, 3);
        let cloud_nb = run(55.1, 0.0, 3);
        assert!(cloud_nb.mean_latency_ms > edge_nb.mean_latency_ms + 20.0);
    }

    #[test]
    fn latency_percentiles_ordered() {
        let out = run(30.0, 0.5, 4);
        assert!(out.p95_latency_ms >= out.mean_latency_ms * 0.8);
        assert!(out.stalls_per_minute() >= 0.0);
    }

    #[test]
    fn deterministic() {
        let a = run(25.0, 1.0, 5);
        let b = run(25.0, 1.0, 5);
        assert_eq!(a.mean_latency_ms, b.mean_latency_ms);
        assert_eq!(a.stalls, b.stalls);
    }
}

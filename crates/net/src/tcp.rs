//! TCP throughput model and iperf3 simulation.
//!
//! §3.2's finding is that end-to-end throughput is
//! `min(last-mile capacity, DC gateway allocation, Internet-path capacity)`
//! where the Internet-path term follows the macroscopic TCP model of
//! Mathis et al. (the paper cites it as \[62\]):
//!
//! ```text
//! throughput ≈ (MSS / RTT) · (C / √p)      with C ≈ 1.22 (Reno, delayed acks off)
//! ```
//!
//! so the Internet term — and only it — degrades with distance (RTT grows
//! and loss accumulates over backbone hops). [`steady_state_mbps`] is
//! the least of the three terms; [`iperf`] runs the paper's
//! [`IPERF_SECS`]-second iPerf3 test with a slow-start ramp and
//! per-second sampling.
//!
//! The paper fits one TCP model and runs one test length, so the
//! calibration fitted to Fig. 5 is module constants and the model is
//! free functions over them: a 1460-byte MSS, C = 1.22, a base loss of
//! 5.5e-7 plus 3e-7 per backbone hop, a [`GATEWAY_MBPS`] gateway, 6 %
//! per-second goodput fluctuation and 15 s runs.

use crate::path::Path;
use crate::rng::log_normal_mean_cv;
use rand::Rng;

/// Result of a simulated iperf3 run.
#[derive(Debug, Clone, PartialEq)]
pub struct IperfReport {
    /// Per-second goodput samples in Mbps.
    pub per_second_mbps: Vec<f64>,
    /// The run's mean goodput (what the paper's Fig. 5 plots per point).
    pub mean_mbps: f64,
}

/// TCP maximum segment size in bytes.
const MSS_BYTES: f64 = 1460.0;
/// Mathis constant (≈1.22 for Reno with every-packet acks).
const MATHIS_C: f64 = 1.22;
/// Baseline segment-loss probability of any Internet path.
const BASE_LOSS: f64 = 5.5e-7;
/// Additional loss per backbone hop traversed.
const LOSS_PER_WAN_HOP: f64 = 3.0e-7;
/// DC gateway capacity allocated to the tested VM (Mbps). The paper
/// provisioned 1 Gbps per throughput VM.
pub const GATEWAY_MBPS: f64 = 1000.0;
/// Relative per-second goodput fluctuation in steady state.
const STEADY_CV: f64 = 0.06;
/// iPerf3 run length in seconds: the paper ran 15 s per connection.
pub const IPERF_SECS: usize = 15;

/// Effective segment-loss probability of `path`.
pub fn path_loss(path: &Path) -> f64 {
    BASE_LOSS + LOSS_PER_WAN_HOP * path.wan_hop_count() as f64
}

/// The Mathis-model Internet-path capacity of `path`, in Mbps.
pub fn internet_capacity_mbps(path: &Path) -> f64 {
    let rtt_s = (path.mean_rtt_ms() / 1000.0).max(1e-4);
    let p = path_loss(path).max(1e-9);
    MSS_BYTES * 8.0 / 1e6 / rtt_s * MATHIS_C / p.sqrt()
}

/// Steady-state goodput for a given last-mile capacity: the least of
/// the last mile, the DC gateway and the Internet path.
pub fn steady_state_mbps(path: &Path, last_mile_mbps: f64) -> f64 {
    let internet = internet_capacity_mbps(path);
    let mut rate = last_mile_mbps;
    if GATEWAY_MBPS < rate {
        rate = GATEWAY_MBPS;
    }
    if internet < rate {
        rate = internet;
    }
    rate
}

/// Simulate one [`IPERF_SECS`]-second iperf3 run. `last_mile_mbps` is
/// the user's sampled access capacity for the tested direction.
pub fn iperf(rng: &mut impl Rng, path: &Path, last_mile_mbps: f64) -> IperfReport {
    assert!(last_mile_mbps > 0.0, "non-positive last-mile capacity");
    edgescope_obs::counter_inc("net.iperf_runs");
    let steady = steady_state_mbps(path, last_mile_mbps);
    let mut per_second = Vec::with_capacity(IPERF_SECS);
    for s in 0..IPERF_SECS {
        // Slow-start ramp: the first two seconds run below steady state
        // (iPerf3's omit-less default shows the same shape).
        let ramp = match s {
            0 => 0.45,
            1 => 0.85,
            _ => 1.0,
        };
        let v = log_normal_mean_cv(rng, steady * ramp, STEADY_CV);
        per_second.push(v.min(last_mile_mbps.max(steady) * 1.2));
    }
    IperfReport {
        mean_mbps: edgescope_analysis::stats::mean(&per_second),
        per_second_mbps: per_second,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessNetwork;
    use crate::path::{ue_path, TargetClass};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn path(d: f64, seed: u64) -> Path {
        let mut rng = StdRng::seed_from_u64(seed);
        ue_path(&mut rng, AccessNetwork::FiveG, d, TargetClass::EdgeSite)
    }

    #[test]
    fn mathis_decreases_with_distance() {
        let near = internet_capacity_mbps(&path(20.0, 1));
        let mid = internet_capacity_mbps(&path(800.0, 1));
        let far = internet_capacity_mbps(&path(2500.0, 1));
        assert!(near > mid && mid > far, "near {near} mid {mid} far {far}");
        assert!(
            near > 600.0,
            "near path should not be Internet-bound: {near}"
        );
    }

    #[test]
    fn wifi_is_last_mile_bound_even_far() {
        // §3.2: with WiFi/LTE the wireless hop is the bottleneck regardless
        // of distance.
        let far = path(2800.0, 2);
        assert!(internet_capacity_mbps(&far) > 70.0);
        assert_eq!(steady_state_mbps(&far, 70.0), 70.0);
    }

    #[test]
    fn five_g_downlink_internet_bound_when_far() {
        let (near, far) = (path(20.0, 3), path(2500.0, 3));
        assert!(internet_capacity_mbps(&near) > 640.0);
        assert_eq!(steady_state_mbps(&near, 640.0), 640.0);
        let rate_far = steady_state_mbps(&far, 640.0);
        assert_eq!(rate_far, internet_capacity_mbps(&far));
        assert!(rate_far < 400.0, "far rate {rate_far}");
    }

    #[test]
    fn gateway_caps_wired_giants() {
        let near = path(10.0, 4);
        assert!(internet_capacity_mbps(&near) > GATEWAY_MBPS);
        assert_eq!(steady_state_mbps(&near, 5000.0), GATEWAY_MBPS);
    }

    #[test]
    fn iperf_fifteen_seconds() {
        let mut rng = StdRng::seed_from_u64(5);
        let p = path(100.0, 5);
        let rep = iperf(&mut rng, &p, 70.0);
        assert_eq!(rep.per_second_mbps.len(), 15);
        // Slow start: first second clearly below steady state.
        assert!(rep.per_second_mbps[0] < rep.per_second_mbps[5]);
        assert!(
            (rep.mean_mbps - 70.0).abs() / 70.0 < 0.25,
            "mean {}",
            rep.mean_mbps
        );
    }

    #[test]
    fn iperf_deterministic() {
        let p = path(300.0, 7);
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        assert_eq!(iperf(&mut a, &p, 50.0), iperf(&mut b, &p, 50.0));
    }
}

//! The network link as the QoE pipelines see it.
//!
//! A [`LinkProfile`] summarizes a UE↔VM connection: mean RTT, per-probe
//! jitter, and the bandwidth in both directions. `edgescope-core` builds
//! profiles from `edgescope-net` paths; tests build them directly from
//! Table 6's RTTs.

use edgescope_net::rng::log_normal_mean_cv;
use rand::Rng;

/// Relative RTT jitter per sample of a QoE link: the one spread that
/// [`LinkProfile::with_rtt`], Table 6's links and serve's `/query/qoe`
/// share.
pub const JITTER_CV: f64 = 0.04;

/// A UE↔VM link summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkProfile {
    /// Mean round-trip time, ms.
    pub rtt_ms: f64,
    /// Relative RTT jitter per sample.
    pub jitter_cv: f64,
    /// UE→VM bandwidth, Mbps.
    pub uplink_mbps: f64,
    /// VM→UE bandwidth, Mbps.
    pub downlink_mbps: f64,
}

impl LinkProfile {
    /// A profile with the given RTT and symmetric bandwidth — convenient
    /// for Table 6-style scenarios.
    pub fn with_rtt(rtt_ms: f64, mbps: f64) -> Self {
        assert!(rtt_ms > 0.0 && mbps > 0.0, "non-positive link parameters");
        LinkProfile {
            rtt_ms,
            jitter_cv: JITTER_CV,
            uplink_mbps: mbps,
            downlink_mbps: mbps,
        }
    }

    /// Sample a one-way delay (half an RTT draw), ms.
    pub fn sample_one_way_ms(&self, rng: &mut impl Rng) -> f64 {
        log_normal_mean_cv(rng, self.rtt_ms, self.jitter_cv) / 2.0
    }

    /// Transmission time of `payload_bytes` over the uplink, ms.
    pub fn uplink_tx_ms(&self, payload_bytes: f64) -> f64 {
        payload_bytes * 8.0 / (self.uplink_mbps * 1e6) * 1e3
    }

    /// Transmission time of `payload_bytes` over the downlink, ms.
    pub fn downlink_tx_ms(&self, payload_bytes: f64) -> f64 {
        payload_bytes * 8.0 / (self.downlink_mbps * 1e6) * 1e3
    }

    /// The link as seen from a VM on a contended server.
    ///
    /// `cpu_steal_factor` (≥ 1) inflates the server-side share of the RTT
    /// — modelled as half the round trip, since the paper's last-mile RTT
    /// splits between access network and server turnaround — and
    /// `bw_available` (∈ (0, 1]) scales both directions of bandwidth
    /// (fair-share NIC). Jitter also grows with steal: interrupted vCPUs
    /// respond burstily. Identity inputs (1.0, 1.0) return `self`
    /// unchanged, so contention `off` is byte-identical.
    pub fn under_contention(&self, cpu_steal_factor: f64, bw_available: f64) -> Self {
        assert!(cpu_steal_factor >= 1.0, "steal factor below identity");
        assert!(
            bw_available > 0.0 && bw_available <= 1.0,
            "bw share out of range"
        );
        LinkProfile {
            rtt_ms: self.rtt_ms * (0.5 + 0.5 * cpu_steal_factor),
            jitter_cv: self.jitter_cv * cpu_steal_factor,
            uplink_mbps: self.uplink_mbps * bw_available,
            downlink_mbps: self.downlink_mbps * bw_available,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn one_way_is_half_rtt_on_average() {
        let l = LinkProfile::with_rtt(20.0, 100.0);
        let mut rng = StdRng::seed_from_u64(1);
        let m: f64 = (0..5000)
            .map(|_| l.sample_one_way_ms(&mut rng))
            .sum::<f64>()
            / 5000.0;
        assert!((m - 10.0).abs() < 0.4, "mean one-way {m}");
    }

    #[test]
    fn transmission_times() {
        let l = LinkProfile::with_rtt(10.0, 8.0); // 8 Mbps = 1 MB/s
                                                  // 1 MB over 8 Mbps = 1 s = 1000 ms.
        assert!((l.downlink_tx_ms(1e6) - 1000.0).abs() < 1e-6);
        assert!((l.uplink_tx_ms(1e3) - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "non-positive link")]
    fn zero_rtt_rejected() {
        LinkProfile::with_rtt(0.0, 10.0);
    }

    #[test]
    fn identity_contention_is_a_noop() {
        let l = LinkProfile::with_rtt(20.0, 100.0);
        assert_eq!(l.under_contention(1.0, 1.0), l);
    }

    #[test]
    fn contention_degrades_monotonically() {
        let l = LinkProfile::with_rtt(20.0, 100.0);
        let d = l.under_contention(1.35, 0.5);
        assert!(d.rtt_ms > l.rtt_ms && d.rtt_ms < l.rtt_ms * 1.35);
        assert!(d.jitter_cv > l.jitter_cv);
        assert_eq!(d.uplink_mbps, 50.0);
        assert_eq!(d.downlink_mbps, 50.0);
        let worse = l.under_contention(1.8, 0.2);
        assert!(worse.rtt_ms > d.rtt_ms);
        assert!(worse.downlink_mbps < d.downlink_mbps);
    }
}

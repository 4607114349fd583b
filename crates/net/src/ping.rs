//! The ICMP-echo (ping) engine.
//!
//! §2.1.1: "the app will obtain the round-trip time (RTT) to each
//! edge/cloud VM … Each IP testing is repeated by 30 times." [`PingEngine`]
//! reproduces that harness: it fires `n` echo probes down a [`Path`],
//! records per-probe RTTs, loses probes according to the path's (and the
//! fault injector's) loss model, and summarizes mean/std/CV exactly the way
//! §3.1 computes delay and jitter.

use crate::fault::FaultInjector;
use crate::path::Path;
use edgescope_analysis::stats;
use edgescope_obs as obs;
use rand::Rng;

/// RTT histogram bucket bounds (ms) for the `net.rtt_ms` metric —
/// chosen around the paper's edge (<10 ms), same-province cloud
/// (~30 ms) and cross-country (>100 ms) regimes.
const RTT_BOUNDS_MS: [f64; 7] = [5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0];

/// Probes per draw block: big enough to amortize the per-block hop
/// parameter hoisting (the paper's standard run is 30 probes — one
/// block). The block size fixes the draw order, so it is part of the
/// byte-identity contract.
const PROBE_BLOCK: usize = 128;

/// Result of one ping run (the paper's 30-probe test).
#[derive(Debug, Clone, PartialEq)]
pub struct PingStats {
    /// RTTs of the probes that returned, in ms, in send order.
    pub rtts_ms: Vec<f64>,
    /// Number of probes that were lost.
    pub lost: usize,
}

impl PingStats {
    /// Number of probes sent.
    pub fn sent(&self) -> usize {
        self.rtts_ms.len() + self.lost
    }

    /// Mean RTT of returned probes; `None` if everything was lost.
    pub fn mean_rtt_ms(&self) -> Option<f64> {
        if self.rtts_ms.is_empty() {
            return None;
        }
        Some(stats::mean(&self.rtts_ms))
    }

    /// Population std-dev of returned probes; `None` if fewer than two.
    pub fn std_rtt_ms(&self) -> Option<f64> {
        if self.rtts_ms.len() < 2 {
            return None;
        }
        Some(stats::std_dev(&self.rtts_ms))
    }

    /// Coefficient of variation (std/mean), the paper's jitter metric
    /// (Fig. 2b). `None` if fewer than two probes returned.
    pub fn cv(&self) -> Option<f64> {
        match (self.std_rtt_ms(), self.mean_rtt_ms()) {
            (Some(s), Some(m)) if m > 0.0 => Some(s / m),
            _ => None,
        }
    }

    /// Fraction of probes lost.
    pub fn loss_rate(&self) -> f64 {
        if self.sent() == 0 {
            0.0
        } else {
            self.lost as f64 / self.sent() as f64
        }
    }
}

/// Ping engine with optional fault injection.
#[derive(Debug, Clone, Default)]
pub struct PingEngine {
    /// Fault injection applied to every probe.
    pub fault: FaultInjector,
}

impl PingEngine {
    /// Engine with no fault injection (the experiments' configuration).
    pub fn new() -> Self {
        Self::default()
    }

    /// Engine with a fault injector.
    pub fn with_fault(fault: FaultInjector) -> Self {
        PingEngine { fault }
    }

    /// Run `n` echo probes along `path`.
    ///
    /// Probes are processed in blocks of 128 (`PROBE_BLOCK`): per block the
    /// loss uniforms are drawn first, then the injected-drop uniforms for
    /// the loss survivors (skipped entirely when `drop_chance` is zero),
    /// then the survivors' RTTs in one hop-major
    /// [`Path::sample_rtt_block`], then jitter amplification. Each probe
    /// stream derives from its own [`crate::rng::stream_rng`], so the
    /// blocked draw order is identical at every `--jobs` count by
    /// construction.
    ///
    /// Metrics (no-ops outside an [`obs::scoped`] scope, and never
    /// drawing from `rng`): `net.probes_sent`, `net.probes_lost_path`,
    /// `net.probes_dropped_fault` counters and the `net.rtt_ms`
    /// histogram over returned probes. The loss counters are lump sums
    /// with the same totals as per-probe increments.
    pub fn probe(&self, rng: &mut impl Rng, path: &Path, n: usize) -> PingStats {
        let loss_p = path.loss_probability();
        let mean = path.mean_rtt_ms();
        obs::counter_add("net.probes_sent", n as u64);
        let mut lost_path = 0usize;
        let mut lost_fault = 0usize;
        let mut rtts = Vec::with_capacity(n);
        let mut off = 0;
        while off < n {
            let bn = (n - off).min(PROBE_BLOCK);
            // Phase 1: path-loss uniforms for every probe in the block.
            let mut after_loss = 0usize;
            for _ in 0..bn {
                if rng.gen::<f64>() >= loss_p {
                    after_loss += 1;
                }
            }
            lost_path += bn - after_loss;
            // Phase 2: injected drops for the survivors (`drops` itself
            // draws nothing when drop_chance is zero).
            let mut returned = 0usize;
            for _ in 0..after_loss {
                if !self.fault.drops(rng) {
                    returned += 1;
                }
            }
            lost_fault += after_loss - returned;
            // Phases 3+4: hop-major RTT block, then jitter amplification.
            let start = rtts.len();
            rtts.resize(start + returned, 0.0);
            let block = &mut rtts[start..];
            path.sample_rtt_block(rng, block);
            for r in block.iter_mut() {
                *r = self.fault.amplify_jitter(mean, *r);
                obs::observe("net.rtt_ms", *r, &RTT_BOUNDS_MS);
            }
            off += bn;
        }
        // Lump-sum counters: same totals as per-probe increments, and
        // (like them) absent entirely from a run with no losses.
        if lost_path > 0 {
            obs::counter_add("net.probes_lost_path", lost_path as u64);
        }
        if lost_fault > 0 {
            obs::counter_add("net.probes_dropped_fault", lost_fault as u64);
        }
        PingStats {
            rtts_ms: rtts,
            lost: lost_path + lost_fault,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessNetwork;
    use crate::path::{ue_path, TargetClass};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_path(seed: u64) -> Path {
        let mut rng = StdRng::seed_from_u64(seed);
        ue_path(&mut rng, AccessNetwork::Wifi, 25.0, TargetClass::EdgeSite)
    }

    #[test]
    fn thirty_probe_run_matches_methodology() {
        let path = sample_path(1);
        let eng = PingEngine::new();
        let mut rng = StdRng::seed_from_u64(2);
        let stats = eng.probe(&mut rng, &path, 30);
        assert_eq!(stats.sent(), 30);
        assert!(stats.rtts_ms.len() >= 25, "lost {}", stats.lost);
        let mean = stats.mean_rtt_ms().unwrap();
        assert!((mean - path.mean_rtt_ms()).abs() / path.mean_rtt_ms() < 0.15);
    }

    #[test]
    fn cv_defined_and_small_on_edge_path() {
        let path = sample_path(3);
        let eng = PingEngine::new();
        let mut rng = StdRng::seed_from_u64(4);
        let stats = eng.probe(&mut rng, &path, 30);
        let cv = stats.cv().unwrap();
        assert!(cv > 0.0 && cv < 0.06, "cv {cv}");
    }

    #[test]
    fn total_loss_yields_none() {
        let path = sample_path(5);
        let eng = PingEngine::with_fault(FaultInjector {
            drop_chance: 1.0,
            ..FaultInjector::none()
        });
        let mut rng = StdRng::seed_from_u64(6);
        let stats = eng.probe(&mut rng, &path, 10);
        assert_eq!(stats.lost, 10);
        assert_eq!(stats.mean_rtt_ms(), None);
        assert_eq!(stats.cv(), None);
        assert_eq!(stats.loss_rate(), 1.0);
    }

    #[test]
    fn hostile_fault_raises_cv() {
        let path = sample_path(7);
        let mut rng_a = StdRng::seed_from_u64(8);
        let mut rng_b = StdRng::seed_from_u64(8);
        let clean = PingEngine::new().probe(&mut rng_a, &path, 30);
        let noisy = PingEngine::with_fault(FaultInjector {
            jitter_scale: 5.0,
            ..FaultInjector::none()
        })
        .probe(&mut rng_b, &path, 30);
        assert!(noisy.cv().unwrap() > clean.cv().unwrap());
    }

    #[test]
    fn probe_counters_observe_losses() {
        let path = sample_path(11);
        let ((clean, blackout), set) = obs::scoped(|| {
            let mut rng = StdRng::seed_from_u64(12);
            let clean = PingEngine::new().probe(&mut rng, &path, 20);
            let blackout = PingEngine::with_fault(FaultInjector {
                drop_chance: 1.0,
                ..FaultInjector::none()
            })
            .probe(&mut rng, &path, 5);
            (clean, blackout)
        });
        assert_eq!(set.counter("net.probes_sent"), 25);
        assert_eq!(
            set.counter("net.probes_lost_path") + set.counter("net.probes_dropped_fault"),
            (clean.lost + blackout.lost) as u64
        );
        assert!(set.counter("net.probes_dropped_fault") > 0);
        let h = set
            .histogram("net.rtt_ms")
            .expect("returned probes recorded");
        assert_eq!(h.count() as usize, clean.rtts_ms.len());
    }

    #[test]
    fn empty_run() {
        let path = sample_path(9);
        let mut rng = StdRng::seed_from_u64(10);
        let stats = PingEngine::new().probe(&mut rng, &path, 0);
        assert_eq!(stats.sent(), 0);
        assert_eq!(stats.loss_rate(), 0.0);
    }
}

//! Access-network models.
//!
//! §2.1.1/§3 distinguishes four last-mile technologies: WiFi, LTE, 5G (NR
//! at 3.5 GHz), and wired campus access. Each access network contributes
//! (a) the structure and latency of the first hops of every path (Table 2)
//! and (b) the last-mile capacity that bounds end-to-end TCP throughput
//! (Fig. 5).
//!
//! Capacity calibration (paper §3.2): WiFi and LTE downlinks average well
//! under 100 Mbps; 5G downlink averages ≈500 Mbps while its uplink is
//! capped ≈52 Mbps by the asymmetric TDD slot ratio of Rel-15 TS 38.306;
//! wired access averages ≈480 Mbps.

use crate::rng::log_normal_mean_cv;
use rand::Rng;

/// The four last-mile technologies measured in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessNetwork {
    /// Home/campus WiFi.
    Wifi,
    /// 4G LTE.
    Lte,
    /// 5G NR (3.5 GHz TDD, as deployed in China in 2020).
    FiveG,
    /// Wired campus/office access.
    Wired,
}

impl AccessNetwork {
    /// All variants, in the paper's reporting order.
    pub const ALL: [AccessNetwork; 4] = [
        AccessNetwork::Wifi,
        AccessNetwork::Lte,
        AccessNetwork::FiveG,
        AccessNetwork::Wired,
    ];

    /// Human-readable label matching the paper's figures; its lower-cased
    /// form is the network's name in campaign records and serve queries.
    pub fn label(&self) -> &'static str {
        match self {
            AccessNetwork::Wifi => "WiFi",
            AccessNetwork::Lte => "LTE",
            AccessNetwork::FiveG => "5G",
            AccessNetwork::Wired => "Wired",
        }
    }

    /// Mean last-mile downlink capacity in Mbps.
    pub fn downlink_mean_mbps(&self) -> f64 {
        match self {
            AccessNetwork::Wifi => 70.0,
            AccessNetwork::Lte => 42.0,
            AccessNetwork::FiveG => 640.0,
            AccessNetwork::Wired => 560.0,
        }
    }

    /// Mean last-mile uplink capacity in Mbps. The 5G uplink cap reflects
    /// the Rel-15 TDD slot-ratio configuration (§3.2).
    pub fn uplink_mean_mbps(&self) -> f64 {
        match self {
            AccessNetwork::Wifi => 50.0,
            AccessNetwork::Lte => 20.0,
            AccessNetwork::FiveG => 54.0,
            AccessNetwork::Wired => 480.0,
        }
    }

    /// Relative spread (CV) of the per-user capacity draw.
    fn capacity_cv(&self) -> f64 {
        match self {
            AccessNetwork::Wifi => 0.40,
            AccessNetwork::Lte => 0.45,
            AccessNetwork::FiveG => 0.18,
            AccessNetwork::Wired => 0.15,
        }
    }

    /// Draw one user's downlink capacity (Mbps). Log-normal around the
    /// technology mean: per-user radio conditions vary, but capacity never
    /// goes negative.
    pub fn sample_downlink_mbps(&self, rng: &mut impl Rng) -> f64 {
        log_normal_mean_cv(rng, self.downlink_mean_mbps(), self.capacity_cv())
    }

    /// Draw one user's uplink capacity (Mbps). The 5G uplink is a hard
    /// configuration cap, so its draw is tightly concentrated.
    pub fn sample_uplink_mbps(&self, rng: &mut impl Rng) -> f64 {
        let cv = if *self == AccessNetwork::FiveG {
            0.06
        } else {
            self.capacity_cv()
        };
        log_normal_mean_cv(rng, self.uplink_mean_mbps(), cv)
    }
}

impl std::fmt::Display for AccessNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn capacity_ordering_matches_paper() {
        // 5G down > wired > WiFi > LTE; 5G uplink strictly capped.
        assert!(
            AccessNetwork::FiveG.downlink_mean_mbps() > AccessNetwork::Wired.downlink_mean_mbps()
        );
        assert!(
            AccessNetwork::Wired.downlink_mean_mbps() > AccessNetwork::Wifi.downlink_mean_mbps()
        );
        assert!(AccessNetwork::Wifi.downlink_mean_mbps() > AccessNetwork::Lte.downlink_mean_mbps());
        assert!(AccessNetwork::FiveG.uplink_mean_mbps() < 60.0);
    }

    #[test]
    fn wifi_lte_stay_under_100() {
        // §3.2: "≤100Mbps for LTE and WiFi" — the *bulk* of draws must sit
        // below 100 Mbps so distance correlation stays negligible.
        let mut rng = StdRng::seed_from_u64(1);
        for net in [AccessNetwork::Wifi, AccessNetwork::Lte] {
            let below = (0..2_000)
                .filter(|_| net.sample_downlink_mbps(&mut rng) <= 120.0)
                .count();
            assert!(below > 1_700, "{net}: only {below}/2000 below 120 Mbps");
        }
    }

    #[test]
    fn five_g_uplink_tight_around_cap() {
        let mut rng = StdRng::seed_from_u64(2);
        let xs: Vec<f64> = (0..5_000)
            .map(|_| AccessNetwork::FiveG.sample_uplink_mbps(&mut rng))
            .collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 54.0).abs() < 2.0, "mean {mean}");
        assert!(xs.iter().all(|&x| x < 80.0));
    }

    #[test]
    fn labels_are_distinct_in_any_case() {
        // The campaign records write each network as its lower-cased
        // label and read it back by the same spelling.
        for (i, net) in AccessNetwork::ALL.into_iter().enumerate() {
            for other in &AccessNetwork::ALL[i + 1..] {
                assert_ne!(net, *other);
                assert!(!net.label().eq_ignore_ascii_case(other.label()));
            }
        }
    }

    #[test]
    fn samples_positive() {
        let mut rng = StdRng::seed_from_u64(3);
        for net in AccessNetwork::ALL {
            for _ in 0..500 {
                assert!(net.sample_downlink_mbps(&mut rng) > 0.0);
                assert!(net.sample_uplink_mbps(&mut rng) > 0.0);
            }
        }
    }
}

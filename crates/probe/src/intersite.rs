//! Inter-site RTT scan (§3.1, Fig. 4).
//!
//! "We obtain the RTT between every site pair every 5 minutes in a day …
//! and average the results." The scan builds an inter-site path per pair,
//! averages repeated probes, and reports (distance, RTT) points plus the
//! per-site counts of neighbours within 5/10/20 ms (the paper finds
//! 1.2/2.9/10.6 on average).
//!
//! Source site `i` owns its pairs `(i, j > i)` and draws them from the
//! `(seed, entity_tag(INTERSITE_SITE, i))` stream, the same pair loop
//! the streaming scan fans out over workers
//! ([`crate::stream::streaming_intersite_scan`]). [`intersite_scan`]
//! runs it serially, [`PAIR_PROBES`] pings per pair.

use edgescope_analysis::sketch::StreamingPearson;
use edgescope_net::path::intersite_path;
use edgescope_net::ping::PingEngine;
use edgescope_net::rng::{domains, entity_tag, stream_rng};
use edgescope_obs as obs;
use edgescope_obs::pool::fan_out;
use edgescope_platform::deployment::Deployment;

/// Scan output.
#[derive(Debug, Clone)]
pub struct IntersiteScan {
    /// One `(distance_km, mean_rtt_ms)` point per site pair (i < j).
    pub points: Vec<(f64, f64)>,
    /// Per site: neighbours within 5 / 10 / 20 ms.
    pub neighbours: Vec<(usize, usize, usize)>,
}

impl IntersiteScan {
    /// The (distance, RTT) moments over all pairs, in pair order: their
    /// Pearson r and OLS line are Fig. 4's correlation and fit.
    pub fn distance_rtt(&self) -> StreamingPearson {
        let mut acc = StreamingPearson::new();
        self.points.iter().for_each(|&(d, rtt)| acc.add(d, rtt));
        acc
    }
}

/// Pings averaged per site pair by [`intersite_scan`].
pub const PAIR_PROBES: usize = 5;

/// Mean neighbour counts across sites — the paper's 1.2/2.9/10.6
/// statistic — of a batch or streaming scan's `neighbours`.
pub fn mean_neighbours(neighbours: &[(usize, usize, usize)]) -> (f64, f64, f64) {
    let n = neighbours.len().max(1) as f64;
    let sum = neighbours.iter().fold((0usize, 0usize, 0usize), |a, b| {
        (a.0 + b.0, a.1 + b.1, a.2 + b.2)
    });
    (sum.0 as f64 / n, sum.1 as f64 / n, sum.2 as f64 / n)
}

/// Probe source site `i`'s pairs `(i, j > i)`, `probes` pings each, from
/// the `(seed, entity_tag(INTERSITE_SITE, i))` stream: one
/// `(j, distance_km, mean_rtt_ms)` per pair, in `j` order. A pair that
/// lost every probe reports its path's model mean. This is the one pair
/// loop of the batch and the streaming scans.
pub(crate) fn site_pairs(
    seed: u64,
    dep: &Deployment,
    probes: usize,
    i: usize,
) -> Vec<(usize, f64, f64)> {
    let engine = PingEngine::new();
    let mut rng = stream_rng(seed, entity_tag(domains::INTERSITE_SITE, i));
    (i + 1..dep.n_sites())
        .map(|j| {
            obs::counter_inc("probe.intersite_pairs");
            let d = dep.sites[i].geo().distance_km(&dep.sites[j].geo());
            let path = intersite_path(&mut rng, d);
            let stats = engine.probe(&mut rng, &path, probes);
            (j, d, stats.mean_rtt_ms().unwrap_or(path.mean_rtt_ms()))
        })
        .collect()
}

/// How near a pair with mean RTT `rtt` is: 3 within 5 ms, 2 within
/// 10 ms, 1 within 20 ms, 0 beyond (or for a NaN RTT).
pub(crate) fn proximity(rtt: f64) -> u8 {
    u8::from(rtt <= 5.0) + u8::from(rtt <= 10.0) + u8::from(rtt <= 20.0)
}

/// Per-site counts of neighbours within 5 / 10 / 20 ms over `n` sites,
/// from `(i, j, proximity)` pairs: each pair counts for both of its
/// sites. Pairs of proximity 0 count for nothing, so a caller may pass
/// only the near pairs.
pub(crate) fn count_neighbours(
    n: usize,
    pairs: impl Iterator<Item = (usize, usize, u8)>,
) -> Vec<(usize, usize, usize)> {
    let mut counts = vec![(0, 0, 0); n];
    for (i, j, level) in pairs {
        for site in [i, j] {
            let c = &mut counts[site];
            c.0 += usize::from(level >= 3);
            c.1 += usize::from(level >= 2);
            c.2 += usize::from(level >= 1);
        }
    }
    counts
}

/// Run the scan over every site pair with [`PAIR_PROBES`] pings each.
/// Source site `i` probes its pairs `(i, j > i)` from its own stream
/// (`site_pairs`) inside its own metric scope, replayed in site order;
/// points come out in `(i, j)` order.
pub fn intersite_scan(seed: u64, dep: &Deployment) -> IntersiteScan {
    let n = dep.n_sites();
    assert!(n >= 2, "need at least two sites");
    let per_site = fan_out(n, 1, |i| site_pairs(seed, dep, PAIR_PROBES, i));
    let pairs = per_site
        .iter()
        .enumerate()
        .flat_map(|(i, p)| p.iter().map(move |&(j, _, rtt)| (i, j, proximity(rtt))));
    let neighbours = count_neighbours(n, pairs);
    let mut points = Vec::with_capacity(n * (n - 1) / 2);
    points.extend(per_site.into_iter().flatten().map(|(_, d, rtt)| (d, rtt)));
    IntersiteScan { points, neighbours }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn scan(seed: u64, n_sites: usize) -> IntersiteScan {
        let mut rng = StdRng::seed_from_u64(seed);
        let dep = Deployment::nep(&mut rng, n_sites);
        intersite_scan(seed, &dep)
    }

    #[test]
    fn pair_count() {
        let (s, metrics) = edgescope_obs::scoped(|| scan(1, 30));
        assert_eq!(s.points.len(), 30 * 29 / 2);
        assert_eq!(s.neighbours.len(), 30);
        assert_eq!(metrics.counter("probe.intersite_pairs"), 30 * 29 / 2);
    }

    #[test]
    fn rtt_grows_with_distance() {
        let r = scan(2, 60).distance_rtt().r();
        assert!(r > 0.7, "corr {r}");
    }

    #[test]
    fn far_pairs_reach_100ms() {
        // Fig. 4: RTT ≈100 ms around 3000 km.
        let s = scan(3, 120);
        let far: Vec<f64> = s
            .points
            .iter()
            .filter(|(d, _)| *d > 2700.0)
            .map(|(_, r)| *r)
            .collect();
        if !far.is_empty() {
            let max = edgescope_analysis::stats::peak_max(&far);
            assert!(max > 80.0, "max far rtt {max}");
        }
    }

    #[test]
    fn dense_deployment_has_nearby_neighbours() {
        // Fig. 4: on average ≈1.2 / 2.9 / 10.6 neighbours within
        // 5/10/20 ms for the full >500-site deployment; a 200-site
        // deployment must already show several ≤20 ms neighbours.
        let s = scan(4, 200);
        let (n5, n10, n20) = mean_neighbours(&s.neighbours);
        assert!(n5 < n10 && n10 < n20);
        assert!(n20 > 2.0, "n20 {n20}");
        assert!(n5 >= 0.1, "n5 {n5}");
    }
}

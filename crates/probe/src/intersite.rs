//! Inter-site RTT scan (§3.1, Fig. 4).
//!
//! "We obtain the RTT between every site pair every 5 minutes in a day …
//! and average the results." The scan builds an inter-site path per pair,
//! averages repeated probes, and reports (distance, RTT) points plus the
//! per-site counts of neighbours within 5/10/20 ms (the paper finds
//! 1.2/2.9/10.6 on average).
//!
//! The scan is data-parallel over *source sites*: site `i` owns its
//! pairs `(i, j > i)` and draws them from the
//! `(seed, entity_tag(INTERSITE_SITE, i))` stream, so
//! [`intersite_scan`] is byte-identical at every worker count. The
//! pool's shared cursor balances the triangular pair loop.

use edgescope_net::path::PathModel;
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
    /// Mean neighbour counts across sites — the paper's 1.2/2.9/10.6
    /// statistic.
    pub fn mean_neighbours(&self) -> (f64, f64, f64) {
        let n = self.neighbours.len().max(1) as f64;
        let sum = self.neighbours.iter().fold((0usize, 0usize, 0usize), |a, b| {
            (a.0 + b.0, a.1 + b.1, a.2 + b.2)
        });
        (sum.0 as f64 / n, sum.1 as f64 / n, sum.2 as f64 / n)
    }

    /// Pearson correlation between distance and RTT over all pairs.
    pub fn distance_rtt_correlation(&self) -> f64 {
        let xs: Vec<f64> = self.points.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = self.points.iter().map(|p| p.1).collect();
        edgescope_analysis::pearson::pearson(&xs, &ys)
    }
}

/// Run the scan over every site pair with `probes` pings each, on up to
/// `jobs` worker threads. Source site `i` probes its pairs `(i, j > i)`
/// from the `(seed, entity_tag(INTERSITE_SITE, i))` stream; points are
/// reassembled in `(i, j)` order and the RTT matrix (and therefore the
/// neighbour counts) rebuilt after the fan-out, so output and enclosing
/// metric sets are independent of `jobs`.
pub fn intersite_scan(
    seed: u64,
    model: &PathModel,
    dep: &Deployment,
    probes: usize,
    jobs: usize,
) -> IntersiteScan {
    let n = dep.n_sites();
    assert!(n >= 2, "need at least two sites");
    let engine = PingEngine::new();
    let per_site = fan_out(n, jobs, |i| {
        let mut rng = stream_rng(seed, entity_tag(domains::INTERSITE_SITE, i));
        (i + 1..n)
            .map(|j| {
                obs::counter_inc("probe.intersite_pairs");
                let d = dep.sites[i].geo().distance_km(&dep.sites[j].geo());
                let path = model.intersite_path(&mut rng, d);
                let stats = engine.probe(&mut rng, &path, probes);
                let rtt = stats.mean_rtt_ms().unwrap_or(path.mean_rtt_ms());
                (j, d, rtt)
            })
            .collect::<Vec<(usize, f64, f64)>>()
    });
    let mut points = Vec::with_capacity(n * (n - 1) / 2);
    let mut rtt_matrix = vec![f64::INFINITY; n * n];
    for (i, pairs) in per_site.into_iter().enumerate() {
        for (j, d, rtt) in pairs {
            points.push((d, rtt));
            rtt_matrix[i * n + j] = rtt;
            rtt_matrix[j * n + i] = rtt;
        }
    }
    let neighbours = (0..n)
        .map(|i| {
            let row = &rtt_matrix[i * n..(i + 1) * n];
            let count = |lim: f64| row.iter().filter(|&&r| r <= lim).count();
            (count(5.0), count(10.0), count(20.0))
        })
        .collect();
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
        intersite_scan(seed, &PathModel::paper_default(), &dep, 5, 1)
    }

    #[test]
    fn pair_count() {
        let s = scan(1, 30);
        assert_eq!(s.points.len(), 30 * 29 / 2);
        assert_eq!(s.neighbours.len(), 30);
    }

    #[test]
    fn worker_count_never_changes_points_or_metrics() {
        use edgescope_obs as obs;
        let run = |jobs: usize| {
            let mut rng = StdRng::seed_from_u64(5);
            let dep = Deployment::nep(&mut rng, 40);
            obs::scoped(|| intersite_scan(5, &PathModel::paper_default(), &dep, 5, jobs))
        };
        let (serial, serial_metrics) = run(1);
        let (parallel, parallel_metrics) = run(4);
        assert_eq!(serial.points, parallel.points);
        assert_eq!(serial.neighbours, parallel.neighbours);
        assert_eq!(serial_metrics, parallel_metrics);
        assert_eq!(serial_metrics.counter("probe.intersite_pairs"), 40 * 39 / 2);
    }

    #[test]
    fn rtt_grows_with_distance() {
        let s = scan(2, 60);
        assert!(s.distance_rtt_correlation() > 0.7, "corr {}", s.distance_rtt_correlation());
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
        let (n5, n10, n20) = s.mean_neighbours();
        assert!(n5 < n10 && n10 < n20);
        assert!(n20 > 2.0, "n20 {n20}");
        assert!(n5 >= 0.1, "n5 {n5}");
    }
}

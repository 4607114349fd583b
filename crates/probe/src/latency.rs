//! The crowd-sourced latency campaign (§2.1.1 → §3.1).
//!
//! Each user probes one VM per edge site and one per cloud region, 30
//! pings each, recording per-target mean RTT, CV, hop count, and the
//! ground-truth hop-latency shares. Aggregation is per-user-first: the
//! nearest / 3rd-nearest edge and nearest / all-cloud figures come from
//! each user's own measurements, then CDFs are taken across users.
//! [`UserResult::probe`] and [`UserResult::baselines`] are that recipe;
//! the metro-scale [`crate::stream`] campaign calls the same two, so a
//! target measures to the same bits on either path.
//!
//! The campaign is data-parallel over users: each user draws from their
//! own RNG stream (`stream_rng(seed, entity_tag(LATENCY_USER, i))`) and
//! records metrics into their own scope, so
//! [`LatencyCampaign::run`] returns byte-identical results — and
//! identical enclosing metric sets — for every worker count.

use crate::user::VirtualUser;
use edgescope_net::access::AccessNetwork;
use edgescope_net::path::{ue_path, Path, PathModel, TargetClass};
use edgescope_net::ping::PingEngine;
use edgescope_net::rng::{domains, entity_tag, stream_rng};
use edgescope_obs as obs;
use edgescope_obs::pool::fan_out;
use edgescope_platform::deployment::Deployment;
use rand::Rng;

/// Per-(user, target) measurement summary.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetStats {
    /// Mean RTT of the returned probes, ms.
    pub mean_rtt_ms: f64,
    /// RTT coefficient of variation over the probe run.
    pub cv: f64,
    /// Hop count of the path.
    pub hops: usize,
    /// Ground-truth latency shares of hops 1/2/3 and the rest.
    pub shares: (f64, f64, f64, f64),
    /// Great-circle distance to the target, km.
    pub distance_km: f64,
}

/// Probe one target along `path`, `pings` probes, and summarize it — the
/// one measurement recipe of every latency campaign, batch and streaming.
/// Returns `None` (and counts why) for a target that lost every probe or
/// returned only one.
fn measure(
    rng: &mut impl Rng,
    engine: &PingEngine,
    path: &Path,
    pings: usize,
) -> Option<TargetStats> {
    let stats = engine.probe(rng, path, pings);
    let Some(mean) = stats.mean_rtt_ms() else {
        obs::counter_inc("probe.ping_targets_unreachable");
        return None;
    };
    // A single returned probe has no dispersion estimate. Mapping that to
    // CV = 0 would report a target that lost 29/30 probes as *perfectly*
    // stable and bias Fig. 2(b) downward under loss, so such targets are
    // dropped from the results entirely.
    let Some(cv) = stats.cv() else {
        obs::counter_inc("probe.ping_targets_low_sample");
        return None;
    };
    obs::counter_inc("probe.ping_targets_measured");
    let total: f64 = path.hops().iter().map(|h| h.rtt_ms).sum();
    let share = |i: usize| path.hops().get(i).map_or(0.0, |h| h.rtt_ms) / total;
    let rest: f64 = path.hops().iter().skip(3).map(|h| h.rtt_ms).sum::<f64>() / total;
    Some(TargetStats {
        mean_rtt_ms: mean,
        cv,
        hops: path.hop_count(),
        shares: (share(0), share(1), share(2), rest),
        distance_km: path.distance_km(),
    })
}

/// One user's campaign output.
#[derive(Debug, Clone, PartialEq)]
pub struct UserResult {
    /// The participant.
    pub user: VirtualUser,
    /// Stats per edge site, in deployment order (targets that lost every
    /// probe, or returned fewer than two, are dropped).
    pub edge: Vec<TargetStats>,
    /// Stats per cloud region (same dropping rule).
    pub cloud: Vec<TargetStats>,
}

impl UserResult {
    /// Probe `user`'s targets: one edge target per distance in
    /// `edge_km`, in order, then every region of `cloud`. Each path draw
    /// and probe run comes from `rng`, so the caller's per-user stream
    /// fixes the result.
    pub fn probe(
        rng: &mut impl Rng,
        engine: &PingEngine,
        user: VirtualUser,
        edge_km: impl Iterator<Item = f64>,
        cloud: &Deployment,
        pings: usize,
    ) -> Self {
        let edge = probe_targets(rng, engine, &user, edge_km, TargetClass::EdgeSite, pings);
        let cloud_km = cloud.sites.iter().map(|s| s.geo().distance_km(&user.geo));
        let cloud = probe_targets(rng, engine, &user, cloud_km, cloud.kind, pings);
        UserResult { user, edge, cloud }
    }

    /// This user's Fig. 2 baselines, chosen from their own measurements
    /// (the paper's per-user-first aggregation). Edge targets are ranked
    /// by a stable sort on measured mean RTT and the nearest cloud is the
    /// first minimum; both compare with `total_cmp`, so a non-finite RTT
    /// smuggled in through a hand-edited artefact sorts last instead of
    /// panicking.
    pub fn baselines(&self) -> Baselines<'_> {
        let mut edge: Vec<&TargetStats> = self.edge.iter().collect();
        edge.sort_by(|a, b| a.mean_rtt_ms.total_cmp(&b.mean_rtt_ms));
        let n = self.cloud.len() as f64;
        Baselines {
            nearest_edge: edge.first().copied(),
            third_edge: edge.get(2).copied(),
            nearest_cloud: self
                .cloud
                .iter()
                .min_by(|a, b| a.mean_rtt_ms.total_cmp(&b.mean_rtt_ms)),
            all_clouds: (!self.cloud.is_empty()).then(|| {
                (
                    self.cloud.iter().map(|t| t.mean_rtt_ms).sum::<f64>() / n,
                    self.cloud.iter().map(|t| t.cv).sum::<f64>() / n,
                )
            }),
        }
    }
}

/// One user's Fig. 2 baselines (see [`UserResult::baselines`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Baselines<'a> {
    /// The nearest edge target by measured mean RTT.
    pub nearest_edge: Option<&'a TargetStats>,
    /// The 3rd-nearest edge target by measured mean RTT.
    pub third_edge: Option<&'a TargetStats>,
    /// The nearest cloud target by measured mean RTT.
    pub nearest_cloud: Option<&'a TargetStats>,
    /// Mean RTT and mean CV across all cloud regions — the paper's "all
    /// clouds" baseline (a centralized deployment seen from this user).
    pub all_clouds: Option<(f64, f64)>,
}

impl Baselines<'_> {
    /// `(mean RTT, CV)` of the four baselines in [`Fig2Series`] order,
    /// when all four exist: a user counts in Fig. 2 only with a
    /// 3rd-nearest edge and a nearest cloud.
    pub fn fig2(&self) -> Option<[(f64, f64); 4]> {
        let point = |t: &TargetStats| (t.mean_rtt_ms, t.cv);
        Some([
            point(self.nearest_edge?),
            point(self.third_edge?),
            point(self.nearest_cloud?),
            self.all_clouds?,
        ])
    }
}

/// Campaign configuration. Every campaign probes a clean network (the
/// paper's measurement setting); a degraded network is
/// [`PingEngine::with_fault`]'s, which the campaign engine and the
/// robustness tests drive directly.
#[derive(Debug, Clone)]
pub struct LatencyConfig {
    /// Probes per target (paper: 30).
    pub pings_per_target: usize,
}

impl Default for LatencyConfig {
    fn default() -> Self {
        LatencyConfig {
            pings_per_target: 30,
        }
    }
}

/// The assembled campaign results.
#[derive(Debug, Clone)]
pub struct LatencyCampaign {
    /// One entry per user.
    pub results: Vec<UserResult>,
}

/// Probe one target per distance in `distances_km`, in order, keeping
/// the targets [`measure`] does not drop.
fn probe_targets(
    rng: &mut impl Rng,
    engine: &PingEngine,
    user: &VirtualUser,
    distances_km: impl Iterator<Item = f64>,
    class: TargetClass,
    pings: usize,
) -> Vec<TargetStats> {
    distances_km
        .filter_map(|d| {
            let path = ue_path(rng, user.access, d, class);
            measure(rng, engine, &path, pings)
        })
        .collect()
}

impl LatencyCampaign {
    /// Run the campaign over up to `jobs` worker threads: every user
    /// probes every edge site and cloud region.
    ///
    /// User `i` draws every probe from the
    /// `(seed, entity_tag(LATENCY_USER, i))` stream and records metrics
    /// into a scope of their own, replayed into the caller's scope in
    /// user order — so results *and* enclosing metric sets are
    /// independent of `jobs`.
    pub fn run(
        seed: u64,
        users: &[VirtualUser],
        edge: &Deployment,
        cloud: &Deployment,
        cfg: &LatencyConfig,
        jobs: usize,
    ) -> Self {
        assert!(!users.is_empty(), "campaign needs users");
        let engine = PingEngine::new();
        let results = fan_out(users.len(), jobs, |i| {
            let u = &users[i];
            let mut rng = stream_rng(seed, entity_tag(domains::LATENCY_USER, i));
            let edge_km = edge.sites.iter().map(|s| s.geo().distance_km(&u.geo));
            let pings = cfg.pings_per_target;
            UserResult::probe(&mut rng, &engine, u.clone(), edge_km, cloud, pings)
        });
        LatencyCampaign { results }
    }

    /// [`LatencyCampaign::run`] under its former name and signature,
    /// kept while `perfbench/src/main.rs` calls it and passes
    /// `&sc.path_model`, which it ignores.
    #[doc(hidden)]
    pub fn run_jobs(
        seed: u64,
        users: &[VirtualUser],
        _model: &PathModel,
        edge: &Deployment,
        cloud: &Deployment,
        cfg: &LatencyConfig,
        jobs: usize,
    ) -> Self {
        Self::run(seed, users, edge, cloud, cfg, jobs)
    }

    /// Users on a given access network.
    pub fn users_on(&self, access: AccessNetwork) -> Vec<&UserResult> {
        self.results
            .iter()
            .filter(|r| r.user.access == access)
            .collect()
    }

    /// Fig. 2(a) vectors for one access network: per-user mean RTTs of the
    /// nearest edge, 3rd-nearest edge, nearest cloud, and all-clouds.
    pub fn fig2a(&self, access: AccessNetwork) -> Fig2Series {
        self.fig2(access, |p| p.0)
    }

    /// Fig. 2(b) vectors: per-user RTT CVs for the same four baselines.
    pub fn fig2b(&self, access: AccessNetwork) -> Fig2Series {
        self.fig2(access, |p| p.1)
    }

    fn fig2(&self, access: AccessNetwork, pick: fn((f64, f64)) -> f64) -> Fig2Series {
        let mut s = Fig2Series::default();
        for r in self.users_on(access) {
            if let Some([e0, e2, c0, ca]) = r.baselines().fig2() {
                s.nearest_edge.push(pick(e0));
                s.third_edge.push(pick(e2));
                s.nearest_cloud.push(pick(c0));
                s.all_clouds.push(pick(ca));
            }
        }
        s
    }

    /// Fig. 3 vectors: per-user hop counts to the nearest edge and
    /// nearest cloud (all access networks pooled, as in the figure).
    pub fn fig3(&self) -> (Vec<f64>, Vec<f64>) {
        let mut edge = Vec::new();
        let mut cloud = Vec::new();
        for r in &self.results {
            let b = r.baselines();
            if let (Some(e0), Some(c0)) = (b.nearest_edge, b.nearest_cloud) {
                edge.push(e0.hops as f64);
                cloud.push(c0.hops as f64);
            }
        }
        (edge, cloud)
    }

    /// Table 2 row for one access network: mean hop shares
    /// `(h1, h2, h3, rest)` to the nearest edge and the nearest cloud.
    pub fn table2(&self, access: AccessNetwork) -> (HopShares, HopShares) {
        let mut acc_e = (0.0, 0.0, 0.0, 0.0);
        let mut acc_c = (0.0, 0.0, 0.0, 0.0);
        let mut n = 0.0;
        for r in self.users_on(access) {
            let b = r.baselines();
            if let (Some(e0), Some(c0)) = (b.nearest_edge, b.nearest_cloud) {
                acc_e.0 += e0.shares.0;
                acc_e.1 += e0.shares.1;
                acc_e.2 += e0.shares.2;
                acc_e.3 += e0.shares.3;
                acc_c.0 += c0.shares.0;
                acc_c.1 += c0.shares.1;
                acc_c.2 += c0.shares.2;
                acc_c.3 += c0.shares.3;
                n += 1.0;
            }
        }
        assert!(n > 0.0, "no users on {access}");
        (
            (acc_e.0 / n, acc_e.1 / n, acc_e.2 / n, acc_e.3 / n),
            (acc_c.0 / n, acc_c.1 / n, acc_c.2 / n, acc_c.3 / n),
        )
    }
}

/// Mean latency shares of hops 1/2/3 and the rest (a Table 2 cell).
pub type HopShares = (f64, f64, f64, f64);

/// The four Fig. 2 baselines, per-user values.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Fig2Series {
    /// Per-user values for the nearest edge site.
    pub nearest_edge: Vec<f64>,
    /// Per-user values for the 3rd-nearest edge site.
    pub third_edge: Vec<f64>,
    /// Per-user values for the nearest cloud region.
    pub nearest_cloud: Vec<f64>,
    /// Per-user means across all cloud regions.
    pub all_clouds: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::user::recruit;
    use edgescope_analysis::stats::median;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn campaign_jobs(seed: u64, n_users: usize, n_sites: usize, jobs: usize) -> LatencyCampaign {
        let mut rng = StdRng::seed_from_u64(seed);
        let edge = Deployment::nep(&mut rng, n_sites);
        let cloud = Deployment::alicloud();
        let users = recruit(&mut rng, n_users);
        LatencyCampaign::run(
            seed,
            &users,
            &edge,
            &cloud,
            &LatencyConfig {
                pings_per_target: 30,
            },
            jobs,
        )
    }

    fn campaign(seed: u64, n_users: usize, n_sites: usize) -> LatencyCampaign {
        campaign_jobs(seed, n_users, n_sites, 1)
    }

    #[test]
    fn edge_beats_cloud_for_wifi_users() {
        let c = campaign(1, 60, 150);
        let s = c.fig2a(AccessNetwork::Wifi);
        assert!(
            s.nearest_edge.len() >= 20,
            "{} wifi users",
            s.nearest_edge.len()
        );
        let me = median(&s.nearest_edge);
        let mc = median(&s.nearest_cloud);
        let ma = median(&s.all_clouds);
        assert!(me < mc && mc < ma, "edge {me} cloud {mc} all {ma}");
        // Fig. 2(a) band: nearest-edge median ≈ 16 ms, ratio ≈ 1.3–1.7×.
        assert!((12.0..21.0).contains(&me), "edge median {me}");
        let ratio = mc / me;
        assert!((1.15..2.2).contains(&ratio), "cloud/edge ratio {ratio}");
    }

    #[test]
    fn third_edge_still_beats_nearest_cloud() {
        // §3.1: "The 3rd nearest edge site also provides smaller network
        // latency (18.9ms) than the nearest cloud."
        let c = campaign(2, 60, 150);
        let s = c.fig2a(AccessNetwork::Wifi);
        assert!(median(&s.third_edge) < median(&s.nearest_cloud));
        assert!(median(&s.third_edge) > median(&s.nearest_edge));
    }

    #[test]
    fn jitter_gap_matches_fig2b() {
        let c = campaign(3, 60, 150);
        let s = c.fig2b(AccessNetwork::Wifi);
        let me = median(&s.nearest_edge);
        let mc = median(&s.nearest_cloud);
        // Edge CV ≈ 1 %, cloud several × higher.
        assert!(me < 0.04, "edge CV {me}");
        assert!(mc / me > 2.0, "cloud/edge CV ratio {}", mc / me);
    }

    #[test]
    fn hop_counts_fig3() {
        let c = campaign(4, 50, 150);
        let (edge, cloud) = c.fig3();
        let me = median(&edge);
        let mc = median(&cloud);
        assert!((6.0..=9.0).contains(&me), "edge hop median {me}");
        assert!(mc >= me + 2.0, "cloud hops {mc} vs edge {me}");
    }

    #[test]
    fn table2_shares_sane() {
        let c = campaign(5, 80, 150);
        let (edge, cloud) = c.table2(AccessNetwork::Wifi);
        // WiFi: first hop dominates the nearest-edge RTT (≈44 %), and its
        // *share* shrinks on longer cloud paths.
        assert!((0.30..0.55).contains(&edge.0), "edge h1 share {}", edge.0);
        assert!(edge.0 > cloud.0, "h1 share must shrink on cloud paths");
        let sum = edge.0 + edge.1 + edge.2 + edge.3;
        assert!((sum - 1.0).abs() < 1e-9);
        // LTE: second hop dominates.
        let (edge_lte, _) = c.table2(AccessNetwork::Lte);
        assert!(edge_lte.1 > 0.5, "LTE h2 share {}", edge_lte.1);
    }

    #[test]
    fn five_g_fastest_nearest_edge() {
        let c = campaign(6, 150, 150);
        let wifi = median(&c.fig2a(AccessNetwork::Wifi).nearest_edge);
        let fiveg_series = c.fig2a(AccessNetwork::FiveG);
        if fiveg_series.nearest_edge.len() >= 3 {
            let fiveg = median(&fiveg_series.nearest_edge);
            assert!(fiveg < wifi, "5G {fiveg} vs WiFi {wifi}");
            assert!((7.0..14.0).contains(&fiveg), "5G median {fiveg}");
        }
    }

    #[test]
    fn deterministic_campaign() {
        let a = campaign(7, 10, 40);
        let b = campaign(7, 10, 40);
        assert_eq!(a.results[0].edge, b.results[0].edge);
    }

    #[test]
    fn worker_count_never_changes_results_or_metrics() {
        use edgescope_obs as obs;
        let run = |jobs: usize| obs::scoped(|| campaign_jobs(11, 12, 25, jobs));
        let (serial, serial_metrics) = run(1);
        for jobs in [2, 4] {
            let (parallel, parallel_metrics) = run(jobs);
            assert_eq!(serial.results, parallel.results, "jobs {jobs}");
            assert_eq!(
                serial_metrics, parallel_metrics,
                "metric set at jobs {jobs}"
            );
        }
    }
}

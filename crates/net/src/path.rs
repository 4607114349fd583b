//! Hop-level path construction.
//!
//! A [`Path`] is the simulator's unit of connectivity: an ordered list of
//! [`Hop`]s, each carrying this user's mean RTT contribution, a per-probe
//! jitter CV and a latency-spike process; every hop drops a probe with
//! the same probability (`HOP_LOSS`). Paths are
//! built by [`ue_path`] from (access network, great-circle distance,
//! target class), and by [`intersite_path`] between two edge sites; both
//! are calibrated against the paper:
//!
//! * **Table 2** — per-hop latency shares per access network;
//! * **Fig. 2(a)** — median RTTs (nearest edge 16.1/37.6/10.4 ms for
//!   WiFi/LTE/5G; nearest cloud 1.47×/1.33×/1.23× higher);
//! * **Fig. 2(b)** — RTT CV (nearest edge ≈1.1 %/2.3 %/0.7 %; clouds
//!   ≈4–6× higher, distant clouds far worse);
//! * **Fig. 3** — hop counts (edge 5–12, median 8; cloud 10–16);
//! * **Fig. 4** — inter-site RTT growing with distance, reaching ≈100 ms
//!   around 3000 km at the upper envelope.
//!
//! The calibration is a set of named constants: the WAN slope
//! (`WAN_MS_PER_KM`, spread `WAN_SLOPE_CV`, per-hop overhead
//! `WAN_HOP_OVERHEAD_MS`), the non-WAN "rest" budgets of an edge site and
//! a cloud region (`EDGE_REST_BASE_MS`, `CLOUD_REST_BASE_MS`), the per-user
//! spread of every hop's mean (`PER_USER_CV`), the per-probe jitter of
//! access and WAN hops (`ACCESS_JITTER_CV`, `WAN_JITTER_CV`), the WAN
//! spike process (`WAN_SPIKE_PROB`, `WAN_SPIKE_FRAC`) and the per-hop loss
//! (`HOP_LOSS`). The paper fits one path model, so the builders are free
//! functions over these constants; tests in `edgescope-core` assert the
//! resulting statistics stay inside the paper's bands.
//!
//! Jitter model: per-probe RTT = Σ over hops of
//! `LogNormal(hop_mean, jitter_cv)` plus, on WAN hops, an exponential spike
//! with small probability — long backbone paths are where the paper's
//! 5–30× CV gap between edge and cloud comes from.

use crate::access::AccessNetwork;
use crate::rng::{exponential, log_normal_mean_cv, standard_normal_pair, LogNormalParams};
use rand::Rng;

/// What a hop physically is. Used for reporting and for Table 2 grouping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HopKind {
    /// WiFi air link to the access point.
    WirelessAp,
    /// Cellular radio access network (eNB/gNB).
    CellularRan,
    /// Cellular core (S-GW/P-GW or UPF).
    CellularCore,
    /// Home/campus gateway to the metro network.
    HomeGateway,
    /// Metro aggregation router.
    MetroAggregation,
    /// Provincial core router.
    ProvincialCore,
    /// Inter-city backbone segment.
    Backbone,
    /// Datacenter border gateway.
    DcGateway,
    /// Intra-datacenter hop.
    DcInternal,
}

/// Whether the destination is an edge site or a cloud region. Cloud DCs are
/// deeper (more internal tiers behind the border), edge sites shallower.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetClass {
    /// A shallow NEP edge site.
    EdgeSite,
    /// A deep cloud region.
    CloudRegion,
}

/// One hop of a path, parameterized for *this user's* connection.
#[derive(Debug, Clone, PartialEq)]
pub struct Hop {
    /// What the hop physically is.
    pub kind: HopKind,
    /// This user's mean RTT contribution of the hop, in ms.
    pub rtt_ms: f64,
    /// Per-probe relative jitter (CV of the log-normal latency draw).
    pub jitter_cv: f64,
    /// Probability that a probe through this hop experiences a latency
    /// spike (queueing burst).
    pub spike_prob: f64,
    /// Mean size of a spike in ms (exponential).
    pub spike_mean_ms: f64,
}

impl Hop {
    /// Sample this hop's RTT contribution for one probe.
    pub fn sample_rtt_ms(&self, rng: &mut impl Rng) -> f64 {
        let mut v = log_normal_mean_cv(rng, self.rtt_ms, self.jitter_cv);
        if self.spike_prob > 0.0 && rng.gen::<f64>() < self.spike_prob {
            v += exponential(rng, 1.0 / self.spike_mean_ms);
        }
        v
    }
}

/// A concrete path between two endpoints for one user/connection.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    hops: Vec<Hop>,
    distance_km: f64,
}

impl Path {
    /// The hops, in order from the UE (or source DC) to the destination.
    pub fn hops(&self) -> &[Hop] {
        &self.hops
    }

    /// Number of hops, as traceroute counts them (Fig. 3), including the
    /// ones an operator hides from ICMP.
    pub fn hop_count(&self) -> usize {
        self.hops.len()
    }

    /// Great-circle distance between the endpoints in km.
    pub fn distance_km(&self) -> f64 {
        self.distance_km
    }

    /// This user's expected (mean) end-to-end RTT in ms, excluding spikes.
    pub fn mean_rtt_ms(&self) -> f64 {
        self.hops.iter().map(|h| h.rtt_ms).sum()
    }

    /// Sample one probe's end-to-end RTT in ms.
    pub fn sample_rtt_ms(&self, rng: &mut impl Rng) -> f64 {
        self.hops.iter().map(|h| h.sample_rtt_ms(rng)).sum()
    }

    /// Sample `out.len()` probes' end-to-end RTTs in one **hop-major
    /// block**: each hop's log-normal parameters are hoisted once (two
    /// `ln`s per hop instead of two per hop *per probe*) and its jitter
    /// variates are drawn in Box–Muller pairs across the block (both the
    /// cosine and sine halves are used, halving the transcendental
    /// cost). Spike uniforms are drawn only on hops with a non-zero
    /// spike probability, exactly like the per-probe path.
    ///
    /// The marginal distribution of each probe's RTT is identical to
    /// [`sample_rtt_ms`](Self::sample_rtt_ms); the draw *sequence*
    /// differs (hop-major instead of probe-major), which is allowed
    /// under the determinism contract as long as every probe stream
    /// derives from its own [`crate::rng::stream_rng`] — calibration is
    /// re-checked by the band tests below and in `edgescope-core`.
    pub fn sample_rtt_block(&self, rng: &mut impl Rng, out: &mut [f64]) {
        out.fill(0.0);
        if out.is_empty() {
            return;
        }
        for hop in &self.hops {
            let params = LogNormalParams::from_mean_cv(hop.rtt_ms, hop.jitter_cv);
            if params.sigma == 0.0 {
                for v in out.iter_mut() {
                    *v += hop.rtt_ms;
                }
            } else {
                let mut pairs = out.chunks_exact_mut(2);
                for pair in &mut pairs {
                    let (z0, z1) = standard_normal_pair(rng);
                    pair[0] += params.transform(z0);
                    pair[1] += params.transform(z1);
                }
                if let [last] = pairs.into_remainder() {
                    *last += params.transform(standard_normal_pair(rng).0);
                }
            }
            if hop.spike_prob > 0.0 {
                for v in out.iter_mut() {
                    if rng.gen::<f64>() < hop.spike_prob {
                        *v += exponential(rng, 1.0 / hop.spike_mean_ms);
                    }
                }
            }
        }
    }

    /// Probability that a single probe is lost anywhere along the path:
    /// each hop drops it with probability `HOP_LOSS`.
    pub fn loss_probability(&self) -> f64 {
        // A left fold of one factor per hop, not `powi`: `powi` may round
        // differently, which would move the bits of every loss draw.
        1.0 - self.hops.iter().map(|_| 1.0 - HOP_LOSS).product::<f64>()
    }

    /// Number of WAN (backbone) hops — drives the TCP loss model.
    pub fn wan_hop_count(&self) -> usize {
        self.hops
            .iter()
            .filter(|h| h.kind == HopKind::Backbone)
            .count()
    }
}

/// Path draws behind [`averaged_rtt_ms`]. Table 6 averages RTTs "across
/// different locations"; a dozen draws mirror that and keep its four VMs'
/// RTTs monotone in distance.
pub const RTT_DRAWS: usize = 12;

/// RTT per km of great-circle distance on the WAN (fiber propagation plus
/// routing inflation). Fitted to Fig. 4.
const WAN_MS_PER_KM: f64 = 0.021;
/// Relative per-path spread of the WAN slope (route luck).
const WAN_SLOPE_CV: f64 = 0.35;
/// Per-WAN-hop switching overhead (ms RTT).
const WAN_HOP_OVERHEAD_MS: f64 = 0.35;
/// Base RTT of the metro/provincial segment + DC ingress for an edge site
/// (ms).
const EDGE_REST_BASE_MS: f64 = 4.4;
/// Same, for a cloud region (deeper ingress).
const CLOUD_REST_BASE_MS: f64 = 3.2;
/// Per-user CV applied to every hop's mean (different homes, different
/// base stations).
const PER_USER_CV: f64 = 0.22;
/// Per-probe jitter CV of access/metro hops.
const ACCESS_JITTER_CV: f64 = 0.012;
/// Per-probe jitter CV of WAN hops.
const WAN_JITTER_CV: f64 = 0.085;
/// Per-probe spike probability on WAN hops.
const WAN_SPIKE_PROB: f64 = 0.08;
/// Spike mean as a fraction of the hop's own RTT.
const WAN_SPIKE_FRAC: f64 = 1.2;
/// Per-hop probe-loss probability.
const HOP_LOSS: f64 = 0.002;

/// The path model as a value, kept while `perfbench/src/main.rs` passes
/// `&sc.path_model` to the campaign shims that ignore it. The model
/// itself is this module's constants and free functions.
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct PathModel;

/// The access-specific first hops: (kind, mean RTT ms, jitter CV).
/// Means are fitted to Table 2's shares of the Fig. 2(a) medians.
fn access_hops(access: AccessNetwork) -> Vec<(HopKind, f64, f64)> {
    let a = ACCESS_JITTER_CV;
    match access {
        // 16.1 ms nearest-edge total: 7.1 / 1.7 / 2.4 / rest≈4.9.
        AccessNetwork::Wifi => vec![
            (HopKind::WirelessAp, 7.1, a * 1.4),
            (HopKind::HomeGateway, 1.7, a),
            (HopKind::MetroAggregation, 2.4, a),
        ],
        // 37.6 ms nearest-edge total: 3.8 / 26.4 / 3.5 / rest≈3.9. The
        // cellular core is the dominant and most variable hop (70 % of
        // the RTT, §3.1); its per-user spread is heavy so the mean over
        // users exceeds the median, as in the paper.
        AccessNetwork::Lte => vec![
            (HopKind::CellularRan, 3.8, a * 2.0),
            (HopKind::CellularCore, 26.4, a * 2.0),
            (HopKind::MetroAggregation, 3.5, a),
        ],
        // 10.4 ms nearest-edge total: first three hops ≈98 %.
        AccessNetwork::FiveG => vec![
            (HopKind::CellularRan, 2.1, a),
            (HopKind::CellularCore, 4.3, a),
            (HopKind::MetroAggregation, 3.6, a),
        ],
        // Campus/office wired access: fast and stable.
        AccessNetwork::Wired => vec![
            (HopKind::HomeGateway, 0.4, a),
            (HopKind::MetroAggregation, 1.0, a),
        ],
    }
}

/// Build a UE→DC path for one user.
///
/// `distance_km` is the great-circle UE↔DC distance; `target`
/// distinguishes shallow edge sites from deeper cloud regions.
pub fn ue_path(
    rng: &mut impl Rng,
    access: AccessNetwork,
    distance_km: f64,
    target: TargetClass,
) -> Path {
    assert!(distance_km >= 0.0, "negative distance");
    let mut hops = Vec::new();
    for (kind, mean, jcv) in access_hops(access) {
        let user_mean = log_normal_mean_cv(rng, mean, PER_USER_CV);
        hops.push(Hop {
            kind,
            rtt_ms: user_mean,
            jitter_cv: jcv,
            spike_prob: 0.0,
            spike_mean_ms: 0.0,
        });
    }
    // 5G's flattened architecture breaks traffic out of the UPF almost
    // directly into the edge DC (§3.1: first three hops are ~98 % of
    // the nearest-edge RTT), so the metro/provincial segment nearly
    // vanishes for 5G users.
    let rest_scale = match (access, target) {
        (AccessNetwork::FiveG, TargetClass::EdgeSite) => 0.12,
        (AccessNetwork::FiveG, TargetClass::CloudRegion) => 0.50,
        _ => 1.0,
    };
    push_wan_and_dc(rng, &mut hops, distance_km, target, rest_scale);
    Path { hops, distance_km }
}

/// The mean RTT of [`RTT_DRAWS`] independent [`ue_path`]
/// draws: one link's RTT where a single number stands for it (Table 6,
/// the contention experiments, serve's `qoe` query).
pub fn averaged_rtt_ms(
    rng: &mut impl Rng,
    access: AccessNetwork,
    distance_km: f64,
    target: TargetClass,
) -> f64 {
    (0..RTT_DRAWS)
        .map(|_| ue_path(rng, access, distance_km, target).mean_rtt_ms())
        .sum::<f64>()
        / RTT_DRAWS as f64
}

/// Build a DC↔DC path (Fig. 4's inter-site measurements). Both ends are
/// edge sites: shallow ingress on each side plus the WAN.
pub fn intersite_path(rng: &mut impl Rng, distance_km: f64) -> Path {
    assert!(distance_km >= 0.0, "negative distance");
    let mut hops = vec![Hop {
        kind: HopKind::DcGateway,
        rtt_ms: log_normal_mean_cv(rng, 0.8, PER_USER_CV),
        jitter_cv: ACCESS_JITTER_CV,
        spike_prob: 0.0,
        spike_mean_ms: 0.0,
    }];
    push_wan_and_dc(rng, &mut hops, distance_km, TargetClass::EdgeSite, 0.6);
    Path { hops, distance_km }
}

/// Append the provincial-core, backbone, and DC hops shared by all
/// paths. `rest_scale` shrinks the non-WAN "rest" budget (5G breakout,
/// DC-to-DC peering).
fn push_wan_and_dc(
    rng: &mut impl Rng,
    hops: &mut Vec<Hop>,
    distance_km: f64,
    target: TargetClass,
    rest_scale: f64,
) {
    let rest_base = rest_scale
        * match target {
            TargetClass::EdgeSite => EDGE_REST_BASE_MS,
            TargetClass::CloudRegion => CLOUD_REST_BASE_MS,
        };
    // Provincial/metro core: 2–4 hops sharing ~62 % of the rest budget.
    let n_core = rng.gen_range(2..=4usize);
    let core_each = rest_base * 0.62 / n_core as f64;
    for _ in 0..n_core {
        hops.push(Hop {
            kind: HopKind::ProvincialCore,
            rtt_ms: log_normal_mean_cv(rng, core_each.max(0.02), PER_USER_CV),
            jitter_cv: ACCESS_JITTER_CV * 1.6,
            spike_prob: 0.0,
            spike_mean_ms: 0.0,
        });
    }

    // Inter-AS peering: clouds always cross one; edges sometimes.
    let peering = target == TargetClass::CloudRegion || rng.gen::<f64>() < 0.4;
    if peering {
        hops.push(Hop {
            kind: HopKind::Backbone,
            rtt_ms: log_normal_mean_cv(rng, (0.30 * rest_scale).max(0.02), PER_USER_CV),
            jitter_cv: WAN_JITTER_CV,
            spike_prob: 0.0,
            spike_mean_ms: 0.0,
        });
    }

    // Long-haul backbone hops. Clouds sit behind at least two backbone
    // segments even in the same metro (their regions peer at national
    // exchange points); edges are reached intra-metro when close.
    let n_backbone = match target {
        TargetClass::EdgeSite => {
            if distance_km < 40.0 {
                0
            } else {
                1 + (distance_km / 600.0) as usize
            }
        }
        TargetClass::CloudRegion => 2 + (distance_km / 900.0) as usize,
    };
    if n_backbone > 0 {
        let slope = log_normal_mean_cv(rng, WAN_MS_PER_KM, WAN_SLOPE_CV);
        let wan_total = slope * distance_km + WAN_HOP_OVERHEAD_MS * n_backbone as f64;
        let per_hop = wan_total / n_backbone as f64;
        for _ in 0..n_backbone {
            hops.push(Hop {
                kind: HopKind::Backbone,
                rtt_ms: per_hop,
                jitter_cv: WAN_JITTER_CV,
                spike_prob: WAN_SPIKE_PROB,
                spike_mean_ms: (per_hop * WAN_SPIKE_FRAC).max(0.5),
            });
        }
    }

    // DC ingress: gateway always; clouds add 1–2 internal tiers, edges
    // occasionally one.
    hops.push(Hop {
        kind: HopKind::DcGateway,
        rtt_ms: log_normal_mean_cv(rng, (rest_base * 0.38).max(0.02), PER_USER_CV),
        jitter_cv: ACCESS_JITTER_CV,
        spike_prob: 0.0,
        spike_mean_ms: 0.0,
    });
    let n_internal = match target {
        TargetClass::CloudRegion => rng.gen_range(1..=2usize),
        TargetClass::EdgeSite => (rng.gen::<f64>() < 0.3) as usize,
    };
    for _ in 0..n_internal {
        hops.push(Hop {
            kind: HopKind::DcInternal,
            rtt_ms: log_normal_mean_cv(rng, (0.30 * rest_scale).max(0.02), PER_USER_CV),
            jitter_cv: ACCESS_JITTER_CV,
            spike_prob: 0.0,
            spike_mean_ms: 0.0,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mean_of<F: FnMut(&mut StdRng) -> f64>(n: usize, mut f: F) -> f64 {
        let mut rng = StdRng::seed_from_u64(99);
        (0..n).map(|_| f(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn wifi_nearest_edge_rtt_near_paper_median() {
        // Fig. 2(a): WiFi nearest edge median ≈ 16.1 ms. Same-city edge
        // (≈20 km).
        let mut rtts: Vec<f64> = Vec::new();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..400 {
            let p = ue_path(&mut rng, AccessNetwork::Wifi, 20.0, TargetClass::EdgeSite);
            rtts.push(p.mean_rtt_ms());
        }
        rtts.sort_by(f64::total_cmp);
        let median = rtts[rtts.len() / 2];
        assert!((median - 16.1).abs() < 2.5, "median {median}");
    }

    #[test]
    fn lte_slower_than_wifi_slower_than_5g() {
        let wifi = mean_of(300, |r| {
            ue_path(r, AccessNetwork::Wifi, 20.0, TargetClass::EdgeSite).mean_rtt_ms()
        });
        let lte = mean_of(300, |r| {
            ue_path(r, AccessNetwork::Lte, 20.0, TargetClass::EdgeSite).mean_rtt_ms()
        });
        let fiveg = mean_of(300, |r| {
            ue_path(r, AccessNetwork::FiveG, 20.0, TargetClass::EdgeSite).mean_rtt_ms()
        });
        assert!(
            lte > wifi && wifi > fiveg,
            "lte {lte} wifi {wifi} 5g {fiveg}"
        );
    }

    #[test]
    fn cloud_paths_longer_and_deeper() {
        let mut rng = StdRng::seed_from_u64(5);
        let edge = ue_path(&mut rng, AccessNetwork::Wifi, 20.0, TargetClass::EdgeSite);
        let cloud = ue_path(
            &mut rng,
            AccessNetwork::Wifi,
            900.0,
            TargetClass::CloudRegion,
        );
        assert!(cloud.mean_rtt_ms() > edge.mean_rtt_ms());
        assert!(cloud.hop_count() > edge.hop_count());
    }

    #[test]
    fn hop_counts_in_paper_bands() {
        // Fig. 3: edge 5–12 (median ≈8), cloud 10–16.
        let mut rng = StdRng::seed_from_u64(6);
        let mut edge_counts = Vec::new();
        let mut cloud_counts = Vec::new();
        for _ in 0..500 {
            let d_edge = rng.gen_range(5.0..120.0);
            edge_counts.push(
                ue_path(&mut rng, AccessNetwork::Wifi, d_edge, TargetClass::EdgeSite).hop_count(),
            );
            let d_cloud = rng.gen_range(250.0..2400.0);
            cloud_counts.push(
                ue_path(
                    &mut rng,
                    AccessNetwork::Wifi,
                    d_cloud,
                    TargetClass::CloudRegion,
                )
                .hop_count(),
            );
        }
        let e_min = *edge_counts.iter().min().unwrap();
        let e_max = *edge_counts.iter().max().unwrap();
        let c_min = *cloud_counts.iter().min().unwrap();
        let c_max = *cloud_counts.iter().max().unwrap();
        assert!(e_min >= 5 && e_max <= 12, "edge hops {e_min}..{e_max}");
        assert!(c_min >= 8 && c_max <= 17, "cloud hops {c_min}..{c_max}");
        edge_counts.sort_unstable();
        let e_med = edge_counts[edge_counts.len() / 2];
        assert!((6..=9).contains(&e_med), "edge median {e_med}");
    }

    #[test]
    fn intersite_rtt_tracks_distance() {
        // Fig. 4: RTT grows with distance; ≈100 ms reached near 3000 km at
        // the upper envelope; nearby sites only a few ms.
        let near = mean_of(200, |r| intersite_path(r, 50.0).mean_rtt_ms());
        let far = mean_of(200, |r| intersite_path(r, 3000.0).mean_rtt_ms());
        assert!(near < 10.0, "near {near}");
        assert!((55.0..110.0).contains(&far), "far mean {far}");
        // Upper envelope: some paths do reach ~100 ms.
        let mut rng = StdRng::seed_from_u64(10);
        let rtts: Vec<f64> = (0..300)
            .map(|_| intersite_path(&mut rng, 3000.0).mean_rtt_ms())
            .collect();
        let max = edgescope_analysis::stats::peak_max(&rtts);
        assert!(max > 90.0, "max {max}");
    }

    #[test]
    fn per_probe_jitter_small_on_edge_paths() {
        // Fig. 2(b): nearest-edge WiFi RTT CV ≈ 1.1 %.
        let mut rng = StdRng::seed_from_u64(11);
        let p = ue_path(&mut rng, AccessNetwork::Wifi, 20.0, TargetClass::EdgeSite);
        let samples: Vec<f64> = (0..30).map(|_| p.sample_rtt_ms(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let std =
            (samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64).sqrt();
        assert!(std / mean < 0.05, "edge CV {}", std / mean);
    }

    #[test]
    fn loss_probability_positive_and_small() {
        let mut rng = StdRng::seed_from_u64(12);
        let p = ue_path(
            &mut rng,
            AccessNetwork::Lte,
            500.0,
            TargetClass::CloudRegion,
        );
        let loss = p.loss_probability();
        assert!(loss > 0.0 && loss < 0.1, "loss {loss}");
    }

    #[test]
    fn block_sampling_matches_per_probe_distribution() {
        // Hop-major block draws must stay inside the same calibration
        // band as the probe-major loop: same mean and CV to sampling
        // error, deterministic per seed.
        let mut rng = StdRng::seed_from_u64(31);
        let p = ue_path(
            &mut rng,
            AccessNetwork::Wifi,
            900.0,
            TargetClass::CloudRegion,
        );
        let n = 4000;
        let mut block = vec![0.0; n];
        p.sample_rtt_block(&mut StdRng::seed_from_u64(32), &mut block);
        let single: Vec<f64> = {
            let mut r = StdRng::seed_from_u64(33);
            (0..n).map(|_| p.sample_rtt_ms(&mut r)).collect()
        };
        let stats = |xs: &[f64]| {
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
            (mean, var.sqrt() / mean)
        };
        let (bm, bcv) = stats(&block);
        let (sm, scv) = stats(&single);
        assert!((bm - sm).abs() / sm < 0.03, "means {bm} vs {sm}");
        assert!((bcv - scv).abs() < 0.02, "cvs {bcv} vs {scv}");

        // Deterministic and length-exact, including the odd-length tail.
        let mut a = vec![0.0; 31];
        let mut b = vec![0.0; 31];
        p.sample_rtt_block(&mut StdRng::seed_from_u64(34), &mut a);
        p.sample_rtt_block(&mut StdRng::seed_from_u64(34), &mut b);
        assert_eq!(a, b);
        assert!(a.iter().all(|&x| x > 0.0));
        let mut empty: [f64; 0] = [];
        p.sample_rtt_block(&mut StdRng::seed_from_u64(35), &mut empty);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = StdRng::seed_from_u64(21);
        let mut b = StdRng::seed_from_u64(21);
        let pa = ue_path(&mut a, AccessNetwork::Lte, 700.0, TargetClass::CloudRegion);
        let pb = ue_path(&mut b, AccessNetwork::Lte, 700.0, TargetClass::CloudRegion);
        assert_eq!(pa, pb);
    }
}

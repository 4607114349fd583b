//! Campaign-result artefacts.
//!
//! §2.1.1: "the testing results will be encrypted and uploaded to our
//! server, along with the network condition (WiFi/LTE/5G), testing time,
//! and the city name" — and the paper promises to release the collected
//! performance dataset. This module is that release path: a TSV of
//! per-(user, target) measurement rows that round-trips losslessly, plus
//! a loader that rebuilds a [`LatencyCampaign`]-shaped view so every §3.1
//! aggregation can be recomputed from the artefact alone.
//!
//! Omitted: the upload encryption — operational plumbing with no bearing
//! on any result (documented in DESIGN.md).

use crate::latency::{LatencyCampaign, TargetStats, UserResult};
use crate::user::VirtualUser;
use edgescope_net::access::AccessNetwork;
use edgescope_net::geo::GeoPoint;
use edgescope_platform::geo_china::city_by_name;

/// Parse failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// Header mismatch, bad field, or truncated input.
    Malformed(String),
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::Malformed(m) => write!(f, "malformed campaign artefact: {m}"),
        }
    }
}

impl std::error::Error for RecordError {}

const HEADER: &str = "user\tcity\tlat\tlon\tnetwork\ttarget_kind\ttarget_idx\tmean_rtt_ms\tcv\thops\tshare1\tshare2\tshare3\tshare_rest\tdistance_km";

/// How far the four hop shares of a row may sum from 1 (serialization
/// round-trips each share exactly; the slack covers the generator's
/// own rounding).
const SHARE_SUM_TOLERANCE: f64 = 1e-6;

/// Serialize a campaign to TSV (one row per user-target measurement).
/// Increments `probe.records_serialized` per row when a metric scope is
/// active.
pub fn campaign_to_tsv(campaign: &LatencyCampaign) -> String {
    let rows: usize = campaign
        .results
        .iter()
        .map(|r| r.edge.len() + r.cloud.len())
        .sum();
    edgescope_obs::counter_add("probe.records_serialized", rows as u64);
    let mut out = String::from(HEADER);
    out.push('\n');
    for (uid, r) in campaign.results.iter().enumerate() {
        let mut push = |kind: &str, idx: usize, t: &TargetStats| {
            out.push_str(&format!(
                "{uid}\t{}\t{}\t{}\t{}\t{kind}\t{idx}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                r.user.city.name,
                r.user.geo.lat_deg,
                r.user.geo.lon_deg,
                r.user.access.label().to_ascii_lowercase(),
                t.mean_rtt_ms,
                t.cv,
                t.hops,
                t.shares.0,
                t.shares.1,
                t.shares.2,
                t.shares.3,
                t.distance_km,
            ));
        };
        for (i, t) in r.edge.iter().enumerate() {
            push("edge", i, t);
        }
        for (i, t) in r.cloud.iter().enumerate() {
            push("cloud", i, t);
        }
    }
    out
}

/// Load a campaign back from its TSV artefact.
pub fn campaign_from_tsv(tsv: &str) -> Result<LatencyCampaign, RecordError> {
    let mut lines = tsv.lines();
    let header = lines
        .next()
        .ok_or_else(|| RecordError::Malformed("empty".into()))?;
    if header != HEADER {
        return Err(RecordError::Malformed(format!("bad header: {header}")));
    }
    let mut results: Vec<UserResult> = Vec::new();
    let mut current_uid: Option<usize> = None;
    for (n, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() != 15 {
            return Err(RecordError::Malformed(format!(
                "line {}: {} fields (want 15)",
                n + 2,
                f.len()
            )));
        }
        let err = |what: &str| RecordError::Malformed(format!("line {}: bad {what}", n + 2));
        let uid: usize = f[0].parse().map_err(|_| err("user"))?;
        let city = city_by_name(f[1]).ok_or_else(|| err("city"))?;
        let lat: f64 = f[2].parse().map_err(|_| err("lat"))?;
        let lon: f64 = f[3].parse().map_err(|_| err("lon"))?;
        // Checked on every row: an out-of-range coordinate is an error,
        // never a panic.
        let geo = GeoPoint::try_new(lat, lon)
            .map_err(|e| RecordError::Malformed(format!("line {}: {e}", n + 2)))?;
        let access = AccessNetwork::ALL
            .into_iter()
            .find(|a| a.label().to_ascii_lowercase() == f[4])
            .ok_or_else(|| err("network"))?;
        let user = VirtualUser {
            city: *city,
            geo,
            access,
        };
        if current_uid != Some(uid) {
            if uid != results.len() {
                return Err(RecordError::Malformed(format!(
                    "line {}: user ids must be dense and ordered (saw {uid}, expected {})",
                    n + 2,
                    results.len()
                )));
            }
            results.push(UserResult {
                user,
                edge: Vec::new(),
                cloud: Vec::new(),
            });
            current_uid = Some(uid);
        } else if results.last().is_some_and(|r| r.user != user) {
            // Every row repeats its user's fields but only the first
            // builds the user, so a row that disagrees must be an error.
            return Err(RecordError::Malformed(format!(
                "line {}: user {uid} changes city, network or coordinates",
                n + 2
            )));
        }
        // `f64::parse` accepts "NaN"/"inf", which downstream aggregation
        // (the baseline sorts, CDF pipelines) must never see — reject them at
        // the artefact boundary like any other malformed field.
        let finite = |what: &'static str, s: &str| -> Result<f64, RecordError> {
            let v: f64 = s.parse().map_err(|_| err(what))?;
            if v.is_finite() {
                Ok(v)
            } else {
                Err(err(what))
            }
        };
        // A hop share is a fraction of the path's RTT.
        let share = |what: &'static str, s: &str| -> Result<f64, RecordError> {
            let v = finite(what, s)?;
            if (0.0..=1.0).contains(&v) {
                Ok(v)
            } else {
                Err(RecordError::Malformed(format!(
                    "line {}: {what} outside [0, 1]: {v}",
                    n + 2
                )))
            }
        };
        let stats = TargetStats {
            mean_rtt_ms: finite("mean_rtt", f[7])?,
            cv: finite("cv", f[8])?,
            hops: f[9].parse().map_err(|_| err("hops"))?,
            shares: (
                share("share1", f[10])?,
                share("share2", f[11])?,
                share("share3", f[12])?,
                share("share_rest", f[13])?,
            ),
            distance_km: finite("distance", f[14])?,
        };
        // The four shares split one RTT, so they must add up to it.
        let (s1, s2, s3, rest) = stats.shares;
        let sum = s1 + s2 + s3 + rest;
        if (sum - 1.0).abs() > SHARE_SUM_TOLERANCE {
            return Err(RecordError::Malformed(format!(
                "line {}: hop shares sum to {sum}",
                n + 2
            )));
        }
        let target_idx: usize = f[6].parse().map_err(|_| err("target_idx"))?;
        let result = results.last_mut().expect("pushed above");
        let targets = match f[5] {
            "edge" => &mut result.edge,
            "cloud" => &mut result.cloud,
            other => {
                return Err(RecordError::Malformed(format!(
                    "line {}: kind {other}",
                    n + 2
                )))
            }
        };
        // `campaign_to_tsv` numbers each user's edge and cloud rows from 0
        // in order, so a duplicated, dropped or reordered row breaks the
        // count.
        if target_idx != targets.len() {
            return Err(RecordError::Malformed(format!(
                "line {}: {} target_idx {target_idx} out of order (expected {})",
                n + 2,
                f[5],
                targets.len()
            )));
        }
        targets.push(stats);
    }
    Ok(LatencyCampaign { results })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencyConfig;
    use crate::user::recruit;
    use edgescope_platform::deployment::Deployment;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn campaign(seed: u64) -> LatencyCampaign {
        let mut rng = StdRng::seed_from_u64(seed);
        let edge = Deployment::nep(&mut rng, 25);
        let cloud = Deployment::alicloud();
        let users = recruit(&mut rng, 12);
        LatencyCampaign::run(
            seed,
            &users,
            &edge,
            &cloud,
            &LatencyConfig {
                pings_per_target: 10,
            },
            1,
        )
    }

    #[test]
    fn roundtrip_preserves_results() {
        let c = campaign(1);
        let tsv = campaign_to_tsv(&c);
        let parsed = campaign_from_tsv(&tsv).expect("parse");
        assert_eq!(parsed.results.len(), c.results.len());
        for (a, b) in parsed.results.iter().zip(&c.results) {
            assert_eq!(a.user.access, b.user.access);
            assert_eq!(a.user.city.name, b.user.city.name);
            assert_eq!(a.edge, b.edge);
            assert_eq!(a.cloud, b.cloud);
        }
    }

    #[test]
    fn aggregations_recomputable_from_artefact() {
        use edgescope_analysis::stats::median;
        use edgescope_net::access::AccessNetwork;
        let c = campaign(2);
        let parsed = campaign_from_tsv(&campaign_to_tsv(&c)).unwrap();
        let a = c.fig2a(AccessNetwork::Wifi);
        let b = parsed.fig2a(AccessNetwork::Wifi);
        assert_eq!(a, b, "fig2a identical from artefact");
        assert_eq!(median(&a.nearest_edge), median(&b.nearest_edge));
        assert_eq!(c.fig3(), parsed.fig3());
    }

    #[test]
    fn wired_users_roundtrip() {
        // `recruit` never produces wired participants (the paper's crowd
        // is WiFi/LTE/5G), but the artefact format must still carry them
        // — the throughput campaign and hand-built cohorts use wired.
        let mut rng = StdRng::seed_from_u64(4);
        let edge = Deployment::nep(&mut rng, 10);
        let cloud = Deployment::alicloud();
        let users: Vec<VirtualUser> = recruit(&mut rng, 3)
            .into_iter()
            .map(|mut u| {
                u.access = AccessNetwork::Wired;
                u
            })
            .collect();
        let c = LatencyCampaign::run(
            4,
            &users,
            &edge,
            &cloud,
            &LatencyConfig {
                pings_per_target: 10,
            },
            1,
        );
        let tsv = campaign_to_tsv(&c);
        assert!(tsv.contains("\twired\t"), "wired label serialized");
        let parsed = campaign_from_tsv(&tsv).expect("parse");
        assert_eq!(parsed.results.len(), 3);
        for (a, b) in parsed.results.iter().zip(&c.results) {
            assert_eq!(a.user.access, AccessNetwork::Wired);
            assert_eq!(a.edge, b.edge);
            assert_eq!(a.cloud, b.cloud);
        }
    }

    #[test]
    fn non_finite_fields_rejected() {
        let c = campaign(5);
        let tsv = campaign_to_tsv(&c);
        let lines: Vec<&str> = tsv.lines().collect();
        // Column 7 = mean_rtt_ms, 8 = cv, 10..=13 = hop shares,
        // 14 = distance_km.
        for col in [7usize, 8, 10, 11, 12, 13, 14] {
            for bad in ["NaN", "inf", "-inf"] {
                let mut f: Vec<&str> = lines[1].split('\t').collect();
                f[col] = bad;
                let row = f.join("\t");
                let doctored = [lines[0], &row].join("\n");
                let res = campaign_from_tsv(&doctored);
                assert!(res.is_err(), "column {col} value {bad} must be rejected");
            }
        }
    }

    #[test]
    fn bad_inputs_rejected() {
        assert!(campaign_from_tsv("").is_err());
        assert!(campaign_from_tsv("nope\n").is_err());
        let c = campaign(3);
        let tsv = campaign_to_tsv(&c);
        // Corrupt a field.
        let corrupted = tsv.replacen("wifi", "carrier-pigeon", 1);
        if corrupted != tsv {
            assert!(campaign_from_tsv(&corrupted).is_err());
        }
        // Truncate a line.
        let mut lines: Vec<&str> = tsv.lines().collect();
        let broken = lines[1].rsplit_once('\t').unwrap().0.to_string();
        lines[1] = &broken;
        assert!(campaign_from_tsv(&lines.join("\n")).is_err());
    }
}

//! Run crowd latency campaigns and work with their artefacts — the
//! performance-dataset counterpart of `trace-tool`.
//!
//! ```text
//! campaign-tool run [--users N] [--sites S] [--pings P] [--seed X] [--jobs J] --out FILE.tsv
//! campaign-tool summarize FILE.tsv     # recompute the section-3.1 aggregates
//! ```
//!
//! Flags take `--flag value` or `--flag=value`. A usage error exits 2; an
//! artefact that cannot be read or parsed exits 1.

use edgescope_analysis::stats::median;
use edgescope_net::access::AccessNetwork;
use edgescope_obs::cli::{self, Spec, UsageError};
use edgescope_platform::deployment::Deployment;
use edgescope_probe::latency::{LatencyCampaign, LatencyConfig};
use edgescope_probe::records::{campaign_from_tsv, campaign_to_tsv};
use edgescope_probe::user::recruit;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::error::Error;
use std::process::ExitCode;

const USAGE: &str = "usage:\n  campaign-tool run [--users N] [--sites S] [--pings P] [--seed X] [--jobs J] --out FILE.tsv\n  campaign-tool summarize FILE.tsv";

const RUN_SPEC: Spec = Spec {
    values: &["--users", "--sites", "--pings", "--seed", "--jobs", "--out"],
    switches: &[],
    positionals: 0,
};
const SUMMARIZE_SPEC: Spec = Spec {
    values: &[],
    switches: &[],
    positionals: 1,
};

/// The §3.1 aggregate lines for one campaign. A degraded artefact can
/// leave any access-network bucket — or the hop vectors — empty, so every
/// line is guarded rather than indexed into.
fn summary_lines(campaign: &LatencyCampaign) -> Vec<String> {
    let mut out = vec![format!("{} users", campaign.results.len())];
    for net in [
        AccessNetwork::Wifi,
        AccessNetwork::Lte,
        AccessNetwork::FiveG,
    ] {
        let a = campaign.fig2a(net);
        let b = campaign.fig2b(net);
        if a.nearest_edge.len() < 3 {
            out.push(format!(
                "{}: {} users (skipped)",
                net.label(),
                a.nearest_edge.len()
            ));
            continue;
        }
        out.push(format!(
            "{}: nearest edge {:.1} ms (CV {:.1}%), nearest cloud {:.1} ms (CV {:.1}%), all clouds {:.1} ms",
            net.label(),
            median(&a.nearest_edge),
            100.0 * median(&b.nearest_edge),
            median(&a.nearest_cloud),
            100.0 * median(&b.nearest_cloud),
            median(&a.all_clouds),
        ));
    }
    let (edge_hops, cloud_hops) = campaign.fig3();
    if !edge_hops.is_empty() && !cloud_hops.is_empty() {
        out.push(format!(
            "hops: edge median {:.0}, cloud median {:.0}",
            median(&edge_hops),
            median(&cloud_hops)
        ));
    }
    out
}

fn summarize(campaign: &LatencyCampaign) {
    for line in summary_lines(campaign) {
        println!("{line}");
    }
}

fn run_cmd(argv: impl Iterator<Item = String>) -> Result<(), Box<dyn Error>> {
    let a = cli::scan(&RUN_SPEC, argv)?;
    let users = a.get("--users", cli::positive)?.unwrap_or(60);
    let sites = a.get("--sites", cli::positive)?.unwrap_or(100);
    let pings = a.get("--pings", cli::positive)?.unwrap_or(30);
    let seed = a.value("--seed")?.unwrap_or(42);
    let jobs = a.get("--jobs", cli::positive)?.unwrap_or(1);
    let out = a
        .raw("--out")
        .ok_or_else(|| UsageError("missing --out".into()))?;
    let mut rng = StdRng::seed_from_u64(seed);
    let edge = Deployment::nep(&mut rng, sites);
    let cloud = Deployment::alicloud();
    let crowd = recruit(&mut rng, users);
    eprintln!("running: {users} users x ({sites} edge + 12 cloud) targets x {pings} pings ({jobs} workers)");
    let campaign = LatencyCampaign::run(
        seed,
        &crowd,
        &edge,
        &cloud,
        &LatencyConfig {
            pings_per_target: pings,
        },
        jobs,
    );
    let tsv = campaign_to_tsv(&campaign);
    std::fs::write(out, &tsv)?;
    println!(
        "wrote {} rows ({} KB) to {out}",
        tsv.lines().count() - 1,
        tsv.len() / 1024
    );
    summarize(&campaign);
    Ok(())
}

fn summarize_cmd(argv: impl Iterator<Item = String>) -> Result<(), Box<dyn Error>> {
    let a = cli::scan(&SUMMARIZE_SPEC, argv)?;
    let path = a
        .positionals()
        .first()
        .ok_or_else(|| UsageError("missing FILE.tsv".into()))?;
    let tsv = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    summarize(&campaign_from_tsv(&tsv)?);
    Ok(())
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let result = match argv.next().as_deref() {
        Some("run") => run_cmd(argv),
        Some("summarize") => summarize_cmd(argv),
        Some(other) => Err(UsageError(format!("unknown subcommand {other:?}")).into()),
        None => Err(UsageError("missing subcommand".into()).into()),
    };
    cli::exit_code(result, USAGE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgescope_net::geo::GeoPoint;
    use edgescope_platform::geo_china::CITIES;
    use edgescope_probe::user::VirtualUser;

    fn campaign_on(networks: &[AccessNetwork]) -> LatencyCampaign {
        let mut rng = StdRng::seed_from_u64(7);
        let edge = Deployment::nep(&mut rng, 15);
        let cloud = Deployment::alicloud();
        let users: Vec<VirtualUser> = networks
            .iter()
            .zip(CITIES.iter().cycle())
            .map(|(&access, c)| VirtualUser {
                city: *c,
                geo: GeoPoint::new(c.lat_deg, c.lon_deg),
                access,
            })
            .collect();
        LatencyCampaign::run(
            7,
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
    fn empty_access_bucket_is_skipped_not_panicking() {
        // Five WiFi users, zero LTE, zero 5G: the LTE/5G buckets are
        // empty and `summary_lines` must report them as skipped instead
        // of taking a median of nothing.
        let c = campaign_on(&[AccessNetwork::Wifi; 5]);
        let lines = summary_lines(&c);
        assert_eq!(lines[0], "5 users");
        assert!(
            lines.iter().any(|l| l.starts_with("WiFi: nearest edge")),
            "{lines:?}"
        );
        assert!(
            lines.contains(&"LTE: 0 users (skipped)".to_string()),
            "{lines:?}"
        );
        assert!(
            lines.contains(&"5G: 0 users (skipped)".to_string()),
            "{lines:?}"
        );
    }

    #[test]
    fn wired_only_campaign_summarizes_without_panicking() {
        // Wired users appear in no fig2 bucket at all; the summary must
        // still produce the header and the hop line.
        let c = campaign_on(&[AccessNetwork::Wired; 4]);
        let lines = summary_lines(&c);
        assert_eq!(lines[0], "4 users");
        assert!(lines.iter().any(|l| l.starts_with("hops:")), "{lines:?}");
    }

    #[test]
    fn empty_campaign_summarizes_to_header_lines_only() {
        let c = LatencyCampaign {
            results: Vec::new(),
        };
        let lines = summary_lines(&c);
        assert_eq!(lines[0], "0 users");
        assert!(!lines.iter().any(|l| l.starts_with("hops:")));
    }
}

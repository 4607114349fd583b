//! Fig. 2: end-to-end network delay (a) and jitter (b), per access
//! network, across the four baselines (nearest edge / 3rd-nearest edge /
//! nearest cloud / all clouds).

use super::latency_study::LatencyStudy;
use crate::report::ExperimentReport;
use edgescope_analysis::cdf::Cdf;
use edgescope_analysis::stats::median;
use edgescope_analysis::table::Table;
use edgescope_net::access::AccessNetwork;

const NETWORKS: [AccessNetwork; 3] = [
    AccessNetwork::Wifi,
    AccessNetwork::Lte,
    AccessNetwork::FiveG,
];

fn build(study: &LatencyStudy, id: &'static str, title: &str, jitter: bool) -> ExperimentReport {
    let mut report = ExperimentReport::new(id, title);
    let unit = if jitter { "CV" } else { "ms" };
    let mut t = Table::new(
        format!("median {unit} per user baseline"),
        &[
            "network",
            "nearest edge",
            "3rd edge",
            "nearest cloud",
            "all clouds",
            "cloud/edge",
        ],
    );
    for net in NETWORKS {
        let s = if jitter {
            study.campaign.fig2b(net)
        } else {
            study.campaign.fig2a(net)
        };
        if s.nearest_edge.len() < 3 {
            report.notes.push(format!(
                "{net}: only {} users — row skipped",
                s.nearest_edge.len()
            ));
            continue;
        }
        let me = median(&s.nearest_edge);
        let m3 = median(&s.third_edge);
        let mc = median(&s.nearest_cloud);
        let ma = median(&s.all_clouds);
        let prec = if jitter { 4 } else { 1 };
        t.row(vec![
            net.label().to_string(),
            format!("{me:.prec$}"),
            format!("{m3:.prec$}"),
            format!("{mc:.prec$}"),
            format!("{ma:.prec$}"),
            format!("{:.2}x", mc / me),
        ]);
        for (name, xs) in [
            ("nearest_edge", &s.nearest_edge),
            ("third_edge", &s.third_edge),
            ("nearest_cloud", &s.nearest_cloud),
            ("all_clouds", &s.all_clouds),
        ] {
            report.csv.push((
                format!("{}_{name}_cdf", net.label().to_lowercase()),
                Cdf::from_slice(xs).to_csv(50),
            ));
        }
    }
    report.tables.push(t);
    if jitter {
        report.notes.push(
            "paper Fig.2b: nearest-edge median CV 1.1%/2.3%/0.7% (WiFi/LTE/5G); nearest cloud 5.8x/3.9x/5.7x higher".into(),
        );
    } else {
        report.notes.push(
            "paper Fig.2a: nearest-edge median RTT 16.1/37.6/10.4 ms (WiFi/LTE/5G); nearest cloud 1.47x/1.33x/1.23x".into(),
        );
    }
    report
}

/// Fig. 2(a): mean-RTT medians + CDFs, with a bootstrap CI on the
/// headline WiFi nearest-edge median so paper-vs-measured gaps can be
/// judged against crowd-sampling noise.
pub fn run_a(study: &LatencyStudy) -> ExperimentReport {
    let mut report = build(
        study,
        "fig2a",
        "End-to-end network delay (mean RTT per user)",
        false,
    );
    let wifi = study.campaign.fig2a(AccessNetwork::Wifi);
    if wifi.nearest_edge.len() >= 10 {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xb007);
        let ci = edgescope_analysis::bootstrap::median_ci(&mut rng, &wifi.nearest_edge);
        report.notes.push(format!(
            "WiFi nearest-edge median {:.1} ms, 95% bootstrap CI [{:.1}, {:.1}] over {} users",
            ci.point,
            ci.lo,
            ci.hi,
            wifi.nearest_edge.len()
        ));
    }
    report
}

/// Fig. 2(b): RTT-CV medians + CDFs.
pub fn run_b(study: &LatencyStudy) -> ExperimentReport {
    build(study, "fig2b", "Network jitter (RTT CV per user)", true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scale, Scenario};

    #[test]
    fn fig2_reports_build() {
        let scenario = Scenario::new(Scale::Quick, 3);
        let study = LatencyStudy::run(&scenario, 1);
        let a = run_a(&study);
        let b = run_b(&study);
        assert!(a.tables[0].rows().len() >= 2, "need WiFi+LTE rows at least");
        assert!(!a.csv.is_empty());
        assert!(b.render().contains("CV"));
    }
}

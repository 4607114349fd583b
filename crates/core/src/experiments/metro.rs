//! The metro-scale experiments: the paper's §3/§4 headline artefacts
//! recomputed from the streaming [`StreamingStudy`] sketches.
//!
//! These are the only experiments `registry_for(Scale::Metro)` selects.
//! The latency and inter-site sketches are O(sketch) memory however many
//! users and site pairs streamed through; the trace sketches read the
//! workload study, which keeps one folded row per VM and no series. So
//! the tier's peak RSS stays under the `BENCH_scale.json` budget. They
//! also run at every other scale (they are ordinary registry entries),
//! where `metro_workload` sketches the very traces fig10 reads and the
//! latency and inter-site analogues can be compared with fig2/fig4 in
//! distribution.

use crate::experiments::streaming_study::StreamingStudy;
use crate::report::ExperimentReport;
use edgescope_analysis::sketch::PercentileSketch;
use edgescope_analysis::table::Table;
use edgescope_probe::intersite::mean_neighbours;

/// CDF points rendered per sketch CSV (matches the batch CDF exports).
const CDF_POINTS: usize = 30;

fn quantile_row(name: &str, s: &PercentileSketch) -> Vec<String> {
    vec![
        name.to_string(),
        format!("{:.1}", s.quantile(0.5)),
        format!("{:.1}", s.quantile(0.9)),
        format!("{:.1}", s.quantile(0.99)),
    ]
}

/// Regenerate the Fig. 2 analogue from the streaming latency sketches:
/// RTT and CV distributions for nearest-edge / 3rd-edge / nearest-cloud
/// / all-clouds, pooled across access networks.
pub fn run_latency(study: &StreamingStudy) -> ExperimentReport {
    let mut report =
        ExperimentReport::new("metro_latency", "Metro-scale streaming latency campaign");
    let c = &study.latency;

    let mut t = Table::new(
        "user-level mean RTT sketch quantiles (ms)",
        &["baseline", "p50", "p90", "p99"],
    );
    t.row(quantile_row("nearest edge", &c.rtt.nearest_edge));
    t.row(quantile_row("3rd edge", &c.rtt.third_edge));
    t.row(quantile_row("nearest cloud", &c.rtt.nearest_cloud));
    t.row(quantile_row("all clouds", &c.rtt.all_clouds));
    report.tables.push(t);

    let mut t2 = Table::new("campaign accounting", &["statistic", "value"]);
    t2.row(vec!["users complete".into(), c.users_complete.to_string()]);
    t2.row(vec![
        "users partial (dropped)".into(),
        c.users_partial.to_string(),
    ]);
    t2.row(vec![
        "nearest-edge mean RTT (Welford)".into(),
        format!("{:.1} ms", c.nearest_edge_moments.mean()),
    ]);
    t2.row(vec![
        "nearest-edge RTT std dev".into(),
        format!("{:.1} ms", c.nearest_edge_moments.std_dev()),
    ]);
    report.tables.push(t2);

    for (name, s) in [
        ("nearest_edge_cdf", &c.rtt.nearest_edge),
        ("third_edge_cdf", &c.rtt.third_edge),
        ("nearest_cloud_cdf", &c.rtt.nearest_cloud),
        ("all_clouds_cdf", &c.rtt.all_clouds),
        ("cv_nearest_edge_cdf", &c.cv.nearest_edge),
        ("cv_nearest_cloud_cdf", &c.cv.nearest_cloud),
    ] {
        report.csv.push((name.into(), s.to_csv(CDF_POINTS)));
    }

    report.notes.push(format!(
        "sketch medians: nearest edge {:.1} ms < 3rd edge {:.1} ms <= nearest cloud {:.1} ms < all clouds {:.1} ms",
        c.rtt.nearest_edge.median(),
        c.rtt.third_edge.median(),
        c.rtt.nearest_cloud.median(),
        c.rtt.all_clouds.median(),
    ));
    report.notes.push(
        "paper Fig. 2: the nearest edge site beats the nearest cloud region for nearly every user; \
         streamed here through fixed-memory sketches (1% relative accuracy), crowd never materialized"
            .into(),
    );
    report
}

/// Regenerate the Fig. 4 analogue from the streaming inter-site scan:
/// nearby-site counts and the distance-RTT correlation, without the
/// O(sites²) RTT matrix.
pub fn run_intersite(study: &StreamingStudy) -> ExperimentReport {
    let mut report =
        ExperimentReport::new("metro_intersite", "Metro-scale streaming inter-site scan");
    let scan = &study.intersite;

    let (n5, n10, n20) = mean_neighbours(&scan.neighbours);
    let mut t = Table::new("nearby sites per site", &["within", "mean count"]);
    t.row(vec!["5 ms".into(), format!("{n5:.1}")]);
    t.row(vec!["10 ms".into(), format!("{n10:.1}")]);
    t.row(vec!["20 ms".into(), format!("{n20:.1}")]);
    report.tables.push(t);

    let mut t2 = Table::new("scan accounting", &["statistic", "value"]);
    t2.row(vec!["site pairs scanned".into(), scan.pairs.to_string()]);
    t2.row(vec![
        "pair RTT sketch median".into(),
        format!("{:.1} ms", scan.rtt.median()),
    ]);
    t2.row(vec![
        "distance-RTT Pearson r".into(),
        format!("{:.2}", scan.distance_rtt.r()),
    ]);
    report.tables.push(t2);

    report
        .csv
        .push(("rtt_cdf".into(), scan.rtt.to_csv(CDF_POINTS)));
    report.notes.push(
        "paper Fig. 4: 1.2/2.9/10.6 nearby sites within 5/10/20 ms at >500 sites; the streaming \
         scan reproduces the neighbour counts integer-exactly in O(sites) memory"
            .into(),
    );
    report
}

/// Regenerate the Fig. 10 analogue from the streaming trace statistics:
/// per-VM CPU/bandwidth distributions for NEP vs Azure.
pub fn run_workload(study: &StreamingStudy) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "metro_workload",
        "Metro-scale streaming workload statistics",
    );
    let (nep, azure) = (&study.nep, &study.azure);

    let mut t = Table::new(
        "per-VM statistic sketch medians",
        &["statistic", "NEP", "Azure"],
    );
    t.row(vec![
        "VMs streamed".into(),
        nep.n_vms.to_string(),
        azure.n_vms.to_string(),
    ]);
    t.row(vec![
        "mean CPU (%)".into(),
        format!("{:.1}", nep.mean_cpu.median()),
        format!("{:.1}", azure.mean_cpu.median()),
    ]);
    t.row(vec![
        "p95 CPU (%)".into(),
        format!("{:.1}", nep.p95_cpu.median()),
        format!("{:.1}", azure.p95_cpu.median()),
    ]);
    t.row(vec![
        "CPU CV".into(),
        format!("{:.2}", nep.cpu_cv.median()),
        format!("{:.2}", azure.cpu_cv.median()),
    ]);
    t.row(vec![
        "mean bandwidth (Mbps)".into(),
        format!("{:.1}", nep.mean_bw.median()),
        format!("{:.1}", azure.mean_bw.median()),
    ]);
    t.row(vec![
        "VMs under 10% mean CPU".into(),
        format!("{:.0}%", 100.0 * nep.mean_cpu.fraction_le(10.0)),
        format!("{:.0}%", 100.0 * azure.mean_cpu.fraction_le(10.0)),
    ]);
    report.tables.push(t);

    for (name, s) in [
        ("nep_mean_cpu_cdf", &nep.mean_cpu),
        ("azure_mean_cpu_cdf", &azure.mean_cpu),
        ("nep_cpu_cv_cdf", &nep.cpu_cv),
        ("azure_cpu_cv_cdf", &azure.cpu_cv),
    ] {
        report.csv.push((name.into(), s.to_csv(CDF_POINTS)));
    }

    report.notes.push(
        "paper Fig. 10: ~74% of NEP VMs sit under 10% mean CPU (Azure ~47%) while NEP's CPU CV \
         runs higher (median ~0.48 vs ~0.24); streamed per-VM statistics, one series in memory \
         per worker at a time"
            .into(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::workload_study::WorkloadStudy;
    use crate::scenario::{Scale, Scenario};

    fn study() -> StreamingStudy {
        let scenario = Scenario::new(Scale::Quick, 7);
        StreamingStudy::run(&scenario, &WorkloadStudy::run(&scenario, 2), 2)
    }

    #[test]
    fn metro_latency_builds() {
        let r = run_latency(&study());
        assert_eq!(r.id, "metro_latency");
        assert_eq!(r.tables[0].rows().len(), 4);
        assert_eq!(r.csv.len(), 6);
        assert!(r
            .csv
            .iter()
            .all(|(_, c)| c.lines().count() == CDF_POINTS + 1));
    }

    #[test]
    fn metro_intersite_builds() {
        let r = run_intersite(&study());
        assert_eq!(r.id, "metro_intersite");
        assert_eq!(r.tables[0].rows().len(), 3);
        assert_eq!(r.csv.len(), 1);
    }

    #[test]
    fn metro_workload_builds() {
        let r = run_workload(&study());
        assert_eq!(r.id, "metro_workload");
        assert_eq!(r.tables[0].rows().len(), 6);
        assert_eq!(r.csv.len(), 4);
    }
}

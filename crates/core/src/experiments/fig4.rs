//! Fig. 4: inter-site RTT vs. geographic distance.

use crate::report::ExperimentReport;
use crate::scenario::Scenario;
use edgescope_analysis::stats::{mean, peak_max};
use edgescope_analysis::table::{xy_csv, Table};
use edgescope_probe::intersite::{intersite_scan, mean_neighbours};

/// Regenerate Fig. 4: the (distance, RTT) scatter over all site pairs, the
/// distance buckets' mean RTTs, and the nearby-site counts.
pub fn run(scenario: &Scenario) -> ExperimentReport {
    let mut report = ExperimentReport::new("fig4", "Inter-site RTT vs distance");
    let scan = intersite_scan(scenario.stream_seed(0xf144), &scenario.nep);

    let mut t = Table::new(
        "RTT by distance bucket",
        &["distance (km)", "pairs", "mean RTT (ms)", "max RTT (ms)"],
    );
    let buckets = [
        (0.0, 100.0),
        (100.0, 500.0),
        (500.0, 1000.0),
        (1000.0, 2000.0),
        (2000.0, 3000.0),
        (3000.0, 5000.0),
    ];
    for (lo, hi) in buckets {
        let rs: Vec<f64> = scan
            .points
            .iter()
            .filter(|(d, _)| *d >= lo && *d < hi)
            .map(|(_, r)| *r)
            .collect();
        if rs.is_empty() {
            continue;
        }
        t.row(vec![
            format!("{lo:.0}-{hi:.0}"),
            rs.len().to_string(),
            format!("{:.1}", mean(&rs)),
            format!("{:.1}", peak_max(&rs)),
        ]);
    }
    report.tables.push(t);

    let (n5, n10, n20) = mean_neighbours(&scan.neighbours);
    let mut t2 = Table::new("nearby sites per site", &["within", "mean count"]);
    t2.row(vec!["5 ms".into(), format!("{n5:.1}")]);
    t2.row(vec!["10 ms".into(), format!("{n10:.1}")]);
    t2.row(vec!["20 ms".into(), format!("{n20:.1}")]);
    report.tables.push(t2);

    report.csv.push((
        "scatter".into(),
        xy_csv(("distance_km", "rtt_ms"), &scan.points),
    ));
    let distance_rtt = scan.distance_rtt();
    let fit = distance_rtt.line();
    report.notes.push(format!(
        "distance-RTT Pearson r = {:.2}; OLS fit rtt = {:.4}*d + {:.1} ms (R2 {:.2}) => {:.0} ms at 3000 km",
        distance_rtt.r(),
        fit.slope,
        fit.intercept,
        fit.r2,
        fit.predict(3000.0)
    ));
    report.notes.push(
        "paper: RTTs reach ~100 ms at 3000 km; 1.2/2.9/10.6 nearby sites within 5/10/20 ms at >500 sites".into(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scale, Scenario};

    #[test]
    fn fig4_builds() {
        let scenario = Scenario::new(Scale::Quick, 7);
        let r = run(&scenario);
        assert!(r.tables[0].rows().len() >= 3);
        assert_eq!(r.tables[1].rows().len(), 3);
        assert!(r.csv[0].1.lines().count() > 100);
    }
}

//! Table 1: deployment density of clouds vs. NEP.

use crate::report::ExperimentReport;
use edgescope_analysis::stats::peak_max;
use edgescope_analysis::table::Table;
use edgescope_platform::density::table1_rows;

/// Regenerate Table 1 (density is computed from regions/area, not
/// hard-coded).
pub fn run() -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "table1",
        "Deployment density of cloud/edge platforms (regions per 1e6 mi^2)",
    );
    let mut t = Table::new("Table 1", &["platform", "regions", "coverage", "density"]);
    let rows = table1_rows();
    for r in &rows {
        t.row(vec![
            r.platform.to_string(),
            format!("{:.0}", r.regions),
            r.coverage.to_string(),
            format!("{:.2}", r.density()),
        ]);
    }
    report.tables.push(t);
    let nep = rows.last().expect("NEP row");
    let cloud_densities: Vec<f64> = rows
        .iter()
        .filter(|r| !r.platform.contains("NEP"))
        .map(|r| r.density())
        .collect();
    let best_cloud = peak_max(&cloud_densities);
    report.notes.push(format!(
        "NEP density {:.0} vs densest cloud/edge {:.2} — {:.0}x, the paper's 'two orders of magnitude'",
        nep.density(),
        best_cloud,
        nep.density() / best_cloud
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_all_platforms() {
        let r = run();
        assert_eq!(r.tables.len(), 1);
        assert_eq!(r.tables[0].rows().len(), 12);
        let rendered = r.render();
        assert!(rendered.contains("NEP"));
        assert!(rendered.contains("AWS"));
    }
}

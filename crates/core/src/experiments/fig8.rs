//! Fig. 8: VM sizes (CPU cores and memory) on NEP vs. Azure.

use super::workload_study::WorkloadStudy;
use crate::report::ExperimentReport;
use edgescope_analysis::cdf::Cdf;
use edgescope_analysis::histogram::bucket_fractions;
use edgescope_analysis::stats::mean;
use edgescope_analysis::table::Table;

fn pct(x: f64) -> String {
    format!("{:.0}%", 100.0 * x)
}

/// Regenerate Fig. 8: core/memory CDFs plus the caption's
/// small (≤4) / median (5–16) / large (>16) buckets.
pub fn run(study: &WorkloadStudy) -> ExperimentReport {
    let mut report = ExperimentReport::new("fig8", "VM sizes: NEP vs Azure");
    let mut t = Table::new(
        "VM size summary",
        &[
            "platform",
            "metric",
            "median",
            "small <=4",
            "median 5-16",
            "large >16",
        ],
    );
    for (name, ds) in [("NEP", &study.nep), ("Azure", &study.azure)] {
        let cores: Vec<f64> = ds.records.iter().map(|r| r.cores as f64).collect();
        let mems: Vec<f64> = ds.records.iter().map(|r| r.mem_gb as f64).collect();
        for (metric, xs) in [("CPU cores", &cores), ("memory GB", &mems)] {
            let c = Cdf::from_slice(xs);
            let b = bucket_fractions(xs, &[4.0, 16.0]);
            t.row(vec![
                name.to_string(),
                metric.to_string(),
                format!("{:.0}", c.median()),
                pct(b[0]),
                pct(b[1]),
                pct(b[2]),
            ]);
            report.csv.push((
                format!(
                    "{}_{}_cdf",
                    name.to_lowercase(),
                    metric.split(' ').next().unwrap().to_lowercase()
                ),
                c.to_csv(40),
            ));
        }
    }
    // Storage (NEP only — the Azure dataset lacks it, as in the paper).
    let disks: Vec<f64> = study.nep.records.iter().map(|r| r.disk_gb as f64).collect();
    let dc = Cdf::from_slice(&disks);
    report.tables.push(t);
    report.notes.push(format!(
        "NEP storage median {:.0} GB / mean {:.0} GB (paper: 100/650); Azure lacks storage data",
        dc.median(),
        mean(&disks)
    ));
    report.notes.push(
        "paper: cores median 8 vs 1; memory median 32 GB vs 4 GB; Azure 90% <=4 cores, 70% <=4 GB"
            .into(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::super::workload_study::WorkloadStudy;
    use super::*;
    use crate::scenario::{Scale, Scenario};

    #[test]
    fn fig8_medians_match_paper() {
        let scenario = Scenario::new(Scale::Quick, 13);
        let study = WorkloadStudy::run(&scenario, 1);
        let r = run(&study);
        assert_eq!(r.tables[0].rows().len(), 4);
        let cores_nep: Vec<f64> = study.nep.records.iter().map(|x| x.cores as f64).collect();
        let cores_az: Vec<f64> = study.azure.records.iter().map(|x| x.cores as f64).collect();
        assert_eq!(Cdf::from_slice(&cores_nep).median(), 8.0);
        assert_eq!(Cdf::from_slice(&cores_az).median(), 1.0);
    }
}

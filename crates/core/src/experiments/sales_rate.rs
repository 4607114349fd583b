//! §4.1's sales-rate statistics (the "figure not shown"): CPU/memory sold
//! per site and server on the populated NEP deployment.

use super::workload_study::WorkloadStudy;
use crate::report::ExperimentReport;
use edgescope_analysis::imbalance::gap_p95_p5;
use edgescope_analysis::stats::median;
use edgescope_analysis::table::Table;
use edgescope_platform::sales::{cpu_sales, mem_sales};

/// Regenerate the sales-rate summary: per-site/server medians and the
/// P95/P5 skew.
pub fn run(study: &WorkloadStudy) -> ExperimentReport {
    let mut report = ExperimentReport::new("sales", "Server/site resource sales rate (4.1)");
    let cpu = cpu_sales(&study.nep_deployment);
    let mem = mem_sales(&study.nep_deployment);
    let mut t = Table::new(
        "sales rates",
        &["resource", "scope", "median", "P95/P5 gap"],
    );
    for (resource, rates) in [("CPU", &cpu), ("memory", &mem)] {
        for (scope, xs) in [("site", &rates.per_site), ("server", &rates.per_server)] {
            t.row(vec![
                resource.to_string(),
                scope.to_string(),
                format!("{:.2}", median(xs)),
                format!("{:.1}x", gap_p95_p5(xs, 0.01)),
            ]);
        }
    }
    report.tables.push(t);
    let cpu_med = median(&cpu.per_site);
    let mem_med = median(&mem.per_site);
    report.notes.push(format!(
        "site-level CPU/memory sales ratio = {:.1}x (paper: CPU ~2x memory); cross-site CPU P95/P5 = {:.1}x (paper ~5x)",
        cpu_med / mem_med.max(1e-6),
        gap_p95_p5(&cpu.per_site, 0.01)
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::super::workload_study::WorkloadStudy;
    use super::*;
    use crate::scenario::{Scale, Scenario};

    #[test]
    fn cpu_saturates_before_memory() {
        let scenario = Scenario::new(Scale::Quick, 15);
        let study = WorkloadStudy::run(&scenario, 1);
        let cpu = cpu_sales(&study.nep_deployment);
        let mem = mem_sales(&study.nep_deployment);
        // NEP VMs subscribe 4 GB/core while servers carry ~4 GB/core too —
        // but disk/memory headroom leaves memory less saturated than CPU
        // overall.
        assert!(median(&cpu.per_site) >= median(&mem.per_site));
        let r = run(&study);
        assert_eq!(r.tables[0].rows().len(), 4);
    }
}

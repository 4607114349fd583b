//! Extension experiment: dynamic VM migration (§4.2/§4.3 implications).
//!
//! Takes the generated NEP trace's most imbalanced province, builds the
//! migratable VM set (load = mean CPU cores consumed, memory = the
//! subscription), and sweeps the migration budget: how much cross-site
//! imbalance each number of migrations removes, and what it costs in
//! copied gigabytes and downtime — §5.2's "high migration delay and the
//! impacts on the app QoS" made concrete.

use super::workload_study::WorkloadStudy;
use crate::report::ExperimentReport;
use edgescope_analysis::table::Table;
use edgescope_net::geo::GeoPoint;
use edgescope_sched::migration::{rebalance, SchedVm};
use std::collections::BTreeMap;

/// Build the migration inputs from the busiest province of the trace —
/// or the whole platform when no province has at least two populated
/// sites (tiny worlds).
fn migration_world(study: &WorkloadStudy) -> (Vec<GeoPoint>, Vec<SchedVm>) {
    let ds = &study.nep;
    let dep = &study.nep_deployment;
    // Most-populated province by VM count, requiring >= 2 distinct sites.
    let mut by_province: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, r) in ds.records.iter().enumerate() {
        by_province
            .entry(dep.sites[r.site.index()].province())
            .or_default()
            .push(i);
    }
    let distinct_sites = |idxs: &[usize]| {
        let mut s: Vec<u32> = idxs.iter().map(|&i| ds.records[i].site.0).collect();
        s.sort_unstable();
        s.dedup();
        s.len()
    };
    let idxs = by_province
        .into_iter()
        .filter(|(_, v)| distinct_sites(v) >= 2)
        .max_by_key(|(_, v)| v.len())
        .map(|(_, v)| v)
        .unwrap_or_else(|| (0..ds.records.len()).collect());

    // Dense site indexing within the province.
    let mut site_map: BTreeMap<u32, usize> = BTreeMap::new();
    let mut site_geo = Vec::new();
    let means = ds.mean_cpu_per_vm();
    let vms = idxs
        .iter()
        .map(|&i| {
            let r = &ds.records[i];
            let dense = *site_map.entry(r.site.0).or_insert_with(|| {
                site_geo.push(dep.sites[r.site.index()].geo());
                site_geo.len() - 1
            });
            SchedVm {
                site: dense,
                // Load: cores actually consumed on average.
                load: means[i] / 100.0 * r.cores as f64,
                mem_gb: r.mem_gb as f64,
            }
        })
        .collect();
    (site_geo, vms)
}

/// Run the migration study.
pub fn run(study: &WorkloadStudy) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "ext_migration",
        "Extension: dynamic VM migration (imbalance vs disruption budget)",
    );
    let (site_geo, base_vms) = migration_world(study);
    if site_geo.len() < 2 {
        report
            .notes
            .push("province has a single populated site — nothing to migrate".into());
        return report;
    }
    let mut t = Table::new(
        format!(
            "busiest province: {} sites, {} VMs",
            site_geo.len(),
            base_vms.len()
        ),
        &[
            "budget",
            "CV before",
            "CV after",
            "migrations",
            "moved GB",
            "downtime s",
        ],
    );
    for budget in [0usize, 5, 20, 100, 1000] {
        let mut vms = base_vms.clone();
        let out = rebalance(&site_geo, &mut vms, budget);
        t.row(vec![
            budget.to_string(),
            format!("{:.2}", out.cv_before),
            format!("{:.2}", out.cv_after),
            out.steps.len().to_string(),
            format!("{:.0}", out.moved_gb),
            format!("{:.1}", out.total_downtime_s),
        ]);
    }
    report.tables.push(t);
    report.notes.push(
        "paper 4.3: 'dynamic VM migration can better balance the across-server resource usage'; 5.2 warns about migration delay — the moved-GB/downtime columns quantify it".into(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scale, Scenario};

    #[test]
    fn more_budget_more_balance() {
        let scenario = Scenario::new(Scale::Quick, 31);
        let study = WorkloadStudy::run(&scenario, 1);
        let r = run(&study);
        if r.tables.is_empty() {
            return; // degenerate world, nothing to assert
        }
        let csv = r.tables[0].to_csv();
        let cv_after = |row: usize| -> f64 {
            csv.lines()
                .nth(row + 1)
                .unwrap()
                .split(',')
                .nth(2)
                .unwrap()
                .parse()
                .unwrap()
        };
        // Zero budget leaves imbalance untouched; a big budget reduces it.
        let untouched = cv_after(0);
        let heavy = cv_after(4);
        assert!(
            heavy <= untouched + 1e-9,
            "budget must not hurt: {heavy} vs {untouched}"
        );
    }
}

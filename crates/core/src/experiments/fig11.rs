//! Fig. 11: load imbalance across machines and sites.
//!
//! The figure's method, verbatim from its caption: 11 sites sampled from
//! one province (Guangdong when available), machines from one random
//! site; a machine's CPU is the core-weighted mean of its VMs, a site's
//! is the mean over machines; bandwidth sums; everything normalized to
//! the smallest.

use super::workload_study::WorkloadStudy;
use crate::report::{kv_csv, ExperimentReport};
use edgescope_analysis::imbalance::{gap_max_min, normalized_to_min};
use edgescope_analysis::table::Table;
use edgescope_platform::ids::SiteId;
use std::collections::BTreeMap;

/// Regenerate Fig. 11.
pub fn run(study: &WorkloadStudy) -> ExperimentReport {
    let mut report = ExperimentReport::new("fig11", "Load imbalance across machines/sites");
    let ds = &study.nep;
    let dep = &study.nep_deployment;

    // Pick the province with the most populated sites (Guangdong in the
    // paper), then up to 11 of its sites carrying VMs.
    let site_bw: BTreeMap<SiteId, f64> = ds.site_bw().into_iter().collect();
    let site_cpu: BTreeMap<SiteId, f64> = ds.site_cpu().into_iter().collect();
    let mut by_province: BTreeMap<&str, Vec<SiteId>> = BTreeMap::new();
    for &site in site_bw.keys() {
        by_province
            .entry(dep.sites[site.index()].province())
            .or_default()
            .push(site);
    }
    let (province, mut sites) = by_province
        .into_iter()
        .max_by_key(|(_, v)| v.len())
        .expect("populated province");
    sites.truncate(11);

    let sites_cpu: Vec<f64> = sites.iter().map(|s| site_cpu[s]).collect();
    let sites_bw: Vec<f64> = sites.iter().map(|s| site_bw[s]).collect();

    // Machines from the busiest of those sites.
    let busiest = *sites
        .iter()
        .max_by(|a, b| site_bw[a].total_cmp(&site_bw[b]))
        .unwrap();
    let (machines_cpu, machines_bw): (Vec<f64>, Vec<f64>) = ds
        .server_loads()
        .into_iter()
        .filter(|&((site, _), _)| site == busiest)
        .map(|(_, load)| load)
        .unzip();

    let mut t = Table::new(
        format!(
            "imbalance, {province} province ({} sites, {} machines)",
            sites.len(),
            machines_cpu.len()
        ),
        &["metric", "scope", "max/min gap"],
    );
    let floor = 0.01;
    t.row(vec![
        "CPU".into(),
        "machines (one site)".into(),
        format!("{:.1}x", gap_max_min(&machines_cpu, floor)),
    ]);
    t.row(vec![
        "CPU".into(),
        "sites (one province)".into(),
        format!("{:.1}x", gap_max_min(&sites_cpu, floor)),
    ]);
    t.row(vec![
        "bandwidth".into(),
        "machines (one site)".into(),
        format!("{:.1}x", gap_max_min(&machines_bw, floor)),
    ]);
    t.row(vec![
        "bandwidth".into(),
        "sites (one province)".into(),
        format!("{:.1}x", gap_max_min(&sites_bw, floor)),
    ]);
    report.tables.push(t);

    for (name, xs) in [
        ("machines_cpu", &machines_cpu),
        ("sites_cpu", &sites_cpu),
        ("machines_bw", &machines_bw),
        ("sites_bw", &sites_bw),
    ] {
        let norm = normalized_to_min(xs, floor);
        let rows: Vec<(String, f64)> = norm
            .iter()
            .enumerate()
            .map(|(i, &v)| (format!("{i}"), v))
            .collect();
        report
            .csv
            .push((name.to_string(), kv_csv(("index", "normalized"), &rows)));
    }
    report.notes.push(
        "paper: bandwidth gap up to 19.8x across machines of one site and 731x across sites of one province; CPU P95-max gap 8.7x across sites".into(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::super::workload_study::WorkloadStudy;
    use super::*;
    use crate::scenario::{Scale, Scenario};

    #[test]
    fn imbalance_clearly_present() {
        let scenario = Scenario::new(Scale::Quick, 17);
        let study = WorkloadStudy::run(&scenario, 1);
        let r = run(&study);
        assert_eq!(r.tables[0].rows().len(), 4);
        assert_eq!(r.csv.len(), 4);
        // Site-level bandwidth must be visibly imbalanced.
        let site_bw: Vec<f64> = study.nep.site_bw().into_iter().map(|(_, v)| v).collect();
        assert!(gap_max_min(&site_bw, 0.01) > 3.0);
    }
}

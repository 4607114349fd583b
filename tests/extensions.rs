//! Integration tests for the §5 extension experiments: the qualitative
//! claims the paper makes about its future-work systems must hold end to
//! end through the public API.

use edgescope::experiments::{
    ext_elastic, ext_fragmentation, ext_gslb, ext_predictive, workload_study::WorkloadStudy,
};
use edgescope::{Scale, Scenario};

fn cell(csv: &str, row: usize, col: usize) -> f64 {
    csv.lines()
        .nth(row + 1)
        .unwrap_or_else(|| panic!("row {row} missing in:\n{csv}"))
        .split(',')
        .nth(col)
        .unwrap()
        .trim_end_matches(['%', 'x'])
        .parse()
        .unwrap()
}

#[test]
fn gslb_tradeoff_curve() {
    // Rows: nearest, round-robin, load-aware, delay-constrained.
    let scenario = Scenario::new(Scale::Quick, 101);
    let r = ext_gslb::run(&scenario);
    let csv = r.tables[0].to_csv();
    let load_cv = |row| cell(&csv, row, 3);
    let delay = |row| cell(&csv, row, 1);
    // Balance: every balancing policy beats nearest-site.
    assert!(load_cv(1) < load_cv(0), "rr balances");
    assert!(load_cv(2) < load_cv(0), "gslb balances");
    assert!(load_cv(3) < load_cv(0), "constrained balances");
    // The constrained policy never pays the worst delay of the panel.
    let max_delay = (0..4).map(delay).fold(f64::MIN, f64::max);
    assert!(delay(3) < max_delay || (0..4).all(|i| delay(i) == max_delay));
}

#[test]
fn serverless_crossover() {
    let scenario = Scenario::new(Scale::Quick, 102);
    let r = ext_elastic::run(&scenario);
    let csv = r.tables[0].to_csv();
    // Education (row 0): IaaS cost > FaaS cost. Surveillance (row 2):
    // reversed. Education cold-start p95 blows the SLA.
    assert!(
        cell(&csv, 0, 1) > cell(&csv, 0, 2),
        "education favours serverless"
    );
    assert!(
        cell(&csv, 2, 1) < cell(&csv, 2, 2),
        "surveillance favours IaaS"
    );
    assert!(cell(&csv, 0, 4) > 100.0, "education p95 shows cold starts");
}

#[test]
fn predictive_placement_ordering() {
    use edgescope::experiments::prediction_study::PredictionStudy;
    let scenario = Scenario::new(Scale::Quick, 103);
    let wl = WorkloadStudy::run(&scenario, 1);
    let study = PredictionStudy::run(&scenario, &wl, 1);
    let r = ext_predictive::run(&scenario, &study);
    let csv = r.tables[0].to_csv();
    let overload = |row| cell(&csv, row, 1);
    assert!(overload(1) <= overload(0), "forecast <= reactive");
    assert!(overload(2) <= overload(1) * 1.05, "oracle bounds forecast");
}

#[test]
fn fragmentation_contrast() {
    let scenario = Scenario::new(Scale::Quick, 104);
    let r = ext_fragmentation::run(&scenario);
    let csv = r.tables[0].to_csv();
    // Azure-sized VMs (row 1) leave less CPU stranded than NEP-sized.
    assert!(cell(&csv, 1, 4) > cell(&csv, 0, 4));
}

#[test]
fn migration_report_runs_on_real_trace() {
    let scenario = Scenario::new(Scale::Quick, 105);
    let study = WorkloadStudy::run(&scenario, 1);
    let r = edgescope::experiments::ext_migration::run(&study);
    assert_eq!(r.id, "ext_migration");
    if let Some(t) = r.tables.first() {
        assert_eq!(t.rows().len(), 5, "five budget rows");
    }
}

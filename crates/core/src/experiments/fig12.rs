//! Fig. 12: weekly-averaged bandwidth of four VMs over the trace — two
//! drifting erratically, two stable.

use super::workload_study::WorkloadStudy;
use crate::report::{kv_csv, ExperimentReport};
use edgescope_analysis::stats::{peak_max, peak_min};
use edgescope_analysis::table::Table;

/// Drift score: max/min of the weekly averages. NaN-propagating peaks, so
/// a poisoned series scores NaN (and is demoted by [`sort_by_drift_desc`])
/// instead of scoring `f64::MIN / 1e-6`.
fn drift_score(weekly: &[f64]) -> f64 {
    peak_max(weekly) / peak_min(weekly).max(1e-6)
}

/// Rank `(vm, drift)` pairs most-drifting first. Uses the IEEE total
/// order with NaN demoted below every real score, so a degenerate score
/// (e.g. a NaN bandwidth sample upstream) lands at the stable end of the
/// ranking instead of panicking the report mid-campaign.
fn sort_by_drift_desc(scored: &mut [(usize, f64)]) {
    let key = |s: f64| if s.is_nan() { f64::NEG_INFINITY } else { s };
    scored.sort_by(|a, b| key(b.1).total_cmp(&key(a.1)));
}

/// Regenerate Fig. 12: pick the two most and two least drifting VMs with
/// non-trivial traffic, and emit their weekly series (each VM's folded
/// weekly means).
pub fn run(study: &WorkloadStudy) -> ExperimentReport {
    let mut report = ExperimentReport::new("fig12", "Weekly-averaged bandwidth of 4 VMs");
    let bw = &study.nep.bw_stats;
    let mut scored: Vec<(usize, f64)> = (0..bw.len())
        .filter(|&i| bw[i].mean > 1.0)
        .map(|i| (i, drift_score(&bw[i].weekly)))
        .collect();
    sort_by_drift_desc(&mut scored);
    assert!(scored.len() >= 4, "too few active VMs ({})", scored.len());
    let picks = [
        scored[0].0,
        scored[1].0,
        scored[scored.len() - 2].0,
        scored[scored.len() - 1].0,
    ];

    let mut t = Table::new(
        "selected VMs",
        &["vm", "kind", "weekly max/min", "mean Mbps"],
    );
    for (k, &i) in picks.iter().enumerate() {
        let w = &bw[i].weekly;
        let kind = if k < 2 { "erratic" } else { "stable" };
        t.row(vec![
            format!("VM-{}", k + 1),
            kind.to_string(),
            format!("{:.1}x", drift_score(w)),
            format!("{:.1}", bw[i].mean),
        ]);
        let rows: Vec<(String, f64)> = w
            .iter()
            .enumerate()
            .map(|(wk, &v)| (format!("{wk}"), v))
            .collect();
        report.csv.push((
            format!("vm{}_weekly_bw", k + 1),
            kv_csv(("week", "mbps"), &rows),
        ));
    }
    report.tables.push(t);
    report.notes.push(
        "paper: for 2 of 4 sampled VMs the weekly-averaged bandwidth varies dramatically and unpredictably".into(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::super::workload_study::WorkloadStudy;
    use super::*;
    use crate::scenario::{Scale, Scenario};

    #[test]
    fn erratic_vms_drift_more_than_stable() {
        let scenario = Scenario::new(Scale::Quick, 18);
        let study = WorkloadStudy::run(&scenario, 1);
        let r = run(&study);
        assert_eq!(r.csv.len(), 4);
        // Row 0 (most erratic) must out-drift row 3 (most stable).
        let parse = |row: usize| -> f64 {
            let rendered = r.tables[0].to_csv();
            let line = rendered.lines().nth(row + 1).unwrap();
            line.split(',')
                .nth(2)
                .unwrap()
                .trim_end_matches('x')
                .parse()
                .unwrap()
        };
        assert!(
            parse(0) > parse(3),
            "erratic {} vs stable {}",
            parse(0),
            parse(3)
        );
    }

    /// Regression: the drift ranking used to `partial_cmp().unwrap()` and
    /// panicked on a NaN score; it must now order NaN deterministically
    /// below every real score.
    #[test]
    fn drift_ranking_tolerates_nan_scores() {
        let mut scored = vec![(0, 2.0), (1, f64::NAN), (2, 8.0), (3, 0.5), (4, f64::NAN)];
        sort_by_drift_desc(&mut scored);
        let order: Vec<usize> = scored.iter().map(|&(i, _)| i).collect();
        assert_eq!(&order[..3], &[2, 0, 3], "real scores descend first");
        assert!(
            scored[3].1.is_nan() && scored[4].1.is_nan(),
            "NaNs sink to the stable end"
        );
    }
}

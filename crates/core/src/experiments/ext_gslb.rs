//! Extension experiment: cross-site request scheduling (§4.3/§5.2).
//!
//! Runs one day of geo-skewed diurnal demand through the four scheduling
//! policies and reports the delay-vs-balance trade-off the paper
//! describes: the nearest-site status quo leaves sites unbalanced;
//! load-blind spreading balances but pays delay; the delay-constrained
//! load-aware policy keeps most of the balance for a few ms.

use crate::report::ExperimentReport;
use crate::scenario::Scenario;
use edgescope_analysis::table::Table;
use edgescope_sched::gslb::{CandidateTable, SchedulingPolicy};
use edgescope_sched::requests::DemandModel;
use edgescope_sched::simulate::simulate_day;
use edgescope_trace::app::AppCategory;

/// The policies compared, in report order.
pub fn policies() -> Vec<SchedulingPolicy> {
    vec![
        SchedulingPolicy::NearestSite,
        SchedulingPolicy::RoundRobinNearest(8),
        SchedulingPolicy::LoadAware(8),
        SchedulingPolicy::DelayConstrained { budget_ms: 5.0 },
    ]
}

/// Run the scheduling study on the scenario's NEP deployment.
pub fn run(scenario: &Scenario) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "ext_gslb",
        "Extension: cross-site request scheduling (delay vs balance)",
    );
    let mut rng = scenario.rng(0x6516);
    let demand = DemandModel::new(&mut rng, AppCategory::LiveStreaming, 120_000.0);
    let table = CandidateTable::gazetteer(&scenario.nep);
    let mut t = Table::new(
        "one simulated day, live-streaming demand",
        &[
            "policy",
            "mean delay ms",
            "p95 delay ms",
            "load CV",
            "overload share",
        ],
    );
    for policy in policies() {
        let mut rng = scenario.rng(0x6517); // same demand draw per policy
        let out = simulate_day(&mut rng, &table, &demand, policy);
        t.row(vec![
            out.policy_label.clone(),
            format!("{:.1}", out.mean_delay_ms),
            format!("{:.1}", out.p95_delay_ms),
            format!("{:.2}", out.load_cv),
            format!("{:.1}%", 100.0 * out.overload_fraction),
        ]);
    }
    report.tables.push(t);
    report.notes.push(
        "paper 4.3: nearest-site scheduling 'often fail[s]' at balance; a load balancer is viable because nearby sites are ms-close (Fig. 4)".into(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scale, Scenario};

    #[test]
    fn gslb_report_shows_tradeoff() {
        let scenario = Scenario::new(Scale::Quick, 30);
        let r = run(&scenario);
        assert_eq!(r.tables[0].rows().len(), 4);
        // Parse the CSV rendering to verify the headline ordering.
        let csv = r.tables[0].to_csv();
        let row = |i: usize| -> Vec<String> {
            csv.lines()
                .nth(i + 1)
                .unwrap()
                .split(',')
                .map(|s| s.to_string())
                .collect()
        };
        let cv = |i: usize| row(i)[3].parse::<f64>().unwrap();
        // Load-aware (row 2) balances better than nearest (row 0).
        assert!(
            cv(2) < cv(0),
            "load-aware CV {} vs nearest {}",
            cv(2),
            cv(0)
        );
    }
}

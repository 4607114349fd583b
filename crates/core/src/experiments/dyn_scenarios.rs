//! Dynamic scenarios: the `dyn_*` experiments driven by [`crate::engine`].
//!
//! Each experiment schedules an [`EventTimeline`] over the standard
//! two-day engine horizon and reports the resulting time series plus
//! the two robustness headline numbers — degraded minutes and recovery
//! time — through its table and the `engine.*` `obs` counters. The
//! scenario catalogue (event windows, affected entities, RNG streams,
//! artefact names) lives in `SCENARIOS.md` at the workspace root, and
//! `tests/docs_sync.rs` keeps that file honest against this registry.
//!
//! Experiment tags (allocation rules in [`crate::scenario`]):
//! `dyn_outage_qoe` `0xd1a0`, `dyn_flashcrowd_admission` `0xd1a1`,
//! `dyn_drain_migration` `0xd1a2`, `dyn_mobility_rtt` `0xd1a3`.

use crate::engine::{self, EngineRun};
use crate::report::ExperimentReport;
use crate::scenario::Scenario;
use edgescope_analysis::cdf::Cdf;
use edgescope_analysis::stats::peak_max;
use edgescope_analysis::table::{xy_csv, Table};
use edgescope_net::fault::{EventKind, EventTimeline, ScheduledEvent};
use edgescope_platform::deployment::Deployment;
use edgescope_platform::geo_china::CITIES;

/// Experiment tag of `dyn_outage_qoe`.
pub const TAG_OUTAGE: u64 = 0xd1a0;
/// Experiment tag of `dyn_flashcrowd_admission`.
pub const TAG_FLASHCROWD: u64 = 0xd1a1;
/// Experiment tag of `dyn_drain_migration`.
pub const TAG_DRAIN: u64 = 0xd1a2;
/// Experiment tag of `dyn_mobility_rtt`.
pub const TAG_MOBILITY: u64 = 0xd1a3;

/// The province with the most sites in the deployment — the natural
/// blast radius for regional events (deterministic for a fixed world).
pub fn densest_province(dep: &Deployment) -> &'static str {
    let mut counts: Vec<(&'static str, usize)> = Vec::new();
    for s in &dep.sites {
        let p = s.province();
        match counts.iter_mut().find(|(name, _)| *name == p) {
            Some((_, n)) => *n += 1,
            None => counts.push((p, 1)),
        }
    }
    counts
        .into_iter()
        .max_by_key(|&(name, n)| (n, std::cmp::Reverse(name)))
        .map(|(name, _)| name)
        .unwrap_or("Guangdong")
}

/// Render the engine time series as the scenario's `timeline` CSV.
fn timeline_csv(run: &EngineRun) -> String {
    let mut out = String::from(
        "minute,demand_rps,served_rps,rejected_rps,mean_rtt_ms,p95_rtt_ms,probe_loss,\
         mean_delay_ms,migrations,active_events,degraded\n",
    );
    for s in &run.steps {
        out.push_str(&format!(
            "{},{:.3},{:.3},{:.3},{:.3},{:.3},{:.4},{:.3},{},{},{}\n",
            s.minute,
            s.demand_rps,
            s.served_rps,
            s.rejected_rps,
            s.mean_rtt_ms,
            s.p95_rtt_ms,
            s.probe_loss,
            s.mean_delay_ms,
            s.migrations,
            s.active_events,
            u8::from(s.degraded),
        ));
    }
    out
}

/// The shared headline table: recovery time, degraded minutes, and the
/// scenario's worst-step extremes.
fn summary_table(title: &str, run: &EngineRun) -> Table {
    let mut t = Table::new(title, &["metric", "value"]);
    t.row(vec![
        "recovery_time_min".into(),
        format!("{}", run.recovery.recovery_time_min),
    ]);
    t.row(vec![
        "degraded_minutes".into(),
        format!("{}", run.recovery.degraded_minutes),
    ]);
    let peak_reject = peak_max(&run.reject_fractions());
    t.row(vec!["peak_reject_frac".into(), format!("{peak_reject:.4}")]);
    let finite_p95s: Vec<f64> = run
        .steps
        .iter()
        .map(|s| s.p95_rtt_ms)
        .filter(|r| r.is_finite())
        .collect();
    let worst_p95 = peak_max(&finite_p95s);
    t.row(vec!["worst_p95_rtt_ms".into(), format!("{worst_p95:.2}")]);
    let migrations: u32 = run.steps.iter().map(|s| s.migrations).sum();
    t.row(vec!["total_migrations".into(), format!("{migrations}")]);
    t
}

/// CDF of a metric across steps, as a plottable `x,cdf` CSV (the header
/// alone when no step has a value).
fn cdf_csv(xs: Vec<f64>, x_label: &str) -> String {
    let points = if xs.is_empty() {
        Vec::new()
    } else {
        Cdf::new(xs).points(64)
    };
    xy_csv((x_label, "cdf"), &points)
}

/// `dyn_outage_qoe`: a severity-1.0 backbone outage takes out the
/// densest province for two evening hours, compounded by a partition
/// cutting it off from Beijing — users and requests must fail over,
/// and demand from deep inside the blast radius is rejected.
pub fn run_outage(scenario: &Scenario) -> ExperimentReport {
    let province = densest_province(&scenario.nep);
    let timeline = EventTimeline {
        events: vec![
            ScheduledEvent {
                kind: EventKind::RegionalOutage {
                    region: province.into(),
                    severity: 1.0,
                },
                start_min: 20 * 60,
                duration_min: 2 * 60,
            },
            ScheduledEvent {
                kind: EventKind::Partition {
                    region_a: province.into(),
                    region_b: "Beijing".into(),
                },
                start_min: 20 * 60,
                duration_min: 2 * 60,
            },
        ],
    };
    let run = engine::run(scenario, &timeline, TAG_OUTAGE);
    let mut r = ExperimentReport::new(
        "dyn_outage_qoe",
        format!("Dynamic: regional backbone outage in {province} (QoE impact)"),
    );
    r.tables
        .push(summary_table("Outage robustness summary", &run));
    r.csv.push(("timeline".into(), timeline_csv(&run)));
    r.csv.push((
        "rtt_cdf".into(),
        cdf_csv(run.finite_mean_rtts(), "mean_rtt_ms"),
    ));
    r.notes.push(format!(
        "outage window 20:00-22:00 day 1, severity 1.0, partitioned from Beijing; \
         {} sites in {province} blackholed",
        scenario.nep.sites_in_province(province).len()
    ));
    r.notes.push(format!(
        "recovery {} min after the event window, {} degraded minutes",
        run.recovery.recovery_time_min, run.recovery.degraded_minutes
    ));
    r
}

/// `dyn_flashcrowd_admission`: a 20x flash crowd exhausts the densest
/// province's sites through an evening peak; admission control sheds
/// the overflow instead of letting queues blow up.
pub fn run_flashcrowd(scenario: &Scenario) -> ExperimentReport {
    let province = densest_province(&scenario.nep);
    let timeline = EventTimeline {
        events: vec![ScheduledEvent {
            kind: EventKind::FlashCrowd {
                region: province.into(),
                demand_factor: 20.0,
            },
            start_min: 19 * 60,
            duration_min: 3 * 60,
        }],
    };
    let run = engine::run(scenario, &timeline, TAG_FLASHCROWD);
    let mut r = ExperimentReport::new(
        "dyn_flashcrowd_admission",
        format!("Dynamic: flash crowd in {province} (admission control)"),
    );
    r.tables
        .push(summary_table("Flash-crowd robustness summary", &run));
    r.csv.push(("timeline".into(), timeline_csv(&run)));
    r.csv.push((
        "reject_cdf".into(),
        cdf_csv(run.reject_fractions(), "reject_frac"),
    ));
    let shed: f64 = run.steps.iter().map(|s| s.rejected_rps).sum();
    r.notes.push(format!(
        "20x demand in {province} 19:00-22:00 day 1; {:.0} rps-steps shed by admission control",
        shed
    ));
    r
}

/// `dyn_drain_migration`: planned maintenance drains every site in the
/// densest province overnight; panel users and load migrate to
/// neighbouring provinces and return when the drain lifts.
pub fn run_drain(scenario: &Scenario) -> ExperimentReport {
    let province = densest_province(&scenario.nep);
    let timeline = EventTimeline {
        events: vec![ScheduledEvent {
            kind: EventKind::MaintenanceDrain {
                region: province.into(),
            },
            start_min: 24 * 60 + 4 * 60,
            duration_min: 4 * 60,
        }],
    };
    let run = engine::run(scenario, &timeline, TAG_DRAIN);
    let mut r = ExperimentReport::new(
        "dyn_drain_migration",
        format!("Dynamic: maintenance drain of {province} (migration)"),
    );
    r.tables
        .push(summary_table("Drain robustness summary", &run));
    r.csv.push(("timeline".into(), timeline_csv(&run)));
    r.csv.push((
        "delay_cdf".into(),
        cdf_csv(
            run.steps.iter().map(|s| s.mean_delay_ms).collect(),
            "mean_delay_ms",
        ),
    ));
    let migrations: u32 = run.steps.iter().map(|s| s.migrations).sum();
    r.notes.push(format!(
        "drain window 04:00-08:00 day 2 over {} sites; {migrations} panel re-homings \
         (out and back)",
        scenario.nep.sites_in_province(province).len()
    ));
    r
}

/// `dyn_mobility_rtt`: half of the probe panel's largest city relocates
/// to Chengdu over a two-hour travel wave. Session stickiness keeps
/// movers pinned to their old home site until a per-user re-homing
/// delay elapses, so RTT inflates transiently and then recovers.
pub fn run_mobility(scenario: &Scenario) -> ExperimentReport {
    // The panel is recruited inside the engine from a fixed stream, so
    // the most-populous gazetteer city is the deterministic, safe pick
    // for the origin (the access mix concentrates users there too).
    let from = CITIES
        .iter()
        .max_by(|a, b| a.population_m.total_cmp(&b.population_m))
        .map(|c| c.name)
        .unwrap_or("Beijing");
    let to = if from == "Chengdu" {
        "Shanghai"
    } else {
        "Chengdu"
    };
    let timeline = EventTimeline {
        events: vec![ScheduledEvent {
            kind: EventKind::Mobility {
                from_city: from.into(),
                to_city: to.into(),
                fraction: 0.5,
            },
            start_min: 24 * 60 + 9 * 60,
            duration_min: 2 * 60,
        }],
    };
    let run = engine::run(scenario, &timeline, TAG_MOBILITY);
    let mut r = ExperimentReport::new(
        "dyn_mobility_rtt",
        format!("Dynamic: user mobility {from} → {to} (RTT re-homing)"),
    );
    r.tables
        .push(summary_table("Mobility robustness summary", &run));
    r.csv.push(("timeline".into(), timeline_csv(&run)));
    r.csv.push((
        "rtt_cdf".into(),
        cdf_csv(run.finite_mean_rtts(), "mean_rtt_ms"),
    ));
    let migrations: u32 = run.steps.iter().map(|s| s.migrations).sum();
    r.notes.push(format!(
        "50% of {from} panel users relocate to {to} at 09:00 day 2; re-homing delays \
         drawn per user from the event stream; {migrations} home-site changes"
    ));
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scale;

    fn quick() -> Scenario {
        Scenario::new(Scale::Quick, 42)
    }

    #[test]
    fn every_dyn_report_has_timeline_and_finite_recovery() {
        let sc = quick();
        for (run, id) in [
            (
                run_outage as fn(&Scenario) -> ExperimentReport,
                "dyn_outage_qoe",
            ),
            (run_flashcrowd, "dyn_flashcrowd_admission"),
            (run_drain, "dyn_drain_migration"),
            (run_mobility, "dyn_mobility_rtt"),
        ] {
            let r = run(&sc);
            assert_eq!(r.id, id);
            assert!(
                r.csv.iter().any(|(n, _)| n == "timeline"),
                "{id} ships its time series"
            );
            let (_, tl) = r.csv.iter().find(|(n, _)| n == "timeline").unwrap();
            assert!(tl.lines().count() > 96, "{id} covers the two-day horizon");
            let rendered = r.tables[0].render();
            assert!(
                rendered.contains("recovery_time_min"),
                "{id} reports recovery"
            );
            assert!(
                rendered.contains("degraded_minutes"),
                "{id} reports degraded minutes"
            );
        }
    }

    #[test]
    fn densest_province_is_deterministic() {
        let sc = quick();
        assert_eq!(densest_province(&sc.nep), densest_province(&sc.nep));
        assert!(!densest_province(&sc.nep).is_empty());
    }

    #[test]
    fn flashcrowd_actually_sheds_load() {
        let r = run_flashcrowd(&quick());
        let rendered = r.tables[0].render();
        // peak_reject_frac row exists; the 20x crowd must push it past
        // the degradation threshold at quick scale.
        assert!(rendered.contains("peak_reject_frac"));
        let (_, tl) = r.csv.iter().find(|(n, _)| n == "timeline").unwrap();
        let any_reject = tl
            .lines()
            .skip(1)
            .filter_map(|l| l.split(',').nth(3)?.parse::<f64>().ok())
            .any(|x| x > 0.0);
        assert!(any_reject, "flash crowd must reject some demand");
    }
}

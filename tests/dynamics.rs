//! Graceful degradation under dynamic events: a mid-campaign regional
//! failure must never panic, always report finite recovery metrics, and
//! conserve demand (served + rejected == offered).

use edgescope::engine::{self, RecoveryMetrics, HORIZON_MIN};
use edgescope::net::fault::{EventKind, EventTimeline, ScheduledEvent};
use edgescope::{Scale, Scenario};

/// The densest province of the deployment — the worst-case blast radius.
fn densest_province(scenario: &Scenario) -> &'static str {
    edgescope::experiments::dyn_scenarios::densest_province(&scenario.nep)
}

fn outage_timeline(province: &str, severity: f64) -> EventTimeline {
    EventTimeline {
        events: vec![ScheduledEvent {
            kind: EventKind::RegionalOutage {
                region: province.into(),
                severity,
            },
            start_min: 10 * 60,
            duration_min: 3 * 60,
        }],
    }
}

#[test]
fn regional_outage_never_panics_and_recovery_is_finite() {
    // Across several seeds and severities — including a total blackhole
    // of the province with the most sites — the engine must complete
    // the horizon and report in-horizon recovery numbers.
    for seed in [1, 42, 0xbad] {
        let scenario = Scenario::new(Scale::Quick, seed);
        let province = densest_province(&scenario);
        for severity in [0.5, 1.0] {
            let run = engine::run(&scenario, &outage_timeline(province, severity), 0xd1a0);
            let RecoveryMetrics {
                degraded_minutes,
                recovery_time_min,
            } = run.recovery;
            assert!(
                recovery_time_min <= HORIZON_MIN,
                "seed {seed} severity {severity}: recovery {recovery_time_min} min \
                 must be finite and in-horizon"
            );
            assert!(degraded_minutes <= HORIZON_MIN);
            for s in &run.steps {
                assert!(s.served_rps >= 0.0 && s.rejected_rps >= 0.0);
                assert!(
                    (s.served_rps + s.rejected_rps - s.demand_rps).abs() < 1e-6,
                    "demand conservation at minute {}",
                    s.minute
                );
                assert!(
                    s.mean_delay_ms.is_finite(),
                    "capped queueing keeps delays finite"
                );
                assert!((0.0..=1.0).contains(&s.probe_loss));
            }
        }
    }
}

#[test]
fn outage_shifts_load_away_from_the_blackholed_province() {
    let scenario = Scenario::new(Scale::Quick, 42);
    let province = densest_province(&scenario);
    let base = engine::run(&scenario, &EventTimeline::default(), 0xd1a0);
    let hit = engine::run(&scenario, &outage_timeline(province, 1.0), 0xd1a0);
    // During the outage window the stormy run either rejects demand
    // (cities stranded inside the blast radius) or pays extra delay for
    // failover — it can never serve *more* cheaply than the quiet run.
    let window = |run: &engine::EngineRun| {
        run.steps
            .iter()
            .filter(|s| (10 * 60..13 * 60).contains(&s.minute))
            .map(|s| (s.rejected_rps, s.mean_delay_ms))
            .collect::<Vec<_>>()
    };
    let impact: f64 = window(&hit)
        .iter()
        .zip(window(&base).iter())
        .map(|((rej_h, del_h), (rej_b, del_b))| (rej_h - rej_b) + (del_h - del_b))
        .sum();
    assert!(
        impact > 0.0,
        "a total outage of {province} must cost rejections or delay (impact {impact})"
    );
    // And the engine recovers once the event ends: the post-event tail
    // has at least one healthy step.
    assert!(
        hit.steps.iter().any(|s| s.minute >= 13 * 60 && !s.degraded),
        "world must heal after the outage lifts"
    );
}

//! The campaign engine: a time-stepped "living platform".
//!
//! The paper measures a static snapshot; this module advances the whole
//! world through simulated days. Each step combines the three substrate
//! layers:
//!
//! * **load** — per-city demand from [`edgescope_sched::requests::DemandModel`]
//!   shaped by the [`edgescope_trace::app::AppCategory`] diurnal profile,
//!   drawn for every city at once by one
//!   [`DemandModel::fill_rates`] call per step;
//! * **placement** — requests routed onto the
//!   [`edgescope_platform::deployment::Deployment`] by
//!   [`CandidateTable::pick`], the one GSLB pick `simulate_day` also
//!   uses, here with a predicate that skips drained, blackholed and
//!   partitioned sites; admission control *rejects* capacity overflow
//!   and cities with no available candidate, never a panic;
//! * **probes** — a fixed panel of virtual users pings its home site
//!   through [`edgescope_net::ping::PingEngine`] each step, through
//!   whatever fault the active events impose.
//!
//! Dynamics come from an [`EventTimeline`]
//! ([`edgescope_net::fault`]): regional outages, partitions, flash
//! crowds, maintenance drains and user mobility, each active on a
//! window of the campaign clock. The engine never mutates the timeline
//! — every step is a deterministic function of `(scenario seed,
//! experiment tag, step index)`, so the `dyn_*` experiments built on
//! top stay byte-identical across `--jobs` worker counts.
//!
//! The timeline is the only input a run varies. The rest is fixed: a
//! two-day horizon ([`HORIZON_MIN`]) in `sched`'s 15-minute steps,
//! live-streaming demand at 20 000 rps peak, the paper's
//! delay-constrained load-aware policy (2 ms budget) over `sched`'s
//! gazetteer candidate table, 600 rps per site, and a 32-user panel
//! sending three pings per step.
//!
//! # RNG streams
//!
//! All randomness derives from `stream_seed(scenario.seed, tag)` split
//! into per-entity streams via [`edgescope_net::rng::entity_tag`]:
//!
//! | domain | index | draws |
//! |---|---|---|
//! | `ENGINE_WORLD` | 0 | demand-model construction |
//! | `ENGINE_WORLD` | 1 | probe-panel recruiting |
//! | `ENGINE_STEP` | step | per-city demand noise, in city order |
//! | `ENGINE_PROBE` | step | panel ping sampling |
//! | `EVENT` | event | per-event draws (mobility moves + re-homing delays) |

use crate::scenario::Scenario;
use edgescope_analysis::stats;
use edgescope_net::fault::{EventKind, EventTimeline};
use edgescope_net::path::{ue_path, TargetClass};
use edgescope_net::ping::PingEngine;
use edgescope_net::rng::{domains, entity_tag, stream_rng};
use edgescope_obs as obs;
use edgescope_platform::geo_china::CITIES;
use edgescope_probe::user::{recruit_one, VirtualUser};
use edgescope_sched::gslb::{CandidateTable, SchedulingPolicy};
use edgescope_sched::requests::DemandModel;
use edgescope_sched::simulate::{queue_factor, INTERVAL_MIN, SERVICE_MS};
use edgescope_trace::app::AppCategory;

/// Scheduling treats a site as blackholed once its outage-composed drop
/// chance reaches this level (severity ≈ 1 regional outage).
const BLACKHOLE_DROP_CHANCE: f64 = 0.999;

/// Simulated horizon of every run: two days, minutes.
pub const HORIZON_MIN: u32 = 2 * 24 * 60;

/// Steps in the horizon.
const N_STEPS: u32 = HORIZON_MIN / INTERVAL_MIN;

/// Application category shaping the diurnal demand curve.
const CATEGORY: AppCategory = AppCategory::LiveStreaming;

/// Total demand at the diurnal peak, requests per second.
const TOTAL_PEAK_RPS: f64 = 20_000.0;

/// Request-routing policy: the paper's delay-constrained load-aware GSLB.
const POLICY: SchedulingPolicy = SchedulingPolicy::DelayConstrained { budget_ms: 2.0 };

/// Per-site service capacity, requests per second.
const SITE_CAPACITY_RPS: f64 = 600.0;

/// Size of the probing panel (virtual users pinging every step).
const PROBE_USERS: usize = 32;

/// Echo probes each panel user sends per step.
const PINGS_PER_PROBE: usize = 3;

/// A step is *degraded* when its panel p95 RTT exceeds this…
const DEGRADED_RTT_MS: f64 = 60.0;

/// …or when its rejected-demand fraction exceeds this.
const DEGRADED_REJECT_FRAC: f64 = 0.02;

/// One step of engine output — a row of the scenario time series.
#[derive(Debug, Clone)]
pub struct StepRecord {
    /// Campaign-clock minute at the start of the step.
    pub minute: u32,
    /// Offered demand, requests per second.
    pub demand_rps: f64,
    /// Demand actually served.
    pub served_rps: f64,
    /// Demand rejected (no available candidate, or capacity overflow).
    pub rejected_rps: f64,
    /// Mean panel RTT over successful probes; infinite when every probe
    /// in the step was lost (region unreachable).
    pub mean_rtt_ms: f64,
    /// Panel p95 RTT (same convention as the mean).
    pub p95_rtt_ms: f64,
    /// Fraction of panel probes lost this step.
    pub probe_loss: f64,
    /// Mean scheduling + queueing delay of served requests, ms.
    pub mean_delay_ms: f64,
    /// Panel users whose home site changed since the previous step.
    pub migrations: u32,
    /// Events active during this step.
    pub active_events: u32,
    /// Whether the step breached a degradation threshold.
    pub degraded: bool,
}

/// Recovery metrics summarizing a run — always finite by construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryMetrics {
    /// Total minutes spent in degraded steps.
    pub degraded_minutes: u32,
    /// Minutes from the end of the last scheduled event to the first
    /// healthy step (0 when the world is healthy at that point; capped
    /// at the remaining horizon when it never recovers in-window).
    pub recovery_time_min: u32,
}

/// Output of one engine run.
#[derive(Debug, Clone)]
pub struct EngineRun {
    /// The per-step time series.
    pub steps: Vec<StepRecord>,
    /// Degraded-minutes and recovery-time summary.
    pub recovery: RecoveryMetrics,
}

impl EngineRun {
    /// Per-step mean RTTs with at least one successful probe.
    pub fn finite_mean_rtts(&self) -> Vec<f64> {
        self.steps
            .iter()
            .map(|s| s.mean_rtt_ms)
            .filter(|r| r.is_finite())
            .collect()
    }

    /// Per-step rejected-demand fractions.
    pub fn reject_fractions(&self) -> Vec<f64> {
        self.steps
            .iter()
            .map(|s| {
                if s.demand_rps > 0.0 {
                    s.rejected_rps / s.demand_rps
                } else {
                    0.0
                }
            })
            .collect()
    }
}

/// A mobility relocation resolved at engine start: panel user
/// `user_idx` moves at `move_min` and keeps probing the old home site
/// until `rehome_min` (session stickiness), producing the transient RTT
/// inflation the `dyn_mobility_rtt` experiment measures.
#[derive(Debug, Clone)]
struct PlannedMove {
    user_idx: usize,
    to_city: usize,
    move_min: u32,
    rehome_min: u32,
}

/// Resolve every [`EventKind::Mobility`] event against the panel using
/// the event's own RNG stream (`domains::EVENT`, event index), so
/// adding events never perturbs other draws.
fn plan_moves(
    engine_seed: u64,
    timeline: &EventTimeline,
    panel: &[VirtualUser],
) -> Vec<PlannedMove> {
    use rand::Rng;
    let mut moves = Vec::new();
    for (ev_idx, ev) in timeline.events.iter().enumerate() {
        let EventKind::Mobility {
            from_city,
            to_city,
            fraction,
        } = &ev.kind
        else {
            continue;
        };
        let Some(to_idx) = CITIES.iter().position(|c| c.name == *to_city) else {
            continue;
        };
        let mut rng = stream_rng(engine_seed, entity_tag(domains::EVENT, ev_idx));
        for (user_idx, u) in panel.iter().enumerate() {
            if u.city.name != *from_city {
                continue;
            }
            // One decision draw and one delay draw per candidate user,
            // in panel order — deterministic for a fixed timeline.
            let decides = rng.gen::<f64>() < *fraction;
            let delay = rng.gen_range(0..=ev.duration_min);
            if decides {
                moves.push(PlannedMove {
                    user_idx,
                    to_city: to_idx,
                    move_min: ev.start_min,
                    rehome_min: ev.start_min.saturating_add(delay),
                });
            }
        }
    }
    moves
}

/// Run the engine on `scenario.nep` through `timeline` with
/// per-experiment `tag` (the same tag-allocation rules as
/// [`Scenario::rng`]; see `SCENARIOS.md` for the allocated `dyn_*`
/// tags).
pub fn run(scenario: &Scenario, timeline: &EventTimeline, tag: u64) -> EngineRun {
    let engine_seed = scenario.stream_seed(tag);
    let dep = &scenario.nep;

    // World construction: demand model and probe panel, each on its own
    // ENGINE_WORLD stream.
    let mut world_rng = stream_rng(engine_seed, entity_tag(domains::ENGINE_WORLD, 0));
    let demand = DemandModel::new(&mut world_rng, CATEGORY, TOTAL_PEAK_RPS);
    let mut panel_rng = stream_rng(engine_seed, entity_tag(domains::ENGINE_WORLD, 1));
    let panel: Vec<VirtualUser> = (0..PROBE_USERS)
        .map(|_| recruit_one(&mut panel_rng))
        .collect();
    let moves = plan_moves(engine_seed, timeline, &panel);

    let table = CandidateTable::gazetteer(dep);
    let n_sites = dep.n_sites();
    let site_province: Vec<&'static str> = dep.sites.iter().map(|s| s.province()).collect();

    let mut rr_state = vec![0usize; CITIES.len()];
    let mut rates = vec![0.0f64; CITIES.len()];
    let mut prev_home: Vec<Option<usize>> = vec![None; panel.len()];
    let mut steps = Vec::with_capacity(N_STEPS as usize);
    let mut seen_events: Vec<bool> = vec![false; timeline.events.len()];

    for step in 0..N_STEPS {
        let minute = step * INTERVAL_MIN;
        let hour = f64::from(minute % (24 * 60)) / 60.0;
        let active = timeline.active_at(minute);
        for &i in &active {
            if !seen_events[i] {
                seen_events[i] = true;
                obs::counter_inc("engine.events_activated");
            }
        }

        // A site is schedulable unless drained or blackholed by an
        // outage; partitions additionally cut specific (user region,
        // site region) pairs.
        let site_up: Vec<bool> = (0..n_sites)
            .map(|s| {
                !timeline.drained(site_province[s], minute)
                    && timeline
                        .fault_for_region(site_province[s], minute)
                        .drop_chance
                        < BLACKHOLE_DROP_CHANCE
            })
            .collect();

        // --- load & placement ---
        let mut step_rng = stream_rng(engine_seed, entity_tag(domains::ENGINE_STEP, step as usize));
        let mut loads = vec![0.0f64; n_sites];
        let mut demand_rps = 0.0;
        let mut unroutable = 0.0;
        let mut extra_delay_weighted = 0.0;
        // The loop below draws nothing, so every city's noise can come
        // first without moving the stream.
        demand.fill_rates(&mut step_rng, hour, &mut rates);
        for (city_idx, city) in CITIES.iter().enumerate() {
            let rate = rates[city_idx] * timeline.demand_factor(city.province, minute);
            if rate <= 0.0 {
                continue;
            }
            demand_rps += rate;
            let pick = table.pick(POLICY, city_idx, &loads, &mut rr_state, |s| {
                site_up[s] && !timeline.partitioned(city.province, site_province[s], minute)
            });
            match pick {
                Some((site, extra_ms)) => {
                    loads[site] += rate;
                    extra_delay_weighted += extra_ms * rate;
                }
                None => unroutable += rate,
            }
        }
        // Admission control: per-site overflow beyond capacity is
        // rejected (graceful degradation — overload never panics).
        let overflow: f64 = loads.iter().map(|l| (l - SITE_CAPACITY_RPS).max(0.0)).sum();
        let rejected_rps = unroutable + overflow;
        let served_rps = (demand_rps - rejected_rps).max(0.0);
        // Mean delay of served requests: base service time + queueing
        // inflation (capped M/M/1) + scheduling extra one-way delay.
        let mut queue_weighted = 0.0;
        for &l in &loads {
            if l > 0.0 {
                let rho = (l / SITE_CAPACITY_RPS).min(1.5);
                queue_weighted += SERVICE_MS * queue_factor(rho) * l.min(SITE_CAPACITY_RPS);
            }
        }
        let mean_delay_ms = if served_rps > 0.0 {
            (queue_weighted + extra_delay_weighted) / served_rps
        } else {
            SERVICE_MS
        };

        // --- probes ---
        let mut probe_rng = stream_rng(
            engine_seed,
            entity_tag(domains::ENGINE_PROBE, step as usize),
        );
        let mut rtts: Vec<f64> = Vec::with_capacity(panel.len());
        let mut sent = 0usize;
        let mut lost = 0usize;
        let mut migrations = 0u32;
        for (user_idx, user) in panel.iter().enumerate() {
            // Current location: moved users live in their destination
            // city from move_min on.
            let mv = moves
                .iter()
                .filter(|m| m.user_idx == user_idx && minute >= m.move_min)
                .max_by_key(|m| m.move_min);
            let (geo, home_province) = match mv {
                Some(m) => (CITIES[m.to_city].geo(), CITIES[m.to_city].province),
                None => (user.geo, user.city.province),
            };
            // Home site: nearest schedulable site — except session
            // stickiness keeps freshly-moved users on the old home
            // until their re-homing delay elapses.
            let sticky = mv.is_some_and(|m| minute < m.rehome_min);
            let target_geo = if sticky { user.geo } else { geo };
            let home = dep
                .nearest_sites(target_geo, dep.n_sites())
                .into_iter()
                .find(|(s, _)| {
                    site_up[*s] && !timeline.partitioned(home_province, site_province[*s], minute)
                });
            if prev_home[user_idx].is_some() && prev_home[user_idx] != home.map(|(s, _)| s) {
                migrations += 1;
                obs::counter_inc("engine.migrations");
            }
            prev_home[user_idx] = home.map(|(s, _)| s);
            let Some((site, _)) = home else {
                // No reachable site at all: the user's probes are lost.
                sent += PINGS_PER_PROBE;
                lost += PINGS_PER_PROBE;
                continue;
            };
            let dist = geo.distance_km(&dep.sites[site].geo());
            let path = ue_path(&mut probe_rng, user.access, dist, TargetClass::EdgeSite);
            let fault = timeline.fault_for_region(site_province[site], minute);
            let stats = PingEngine::with_fault(fault).probe(&mut probe_rng, &path, PINGS_PER_PROBE);
            sent += stats.sent();
            lost += (stats.loss_rate() * stats.sent() as f64).round() as usize;
            if let Some(m) = stats.mean_rtt_ms() {
                rtts.push(m);
            }
        }
        let probe_loss = if sent > 0 {
            lost as f64 / sent as f64
        } else {
            1.0
        };
        let (mean_rtt_ms, p95_rtt_ms) = if rtts.is_empty() {
            (f64::INFINITY, f64::INFINITY)
        } else {
            // Nearest-rank P95, selected only after the mean has summed
            // the RTTs in user order.
            let mean = stats::mean(&rtts);
            let rank = ((rtts.len() as f64 * 0.95).ceil() as usize - 1).min(rtts.len() - 1);
            (mean, stats::select(&mut rtts, rank))
        };

        let reject_frac = if demand_rps > 0.0 {
            rejected_rps / demand_rps
        } else {
            0.0
        };
        let degraded = p95_rtt_ms > DEGRADED_RTT_MS || reject_frac > DEGRADED_REJECT_FRAC;
        obs::counter_inc("engine.steps_run");
        if degraded {
            obs::counter_inc("engine.steps_degraded");
            obs::counter_add("engine.degraded_minutes", u64::from(INTERVAL_MIN));
        }
        obs::counter_add("engine.requests_rejected", rejected_rps.round() as u64);

        steps.push(StepRecord {
            minute,
            demand_rps,
            served_rps,
            rejected_rps,
            mean_rtt_ms,
            p95_rtt_ms,
            probe_loss,
            mean_delay_ms,
            migrations,
            active_events: active.len() as u32,
            degraded,
        });
    }

    let recovery = recovery_metrics(&steps, timeline);
    obs::counter_add(
        "engine.recovery_time_min",
        u64::from(recovery.recovery_time_min),
    );
    EngineRun { steps, recovery }
}

/// Compute [`RecoveryMetrics`] from a finished time series. Recovery is
/// measured from the end of the *last* scheduled event: the gap until
/// the first non-degraded step, capped at the remaining horizon so the
/// result is always finite even when the world never heals in-window.
fn recovery_metrics(steps: &[StepRecord], timeline: &EventTimeline) -> RecoveryMetrics {
    let degraded_minutes = steps.iter().filter(|s| s.degraded).count() as u32 * INTERVAL_MIN;
    let last_end = timeline.last_event_end_min();
    let recovery_time_min = steps
        .iter()
        .filter(|s| s.minute >= last_end)
        .find(|s| !s.degraded)
        .map(|s| s.minute - last_end)
        .unwrap_or_else(|| HORIZON_MIN.saturating_sub(last_end));
    RecoveryMetrics {
        degraded_minutes,
        recovery_time_min,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scale;
    use edgescope_net::fault::ScheduledEvent;
    use edgescope_platform::deployment::Deployment;

    fn quick() -> Scenario {
        Scenario::new(Scale::Quick, 42)
    }

    fn biggest_province(dep: &Deployment) -> &'static str {
        let mut best = ("", 0usize);
        for s in &dep.sites {
            let p = s.province();
            let n = dep.sites_in_province(p).len();
            if n > best.1 {
                best = (p, n);
            }
        }
        best.0
    }

    #[test]
    fn static_world_runs_and_is_healthy() {
        let sc = quick();
        let run = super::run(&sc, &EventTimeline::default(), 0x7e57_0001);
        assert_eq!(run.steps.len(), N_STEPS as usize);
        assert_eq!(
            run.recovery.recovery_time_min, 0,
            "no events, healthy at minute 0"
        );
        assert!(run.steps.iter().all(|s| s.demand_rps >= s.served_rps));
        assert!(run.steps.iter().all(|s| s.mean_delay_ms.is_finite()));
        // Demand follows the diurnal curve: evening beats early morning.
        let at = |m: u32| run.steps.iter().find(|s| s.minute == m).unwrap().demand_rps;
        assert!(at(21 * 60) > at(5 * 60));
    }

    #[test]
    fn total_outage_never_panics_and_recovery_is_finite() {
        let sc = quick();
        let province = biggest_province(&sc.nep);
        let timeline = EventTimeline {
            events: vec![ScheduledEvent {
                kind: EventKind::RegionalOutage {
                    region: province.into(),
                    severity: 1.0,
                },
                start_min: 6 * 60,
                duration_min: 4 * 60,
            }],
        };
        let run = super::run(&sc, &timeline, 0x7e57_0002);
        assert!(
            run.recovery.recovery_time_min <= HORIZON_MIN,
            "finite, in-horizon"
        );
        assert!(run.recovery.degraded_minutes <= HORIZON_MIN);
        assert!(run
            .steps
            .iter()
            .all(|s| s.rejected_rps >= 0.0 && s.served_rps >= 0.0));
        // During the outage the affected sites take no load, so either
        // rejections or failover (never a panic) absorb the demand.
        let during = run.steps.iter().find(|s| s.minute == 6 * 60).unwrap();
        assert!(during.active_events >= 1);
    }

    #[test]
    fn identical_inputs_give_identical_runs() {
        let sc = quick();
        let timeline = EventTimeline {
            events: vec![ScheduledEvent {
                kind: EventKind::FlashCrowd {
                    region: "Guangdong".into(),
                    demand_factor: 5.0,
                },
                start_min: 60,
                duration_min: 120,
            }],
        };
        let a = super::run(&sc, &timeline, 0x7e57_0003);
        let b = super::run(&sc, &timeline, 0x7e57_0003);
        assert_eq!(a.steps.len(), b.steps.len());
        for (x, y) in a.steps.iter().zip(&b.steps) {
            assert_eq!(x.demand_rps.to_bits(), y.demand_rps.to_bits());
            assert_eq!(x.mean_rtt_ms.to_bits(), y.mean_rtt_ms.to_bits());
            assert_eq!(x.migrations, y.migrations);
        }
        assert_eq!(a.recovery, b.recovery);
    }

    #[test]
    fn flash_crowd_rejects_and_drain_migrates() {
        let sc = quick();
        let tag = 0x7e57_0004;
        let province = biggest_province(&sc.nep);
        // Drain the province actually hosting panel user 0's home site,
        // so at least one re-homing is guaranteed. The panel derivation
        // below mirrors the engine's own ENGINE_WORLD stream.
        let engine_seed = sc.stream_seed(tag);
        let mut panel_rng = stream_rng(engine_seed, entity_tag(domains::ENGINE_WORLD, 1));
        let user0 = recruit_one(&mut panel_rng);
        let (home, _) = sc.nep.nearest_sites(user0.geo, 1)[0];
        let home_province = sc.nep.sites[home].province();
        let timeline = EventTimeline {
            events: vec![
                ScheduledEvent {
                    kind: EventKind::FlashCrowd {
                        region: province.into(),
                        demand_factor: 30.0,
                    },
                    start_min: 19 * 60,
                    duration_min: 2 * 60,
                },
                ScheduledEvent {
                    kind: EventKind::MaintenanceDrain {
                        region: home_province.into(),
                    },
                    start_min: 4 * 60,
                    duration_min: 2 * 60,
                },
            ],
        };
        let run = super::run(&sc, &timeline, tag);
        let crowd_reject: f64 = run
            .steps
            .iter()
            .filter(|s| (19 * 60..21 * 60).contains(&s.minute))
            .map(|s| s.rejected_rps)
            .sum();
        assert!(
            crowd_reject > 0.0,
            "a 30x flash crowd must exceed regional capacity"
        );
        // Drain forces at least one home-site change across its window
        // edges (users leave the drained sites, then return).
        let migrations: u32 = run.steps.iter().map(|s| s.migrations).sum();
        assert!(migrations > 0, "drain must re-home panel users");
    }
}

//! Fault injection, in the spirit of smoltcp's example knobs.
//!
//! A [`FaultInjector`] perturbs probe traffic: extra drop chance and jitter
//! amplification. Experiments use the default
//! (no faults); robustness tests crank these up to verify the measurement
//! pipeline degrades gracefully instead of panicking or biasing results.
//!
//! For *dynamic* scenarios the injector generalizes into an
//! [`EventTimeline`]: a schedule of [`ScheduledEvent`]s (regional
//! outages, partitions, flash crowds, maintenance drains, user
//! mobility) that the campaign engine (`core::engine`) queries at each
//! simulated minute. Regions and cities are plain strings here because
//! `net` sits below `platform` in the dependency order — callers match
//! them against `Site::province()` / `City::name` themselves.

use rand::Rng;

/// Fault-injection configuration applied on top of a path's own behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultInjector {
    /// Extra probability that any probe is dropped outright.
    pub drop_chance: f64,
    /// Multiplier applied to sampled jitter deviations (1.0 = unchanged).
    pub jitter_scale: f64,
}

impl FaultInjector {
    /// No faults — the configuration used by all paper experiments.
    pub fn none() -> Self {
        FaultInjector {
            drop_chance: 0.0,
            jitter_scale: 1.0,
        }
    }

    /// A moderately hostile network, handy in tests: 5 % extra drops and
    /// doubled jitter.
    pub fn hostile() -> Self {
        FaultInjector {
            drop_chance: 0.05,
            jitter_scale: 2.0,
        }
    }

    /// Whether a probe should be dropped by the injector.
    pub fn drops(&self, rng: &mut impl Rng) -> bool {
        self.drop_chance > 0.0 && rng.gen::<f64>() < self.drop_chance
    }

    /// Apply jitter amplification to a sampled RTT around its mean.
    pub fn amplify_jitter(&self, mean_ms: f64, sampled_ms: f64) -> f64 {
        (mean_ms + (sampled_ms - mean_ms) * self.jitter_scale).max(0.05)
    }

    /// Combine two injectors: drop probabilities compose as independent
    /// events (`1 - (1-a)(1-b)`) and jitter scales multiply.
    /// Used by [`EventTimeline::fault_for_region`] when several events
    /// overlap the same region at the same minute.
    pub fn compose(&self, other: &FaultInjector) -> FaultInjector {
        FaultInjector {
            drop_chance: 1.0 - (1.0 - self.drop_chance) * (1.0 - other.drop_chance),
            jitter_scale: self.jitter_scale * other.jitter_scale,
        }
    }
}

impl Default for FaultInjector {
    fn default() -> Self {
        Self::none()
    }
}

/// What a scheduled event does to the world while it is active.
///
/// Regions are province names (matched against `Site::province()`),
/// cities are gazetteer city names — kept as `String`s because `net`
/// cannot depend on `platform`.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A regional backbone degradation: probes into `region` suffer
    /// extra drops and amplified jitter scaled by `severity` in `[0,1]`
    /// (1.0 ≈ the region is unreachable).
    RegionalOutage {
        /// Affected province.
        region: String,
        /// Degradation strength in `[0, 1]`.
        severity: f64,
    },
    /// A network partition: traffic *between* `region_a` and `region_b`
    /// is blackholed; traffic within each side is unaffected.
    Partition {
        /// One side of the cut.
        region_a: String,
        /// The other side.
        region_b: String,
    },
    /// A flash crowd: demand originating in `region` is multiplied by
    /// `demand_factor` (> 1), typically exhausting the province's sites.
    FlashCrowd {
        /// Province whose demand spikes.
        region: String,
        /// Multiplier applied to the region's request rate.
        demand_factor: f64,
    },
    /// Planned maintenance: every site in `region` is drained — it
    /// accepts no traffic and its load must migrate elsewhere.
    MaintenanceDrain {
        /// Province whose sites are drained.
        region: String,
    },
    /// A fraction of users relocate from one city to another (e.g. a
    /// holiday travel wave) and must be re-homed onto nearer sites.
    Mobility {
        /// City users leave.
        from_city: String,
        /// City users arrive in.
        to_city: String,
        /// Fraction of `from_city`'s panel that moves, in `[0, 1]`.
        fraction: f64,
    },
}

/// An [`EventKind`] pinned to a window on the campaign clock
/// (minutes since the start of the simulated campaign).
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledEvent {
    /// What happens.
    pub kind: EventKind,
    /// First minute (inclusive) the event is active.
    pub start_min: u32,
    /// How long it lasts; the event is active on `[start, start+duration)`.
    pub duration_min: u32,
}

impl ScheduledEvent {
    /// First minute the event is *no longer* active.
    pub fn end_min(&self) -> u32 {
        self.start_min.saturating_add(self.duration_min)
    }

    /// Whether the event is active at `minute`.
    pub fn active_at(&self, minute: u32) -> bool {
        minute >= self.start_min && minute < self.end_min()
    }
}

/// A schedule of [`ScheduledEvent`]s driving a dynamic scenario.
///
/// The timeline is pure data: every query is a deterministic function
/// of `(events, minute)`, so the engine can re-evaluate it from any
/// worker thread without breaking the `--jobs` byte-identity gate.
/// Per-event randomness (e.g. mobility re-homing delays) is *not*
/// stored here — the engine derives it from
/// `stream_rng(seed, entity_tag(domains::EVENT, event_index))`. The
/// default timeline is empty: a static world, the paper's configuration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventTimeline {
    /// The scheduled events, in no particular order.
    pub events: Vec<ScheduledEvent>,
}

impl EventTimeline {
    /// Indices of events active at `minute`.
    pub fn active_at(&self, minute: u32) -> Vec<usize> {
        self.events
            .iter()
            .enumerate()
            .filter(|(_, e)| e.active_at(minute))
            .map(|(i, _)| i)
            .collect()
    }

    /// The network fault seen by probes targeting `region` at `minute`:
    /// the composition of every active [`EventKind::RegionalOutage`]
    /// covering that region. Severity `s` maps to `s` drop chance and
    /// `1 + 3s` jitter amplification, so `severity = 1.0` blackholes the
    /// region outright.
    pub fn fault_for_region(&self, region: &str, minute: u32) -> FaultInjector {
        let mut fault = FaultInjector::none();
        for e in self.events.iter().filter(|e| e.active_at(minute)) {
            if let EventKind::RegionalOutage {
                region: r,
                severity,
            } = &e.kind
            {
                if r == region {
                    let s = severity.clamp(0.0, 1.0);
                    fault = fault.compose(&FaultInjector {
                        drop_chance: s,
                        jitter_scale: 1.0 + 3.0 * s,
                    });
                }
            }
        }
        fault
    }

    /// Demand multiplier for requests originating in `region` at
    /// `minute` (product of all active flash crowds there; 1.0 when
    /// none are active).
    pub fn demand_factor(&self, region: &str, minute: u32) -> f64 {
        self.events
            .iter()
            .filter(|e| e.active_at(minute))
            .filter_map(|e| match &e.kind {
                EventKind::FlashCrowd {
                    region: r,
                    demand_factor,
                } if r == region => Some(*demand_factor),
                _ => None,
            })
            .product()
    }

    /// Whether every site in `region` is drained at `minute`.
    pub fn drained(&self, region: &str, minute: u32) -> bool {
        self.events
            .iter()
            .filter(|e| e.active_at(minute))
            .any(|e| matches!(&e.kind, EventKind::MaintenanceDrain { region: r } if r == region))
    }

    /// Whether traffic between `region_a` and `region_b` is cut by an
    /// active partition at `minute` (order-insensitive).
    pub fn partitioned(&self, region_a: &str, region_b: &str, minute: u32) -> bool {
        self.events.iter().filter(|e| e.active_at(minute)).any(|e| {
            matches!(&e.kind, EventKind::Partition { region_a: a, region_b: b }
                if (a == region_a && b == region_b) || (a == region_b && b == region_a))
        })
    }

    /// The last minute at which any event ends (0 for an empty
    /// timeline). Recovery-time metrics measure from this point.
    pub fn last_event_end_min(&self) -> u32 {
        self.events
            .iter()
            .map(ScheduledEvent::end_min)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn none_never_drops() {
        let f = FaultInjector::none();
        let mut rng = StdRng::seed_from_u64(1);
        assert!((0..1000).all(|_| !f.drops(&mut rng)));
    }

    #[test]
    fn hostile_drops_sometimes() {
        let f = FaultInjector::hostile();
        let mut rng = StdRng::seed_from_u64(2);
        let drops = (0..10_000).filter(|_| f.drops(&mut rng)).count();
        assert!((300..700).contains(&drops), "drops {drops}");
    }

    #[test]
    fn jitter_amplification_doubles_deviation() {
        let f = FaultInjector {
            jitter_scale: 2.0,
            ..FaultInjector::none()
        };
        assert_eq!(f.amplify_jitter(10.0, 11.0), 12.0);
        assert_eq!(f.amplify_jitter(10.0, 9.0), 8.0);
    }

    #[test]
    fn jitter_floor_keeps_rtt_positive() {
        let f = FaultInjector {
            jitter_scale: 100.0,
            ..FaultInjector::none()
        };
        assert!(f.amplify_jitter(1.0, 0.5) > 0.0);
    }

    #[test]
    fn compose_is_commutative_and_bounded() {
        let a = FaultInjector {
            drop_chance: 0.5,
            jitter_scale: 2.0,
        };
        let b = FaultInjector {
            drop_chance: 0.5,
            jitter_scale: 1.5,
        };
        let ab = a.compose(&b);
        let ba = b.compose(&a);
        assert!((ab.drop_chance - 0.75).abs() < 1e-12);
        assert_eq!(ab.jitter_scale, 3.0);
        assert_eq!(ab, ba);
        // Identity: composing with none() changes nothing.
        assert_eq!(a.compose(&FaultInjector::none()), a);
        // Drop chance never exceeds 1.
        let full = FaultInjector {
            drop_chance: 1.0,
            ..FaultInjector::none()
        };
        assert!(full.compose(&a).drop_chance <= 1.0);
    }

    fn outage(region: &str, severity: f64, start: u32, dur: u32) -> ScheduledEvent {
        ScheduledEvent {
            kind: EventKind::RegionalOutage {
                region: region.into(),
                severity,
            },
            start_min: start,
            duration_min: dur,
        }
    }

    #[test]
    fn event_window_is_half_open() {
        let e = outage("Guangdong", 0.8, 100, 60);
        assert!(!e.active_at(99));
        assert!(e.active_at(100));
        assert!(e.active_at(159));
        assert!(!e.active_at(160));
        assert_eq!(e.end_min(), 160);
    }

    #[test]
    fn timeline_composes_overlapping_outages() {
        let t = EventTimeline {
            events: vec![
                outage("Guangdong", 0.5, 0, 100),
                outage("Guangdong", 0.5, 50, 100),
            ],
        };
        // Only the first event at minute 10.
        assert!((t.fault_for_region("Guangdong", 10).drop_chance - 0.5).abs() < 1e-12);
        // Both overlap at minute 60: 1 - 0.5*0.5 = 0.75.
        assert!((t.fault_for_region("Guangdong", 60).drop_chance - 0.75).abs() < 1e-12);
        // Other regions and quiet minutes see no fault.
        assert_eq!(t.fault_for_region("Beijing", 60), FaultInjector::none());
        assert_eq!(t.fault_for_region("Guangdong", 200), FaultInjector::none());
        assert_eq!(t.active_at(60), vec![0, 1]);
        assert_eq!(t.last_event_end_min(), 150);
    }

    #[test]
    fn flash_crowd_drain_and_partition_queries() {
        let t = EventTimeline {
            events: vec![
                ScheduledEvent {
                    kind: EventKind::FlashCrowd {
                        region: "Zhejiang".into(),
                        demand_factor: 4.0,
                    },
                    start_min: 60,
                    duration_min: 120,
                },
                ScheduledEvent {
                    kind: EventKind::MaintenanceDrain {
                        region: "Beijing".into(),
                    },
                    start_min: 0,
                    duration_min: 30,
                },
                ScheduledEvent {
                    kind: EventKind::Partition {
                        region_a: "Beijing".into(),
                        region_b: "Guangdong".into(),
                    },
                    start_min: 10,
                    duration_min: 10,
                },
            ],
        };
        assert_eq!(t.demand_factor("Zhejiang", 59), 1.0);
        assert_eq!(t.demand_factor("Zhejiang", 60), 4.0);
        assert_eq!(t.demand_factor("Guangdong", 60), 1.0);
        assert!(t.drained("Beijing", 0));
        assert!(!t.drained("Beijing", 30));
        assert!(t.partitioned("Beijing", "Guangdong", 15));
        assert!(
            t.partitioned("Guangdong", "Beijing", 15),
            "order-insensitive"
        );
        assert!(!t.partitioned("Beijing", "Guangdong", 25));
        assert!(!t.partitioned("Beijing", "Zhejiang", 15));
    }

    #[test]
    fn empty_timeline_is_inert() {
        let t = EventTimeline::default();
        assert_eq!(t.fault_for_region("Anywhere", 0), FaultInjector::none());
        assert_eq!(t.demand_factor("Anywhere", 0), 1.0);
        assert!(!t.drained("Anywhere", 0));
        assert_eq!(t.last_event_end_min(), 0);
        assert!(t.active_at(0).is_empty());
    }
}

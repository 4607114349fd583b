#![warn(missing_docs)]
//! # edgescope-sched
//!
//! The paper's §5 future-work systems, implemented and evaluated:
//!
//! * [`requests`] — an end-user demand model: per-city request rates
//!   following the app categories' diurnal profiles, with the geo-skew
//!   §4.1 observes, drawn for every city at once per interval;
//! * [`gslb`] — cross-site request scheduling (§5.2 "Cross-sites traffic
//!   scheduling"): the status-quo nearest-site policy, round-robin over
//!   the k nearest, classic load-aware GSLB, and the delay-constrained
//!   load-aware policy the paper argues for ("a load balancer is useful
//!   in edge platforms as the network delay between nearby edge sites are
//!   already small", §4.3);
//! * [`simulate`] — a discrete-time simulator scoring a scheduling policy
//!   on the delay-vs-balance trade-off;
//! * [`migration`] — threshold-triggered cross-site VM migration with the
//!   §5.2 cost model (downtime = VM memory / inter-site bandwidth, plus
//!   QoS impact during copy);
//! * [`elastic`] — serverless/FaaS vs. peak-provisioned IaaS (§5.2
//!   "Decomposing edge services"): cold-start-afflicted per-request
//!   functions against always-on VMs, on cost and tail latency;
//! * [`predictive`] — forecast-guided VM placement (§4.4's implication:
//!   "knowing the future CPU usage can guide VM allocation and
//!   migration, thus help avoid server malfunction or even crash"):
//!   reactive vs. Holt-Winters vs. oracle placement under diurnal,
//!   phase-shifted site loads;
//! * [`colocate`] — the documented sales-ratio policy vs a
//!   contention-aware variant, scored under the multi-tenant
//!   CPU-steal/bandwidth-sharing model of
//!   `edgescope_platform::contention`.
//!
//! ## Implemented vs. omitted
//! These are evaluation models at the same altitude as the paper's own
//! what-if discussion — request-level queueing (M/M/1-style latency
//! inflation under load) rather than packet-level simulation; migration
//! as pre-copy with a constant dirty-page factor; serverless cold starts
//! as a fixed distribution. Omitted: live-migration page-fault dynamics
//! and function snapshotting internals — no §5 claim depends on them.

pub mod colocate;
pub mod elastic;
pub mod gslb;
pub mod migration;
pub mod predictive;
pub mod requests;
pub mod simulate;

pub use colocate::{colocation_study, ColocationConfig, ColocationOutcome};
pub use elastic::ElasticOutcome;
pub use gslb::SchedulingPolicy;
pub use migration::MigrationOutcome;
pub use predictive::{placement_outcomes, placement_study, ForecastPolicy, PredictiveOutcome};
pub use requests::DemandModel;
pub use simulate::{simulate_day, SimOutcome};

#![warn(missing_docs)]
//! # edgescope-net
//!
//! Geo-network simulator standing in for the Chinese Internet between user
//! equipment (UE), NEP edge sites, and cloud regions in the IMC'21 paper
//! *"From Cloud to Edge"*.
//!
//! The paper's §3 findings are entirely expressed in terms of: per-hop
//! round-trip latencies and their shares (Table 2), hop counts (Fig. 3),
//! RTT means and coefficients of variation across 30-probe runs (Fig. 2),
//! inter-site RTT as a function of geographic distance (Fig. 4), and TCP
//! throughput as bounded by the last-mile capacity vs. the loss/RTT-limited
//! Internet segment (Fig. 5). This crate models exactly those quantities:
//!
//! * [`geo`] — WGS-84 points and haversine distances;
//! * [`access`] — access-network models (WiFi / LTE / 5G / wired): first-hop
//!   latency structure and last-mile capacity distributions;
//! * [`path`] — hop-level path construction between a UE (city + access
//!   network) and a datacenter, or between two datacenters, with per-hop
//!   one-way delay and jitter parameters calibrated to Table 2 / Figs. 3–4;
//! * [`ping`] — the ICMP-echo engine (30-probe runs, loss, RTT samples);
//! * [`tcp`] — a Mathis-model TCP throughput engine plus a 15-second iperf3
//!   simulation with slow-start ramp;
//! * [`fault`] — smoltcp-style fault injection (drop chance, jitter
//!   amplification).
//!
//! ## Implemented vs. omitted
//! Implemented: everything §3 measures. Omitted (deliberately): byte-level
//! packet formats, checksums, retransmission state machines — the unit of
//! observation in the paper is the per-probe summary statistic, which this
//! simulator produces directly; a full TCP state machine would change no
//! reported number.
//!
//! All stochastic APIs take `&mut impl Rng`; seeding is the caller's
//! responsibility and identical seeds give identical results.
//!
//! ## Observability
//! The hot paths report to `edgescope-obs` scoped metrics when a scope
//! is active (counters `net.probes_sent`, `net.probes_lost_path`,
//! `net.probes_dropped_fault`, `net.iperf_runs` and the `net.rtt_ms`
//! histogram); the instrumentation draws no randomness and is a no-op
//! outside a scope, so it never perturbs results.

pub mod access;
pub mod fault;
pub mod geo;
pub mod path;
pub mod ping;
pub mod rng;
pub mod tcp;

pub use access::AccessNetwork;
pub use fault::FaultInjector;
pub use geo::{haversine_km, GeoPoint};
pub use path::{Hop, HopKind, Path};
pub use ping::{PingEngine, PingStats};
pub use tcp::IperfReport;

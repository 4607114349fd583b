#![warn(missing_docs)]
//! # edgescope-probe
//!
//! The paper's measurement harness (§2.1.1), reproduced end to end:
//!
//! * [`user`] — the crowd: virtual participants with a home city (slightly
//!   offset from the centroid), an access network drawn from the campaign
//!   mix (59 % WiFi / 34 % LTE / 7 % 5G), and the paper's quirk that 5G
//!   coverage in 2020 confined almost all 5G tests to Beijing;
//! * [`latency`] — the speed-test app: each user pings every edge site and
//!   every cloud region 30 times, records per-target mean RTT / CV / hop
//!   structure, then aggregates *per user first* (the paper's
//!   de-biasing: "first average the network performance from each user,
//!   and then aggregate the results across users");
//! * [`throughput`] — the iPerf3 campaign: 25 users × 20 edge VMs ×
//!   up/down × 15 s;
//! * [`intersite`] — the Fig. 4 scan: RTT between every pair of edge
//!   sites, plus the "nearby sites within 5/10/20 ms" counts;
//! * [`records`] — the campaign artefact format (the paper's promised
//!   performance-dataset release): lossless TSV round-trip from which all
//!   §3.1 aggregations recompute;
//! * [`stream`] — the metro-scale streaming variants: the same campaigns
//!   folded into mergeable one-pass sketches chunk by chunk, so memory
//!   stays flat in the number of users and site pairs.
//!
//! ## Parallelism and determinism
//! Every campaign is a loop over entities (users / source sites): each
//! entity draws from its own RNG stream (`edgescope_net::rng::stream_rng`)
//! and records metrics into its own scope, replayed in entity-index
//! order through `edgescope_obs::pool::fan_out`. The latency campaign
//! and the streaming campaigns take a `jobs` worker count and fan
//! entities out over it, so their output is byte-identical for every
//! worker count. The Fig. 4 scan and the Fig. 5 iPerf campaign each run
//! inside one experiment, so they are serial: one worker, the same
//! per-entity streams and scopes.
//!
//! ## Observability
//! Campaign loops report to `edgescope-obs` scoped metrics when a scope
//! is active: `probe.ping_targets_measured` /
//! `probe.ping_targets_unreachable` / `probe.ping_targets_low_sample`
//! (targets dropped for returning fewer than two probes),
//! `probe.iperf_sessions`, `probe.intersite_pairs`,
//! `probe.records_serialized`. The counters draw no randomness, so
//! results are identical with or without a scope.
//! Campaigns probe a clean network; robustness tests degrade it by
//! handing [`latency::UserResult::probe`] a
//! `PingEngine::with_fault` engine, the same fault path the campaign
//! engine's outages take.

pub mod intersite;
pub mod latency;
pub mod records;
pub mod stream;
pub mod throughput;
pub mod user;

pub use intersite::{intersite_scan, mean_neighbours, IntersiteScan};
pub use latency::{Baselines, LatencyCampaign, LatencyConfig, TargetStats, UserResult};
pub use records::{campaign_from_tsv, campaign_to_tsv};
pub use stream::{
    streaming_intersite_scan, LatencySketchCampaign, SketchSeries, StreamingIntersiteScan,
};
pub use throughput::{throughput_campaign, ThroughputRow};
pub use user::{recruit, recruit_one, VirtualUser};

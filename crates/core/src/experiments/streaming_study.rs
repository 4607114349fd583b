//! Shared streaming (sketch) study state for the metro-scale
//! experiments.
//!
//! The metro tier replays the paper's §3 campaigns and §4 trace analysis
//! at hundreds of thousands of users / thousands of sites, which is only
//! feasible because every measurement folds into a mergeable one-pass
//! sketch the moment it is produced (see `edgescope_probe::stream` and
//! `edgescope_trace::stream` for the determinism and memory contracts).
//! The study is scale-agnostic — at `Scale::Quick` it runs in
//! milliseconds, which is how the metro experiments stay testable in CI
//! and how `tests/determinism.rs` exercises the metro registry on a tiny
//! world.
//!
//! Tag allocation (see [`crate::scenario`] module docs): the streaming
//! study owns `0x3e70`–`0x3e73`. The campaign seeds go through
//! [`Scenario::stream_seed`] like every other data-parallel study; the
//! trace generators take raw `seed ^ tag` values, matching the
//! [`workload_study`](crate::experiments::workload_study) convention.

use crate::scenario::Scenario;
use edgescope_probe::latency::LatencyConfig;
use edgescope_probe::stream::{
    streaming_intersite_scan, LatencySketchCampaign, StreamingIntersiteScan,
};
use edgescope_trace::stream::{stream_azure_stats, stream_nep_stats, StreamingTraceStats};

/// Stream-seed tag of the streaming latency campaign.
pub const LATENCY_TAG: u64 = 0x3e70;
/// Stream-seed tag of the streaming inter-site scan.
pub const INTERSITE_TAG: u64 = 0x3e71;
/// Raw-seed tag of the streaming NEP trace statistics.
pub const NEP_TRACE_TAG: u64 = 0x3e72;
/// Raw-seed tag of the streaming Azure trace statistics.
pub const AZURE_TRACE_TAG: u64 = 0x3e73;

/// The four streaming aggregates the metro experiments read, built once
/// per campaign by the executor (stage `study:streaming`).
pub struct StreamingStudy {
    /// The Fig. 2-analogue latency sketches over the streamed crowd.
    pub latency: LatencySketchCampaign,
    /// The Fig. 4-analogue inter-site scan without the O(sites²) matrix.
    pub intersite: StreamingIntersiteScan,
    /// Sketched per-VM statistics of the NEP-flavoured trace.
    pub nep: StreamingTraceStats,
    /// Sketched per-VM statistics of the Azure-flavoured comparison
    /// trace.
    pub azure: StreamingTraceStats,
}

impl StreamingStudy {
    /// Run all four streaming aggregations at the scenario's sizing over
    /// up to `jobs` worker threads. Byte-identical at every worker count
    /// (constant chunk sizes, chunk-order merges — the same gate the
    /// batch studies pass).
    pub fn run(scenario: &Scenario, jobs: usize) -> Self {
        let s = &scenario.sizing;
        let cfg = LatencyConfig { pings_per_target: s.pings_per_target, ..Default::default() };
        let latency = LatencySketchCampaign::run(
            scenario.stream_seed(LATENCY_TAG),
            s.n_users,
            &scenario.path_model,
            &scenario.nep,
            &scenario.alicloud,
            &cfg,
            jobs,
        );
        let intersite = streaming_intersite_scan(
            scenario.stream_seed(INTERSITE_TAG),
            &scenario.path_model,
            &scenario.nep,
            s.pings_per_target,
            jobs,
        );
        let (nep, _deployment) = stream_nep_stats(
            scenario.seed ^ NEP_TRACE_TAG,
            s.trace_sites,
            s.trace_apps,
            s.trace_config.clone(),
            jobs,
        );
        // Same ten-region Azure comparison footprint as the workload
        // study.
        let azure = stream_azure_stats(
            scenario.seed ^ AZURE_TRACE_TAG,
            10,
            s.trace_apps,
            s.trace_config.clone(),
            jobs,
        );
        StreamingStudy { latency, intersite, nep, azure }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scale, Scenario};

    #[test]
    fn streaming_study_is_jobs_invariant_at_quick_scale() {
        let scenario = Scenario::new(Scale::Quick, 11);
        let a = StreamingStudy::run(&scenario, 1);
        let b = StreamingStudy::run(&scenario, 4);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.intersite, b.intersite);
        assert_eq!(a.nep, b.nep);
        assert_eq!(a.azure, b.azure);
        assert_eq!(
            a.latency.users_complete + a.latency.users_partial,
            scenario.sizing.n_users as u64
        );
        assert!(a.nep.n_vms > 0 && a.azure.n_vms > 0);
    }

    #[test]
    fn streaming_study_runs_on_a_crowdless_metro_scenario() {
        // Metro scenarios carry no materialized crowd; the study must
        // recruit its users from the per-entity streams alone.
        let mut sizing = Scenario::new(Scale::Quick, 11).sizing;
        sizing.nep_sites = 25;
        sizing.n_users = 60;
        sizing.pings_per_target = 4;
        let scenario = Scenario::with_scale_sizing(Scale::Metro, sizing, 11);
        assert!(scenario.users.is_empty());
        let st = StreamingStudy::run(&scenario, 2);
        assert_eq!(st.latency.users_complete + st.latency.users_partial, 60);
        assert_eq!(st.intersite.neighbours.len(), 25);
    }
}

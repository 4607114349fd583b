//! Shared streaming (sketch) study state for the metro-scale
//! experiments.
//!
//! The metro tier replays the paper's §3 campaigns and §4 trace analysis
//! at hundreds of thousands of users / thousands of sites, which is only
//! feasible because every latency measurement folds into a mergeable
//! one-pass sketch the moment it is produced (see
//! `edgescope_probe::stream` for the determinism and memory contracts).
//! The trace sketches read the campaign's one [`WorkloadStudy`]: each
//! trace VM costs one folded row there, and the sketches add fixed
//! memory on top. The study is scale-agnostic — at `Scale::Quick` it
//! runs in milliseconds, which is how the metro experiments stay
//! testable in CI and how `tests/determinism.rs` exercises the metro
//! registry on a tiny world.
//!
//! Tag allocation (see [`crate::scenario`] module docs): the streaming
//! study owns `0x3e70` and `0x3e71`, whose campaign seeds go through
//! [`Scenario::stream_seed`] like every other data-parallel study.
//! `0x3e72`/`0x3e73` seeded a second synthesis of the two traces and are
//! retired: never reuse them.

use crate::experiments::workload_study::{self, WorkloadStudy};
use crate::scenario::Scenario;
use edgescope_probe::latency::LatencyConfig;
use edgescope_probe::stream::{
    streaming_intersite_scan, LatencySketchCampaign, StreamingIntersiteScan,
};
use edgescope_trace::stream::StreamingTraceStats;

/// Stream-seed tag of the streaming latency campaign.
pub const LATENCY_TAG: u64 = 0x3e70;
/// Stream-seed tag of the streaming inter-site scan.
pub const INTERSITE_TAG: u64 = 0x3e71;
/// The workload study's NEP tag under its former name, kept while
/// `perfbench/src/main.rs` reads it.
#[doc(hidden)]
pub const NEP_TRACE_TAG: u64 = workload_study::NEP_TAG;
/// The workload study's Azure tag under its former name, kept while
/// `perfbench/src/main.rs` reads it.
#[doc(hidden)]
pub const AZURE_TRACE_TAG: u64 = workload_study::AZURE_TAG;

/// The four streaming aggregates the metro experiments read, built once
/// per campaign by the executor (stage `study:streaming`).
pub struct StreamingStudy {
    /// The Fig. 2-analogue latency sketches over the streamed crowd.
    pub latency: LatencySketchCampaign,
    /// The Fig. 4-analogue inter-site scan without the O(sites²) matrix.
    pub intersite: StreamingIntersiteScan,
    /// Sketched per-VM statistics of the workload study's NEP trace.
    pub nep: StreamingTraceStats,
    /// Sketched per-VM statistics of the workload study's Azure
    /// comparison trace.
    pub azure: StreamingTraceStats,
}

impl StreamingStudy {
    /// Run the two streaming campaigns at the scenario's sizing over up
    /// to `jobs` worker threads, and sketch `workload`'s two traces.
    /// Byte-identical at every worker count (constant chunk sizes,
    /// chunk-order merges — the same gate the batch studies pass).
    pub fn run(scenario: &Scenario, workload: &WorkloadStudy, jobs: usize) -> Self {
        let s = &scenario.sizing;
        let cfg = LatencyConfig {
            pings_per_target: s.pings_per_target,
        };
        let latency = LatencySketchCampaign::run(
            scenario.stream_seed(LATENCY_TAG),
            s.n_users,
            &scenario.nep,
            &scenario.alicloud,
            &cfg,
            jobs,
        );
        let intersite = streaming_intersite_scan(
            scenario.stream_seed(INTERSITE_TAG),
            &scenario.nep,
            s.pings_per_target,
            jobs,
        );
        StreamingStudy {
            latency,
            intersite,
            nep: StreamingTraceStats::of(&workload.nep),
            azure: StreamingTraceStats::of(&workload.azure),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scale, Scenario};

    #[test]
    fn streaming_study_is_jobs_invariant_at_quick_scale() {
        let scenario = Scenario::new(Scale::Quick, 11);
        let (wa, wb) = (
            WorkloadStudy::run(&scenario, 1),
            WorkloadStudy::run(&scenario, 4),
        );
        let a = StreamingStudy::run(&scenario, &wa, 1);
        let b = StreamingStudy::run(&scenario, &wb, 4);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.intersite, b.intersite);
        assert_eq!(a.nep, b.nep);
        assert_eq!(a.azure, b.azure);
        assert_eq!(
            a.latency.users_complete + a.latency.users_partial,
            scenario.sizing.n_users as u64
        );
        assert!(a.nep.n_vms > 0 && a.azure.n_vms > 0);
        // The trace sketches count exactly the workload study's VMs.
        assert_eq!(a.nep.n_vms as usize, wa.nep.n_vms());
        assert_eq!(a.azure.n_vms as usize, wa.azure.n_vms());
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
        let st = StreamingStudy::run(&scenario, &WorkloadStudy::run(&scenario, 2), 2);
        assert_eq!(st.latency.users_complete + st.latency.users_partial, 60);
        assert_eq!(st.intersite.neighbours.len(), 25);
    }
}

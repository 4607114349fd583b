//! Shared trace state for the §4 workload experiments.

use crate::scenario::Scenario;
use edgescope_platform::deployment::Deployment;
use edgescope_trace::dataset::TraceDataset;

/// The NEP and Azure traces, generated once per scenario.
pub struct WorkloadStudy {
    /// The NEP-flavoured trace.
    pub nep: TraceDataset,
    /// The deployment the NEP trace was placed on.
    pub nep_deployment: Deployment,
    /// The Azure-flavoured comparison trace.
    pub azure: TraceDataset,
}

impl WorkloadStudy {
    /// Generate both traces at the scenario's sizing with series
    /// synthesis fanned out over up to `jobs` worker threads —
    /// byte-identical at every worker count (each VM's series comes from
    /// its own RNG stream).
    pub fn run(scenario: &Scenario, jobs: usize) -> Self {
        let s = &scenario.sizing;
        let (nep, nep_deployment) = TraceDataset::generate_nep(
            scenario.seed ^ 0xeda0,
            s.trace_sites,
            s.trace_apps,
            s.trace_config.clone(),
            jobs,
        );
        debug_assert!(!nep.records.is_empty());
        // The Azure comparison set: same app count, ten regions (a large
        // public cloud's national footprint).
        let azure = TraceDataset::generate_azure(
            scenario.seed ^ 0xa20e,
            10,
            s.trace_apps,
            s.trace_config.clone(),
            jobs,
        );
        WorkloadStudy { nep, nep_deployment, azure }
    }
}

//! Shared trace state for the §4 workload experiments.

use crate::scenario::Scenario;
use edgescope_platform::deployment::Deployment;
use edgescope_trace::dataset::TraceDataset;

/// Raw-seed tag of the NEP trace (`seed ^ NEP_TAG`).
pub const NEP_TAG: u64 = 0xeda0;
/// Raw-seed tag of the Azure comparison trace (`seed ^ AZURE_TAG`).
pub const AZURE_TAG: u64 = 0xa20e;

/// The NEP and Azure traces, generated once per campaign: every §4
/// experiment and the metro workload sketches read this one pair.
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
            scenario.seed ^ NEP_TAG,
            s.trace_sites,
            s.trace_apps,
            s.trace_config.clone(),
            jobs,
        );
        debug_assert!(!nep.records.is_empty());
        // The Azure comparison set: same app count, ten regions (a large
        // public cloud's national footprint).
        let azure = TraceDataset::generate_azure(
            scenario.seed ^ AZURE_TAG,
            10,
            s.trace_apps,
            s.trace_config.clone(),
            jobs,
        );
        WorkloadStudy {
            nep,
            nep_deployment,
            azure,
        }
    }
}

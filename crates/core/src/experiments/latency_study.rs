//! Shared crowd-campaign state for fig2 / table2 / fig3.

use crate::scenario::Scenario;
use edgescope_probe::latency::{LatencyCampaign, LatencyConfig};

/// The campaign, run once per scenario.
pub struct LatencyStudy {
    /// The campaign results.
    pub campaign: LatencyCampaign,
}

impl LatencyStudy {
    /// Run the full crowd campaign of the scenario over up to `jobs`
    /// worker threads — byte-identical at every worker count (each user
    /// draws from their own RNG stream).
    pub fn run(scenario: &Scenario, jobs: usize) -> Self {
        let campaign = LatencyCampaign::run(
            scenario.stream_seed(0x1a7e),
            &scenario.users,
            &scenario.nep,
            &scenario.alicloud,
            &LatencyConfig {
                pings_per_target: scenario.sizing.pings_per_target,
            },
            jobs,
        );
        LatencyStudy { campaign }
    }
}

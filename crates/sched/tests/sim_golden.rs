//! Golden pins of the scheduling simulator: the exact bits of every
//! [`SimOutcome`] field for the four `ext_gslb` policies on two seeded
//! 150-site worlds. A change to `simulate_day`, the candidate table or
//! the percentile kernel that is meant to be a pure speed-up must leave
//! every pin untouched.

use edgescope_platform::deployment::Deployment;
use edgescope_sched::gslb::{CandidateTable, SchedulingPolicy};
use edgescope_sched::requests::DemandModel;
use edgescope_sched::simulate::{simulate_day, SimOutcome};
use edgescope_trace::app::AppCategory;
use rand::rngs::StdRng;
use rand::SeedableRng;

const POLICIES: [SchedulingPolicy; 4] = [
    SchedulingPolicy::NearestSite,
    SchedulingPolicy::RoundRobinNearest(8),
    SchedulingPolicy::LoadAware(8),
    SchedulingPolicy::DelayConstrained { budget_ms: 5.0 },
];

fn world(seed: u64) -> (Deployment, DemandModel) {
    let mut rng = StdRng::seed_from_u64(seed);
    let dep = Deployment::nep(&mut rng, 150);
    let demand = DemandModel::new(&mut rng, AppCategory::LiveStreaming, 120_000.0);
    (dep, demand)
}

fn simulate(
    dep: &Deployment,
    demand: &DemandModel,
    policy: SchedulingPolicy,
    seed: u64,
) -> SimOutcome {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6517);
    simulate_day(&mut rng, &CandidateTable::gazetteer(dep), demand, policy)
}

/// `(world seed, [mean_delay_ms, p95_delay_ms, load_cv, peak_utilization,
/// overload_fraction])` per policy, in [`POLICIES`] order.
const PINS: [(u64, [[u64; 5]; 4]); 2] = [
    (
        11,
        [
            [
                0x40212c9ba7745d2e,
                0x402a591e8ad172fa,
                0x3ff695ab906ed97a,
                0x4002e703e8c1fe0d,
                0x3f8c845a8ecd7f21,
            ],
            [
                0x40233e08f7d4b1e1,
                0x402db5cb544b5df4,
                0x3fdfd10e8ac6c6d9,
                0x3fec1692a8824c12,
                0x3f3bf583ee868d8b,
            ],
            [
                0x402203724e1c89f7,
                0x402a973f9424f218,
                0x3fda21b840a77ac2,
                0x3fe2e703e8c1fe0d,
                0x0000000000000000,
            ],
            [
                0x4022520bbece313f,
                0x4029eeb10a0654ca,
                0x3fd89066d847815d,
                0x3fe2e703e8c1fe0d,
                0x0000000000000000,
            ],
        ],
    ),
    (
        42,
        [
            [
                0x4020fe01907f077d,
                0x402aebc6682d6ceb,
                0x3ffb5035eac63b93,
                0x400cca751ff39b68,
                0x3f8c5e694e1227f1,
            ],
            [
                0x40237f4e9e5ef9ff,
                0x402cc65a33501d39,
                0x3fe2951f6a4c681e,
                0x3ff8f86589c2ee72,
                0x3f706be9b6b08810,
            ],
            [
                0x4022413e78e3033b,
                0x402a2eccfcfbac88,
                0x3fe174017756df30,
                0x3fecca751ff39b68,
                0x3f6024e6a171024e,
            ],
            [
                0x402260960215a2e0,
                0x4029f0eb4ef57c03,
                0x3fe19822952f0613,
                0x3fecca751ff39b68,
                0x3f600929cebf48bc,
            ],
        ],
    ),
];

fn bits(o: &SimOutcome) -> [u64; 5] {
    [
        o.mean_delay_ms.to_bits(),
        o.p95_delay_ms.to_bits(),
        o.load_cv.to_bits(),
        o.peak_utilization.to_bits(),
        o.overload_fraction.to_bits(),
    ]
}

#[test]
fn sim_outcomes_match_golden_bits() {
    let mut report = String::new();
    let mut mismatches = 0;
    for (seed, pinned) in PINS {
        let (dep, demand) = world(seed);
        report.push_str(&format!("    ({seed}, [\n"));
        for (policy, want) in POLICIES.iter().zip(pinned) {
            let out = simulate(&dep, &demand, *policy, seed);
            assert_eq!(out.policy_label, policy.label());
            let got = bits(&out);
            let row: Vec<String> = got.iter().map(|b| format!("{b:#018x}")).collect();
            report.push_str(&format!("        [{}],\n", row.join(", ")));
            if got != want {
                mismatches += 1;
            }
        }
        report.push_str("    ]),\n");
    }
    assert_eq!(
        mismatches, 0,
        "SimOutcome bits drifted; observed:\n{report}"
    );
}

//! NaN regression tests for the QoE boundary: poisoned link parameters
//! are rejected at construction (an explicit panic with a message, not a
//! comparator panic deep in a sort), and the contention transform keeps
//! finite inputs finite.

use edgescope_qoe::{simulate_stream, GamingPipeline, LinkProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
#[should_panic(expected = "non-positive link")]
fn nan_rtt_rejected_at_construction() {
    // NaN fails the `rtt_ms > 0` check: the poison is stopped at the
    // boundary instead of reaching the frame-latency sort.
    LinkProfile::with_rtt(f64::NAN, 100.0);
}

#[test]
#[should_panic(expected = "steal factor below identity")]
fn nan_steal_factor_rejected() {
    LinkProfile::with_rtt(20.0, 100.0).under_contention(f64::NAN, 1.0);
}

#[test]
#[should_panic(expected = "bw share out of range")]
fn nan_bw_share_rejected() {
    LinkProfile::with_rtt(20.0, 100.0).under_contention(1.2, f64::NAN);
}

#[test]
fn contended_pipelines_stay_finite() {
    // A heavily contended but finite link must produce finite QoE draws
    // end to end — no NaN can be born inside the pipelines.
    let link = LinkProfile::with_rtt(30.0, 60.0).under_contention(1.8, 0.05);
    let mut rng = StdRng::seed_from_u64(5);
    let (samples, _) = GamingPipeline::paper_default().run(&mut rng, &link, 50);
    assert!(samples.iter().all(|s| s.is_finite()));
    let out = simulate_stream(&mut rng, &link, 0.0);
    assert!(out.mean_latency_ms.is_finite() && out.p95_latency_ms.is_finite());
}

//! Distribution sampling helpers and per-entity RNG-stream derivation.
//!
//! The allowed dependency set includes `rand` but not `rand_distr`, so the
//! handful of distributions the simulator needs are implemented here:
//! normal (Box–Muller, and Marsaglia's polar method for pairs),
//! log-normal, truncated normal, and exponential.
//!
//! # Per-entity RNG streams
//!
//! The data-parallel campaign loops (latency / throughput / inter-site in
//! `edgescope-probe`, series synthesis in `edgescope-trace`) give every
//! entity — a virtual user, a source site, a VM — its **own** `StdRng`,
//! derived from the campaign seed and a stable entity tag via
//! [`stream_seed`] / [`stream_rng`]. Because an entity's draws no longer
//! depend on how many entities ran before it on the same thread, the
//! loops can fan entities out over any number of workers and still
//! produce byte-identical output: determinism holds by construction, not
//! by serialization.
//!
//! Tags are built with [`entity_tag`] from a *domain* (which kind of
//! entity — see [`domains`]) and the entity's index, so streams never
//! collide across campaign stages that share a seed. The mixing is
//! golden-ratio XOR followed by a [SplitMix64] finalizer, so adjacent
//! indices land on well-separated seeds.
//!
//! [SplitMix64]: https://prng.di.unimi.it/splitmix64.c

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Entity-stream domains: one constant per kind of parallel entity. A
/// `(seed, domain, index)` triple names exactly one RNG stream, so two
/// campaign stages sharing a seed (e.g. trace records and trace series)
/// can never collide. Never reuse a domain for a new entity kind — the
/// same rule as the per-experiment tag allocation in `core::scenario`.
pub mod domains {
    /// Latency-campaign virtual users (one stream per user).
    pub const LATENCY_USER: u32 = 1;
    /// Throughput-campaign virtual users (one stream per user).
    pub const THROUGHPUT_USER: u32 = 2;
    /// Inter-site scan source sites (one stream per site `i`, covering
    /// its pairs `(i, j > i)`).
    pub const INTERSITE_SITE: u32 = 3;
    /// Trace per-VM series (one stream per VM record).
    pub const TRACE_VM: u32 = 4;
    /// Trace per-app base-utilization draws (a single stream, index 0).
    pub const TRACE_APP: u32 = 5;
    /// Prediction-evaluation VM series (one LSTM seed stream per series
    /// index in the evaluated cohort).
    pub const PREDICT_SERIES: u32 = 6;
    /// Dynamic-scenario scheduled events (one stream per event index in
    /// the [`crate::fault::EventTimeline`], for per-event draws such as
    /// mobility re-homing delays).
    pub const EVENT: u32 = 7;
    /// Campaign-engine world construction (index 0 = demand model,
    /// index 1 = probe-panel recruiting).
    pub const ENGINE_WORLD: u32 = 8;
    /// Campaign-engine per-step demand/scheduling noise (one stream per
    /// simulated step index).
    pub const ENGINE_STEP: u32 = 9;
    /// Campaign-engine per-step probe sampling (one stream per step
    /// index; separate from [`ENGINE_STEP`] so adding probes never
    /// shifts demand draws).
    pub const ENGINE_PROBE: u32 = 10;
    /// `edgescope-serve` query requests (one stream per client-supplied
    /// `seed` query parameter, a `u32`). Deriving the request RNG from
    /// `(scenario seed, SERVE, client seed)` — never from worker or
    /// connection state — is what makes identical requests byte-identical
    /// across worker counts and interleavings.
    pub const SERVE: u32 = 11;
}

/// SplitMix64 finalizer: a bijective avalanche over `u64`.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive the seed of an independent RNG stream from a base seed and a
/// stream tag (usually an [`entity_tag`]). Same contract as
/// `Scenario::rng` in `edgescope-core`, with an extra SplitMix64
/// finalizer so sequential indices map to well-separated seeds.
pub fn stream_seed(seed: u64, tag: u64) -> u64 {
    splitmix64(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A fresh `StdRng` on the `(seed, tag)` stream — see [`stream_seed`].
pub fn stream_rng(seed: u64, tag: u64) -> StdRng {
    StdRng::seed_from_u64(stream_seed(seed, tag))
}

/// Build the stream tag of one entity: its [`domains`] constant plus its
/// index within the campaign (deployment/crowd/record order).
pub fn entity_tag(domain: u32, index: usize) -> u64 {
    debug_assert!(
        (index as u64) < (1u64 << 32),
        "entity index overflows the tag layout"
    );
    ((domain as u64) << 32) | (index as u64 & 0xFFFF_FFFF)
}

/// Sample a standard normal via Box–Muller.
pub fn standard_normal(rng: &mut impl Rng) -> f64 {
    // Guard u1 away from 0 so ln() is finite.
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Sample **two** independent standard normals from one Box–Muller pair
/// of uniforms, using both the cosine and the sine halves — the block
/// sampling primitive (halves the `ln`/`sqrt`/trig cost per variate
/// compared to calling [`standard_normal`] twice).
pub fn standard_normal_pair(rng: &mut impl Rng) -> (f64, f64) {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f64::consts::PI * u2;
    (r * theta.cos(), r * theta.sin())
}

/// Sample **two** independent standard normals by Marsaglia's polar
/// method: draw `u, v` uniform on `[-1, 1)` until `0 < s = u² + v² < 1`
/// (accepts π/4 ≈ 78.5 % of pairs), then return `(u·k, v·k)` with
/// `k = √(-2 ln s / s)`. One `ln`, one `sqrt` and no trigonometry per
/// pair — the cheaper pair primitive for hot loops whose draw order is
/// free to choose (trace synthesis). Rejecting `s == 0` keeps `ln`
/// finite, so no NaN or ∞ can come out.
pub fn polar_normal_pair(rng: &mut impl Rng) -> (f64, f64) {
    loop {
        let u: f64 = rng.gen_range(-1.0..1.0);
        let v: f64 = rng.gen_range(-1.0..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            let k = (-2.0 * s.ln() / s).sqrt();
            return (u * k, v * k);
        }
    }
}

/// Hoisted log-normal parameters: the mean/CV parameterization of
/// [`log_normal_mean_cv`] with the `ln` conversions done **once**, for
/// hot loops that sample the same distribution many times (e.g. one
/// path hop across a block of probes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormalParams {
    /// Mean of the underlying normal.
    pub mu: f64,
    /// Std of the underlying normal; `0.0` marks the degenerate point
    /// mass at the mean (CV 0), which samples without consuming draws.
    pub sigma: f64,
}

impl LogNormalParams {
    /// Convert a (mean, CV) pair — same contract as
    /// [`log_normal_mean_cv`].
    pub fn from_mean_cv(mean: f64, cv: f64) -> Self {
        assert!(mean > 0.0, "log-normal mean must be positive");
        assert!(cv >= 0.0, "negative cv");
        if cv == 0.0 {
            return LogNormalParams {
                mu: mean.ln(),
                sigma: 0.0,
            };
        }
        let sigma2 = (1.0 + cv * cv).ln();
        LogNormalParams {
            mu: mean.ln() - sigma2 / 2.0,
            sigma: sigma2.sqrt(),
        }
    }

    /// Map one standard-normal variate to a log-normal sample.
    pub fn transform(&self, z: f64) -> f64 {
        (self.mu + self.sigma * z).exp()
    }
}

/// Sample N(mean, std).
pub fn normal(rng: &mut impl Rng, mean: f64, std: f64) -> f64 {
    assert!(std >= 0.0, "negative std");
    mean + std * standard_normal(rng)
}

/// Sample LogNormal(mu, sigma) — i.e. exp(N(mu, sigma)).
pub fn log_normal(rng: &mut impl Rng, mu: f64, sigma: f64) -> f64 {
    normal(rng, mu, sigma).exp()
}

/// Log-normal parameterized by its own mean and coefficient of variation
/// (more convenient for latency calibration: "this hop averages 7 ms with
/// 10 % relative jitter").
pub fn log_normal_mean_cv(rng: &mut impl Rng, mean: f64, cv: f64) -> f64 {
    assert!(mean > 0.0, "log-normal mean must be positive");
    assert!(cv >= 0.0, "negative cv");
    if cv == 0.0 {
        return mean;
    }
    let sigma2 = (1.0 + cv * cv).ln();
    let mu = mean.ln() - sigma2 / 2.0;
    log_normal(rng, mu, sigma2.sqrt())
}

/// Sample Exp(rate); mean = 1/rate.
pub fn exponential(rng: &mut impl Rng, rate: f64) -> f64 {
    assert!(rate > 0.0, "rate must be positive");
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -u.ln() / rate
}

/// Sample a bounded Pareto with shape `alpha` on `[lo, hi]` — used for
/// heavy-tailed populations (per-app VM counts, storage sizes).
pub fn bounded_pareto(rng: &mut impl Rng, alpha: f64, lo: f64, hi: f64) -> f64 {
    assert!(alpha > 0.0 && lo > 0.0 && hi > lo, "bad pareto parameters");
    let u: f64 = rng.gen::<f64>();
    let la = lo.powf(alpha);
    let ha = hi.powf(alpha);
    // Inverse CDF of the bounded Pareto.
    (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / alpha)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let xs: Vec<f64> = (0..20_000).map(|_| normal(&mut r, 5.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn log_normal_mean_cv_moments() {
        let mut r = rng();
        let xs: Vec<f64> = (0..50_000)
            .map(|_| log_normal_mean_cv(&mut r, 10.0, 0.3))
            .collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((mean - 10.0).abs() < 0.2, "mean {mean}");
        assert!(
            (var.sqrt() / mean - 0.3).abs() < 0.03,
            "cv {}",
            var.sqrt() / mean
        );
        assert!(xs.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn log_normal_zero_cv_is_deterministic() {
        let mut r = rng();
        assert_eq!(log_normal_mean_cv(&mut r, 7.0, 0.0), 7.0);
    }

    #[test]
    fn exponential_mean() {
        let mut r = rng();
        let xs: Vec<f64> = (0..50_000).map(|_| exponential(&mut r, 0.5)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn bounded_pareto_in_range_and_skewed() {
        let mut r = rng();
        let xs: Vec<f64> = (0..20_000)
            .map(|_| bounded_pareto(&mut r, 1.2, 1.0, 1000.0))
            .collect();
        assert!(xs.iter().all(|&x| (1.0..=1000.0).contains(&x)));
        let mut sorted = xs.clone();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[xs.len() / 2];
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!(
            mean > 2.0 * median,
            "heavy tail: mean {mean} median {median}"
        );
    }

    #[test]
    fn deterministic_with_same_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(normal(&mut a, 0.0, 1.0), normal(&mut b, 0.0, 1.0));
        }
    }

    #[test]
    fn normal_pair_cos_half_matches_single_draw() {
        // Same uniforms → the cosine half of the pair IS the single-draw
        // variate; the sine half is its independent sibling.
        let mut a = StdRng::seed_from_u64(17);
        let mut b = StdRng::seed_from_u64(17);
        let (z0, z1) = standard_normal_pair(&mut a);
        assert_eq!(z0, standard_normal(&mut b));
        assert!(z1.is_finite());
    }

    #[test]
    fn normal_pair_moments() {
        let mut r = rng();
        let mut xs = Vec::with_capacity(40_000);
        for _ in 0..20_000 {
            let (a, b) = standard_normal_pair(&mut r);
            xs.push(a);
            xs.push(b);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn polar_pair_is_deterministic_with_same_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..1_000 {
            let (x, y) = polar_normal_pair(&mut a);
            let (x2, y2) = polar_normal_pair(&mut b);
            assert_eq!((x.to_bits(), y.to_bits()), (x2.to_bits(), y2.to_bits()));
        }
        // Both streams consumed the same number of uniforms.
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn polar_pair_moments_and_tails() {
        const PAIRS: usize = 500_000;
        let mut r = rng();
        let (mut sum, mut sq, mut cross, mut tail) = (0.0, 0.0, 0.0, 0usize);
        for _ in 0..PAIRS {
            let (a, b) = polar_normal_pair(&mut r);
            assert!(a.is_finite() && b.is_finite(), "non-finite pair ({a}, {b})");
            sum += a + b;
            sq += a * a + b * b;
            cross += a * b;
            tail += (a.abs() > 3.0) as usize + (b.abs() > 3.0) as usize;
        }
        let n = (2 * PAIRS) as f64;
        let mean = sum / n;
        let var = sq / n - mean * mean;
        let corr = (cross / PAIRS as f64) / var;
        let p3 = tail as f64 / n;
        // Standard errors at 10⁶ draws: mean 0.001, var 0.0014,
        // correlation 0.0014, P(|z| > 3) = 0.27 % ± 0.005 %.
        assert!(mean.abs() < 0.005, "mean {mean}");
        assert!((var - 1.0).abs() < 0.007, "var {var}");
        assert!(corr.abs() < 0.007, "corr {corr}");
        assert!((p3 - 0.0027).abs() < 0.0003, "P(|z| > 3) = {p3}");
    }

    /// A generator replaying fixed `u64` words, to steer the polar
    /// method's uniforms onto its edge cases.
    struct Replay(std::vec::IntoIter<u64>);

    impl rand::RngCore for Replay {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0.next().expect("replay exhausted")
        }
        fn fill_bytes(&mut self, _: &mut [u8]) {
            unimplemented!()
        }
    }

    #[test]
    fn polar_pair_never_leaves_the_finite_reals() {
        // Word → uniform on [-1, 1): 0 → -1, 1 << 63 → 0, 3 << 62 → 0.5.
        let (minus_one, zero, half) = (0u64, 1u64 << 63, 3u64 << 62);
        // s = 0 (ln would be -∞), s = 1 and s = 2 are all rejected; the
        // first pair inside the open disc is returned.
        let words = vec![
            zero, zero, minus_one, zero, minus_one, minus_one, half, zero,
        ];
        let mut r = Replay(words.into_iter());
        let (a, b) = polar_normal_pair(&mut r);
        let k = (-2.0 * 0.25f64.ln() / 0.25).sqrt();
        assert_eq!((a, b), (0.5 * k, 0.0));
        assert!(
            r.0.next().is_none(),
            "every rejected pair consumed two words"
        );

        // The smallest positive s a 53-bit uniform can give: a large but
        // finite variate.
        let tiny = (1u64 << 63) + (1 << 11);
        let (a, b) = polar_normal_pair(&mut Replay(vec![tiny, zero].into_iter()));
        assert!(a.is_finite() && a > 8.0 && b == 0.0, "({a}, {b})");

        // And over ordinary streams.
        for seed in 0..64 {
            let mut r = StdRng::seed_from_u64(seed);
            for _ in 0..10_000 {
                let (a, b) = polar_normal_pair(&mut r);
                assert!(a.is_finite() && b.is_finite());
            }
        }
    }

    #[test]
    fn log_normal_params_match_per_call_path() {
        // Hoisted parameters + transform must equal log_normal_mean_cv on
        // the same underlying draw.
        let p = LogNormalParams::from_mean_cv(7.0, 0.3);
        let mut a = StdRng::seed_from_u64(23);
        let mut b = StdRng::seed_from_u64(23);
        let z = standard_normal(&mut a);
        assert_eq!(p.transform(z), log_normal_mean_cv(&mut b, 7.0, 0.3));
        // CV 0 degenerates to the point mass at the mean.
        let flat = LogNormalParams::from_mean_cv(7.0, 0.0);
        assert_eq!(flat.sigma, 0.0);
        assert!((flat.transform(0.0) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn stream_seeds_are_deterministic_and_distinct() {
        assert_eq!(stream_seed(42, 7), stream_seed(42, 7));
        // Distinct tags, distinct seeds — including adjacent indices,
        // which the raw XOR-multiply alone would map close together.
        let mut seen = std::collections::BTreeSet::new();
        for domain in [
            domains::LATENCY_USER,
            domains::TRACE_VM,
            domains::PREDICT_SERIES,
        ] {
            for i in 0..1000usize {
                assert!(seen.insert(stream_seed(42, entity_tag(domain, i))));
            }
        }
        assert_eq!(seen.len(), 3000);
    }

    #[test]
    fn entity_tags_never_collide_across_domains() {
        assert_ne!(
            entity_tag(domains::LATENCY_USER, 3),
            entity_tag(domains::THROUGHPUT_USER, 3)
        );
        assert_eq!(
            entity_tag(domains::LATENCY_USER, 0) >> 32,
            domains::LATENCY_USER as u64
        );
        assert_eq!(entity_tag(domains::TRACE_VM, 9) & 0xFFFF_FFFF, 9);
    }

    #[test]
    fn stream_rngs_are_independent() {
        let a: u64 = stream_rng(5, entity_tag(domains::LATENCY_USER, 0)).gen();
        let b: u64 = stream_rng(5, entity_tag(domains::LATENCY_USER, 1)).gen();
        let a2: u64 = stream_rng(5, entity_tag(domains::LATENCY_USER, 0)).gen();
        assert_ne!(a, b);
        assert_eq!(a, a2);
    }
}

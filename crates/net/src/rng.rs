//! Distribution sampling helpers and per-entity RNG-stream derivation.
//!
//! The allowed dependency set includes `rand` but not `rand_distr`, so the
//! handful of distributions the simulator needs are implemented here:
//! normal (Box–Muller, singly or in pairs, and a 128-layer ziggurat for
//! the trace kernel's one draw per sample), log-normal, exponential and
//! bounded Pareto.
//!
//! # Draw order
//!
//! A Box–Muller normal or pair takes two uniforms. A ziggurat normal takes
//! one `u64` on its fast path (about 97.2 % of draws); a wedge draw takes
//! one more, and is then either returned or followed by a fresh try; a
//! tail draw takes pairs of `u64`s until one is accepted. No sampler
//! keeps state between calls, so a stream's draws depend only on the
//! order of the calls.
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

/// Number of ziggurat layers; a draw's low 7 bits pick one.
const ZIG_LAYERS: usize = 128;

/// Right edge of the ziggurat's base strip, where the normal tail begins
/// (Doornik's ZIGNOR constant for 128 layers).
const ZIG_TAIL: f64 = 3.442619855899;

/// Layer edges `x[0..=128]` of the 128-layer ziggurat: `x[1]` is
/// [`ZIG_TAIL`], `x[128]` is 0, and every layer (the base strip with its
/// tail included) has the same area `V = 9.91256303526217e-3`, so
/// `x[0] = V / φ(R)` is the base strip's width as a rectangle and
/// `x[i] = √(−2 ln(V / x[i−1] + φ(x[i−1])))` above it, with
/// `φ(x) = exp(−x²/2)`. Written out so no libm call runs at start-up;
/// the `zig_table_regenerates_from_its_recurrence` test recomputes it.
#[rustfmt::skip]
const ZIG_X: [f64; ZIG_LAYERS + 1] = [
    3.7130862467425505, 3.442619855899, 3.2230849845811416,
    3.0832288582168683, 2.9786962526477803, 2.894344007021529,
    2.8231253505489105, 2.761169372387177, 2.7061135731218195,
    2.6564064112613597, 2.6109722484318474, 2.569033625924938,
    2.5300096723888275, 2.493454522095372, 2.4590181774118305,
    2.42642064553375, 2.3954342780110625, 2.3658713701176386,
    2.3375752413392368, 2.310413683698763, 2.2842740596774718,
    2.2590595738691985, 2.2346863955909795, 2.2110814088787034,
    2.188180432076049, 2.165926793748922, 2.1442701823603953,
    2.1231657086739766, 2.1025731351892385, 2.082456237992017,
    2.0627822745083084, 2.0435215366550676, 2.0246469733773855,
    2.006133869963472, 1.98795957412762, 1.9701032608543265,
    1.9525457295535567, 1.9352692282966228, 1.9182573008645099,
    1.901494653105151, 1.884967035707759, 1.8686611409944887,
    1.8525645117280911, 1.836665460258446, 1.8209529965961255,
    1.8054167642192285, 1.7900469825998586, 1.7748343955860695,
    1.7597702248995934, 1.7448461281138004, 1.7300541605637305,
    1.7153867407136676, 1.7008366185699169, 1.6863968467791681,
    1.672060754097601, 1.6578219209540241, 1.6436741568628686,
    1.6296114794706347, 1.615628095043161, 1.6017183802213781,
    1.5878768648905761, 1.5740982160230008, 1.560377222366169,
    1.5467087798599104, 1.5330878776740433, 1.5195095847659401,
    1.5059690368632033, 1.492461423781354, 1.4789819769899242,
    1.4655259573427108, 1.4520886428892246, 1.4386653166845635,
    1.42525125451406, 1.4118417124470577, 1.3984319141310053,
    1.3850170377326518, 1.3715922024273426, 1.3581524543301435,
    1.344692751753547, 1.3312079496656273, 1.317692783209414,
    1.3041418501286168, 1.2905495919261964, 1.2769102735601556,
    1.263217961454621, 1.2494664995730682, 1.2356494832633627,
    1.2217602305399964, 1.2077917504159497, 1.1937367078331287,
    1.1795873846639882, 1.1653356361647524, 1.1509728421488674,
    1.1364898520131608, 1.1218769225825422, 1.107123647534036,
    1.0922188769072774, 1.0771506248928957, 1.0619059636948243,
    1.0464709007640454, 1.0308302360681956, 1.0149673952513305,
    0.9988642334929836, 0.982500803515429, 0.9658550794011499,
    0.9489026255113064, 0.9316161966151508, 0.9139652510230323,
    0.8959153525809377, 0.8774274291129234, 0.8584568431938132,
    0.8389522142975774, 0.8188539067003573, 0.7980920606440569,
    0.7765839878947599, 0.7542306644540556, 0.7309119106424888,
    0.7064796113354365, 0.6807479186691546, 0.6534786387399752,
    0.6243585973360507, 0.5929629424714483, 0.5586921784081852,
    0.5206560387620606, 0.4774378372966898, 0.4265479863554235,
    0.36287143109703196, 0.27232086481396467, 0.0,
];

/// `r[i] = x[i+1] / x[i]`: the share of layer `i`'s width that lies
/// wholly under the density, where a draw is accepted with no further
/// test.
const ZIG_R: [f64; ZIG_LAYERS] = {
    let mut r = [0.0; ZIG_LAYERS];
    let mut i = 0;
    while i < ZIG_LAYERS {
        r[i] = ZIG_X[i + 1] / ZIG_X[i];
        i += 1;
    }
    r
};

/// Sample a standard normal by the 128-layer ziggurat (Marsaglia and
/// Tsang 2000, in Doornik's 2005 ZIGNOR form with a 53-bit uniform) —
/// the hot-loop normal (trace synthesis).
///
/// Each try takes one `u64`: its low 7 bits pick layer `i`, its top 53
/// bits give `u` uniform on `[−1, 1)` with step 2⁻⁵², and `|u| < r[i]`
/// returns `u · x[i]` — one compare and one multiply, taken by about
/// 97.2 % of draws. The rest take an out-of-line path: the base strip's
/// tail beyond `R = 3.442619855899`, or a layer's wedge, which either
/// returns or sends the loop round for a fresh `u64`. Every output is
/// finite.
pub fn ziggurat_normal(rng: &mut impl Rng) -> f64 {
    loop {
        let w = rng.next_u64();
        let i = (w & (ZIG_LAYERS as u64 - 1)) as usize;
        let u = (w >> 11) as f64 * f64::EPSILON - 1.0;
        if u.abs() < ZIG_R[i] {
            return u * ZIG_X[i];
        }
        if let Some(z) = ziggurat_slow(rng, i, u) {
            return z;
        }
    }
}

/// The ziggurat's rare paths, out of line: layer 0 samples the tail
/// beyond [`ZIG_TAIL`] on `u`'s side by Marsaglia's exponential
/// rejection; a higher layer accepts `x = u · x[i]` in its wedge when a
/// fresh uniform falls under the density between `x[i+1]` and `x[i]`,
/// and otherwise returns `None`.
#[cold]
#[inline(never)]
fn ziggurat_slow(rng: &mut impl Rng, i: usize, u: f64) -> Option<f64> {
    if i == 0 {
        // Both uniforms on (0, 1], so each `ln` is finite.
        loop {
            let x = (1.0 - rng.gen::<f64>()).ln() / ZIG_TAIL;
            let y = (1.0 - rng.gen::<f64>()).ln();
            if -2.0 * y >= x * x {
                return Some(if u < 0.0 { x - ZIG_TAIL } else { ZIG_TAIL - x });
            }
        }
    }
    let x = u * ZIG_X[i];
    let f0 = (-0.5 * (ZIG_X[i] * ZIG_X[i] - x * x)).exp();
    let f1 = (-0.5 * (ZIG_X[i + 1] * ZIG_X[i + 1] - x * x)).exp();
    (f1 + rng.gen::<f64>() * (f0 - f1) < 1.0).then_some(x)
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

    /// Φ(x) through A&S 7.1.26's `erf` (|ε| ≤ 1.5e-7), for the
    /// distribution test only.
    fn normal_cdf(x: f64) -> f64 {
        let z = x.abs() / std::f64::consts::SQRT_2;
        let t = 1.0 / (1.0 + 0.327_591_1 * z);
        let poly = t
            * (0.254_829_592
                + t * (-0.284_496_736
                    + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
        let erf = 1.0 - poly * (-z * z).exp();
        0.5 * (1.0 + erf.copysign(x))
    }

    #[test]
    fn ziggurat_matches_the_normal_distribution() {
        const N: usize = 10_000_000;
        // Empirical CDF on a 1/4096 grid over [-8, 8); the KS statistic
        // read at the grid points is a lower bound of the exact one, so
        // its critical value stays valid.
        const BINS_PER_UNIT: f64 = 4096.0;
        let mut bins = vec![0u32; 16 * BINS_PER_UNIT as usize];
        let mut r = rng();
        let (mut s1, mut s2, mut s4) = (0.0, 0.0, 0.0);
        let (mut beyond_r, mut beyond_4) = (0usize, 0usize);
        for _ in 0..N {
            let z = ziggurat_normal(&mut r);
            assert!(z.is_finite(), "non-finite draw {z}");
            s1 += z;
            s2 += z * z;
            s4 += z * z * z * z;
            beyond_r += (z.abs() > ZIG_TAIL) as usize;
            beyond_4 += (z.abs() > 4.0) as usize;
            let k = ((z + 8.0) * BINS_PER_UNIT).clamp(0.0, (bins.len() - 1) as f64);
            bins[k as usize] += 1;
        }
        let n = N as f64;
        let (mean, var, m4) = (s1 / n, s2 / n - (s1 / n).powi(2), s4 / n);
        // Standard errors at 10⁷ draws: mean 3.2e-4, variance 4.5e-4,
        // fourth moment (3) 3.1e-3; each bound is five of them.
        assert!(mean.abs() < 0.0016, "mean {mean}");
        assert!((var - 1.0).abs() < 0.0023, "variance {var}");
        assert!((m4 - 3.0).abs() < 0.016, "fourth moment {m4}");
        // Two-sided tail masses: P(|Z| > R) = 5.76e-4 (5 760 ± 76 draws)
        // and P(|Z| > 4) = 6.33e-5 (633 ± 25).
        assert!(beyond_r.abs_diff(5_760) < 380, "{beyond_r} beyond R");
        assert!(beyond_4.abs_diff(633) < 125, "{beyond_4} beyond 4");
        let mut seen = 0u64;
        let mut ks: f64 = 0.0;
        for (k, &count) in bins.iter().enumerate() {
            seen += count as u64;
            let edge = (k + 1) as f64 / BINS_PER_UNIT - 8.0;
            ks = ks.max((seen as f64 / n - normal_cdf(edge)).abs());
        }
        // KS critical value at α = 0.001 is 1.95/√n, plus Φ's error.
        assert!(ks < 1.95 / n.sqrt() + 1e-7, "KS statistic {ks}");
    }

    #[test]
    fn zig_table_regenerates_from_its_recurrence() {
        const V: f64 = 9.912_563_035_262_17e-3;
        let phi = |x: f64| (-0.5 * x * x).exp();
        let mut x = [0.0; ZIG_LAYERS + 1];
        x[0] = V / phi(ZIG_TAIL);
        x[1] = ZIG_TAIL;
        for i in 2..ZIG_LAYERS {
            x[i] = (-2.0 * (V / x[i - 1] + phi(x[i - 1])).ln()).sqrt();
        }
        for (i, (&want, &got)) in x.iter().zip(&ZIG_X).enumerate() {
            let ulps = (want.to_bits() as i64 - got.to_bits() as i64).abs();
            assert!(ulps <= 1, "x[{i}] = {got:e}, recurrence gives {want:e}");
        }
        // The top layer closes the ziggurat with the same area V.
        let top = ZIG_X[127] * (1.0 - phi(ZIG_X[127]));
        assert!((top - V).abs() < 1e-10, "top layer area {top:e}");
        for i in 0..ZIG_LAYERS {
            assert_eq!(ZIG_R[i], ZIG_X[i + 1] / ZIG_X[i]);
        }
        // The share of draws the fast path accepts outright.
        let fast = ZIG_R.iter().sum::<f64>() / ZIG_LAYERS as f64;
        assert!((fast - 0.9724).abs() < 1e-4, "fast-path share {fast}");
    }

    /// A generator replaying fixed `u64` words, to steer the ziggurat
    /// onto its tail and wedge paths.
    struct Replay<'a>(std::slice::Iter<'a, u64>);

    impl rand::RngCore for Replay<'_> {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }
        fn next_u64(&mut self) -> u64 {
            *self.0.next().expect("replay exhausted")
        }
        fn fill_bytes(&mut self, _: &mut [u8]) {
            unimplemented!()
        }
    }

    fn replay(words: &[u64]) -> f64 {
        let mut r = Replay(words.iter());
        let z = ziggurat_normal(&mut r);
        assert!(r.0.next().is_none(), "{words:x?} left words unread");
        z
    }

    #[test]
    fn ziggurat_rare_paths_stay_finite() {
        // A draw word's top 53 bits give u on [-1, 1) and its low 7 bits
        // the layer; a uniform word's top 53 bits give U on [0, 1), and
        // the tail reads 1 - U.
        let u_top = |layer: u64| (u64::MAX << 11) | layer; // u = 1 - 2⁻⁵²
        let u_zero = |layer: u64| (1 << 63) | layer;
        let (u0, u_max) = (0u64, u64::MAX);

        // Tail on u's side: ln(1) = 0 is accepted at once, at R itself.
        assert_eq!(replay(&[u_top(0), u0, u0]), ZIG_TAIL);
        // The smallest 1 - U (2⁻⁵³) is rejected against y = 0, then the
        // next pair lands on -R.
        assert_eq!(replay(&[0, u_max, u0, u0, u0]), -ZIG_TAIL);
        // A deep accepted tail: 1 - U = 2⁻⁴⁰ against the smallest y.
        let deep = replay(&[u_top(0), ((1 << 53) - (1 << 13)) << 11, u_max]);
        assert!(deep.is_finite() && deep > 11.0, "deep tail {deep}");

        // The top layer is all wedge (r[127] = 0): u = 0 with U = 0 is
        // rejected and the loop takes a fresh draw; with U near 1 it is
        // accepted.
        assert_eq!(replay(&[u_zero(127), u0, u_zero(127), u_max]), 0.0);

        // Every layer's wedge. At u = -1 the draw sits on the layer's
        // outer edge, where the density meets the layer's floor, so it
        // is rejected even with U near 1; the loop's next draw, halfway
        // across the wedge, is accepted.
        for i in 1..ZIG_LAYERS as u64 {
            let (outer, inner) = (ZIG_X[i as usize], ZIG_X[i as usize + 1]);
            for sign in [-1.0, 1.0] {
                let u = sign * (1.0 + ZIG_R[i as usize]) / 2.0;
                let mid = (((u + 1.0) / f64::EPSILON) as u64) << 11 | i;
                let z = replay(&[i, u_max, mid, u_max]);
                assert!(z.is_finite(), "layer {i}: {z}");
                assert!((inner..=outer).contains(&z.abs()), "layer {i}: {z}");
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

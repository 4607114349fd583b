//! Owned elementary functions for the two hottest kernels: the LSTM's
//! gate activations and the trace generator's log-normal noise.
//!
//! Each function is branch-free and built from `+ − × ÷`, comparisons
//! that select a value, and bit operations, so a loop over a slice of
//! them vectorizes where a libm call per element cannot. No FMA and no
//! `mul_add` is used, so a copy compiled with AVX2 returns the same bits
//! as the baseline copy.
//!
//! # `exp`
//!
//! Cody–Waite reduction: `k = round(x·log₂e)`, rounded by adding and
//! subtracting the shifter `1.5·2⁵²`, and `r = x − k·ln2_hi − k·ln2_lo`
//! with `|r| ≤ ln2/2`; `ln2_hi` has 32 significant bits, so `k·ln2_hi`
//! and its subtraction are exact. Then `exp(r) = 1 + (r + r²·Q(r))`,
//! where `Q` is the degree-11 Taylor polynomial of `(eʳ − 1 − r)/r²`
//! in Horner form (truncation error below 10⁻¹⁷ on the reduced range).
//! `2ᵏ` is assembled from bits in two halves, `2^⌊k/2⌉ · 2^(k−⌊k/2⌉)`,
//! so both factors are normal for every `k` of the clamped input range
//! and the last multiplication alone rounds: overflow gives `∞` and
//! underflow goes through the subnormals to `0` as libm's does. The
//! result is within 1 ulp of `f64::exp` on `[−745, 709.78]` (the unit
//! tests sweep 10⁶ inputs).
//!
//! # `tanh`
//!
//! `tanh(x) = sign(x) · e/(e + 2)` with `e = expm1(2|x|)`, computed as
//! `2ᵏ·p′ + (2ᵏ − 1)` from the same reduction, where `p′ = r + r²·Q(r)`.
//! Near 0 that keeps relative accuracy (`k = 0` and `e = p′`). `|x|` is
//! clamped at 20, where `tanh` is 1 in `f64`.

/// `log₂ e`.
const LOG2_E: f64 = std::f64::consts::LOG2_E;
/// The high part of `ln 2`: 32 significant bits.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
/// `ln 2 − LN2_HI`.
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
/// `1.5·2⁵²`: adding and subtracting it rounds to an integer.
const SHIFT: f64 = 6_755_399_441_055_744.0;
/// `exp`'s input range after clamping: `exp(−760)` is 0 and `exp(720)`
/// is `∞` in `f64`, and every `k` of the range splits into two halves
/// with normal powers of two.
const EXP_LO: f64 = -760.0;
const EXP_HI: f64 = 720.0;
/// Where `tanh` reaches 1 in `f64` (it does from about 19.06 on).
const TANH_CLAMP: f64 = 20.0;

/// `1/n!` for `n = 2..=13`: `Q(r) = Σ rⁿ⁻²/n!`.
const Q: [f64; 12] = [
    0.5,
    0.166_666_666_666_666_66,
    0.041_666_666_666_666_664,
    0.008_333_333_333_333_333,
    0.001_388_888_888_888_889,
    0.000_198_412_698_412_698_4,
    2.480_158_730_158_73e-5,
    2.755_731_922_398_589_3e-6,
    2.755_731_922_398_589e-7,
    2.505_210_838_544_172e-8,
    2.087_675_698_786_81e-9,
    1.605_904_383_682_161_3e-10,
];

/// `k = round(x·log₂e)` (as an integral `f64`) and the reduced
/// argument `r = x − k·ln 2`.
#[inline(always)]
fn reduce(x: f64) -> (f64, f64) {
    let k = (x * LOG2_E + SHIFT) - SHIFT;
    (k, (x - k * LN2_HI) - k * LN2_LO)
}

/// `r²·Q(r)`, so that `eʳ − 1 ≈ r + r²·Q(r)` on the reduced range.
#[inline(always)]
fn r2q(r: f64) -> f64 {
    let mut q = Q[11];
    for &c in Q[..11].iter().rev() {
        q = q * r + c;
    }
    r * r * q
}

/// `2ᵏ` for an integral `k` with `k + 1023` in `[1, 2046]`, from bits:
/// after adding `SHIFT + 1023`, the low 12 bits of the sum's bit
/// pattern are the biased exponent.
#[inline(always)]
fn pow2(k: f64) -> f64 {
    f64::from_bits((k + (SHIFT + 1023.0)).to_bits() << 52)
}

/// `2ᵏ` as two normal factors `2^⌊k/2⌉` and `2^(k − ⌊k/2⌉)`.
#[inline(always)]
fn pow2_halves(k: f64) -> (f64, f64) {
    let k1 = (k * 0.5 + SHIFT) - SHIFT;
    (pow2(k1), pow2(k - k1))
}

/// `eˣ`, within 1 ulp of [`f64::exp`]; `exp(NaN)` is NaN.
#[inline(always)]
pub fn exp(x: f64) -> f64 {
    // Written as selects, not `clamp`, so NaN passes through.
    let x = if x < EXP_LO { EXP_LO } else { x };
    let x = if x > EXP_HI { EXP_HI } else { x };
    let (k, r) = reduce(x);
    let (s1, s2) = pow2_halves(k);
    // `1 + r` with its rounding error (Fast2Sum, exact as |r| < 1),
    // then the small term: one rounding where it counts.
    let hi = 1.0 + r;
    let lo = (1.0 - hi) + r;
    (hi + (lo + r2q(r))) * s1 * s2
}

/// The logistic function `1/(1 + e⁻ˣ)`.
#[inline(always)]
pub fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + exp(-x))
}

/// The hyperbolic tangent; `tanh(±0) = ±0`, `tanh(±∞) = ±1`.
#[inline(always)]
pub fn tanh(x: f64) -> f64 {
    let a = x.abs();
    let a = if a > TANH_CLAMP { TANH_CLAMP } else { a };
    let (k, r) = reduce(a + a);
    let (s1, s2) = pow2_halves(k);
    let s = s1 * s2;
    let e = s * (r + r2q(r)) + (s - 1.0);
    (e / (e + 2.0)).copysign(x)
}

/// `m[i] *= exp(mu + sigma·z[i])` over equal-length slices: the trace
/// generator's log-normal noise applied to a block of means. Takes its
/// AVX2 copy where the CPU has AVX2, with the same bits as the baseline
/// copy.
pub fn mul_exp(m: &mut [f64], mu: f64, sigma: f64, z: &[f64]) {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: `mul_exp_avx2` needs AVX2, and the CPU has it (checked
        // just above).
        return unsafe { mul_exp_avx2(m, mu, sigma, z) };
    }
    mul_exp_baseline(m, mu, sigma, z)
}

/// [`mul_exp`]'s body compiled with AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn mul_exp_avx2(m: &mut [f64], mu: f64, sigma: f64, z: &[f64]) {
    mul_exp_body(m, mu, sigma, z)
}

/// [`mul_exp`]'s body compiled for the crate's target.
fn mul_exp_baseline(m: &mut [f64], mu: f64, sigma: f64, z: &[f64]) {
    mul_exp_body(m, mu, sigma, z)
}

#[inline(always)]
fn mul_exp_body(m: &mut [f64], mu: f64, sigma: f64, z: &[f64]) {
    assert_eq!(m.len(), z.len(), "mean and normal blocks differ in length");
    for (m, &z) in m.iter_mut().zip(z) {
        *m *= exp(mu + sigma * z);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inputs per sweep.
    const SWEEP: usize = 1_000_000;

    /// The distance in representable values between two finite values
    /// of one sign.
    fn ulps(a: f64, b: f64) -> u64 {
        assert_eq!(a.is_sign_negative(), b.is_sign_negative(), "{a} vs {b}");
        a.to_bits().abs_diff(b.to_bits())
    }

    /// `SWEEP` evenly spaced points of `[lo, hi]`, both ends included,
    /// each nudged by a few ulps so the points do not share low bits.
    fn sweep(lo: f64, hi: f64) -> impl Iterator<Item = f64> {
        (0..SWEEP).map(move |i| {
            let x = lo + (hi - lo) * (i as f64 / (SWEEP - 1) as f64);
            let nudged = f64::from_bits(x.to_bits() ^ (i as u64 % 7));
            if (lo..=hi).contains(&nudged) {
                nudged
            } else {
                x
            }
        })
    }

    /// The largest distance from `want` over `xs`, and where it is.
    fn worst(
        xs: impl Iterator<Item = f64>,
        got: impl Fn(f64) -> f64,
        want: impl Fn(f64) -> f64,
    ) -> (u64, f64) {
        xs.map(|x| (ulps(got(x), want(x)), x))
            .fold((0, 0.0), |a, b| if b.0 > a.0 { b } else { a })
    }

    #[test]
    fn exp_is_within_one_ulp_of_libm() {
        // The whole finite range, then the reduced range around 0,
        // where most of the trace noise falls, and the subnormal tail.
        for (lo, hi) in [(-745.0, 709.78), (-1.0, 1.0), (-745.0, -700.0)] {
            let (d, x) = worst(sweep(lo, hi), exp, f64::exp);
            assert!(d <= 1, "exp({x:e}) is {d} ulps from libm's");
        }
    }

    #[test]
    fn sigmoid_and_tanh_are_within_four_ulps_of_the_libm_formulas() {
        let libm_sigmoid = |x: f64| 1.0 / (1.0 + (-x).exp());
        for (lo, hi) in [(-40.0, 40.0), (-1e-3, 1e-3)] {
            let (d, x) = worst(sweep(lo, hi), sigmoid, libm_sigmoid);
            assert!(d <= 4, "sigmoid({x:e}) is {d} ulps from libm's formula");
            let (d, x) = worst(sweep(lo, hi), tanh, f64::tanh);
            assert!(d <= 4, "tanh({x:e}) is {d} ulps from libm's");
        }
        let (d, x) = worst(sweep(-1e-300, 1e-300), tanh, f64::tanh);
        assert!(d <= 4, "tanh({x:e}) is {d} ulps from libm's");
    }

    #[test]
    fn special_values_are_exact() {
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        assert_eq!(exp(f64::INFINITY), f64::INFINITY);
        assert_eq!(exp(f64::NEG_INFINITY).to_bits(), 0.0f64.to_bits());
        assert_eq!(exp(709.79), f64::INFINITY);
        assert_eq!(exp(-746.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(exp(f64::MAX), f64::INFINITY);
        assert_eq!(exp(f64::MIN).to_bits(), 0.0f64.to_bits());
        assert_eq!(tanh(0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(tanh(f64::INFINITY), 1.0);
        assert_eq!(tanh(f64::NEG_INFINITY), -1.0);
        assert_eq!(tanh(20.0), 1.0);
        assert_eq!(sigmoid(f64::INFINITY), 1.0);
        assert_eq!(sigmoid(f64::NEG_INFINITY).to_bits(), 0.0f64.to_bits());
        for f in [exp, sigmoid, tanh] {
            assert!(f(f64::NAN).is_nan());
            assert!(f(-f64::NAN).is_nan());
        }
    }

    #[test]
    fn mul_exp_avx2_and_baseline_agree_bit_for_bit() {
        #[cfg(target_arch = "x86_64")]
        let avx2 = is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        if !avx2 {
            println!("mul_exp_avx2_and_baseline_agree_bit_for_bit: skipped, the host lacks AVX2");
            return;
        }
        // Normals over ±40 (past both ends of exp's range for the
        // larger σ), a NaN and both infinities, at every length modulo
        // the vector width, for the trace noise's σ and a wide one.
        let mut z: Vec<f64> = sweep(-40.0, 40.0).collect();
        z.extend([f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
        let means: Vec<f64> = (0..z.len()).map(|i| 1e-4 + (i % 1000) as f64).collect();
        for (mu, sigma) in [(-0.045, 0.3), (-0.5, 20.0)] {
            for len in [z.len(), z.len() - 1, z.len() - 2, z.len() - 3, 5, 1, 0] {
                let mut dispatched = means[..len].to_vec();
                let mut baseline = dispatched.clone();
                mul_exp(&mut dispatched, mu, sigma, &z[..len]);
                mul_exp_baseline(&mut baseline, mu, sigma, &z[..len]);
                let first = dispatched
                    .iter()
                    .zip(&baseline)
                    .position(|(a, b)| a.to_bits() != b.to_bits());
                assert_eq!(first, None, "σ {sigma}, length {len}");
            }
        }
    }

    #[test]
    fn mul_exp_is_the_per_element_product() {
        let z = [-3.0, -0.5, 0.0, 0.25, 2.0, 7.5];
        let mut m = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let want: Vec<f64> = m
            .iter()
            .zip(&z)
            .map(|(m, z)| m * exp(-0.1 + 0.4 * z))
            .collect();
        mul_exp(&mut m, -0.1, 0.4, &z);
        assert_eq!(m.to_vec(), want);
    }
}

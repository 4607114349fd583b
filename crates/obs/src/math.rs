//! Owned elementary functions for the two hottest kernels: the LSTM's
//! gate activations, in `f32` ([`sigmoid_f32`], [`tanh_f32`]), and the
//! trace generator's log-normal noise, in `f64` ([`mul_exp`]). The `f64`
//! [`sigmoid`] and [`tanh`] serve only the LSTM's `f64` test instance.
//!
//! Each function is branch-free and built from `+ − × ÷`, comparisons
//! that select a value, and bit operations, so a loop over a slice of
//! them vectorizes where a libm call per element cannot. No FMA and no
//! `mul_add` is used, so a copy compiled with AVX2 returns the same bits
//! as the baseline copy, in either precision: the `f32` functions hold 8
//! lanes per AVX2 register, the `f64` ones 4.
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
//!
//! # The `f32` functions
//!
//! [`exp_f32`] is `exp` rebuilt in `f32`: the shifter is `1.5·2²³`,
//! `ln2_hi` has 15 significant bits (exact times every `k` of the
//! clamped range `[−110, 100]`), `Q` is the degree-5 Taylor polynomial
//! (truncation error below 0.15 ulp), and `2ᵏ` again comes from bits in
//! two halves, so the subnormal results round once. [`tanh_f32`] is
//! `tanh`'s formula with `|x|` clamped at 10 (where it is 1 in `f32`)
//! and `e` carried as a sum of two `f32`s through the step where `2ᵏ·p′`
//! nearly cancels `2ᵏ − 1`. [`sigmoid_f32`] divides `1` or `e` by
//! `1 + e` for `e = e^−|x|`, selected by the sign of `x`, so it never
//! overflows. Each is within 2 ulp of its formula evaluated in `f64` and
//! rounded to `f32` (`exp_f32` within 1); the unit tests sweep 10⁶
//! inputs per range.

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

/// `log₂ e` in `f32`.
const LOG2_E_F32: f32 = std::f32::consts::LOG2_E;
/// The high part of `ln 2` in `f32`: 15 significant bits.
const LN2_HI_F32: f32 = f32::from_bits(0x3f31_7200);
/// `ln 2 − LN2_HI_F32`.
const LN2_LO_F32: f32 = f32::from_bits(0x35bf_be8e);
/// `1.5·2²³`: adding and subtracting it rounds an `f32` to an integer.
const SHIFT_F32: f32 = 12_582_912.0;
/// [`exp_f32`]'s input range after clamping: `exp(−110)` is 0 and
/// `exp(100)` is `∞` in `f32`, and every `k` of the range splits into
/// two halves with normal powers of two.
const EXP_LO_F32: f32 = -110.0;
const EXP_HI_F32: f32 = 100.0;
/// Where [`tanh_f32`] reaches 1 in `f32` (it does from about 9.01 on).
const TANH_CLAMP_F32: f32 = 10.0;

/// `1/n!` for `n = 2..=7`, rounded to `f32`: `Q(r) = Σ rⁿ⁻²/n!`.
const Q_F32: [f32; 6] = [
    0.5,
    0.166_666_67,
    0.041_666_668,
    0.008_333_334,
    0.001_388_888_9,
    0.000_198_412_7,
];

/// [`reduce`] in `f32`.
#[inline(always)]
fn reduce_f32(x: f32) -> (f32, f32) {
    let k = (x * LOG2_E_F32 + SHIFT_F32) - SHIFT_F32;
    (k, (x - k * LN2_HI_F32) - k * LN2_LO_F32)
}

/// [`r2q`] in `f32`, with the degree-5 `Q`.
#[inline(always)]
fn r2q_f32(r: f32) -> f32 {
    let mut q = Q_F32[5];
    for &c in Q_F32[..5].iter().rev() {
        q = q * r + c;
    }
    r * r * q
}

/// `2ᵏ` for an integral `k` with `k + 127` in `[1, 254]`, from bits.
#[inline(always)]
fn pow2_f32(k: f32) -> f32 {
    f32::from_bits((k + (SHIFT_F32 + 127.0)).to_bits() << 23)
}

/// `eˣ` in `f32`, within 1 ulp of `exp` evaluated in `f64` and rounded
/// to `f32`; `exp_f32(NaN)` is NaN.
#[inline(always)]
pub fn exp_f32(x: f32) -> f32 {
    let x = if x < EXP_LO_F32 { EXP_LO_F32 } else { x };
    let x = if x > EXP_HI_F32 { EXP_HI_F32 } else { x };
    let (k, r) = reduce_f32(x);
    // `2ᵏ` as two normal factors `2^⌊k/2⌉ · 2^(k − ⌊k/2⌉)`, and `1 + r`
    // with its rounding error, as in [`exp`].
    let k1 = (k * 0.5 + SHIFT_F32) - SHIFT_F32;
    let hi = 1.0 + r;
    let lo = (1.0 - hi) + r;
    (hi + (lo + r2q_f32(r))) * pow2_f32(k1) * pow2_f32(k - k1)
}

/// The logistic function `1/(1 + e⁻ˣ)` in `f32`, computed as
/// `1/(1 + e)` for `x ≥ 0` and `e/(1 + e)` for `x < 0`, with
/// `e = e^−|x|`: `e` never overflows, so the results below `−88.7` are
/// the subnormals they should be, not 0.
#[inline(always)]
pub fn sigmoid_f32(x: f32) -> f32 {
    let e = exp_f32(-x.abs());
    let num = if x < 0.0 { e } else { 1.0 };
    num / (1.0 + e)
}

/// The hyperbolic tangent in `f32`; `tanh(±0) = ±0`, `tanh(±∞) = ±1`.
#[inline(always)]
pub fn tanh_f32(x: f32) -> f32 {
    let a = x.abs();
    let a = if a > TANH_CLAMP_F32 {
        TANH_CLAMP_F32
    } else {
        a
    };
    let (k, r) = reduce_f32(a + a);
    // `k ≤ 29`, so `2ᵏ` is one normal factor and `2ᵏ − 1` is exact.
    let s = pow2_f32(k);
    // `p = r + r²·Q(r)` as `p_hi + p_lo`, then `e = (s − 1) + s·p` with
    // the rounding error of its first sum carried too (Fast2Sum: `|s − 1|
    // ≥ |s·p|`, or `s − 1 = 0`), so `e` keeps about 0.5 ulp even where a
    // negative `s·p` cancels much of `s − 1`.
    let q = r2q_f32(r);
    let p_hi = r + q;
    let p_lo = (r - p_hi) + q;
    let e_hi = (s - 1.0) + s * p_hi;
    let e_lo = ((s - 1.0) - e_hi) + s * p_hi;
    let e = e_hi + (e_lo + s * p_lo);
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

    /// [`ulps`] in `f32`.
    fn ulps_f32(a: f32, b: f32) -> u32 {
        assert_eq!(a.is_sign_negative(), b.is_sign_negative(), "{a} vs {b}");
        a.to_bits().abs_diff(b.to_bits())
    }

    /// [`sweep`] in `f32`.
    fn sweep_f32(lo: f32, hi: f32) -> impl Iterator<Item = f32> {
        (0..SWEEP).map(move |i| {
            let x = lo + (hi - lo) * (i as f32 / (SWEEP - 1) as f32);
            let nudged = f32::from_bits(x.to_bits() ^ (i as u32 % 7));
            if (lo..=hi).contains(&nudged) {
                nudged
            } else {
                x
            }
        })
    }

    /// Asserts `got` is within 2 `f32` ulps of the `f64` formula `want`
    /// rounded to `f32` over each range, and prints the worst distance.
    fn within_two_f32_ulps(
        name: &str,
        got: fn(f32) -> f32,
        want: fn(f64) -> f64,
        ranges: &[(f32, f32)],
    ) {
        for &(lo, hi) in ranges {
            let (d, x) = sweep_f32(lo, hi)
                .map(|x| (ulps_f32(got(x), want(f64::from(x)) as f32), x))
                .fold((0, 0.0), |a, b| if b.0 > a.0 { b } else { a });
            println!("{name} over [{lo:e}, {hi:e}]: worst {d} ulp at {x:e}");
            assert!(d <= 2, "{name}({x:e}) is {d} ulps from the f64 formula");
        }
    }

    #[test]
    fn f32_functions_are_within_two_ulps_of_the_f64_formulas() {
        // The whole finite range, the reduced range and the subnormal
        // tail.
        let ranges = [(-103.9, 88.72), (-1.0, 1.0), (-103.9, -87.0)];
        within_two_f32_ulps("exp_f32", exp_f32, f64::exp, &ranges);
        // Past both ends of `exp_f32`'s range, and around 0.
        let ranges = [(-110.0, 110.0), (-20.0, 20.0), (-1e-3, 1e-3)];
        let libm_sigmoid = |x: f64| 1.0 / (1.0 + (-x).exp());
        within_two_f32_ulps("sigmoid_f32", sigmoid_f32, libm_sigmoid, &ranges);
        // Past the clamp, around 0, and the subnormals.
        let ranges = [(-12.0, 12.0), (-1.0, 1.0), (-1e-3, 1e-3), (-1e-38, 1e-38)];
        within_two_f32_ulps("tanh_f32", tanh_f32, f64::tanh, &ranges);
    }

    #[test]
    fn f32_special_values_are_exact() {
        let zero = 0.0f32.to_bits();
        assert_eq!(exp_f32(0.0), 1.0);
        assert_eq!(exp_f32(-0.0), 1.0);
        assert_eq!(exp_f32(f32::INFINITY), f32::INFINITY);
        assert_eq!(exp_f32(f32::NEG_INFINITY).to_bits(), zero);
        assert_eq!(exp_f32(f32::MAX), f32::INFINITY);
        assert_eq!(exp_f32(f32::MIN).to_bits(), zero);
        // Either side of the overflow and underflow thresholds, and the
        // clamp edges.
        assert!(exp_f32(88.72).is_finite());
        assert_eq!(exp_f32(88.73), f32::INFINITY);
        assert!(exp_f32(-103.9) > 0.0);
        assert_eq!(exp_f32(-104.0).to_bits(), zero);
        assert_eq!(exp_f32(EXP_HI_F32), f32::INFINITY);
        assert_eq!(exp_f32(EXP_LO_F32).to_bits(), zero);
        assert_eq!(tanh_f32(0.0).to_bits(), zero);
        assert_eq!(tanh_f32(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(tanh_f32(f32::INFINITY), 1.0);
        assert_eq!(tanh_f32(f32::NEG_INFINITY), -1.0);
        assert_eq!(tanh_f32(TANH_CLAMP_F32), 1.0);
        assert_eq!(tanh_f32(-TANH_CLAMP_F32), -1.0);
        assert_eq!(tanh_f32(9.1), 1.0);
        assert!(tanh_f32(8.9) < 1.0);
        assert_eq!(sigmoid_f32(0.0), 0.5);
        assert_eq!(sigmoid_f32(-0.0), 0.5);
        assert_eq!(sigmoid_f32(f32::INFINITY), 1.0);
        assert_eq!(sigmoid_f32(f32::NEG_INFINITY).to_bits(), zero);
        // `exp_f32`'s clamp: the subnormal `e⁻¹⁰⁰`, then 0 and 1.
        assert_eq!(sigmoid_f32(-EXP_HI_F32), exp_f32(-EXP_HI_F32));
        assert!(sigmoid_f32(-EXP_HI_F32) > 0.0);
        assert_eq!(sigmoid_f32(EXP_LO_F32).to_bits(), zero);
        assert_eq!(sigmoid_f32(-EXP_LO_F32), 1.0);
        for f in [exp_f32, sigmoid_f32, tanh_f32] {
            assert!(f(f32::NAN).is_nan());
            assert!(f(-f32::NAN).is_nan());
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

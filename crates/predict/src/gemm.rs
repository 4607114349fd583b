//! Small hand-rolled blocked matrix kernels, and the LSTM's element
//! type.
//!
//! These are the hot-path kernels behind the packed LSTM cell
//! ([`crate::lstm`]), one per shape a training batch or an inference
//! batch needs:
//!
//! * [`matmul`] — a 4×8-blocked GEMM: the forward step's gate
//!   pre-activations across a batch's columns, and the BPTT step's
//!   `dH_prev = W_hᵀ·dZ` against a transposed copy of `W_h`;
//! * [`outer_sum_desc`] — `C = Σ_t a_t ⊗ b_t` in descending `t`, the
//!   whole batch's weight gradient in one pass after BPTT.
//!
//! Both are generic over [`Element`] and `#[inline(always)]`, so each
//! compiles into its caller: the LSTM's baseline and AVX2 copies (see
//! [`crate::lstm`]) each get their own code for them. The product runs
//! them in `f32`, where a block's 8 columns are one AVX2 register.
//!
//! # Determinism / equivalence contract
//!
//! Every kernel computes each output element **with a single
//! accumulator, starting from `0.0`, in one fixed summation order**
//! (ascending index, or descending `t` for [`outer_sum_desc`]), so its
//! results are bit-for-bit identical to the naive scalar loop in that
//! order, in either element type. The blocking only regroups
//! *independent* output elements, never the summation within one
//! element, and no kernel uses a fused multiply-add. The unit tests
//! below pin each kernel against its naive loop on odd shapes in `f32`
//! and `f64`, and `crates/predict/tests/kernel_equiv.rs` pins the packed
//! LSTM forward built on these kernels against the scalar reference
//! implementation ([`crate::reference`]).
//!
//! The speedup comes from keeping a block of independent accumulators in
//! registers — which hides the FP-add latency a single chain serializes
//! on and lets the compiler vectorize across the block — and from
//! walking memory sequentially, not from reassociating floating-point
//! math.

use std::fmt::Debug;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Sub, SubAssign};

use edgescope_obs::math;

/// The element type of the LSTM's weights, caches, gradients and Adam
/// moments, and of the kernels here and in [`crate::reference`]: `f32`
/// for the product ([`crate::lstm::Lstm`], as Keras's `floatx` default)
/// and `f64` for the instance the round-off tests hold to a 1e-9 bound.
/// Sealed: `f32` and `f64` are its only implementations.
pub trait Element:
    Copy
    + Debug
    + PartialOrd
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + AddAssign
    + MulAssign
    + SubAssign
    + sealed::Sealed
{
    /// `0`.
    const ZERO: Self;
    /// `1`.
    const ONE: Self;
    /// `x` rounded to the element type.
    fn of(x: f64) -> Self;
    /// The value as an `f64`, exactly.
    fn to_f64(self) -> f64;
    /// The owned logistic function of [`edgescope_obs::math`].
    fn sigmoid(self) -> Self;
    /// The owned hyperbolic tangent of [`edgescope_obs::math`].
    fn tanh(self) -> Self;
    /// The square root, correctly rounded.
    fn sqrt(self) -> Self;
    /// `selfⁿ`.
    fn powi(self, n: i32) -> Self;
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
}

impl Element for f32 {
    const ZERO: f32 = 0.0;
    const ONE: f32 = 1.0;
    #[inline(always)]
    fn of(x: f64) -> f32 {
        x as f32
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        f64::from(self)
    }
    #[inline(always)]
    fn sigmoid(self) -> f32 {
        math::sigmoid_f32(self)
    }
    #[inline(always)]
    fn tanh(self) -> f32 {
        math::tanh_f32(self)
    }
    #[inline(always)]
    fn sqrt(self) -> f32 {
        f32::sqrt(self)
    }
    #[inline(always)]
    fn powi(self, n: i32) -> f32 {
        f32::powi(self, n)
    }
}

impl Element for f64 {
    const ZERO: f64 = 0.0;
    const ONE: f64 = 1.0;
    #[inline(always)]
    fn of(x: f64) -> f64 {
        x
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn sigmoid(self) -> f64 {
        math::sigmoid(self)
    }
    #[inline(always)]
    fn tanh(self) -> f64 {
        math::tanh(self)
    }
    #[inline(always)]
    fn sqrt(self) -> f64 {
        f64::sqrt(self)
    }
    #[inline(always)]
    fn powi(self, n: i32) -> f64 {
        f64::powi(self, n)
    }
}

/// Register rows per GEMM block.
const MR: usize = 4;
/// Register columns per GEMM block: a full mini-batch.
const NR: usize = 8;
/// Columns per block of [`outer_sum_desc`].
const OB: usize = 8;
/// Rows per block of [`outer_sum_desc`].
const OR: usize = 4;

/// Sum of outer products in **descending** `t`:
/// `C[r][k] = Σ_{t = T-1 … 0} a[t][r] · b[t][k]`, for row-major
/// `a (T × rows)`, `b (T × cols)` and `C (rows × cols)`.
///
/// Each cell sums its `T` products from `0.0`, last step first — the
/// order of `T` rank-1 updates applied during a backward pass — with
/// one accumulator. Cells run in blocks of 4 rows × 8 columns (then
/// 2- and 1-column tails, and single rows), each block sharing its
/// loads of `a` and `b`.
///
/// As each block of rows finishes, its squares are folded onto the serial
/// chain `sq` in row-major cell order (`sq += C[r][k]²`), and the final
/// chain is returned. That is the order `C.iter().map(|g| g * g)` feeds
/// a sum, so the gradient's clip norm runs alongside the products
/// instead of after them.
#[inline(always)]
pub fn outer_sum_desc<E: Element>(
    a: &[E],
    b: &[E],
    c: &mut [E],
    rows: usize,
    cols: usize,
    mut sq: E,
) -> E {
    assert_eq!(c.len(), rows * cols, "output size mismatch");
    if rows == 0 || cols == 0 {
        return sq;
    }
    let steps = a.len() / rows;
    assert_eq!(a.len(), steps * rows, "row-factor size mismatch");
    assert_eq!(b.len(), steps * cols, "column-factor size mismatch");
    let mut r = 0;
    while r < rows {
        let n = if r + OR <= rows { OR } else { 1 };
        let block = &mut c[r * cols..(r + n) * cols];
        if n == OR {
            outer_rows::<E, OR>(a, b, block, rows, cols, r);
        } else {
            outer_rows::<E, 1>(a, b, block, rows, cols, r);
        }
        for &g in block.iter() {
            sq += g * g;
        }
        r += n;
    }
    sq
}

/// Rows `r..r + R` of [`outer_sum_desc`] into `c` (`R × cols`).
#[inline(always)]
fn outer_rows<E: Element, const R: usize>(
    a: &[E],
    b: &[E],
    c: &mut [E],
    rows: usize,
    cols: usize,
    r: usize,
) {
    let mut k = 0;
    while k + OB <= cols {
        outer_cells::<E, R, OB>(a, b, c, rows, cols, r, k);
        k += OB;
    }
    if k + 2 <= cols {
        outer_cells::<E, R, 2>(a, b, c, rows, cols, r, k);
        k += 2;
    }
    for k in k..cols {
        outer_cells::<E, R, 1>(a, b, c, rows, cols, r, k);
    }
}

/// Cells `(r..r + R, k..k + B)` of [`outer_sum_desc`].
#[inline(always)]
fn outer_cells<E: Element, const R: usize, const B: usize>(
    a: &[E],
    b: &[E],
    c: &mut [E],
    rows: usize,
    cols: usize,
    r: usize,
    k: usize,
) {
    let mut acc = [[E::ZERO; B]; R];
    for (at, bt) in a.chunks_exact(rows).zip(b.chunks_exact(cols)).rev() {
        let bk = &bt[k..k + B];
        for (accq, &aq) in acc.iter_mut().zip(&at[r..r + R]) {
            for (s, &bv) in accq.iter_mut().zip(bk) {
                *s += aq * bv;
            }
        }
    }
    for (q, accq) in acc.iter().enumerate() {
        c[q * cols + k..q * cols + k + B].copy_from_slice(accq);
    }
}

/// `C = A·B` for row-major `A (m × k)`, `B (k × n)`, `C (m × n)`.
///
/// Blocked `MR`×`NR` (4 × 8); within each output element the `k`
/// reduction runs in ascending order with a single accumulator, so every
/// `C[i][j]` is bit-identical to the naive triple loop.
#[inline(always)]
pub fn matmul<E: Element>(a: &[E], b: &[E], c: &mut [E], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "A size mismatch");
    assert_eq!(b.len(), k * n, "B size mismatch");
    assert_eq!(c.len(), m * n, "C size mismatch");
    let mut i = 0;
    while i + MR <= m {
        // The block's rows of `A` as slices of length `k`, and `B` row by
        // row, so the `p` loop indexes without bounds checks.
        let arows: [&[E]; MR] = std::array::from_fn(|ii| &a[(i + ii) * k..(i + ii + 1) * k]);
        let mut j = 0;
        while j + NR <= n {
            let mut acc = [[E::ZERO; NR]; MR];
            for (p, brow) in b.chunks_exact(n).enumerate() {
                let brow: &[E; NR] = brow[j..j + NR].try_into().unwrap();
                for (accr, arow) in acc.iter_mut().zip(&arows) {
                    let av = arow[p];
                    for (cell, &bv) in accr.iter_mut().zip(brow) {
                        *cell += av * bv;
                    }
                }
            }
            for (ii, accr) in acc.iter().enumerate() {
                c[(i + ii) * n + j..(i + ii) * n + j + NR].copy_from_slice(accr);
            }
            j += NR;
        }
        // Column tail.
        for jj in j..n {
            for ii in 0..MR {
                let mut s = E::ZERO;
                for p in 0..k {
                    s += a[(i + ii) * k + p] * b[p * n + jj];
                }
                c[(i + ii) * n + jj] = s;
            }
        }
        i += MR;
    }
    // Row tail.
    for ii in i..m {
        for jj in 0..n {
            let mut s = E::ZERO;
            for p in 0..k {
                s += a[ii * k + p] * b[p * n + jj];
            }
            c[ii * n + jj] = s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random fill (no RNG dep in this crate's tests).
    fn fill<E: Element>(n: usize, seed: u64) -> Vec<E> {
        let mut z = seed;
        (0..n)
            .map(|_| {
                z = z
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                E::of(((z >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0)
            })
            .collect()
    }

    fn bits<E: Element>(xs: &[E]) -> Vec<u64> {
        xs.iter().map(|x| x.to_f64().to_bits()).collect()
    }

    /// Row and column counts around `outer_sum_desc`'s blocks (4 rows, 8
    /// columns) and their tails, with widths other than the LSTM's 26.
    const SHAPES: [(usize, usize); 10] = [
        (96, 26),
        (100, 27),
        (4, 3),
        (20, 7),
        (1, 9),
        (37, 1),
        (7, 5),
        (9, 2),
        (17, 33),
        (0, 4),
    ];

    fn outer_sum_desc_matches_descending_rank1_updates<E: Element>() {
        for (rows, cols) in SHAPES {
            for steps in [0, 1, 5, 12] {
                let a = fill::<E>(steps * rows, 5);
                let b = fill::<E>(steps * cols, 6);
                let mut c = vec![E::of(f64::NAN); rows * cols];
                let sq = outer_sum_desc(&a, &b, &mut c, rows, cols, E::of(-0.0));
                // Reference: one rank-1 update per step, last step first.
                let mut want = vec![E::ZERO; rows * cols];
                for t in (0..steps).rev() {
                    for r in 0..rows {
                        for k in 0..cols {
                            want[r * cols + k] += a[t * rows + r] * b[t * cols + k];
                        }
                    }
                }
                let want_sq = want.iter().fold(E::of(-0.0), |s, &g| s + g * g);
                assert_eq!(bits(&c), bits(&want), "{steps} steps of {rows}x{cols}");
                assert_eq!(
                    bits(&[sq]),
                    bits(&[want_sq]),
                    "{steps} steps of {rows}x{cols}: square sum"
                );
            }
        }
    }

    #[test]
    fn outer_sum_desc_matches_descending_rank1_updates_bitwise() {
        outer_sum_desc_matches_descending_rank1_updates::<f32>();
        outer_sum_desc_matches_descending_rank1_updates::<f64>();
    }

    fn matmul_matches_naive<E: Element>() {
        // The forward step's (4H, 2+H, B) and BPTT's (H, 4H, B) at full and
        // short batches, then odd shapes around the 4×8 block.
        for (m, k, n) in [
            (96, 26, 8),
            (24, 96, 8),
            (100, 27, 3),
            (25, 100, 7),
            (4, 6, 1),
            (5, 7, 3),
            (4, 4, 4),
            (9, 1, 2),
            (3, 26, 17),
        ] {
            let a = fill::<E>(m * k, 3);
            let b = fill::<E>(k * n, 4);
            let mut c = vec![E::ZERO; m * n];
            matmul(&a, &b, &mut c, m, k, n);
            for i in 0..m {
                for j in 0..n {
                    let mut s = E::ZERO;
                    for p in 0..k {
                        s += a[i * k + p] * b[p * n + j];
                    }
                    assert_eq!(
                        bits(&[c[i * n + j]]),
                        bits(&[s]),
                        "({i},{j}) of {m}x{k}x{n}"
                    );
                }
            }
        }
    }

    #[test]
    fn matmul_matches_naive_bitwise() {
        matmul_matches_naive::<f32>();
        matmul_matches_naive::<f64>();
    }

    #[test]
    fn empty_and_degenerate_shapes() {
        let mut c: Vec<f64> = vec![];
        matmul(&[], &[], &mut c, 0, 0, 0);
        assert_eq!(outer_sum_desc(&[], &[], &mut c, 0, 0, 1.5), 1.5);
    }
}

//! Small hand-rolled blocked matrix kernels (`f64`, no deps).
//!
//! These are the hot-path kernels behind the packed LSTM cell
//! ([`crate::lstm`]), one per shape a training batch or an inference
//! batch needs:
//!
//! * [`matmul`] — a 4×4-blocked GEMM: the forward step's gate
//!   pre-activations across a batch's columns, and the BPTT step's
//!   `dH_prev = W_hᵀ·dZ` against a transposed copy of `W_h`;
//! * [`outer_sum_desc`] — `C = Σ_t a_t ⊗ b_t` in descending `t`, the
//!   whole batch's weight gradient in one pass after BPTT.
//!
//! Both are `#[inline(always)]`, so each compiles into its caller: the
//! LSTM's baseline and AVX2 copies (see [`crate::lstm`]) each get their
//! own code for them.
//!
//! # Determinism / equivalence contract
//!
//! Every kernel computes each output element **with a single
//! accumulator, starting from `0.0`, in one fixed summation order**
//! (ascending index, or descending `t` for [`outer_sum_desc`]), so its
//! results are bit-for-bit identical to the naive scalar loop in that
//! order. The blocking only regroups *independent* output elements,
//! never the summation within one element, and no kernel uses a fused
//! multiply-add. The unit tests below pin each kernel against its naive
//! loop on odd shapes, and `crates/predict/tests/kernel_equiv.rs` pins
//! the packed LSTM forward built on these kernels against the scalar
//! reference implementation ([`crate::reference`]).
//!
//! The speedup comes from keeping a block of independent accumulators in
//! registers — which hides the FP-add latency a single chain serializes
//! on and lets the compiler vectorize across the block — and from
//! walking memory sequentially, not from reassociating floating-point
//! math.

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
pub fn outer_sum_desc(
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    rows: usize,
    cols: usize,
    mut sq: f64,
) -> f64 {
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
            outer_rows::<OR>(a, b, block, rows, cols, r);
        } else {
            outer_rows::<1>(a, b, block, rows, cols, r);
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
fn outer_rows<const R: usize>(
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    rows: usize,
    cols: usize,
    r: usize,
) {
    let mut k = 0;
    while k + OB <= cols {
        outer_cells::<R, OB>(a, b, c, rows, cols, r, k);
        k += OB;
    }
    if k + 2 <= cols {
        outer_cells::<R, 2>(a, b, c, rows, cols, r, k);
        k += 2;
    }
    for k in k..cols {
        outer_cells::<R, 1>(a, b, c, rows, cols, r, k);
    }
}

/// Cells `(r..r + R, k..k + B)` of [`outer_sum_desc`].
#[inline(always)]
fn outer_cells<const R: usize, const B: usize>(
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    rows: usize,
    cols: usize,
    r: usize,
    k: usize,
) {
    let mut acc = [[0.0f64; B]; R];
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
pub fn matmul(a: &[f64], b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "A size mismatch");
    assert_eq!(b.len(), k * n, "B size mismatch");
    assert_eq!(c.len(), m * n, "C size mismatch");
    let mut i = 0;
    while i + MR <= m {
        let mut j = 0;
        while j + NR <= n {
            let mut acc = [[0.0f64; NR]; MR];
            for p in 0..k {
                let brow = &b[p * n + j..p * n + j + NR];
                for (ii, accr) in acc.iter_mut().enumerate() {
                    let av = a[(i + ii) * k + p];
                    for (jj, cell) in accr.iter_mut().enumerate() {
                        *cell += av * brow[jj];
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
                let mut s = 0.0;
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
            let mut s = 0.0;
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
    fn fill(n: usize, seed: u64) -> Vec<f64> {
        let mut z = seed;
        (0..n)
            .map(|_| {
                z = z
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((z >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            })
            .collect()
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Row and column counts around `outer_sum_desc`'s blocks (2 rows, 8
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

    #[test]
    fn outer_sum_desc_matches_descending_rank1_updates_bitwise() {
        for (rows, cols) in SHAPES {
            for steps in [0, 1, 5, 12] {
                let a = fill(steps * rows, 5);
                let b = fill(steps * cols, 6);
                let mut c = vec![f64::NAN; rows * cols];
                let sq = outer_sum_desc(&a, &b, &mut c, rows, cols, -0.0);
                // Reference: one rank-1 update per step, last step first.
                let mut want = vec![0.0; rows * cols];
                for t in (0..steps).rev() {
                    for r in 0..rows {
                        for k in 0..cols {
                            want[r * cols + k] += a[t * rows + r] * b[t * cols + k];
                        }
                    }
                }
                let want_sq: f64 = want.iter().map(|g| g * g).sum();
                assert_eq!(bits(&c), bits(&want), "{steps} steps of {rows}x{cols}");
                assert_eq!(
                    sq.to_bits(),
                    want_sq.to_bits(),
                    "{steps} steps of {rows}x{cols}: square sum"
                );
            }
        }
    }

    #[test]
    fn matmul_matches_naive_bitwise() {
        // The forward step's (4H, 2+H, B) and BPTT's (H, 4H, B) at full and
        // short batches, then odd shapes around the 4×4 block.
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
            let a = fill(m * k, 3);
            let b = fill(k * n, 4);
            let mut c = vec![0.0; m * n];
            matmul(&a, &b, &mut c, m, k, n);
            for i in 0..m {
                for j in 0..n {
                    let mut s = 0.0;
                    for p in 0..k {
                        s += a[i * k + p] * b[p * n + j];
                    }
                    assert_eq!(c[i * n + j], s, "({i},{j}) of {m}x{k}x{n}");
                }
            }
        }
    }

    #[test]
    fn empty_and_degenerate_shapes() {
        let mut c: Vec<f64> = vec![];
        matmul(&[], &[], &mut c, 0, 0, 0);
        assert_eq!(outer_sum_desc(&[], &[], &mut c, 0, 0, 1.5), 1.5);
    }
}

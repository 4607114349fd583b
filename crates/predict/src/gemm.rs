//! Small hand-rolled blocked matrix kernels (`f64`, no deps).
//!
//! These are the hot-path kernels behind the packed LSTM cell
//! ([`crate::lstm`]) and the batched rolling-origin inference pass, one
//! per shape a training sample or an inference batch needs:
//!
//! * [`matvec_colmajor`] — `y = A·x` over a column-major copy of `A`,
//!   the forward step's gate pre-activations;
//! * [`matvec_t`] — `out = Aᵀ·y` over a window of `A`'s columns, the
//!   BPTT step's `dh_prev = W_hᵀ·dz`;
//! * [`outer_sum_desc`] — `C = Σ_t a_t ⊗ b_t` in descending `t`, the
//!   whole sequence's weight gradient in one pass after BPTT;
//! * [`matmul`] — a 4×4-blocked GEMM, the batched inference step.
//!
//! # Determinism / equivalence contract
//!
//! Every kernel computes each output element **with a single
//! accumulator, starting from `0.0`, in one fixed summation order**
//! (ascending index, or descending `t` for [`outer_sum_desc`]), so its
//! results are bit-for-bit identical to the naive scalar loop in that
//! order. The blocking only regroups *independent* output elements,
//! never the summation within one element. The unit tests below pin each
//! kernel against its naive loop on odd shapes, and
//! `crates/predict/tests/kernel_equiv.rs` pins the packed LSTM forward
//! built on these kernels against the scalar reference implementation
//! ([`crate::reference`]).
//!
//! The speedup comes from keeping a block of independent accumulators in
//! registers — which hides the FP-add latency a single chain serializes
//! on and lets the compiler vectorize across the block — and from
//! walking memory sequentially, not from reassociating floating-point
//! math.

/// Register rows per GEMM block.
const MR: usize = 4;
/// Register columns per GEMM block.
const NR: usize = 4;
/// Rows per block of [`matvec_colmajor`]: 16 accumulators, one
/// contiguous 16-row slice of each column.
const RB: usize = 16;
/// Outputs per block of [`matvec_t`], and columns per block of
/// [`outer_sum_desc`].
const OB: usize = 8;
/// Rows per block of [`outer_sum_desc`].
const OR: usize = 2;

/// `y = A·x` for a `rows × cols` matrix stored **column-major** in `at`
/// (`at[c·rows + r] = A[r][c]`).
///
/// Each `y[r]` is the dot product of row `r` with `x` in ascending
/// column order from `0.0`, bit-identical to the naive row loop. Rows
/// run in blocks of 16 (then 1): a block reads one contiguous slice per
/// column, so its accumulators vectorize across the rows.
pub fn matvec_colmajor(at: &[f64], x: &[f64], y: &mut [f64], rows: usize, cols: usize) {
    assert_eq!(at.len(), rows * cols, "matrix size mismatch");
    assert_eq!(x.len(), cols, "input length mismatch");
    assert_eq!(y.len(), rows, "output length mismatch");
    let mut r = 0;
    while r + RB <= rows {
        colmajor_rows::<RB>(at, x, &mut y[r..r + RB], rows, r);
        r += RB;
    }
    for r in r..rows {
        colmajor_rows::<1>(at, x, &mut y[r..r + 1], rows, r);
    }
}

/// Rows `r..r + B` of [`matvec_colmajor`].
#[inline(always)]
fn colmajor_rows<const B: usize>(at: &[f64], x: &[f64], y: &mut [f64], rows: usize, r: usize) {
    let mut acc = [0.0f64; B];
    for (c, &xc) in x.iter().enumerate() {
        let col = &at[c * rows + r..c * rows + r + B];
        for (s, &a) in acc.iter_mut().zip(col) {
            *s += a * xc;
        }
    }
    y.copy_from_slice(&acc);
}

/// Transposed matrix–vector product over a column window:
/// `out[j] = Σ_r y[r] · A[r, c0 + j]` for `j in 0..out.len()`, with `A`
/// row-major of width `cols` and `y.len()` rows.
///
/// This is the `dh_prev = W_hᵀ·dz` shape of the BPTT step restricted to
/// the hidden-state columns of the packed cell matrix. Every `out[j]`
/// sums over the rows in ascending order from `0.0`. Outputs run in
/// blocks of 8 (then 1) whose accumulators stay in registers across all
/// rows, rather than being stored and reloaded on every row.
pub fn matvec_t(a: &[f64], y: &[f64], out: &mut [f64], cols: usize, c0: usize) {
    assert_eq!(a.len(), y.len() * cols, "matrix size mismatch");
    assert!(c0 + out.len() <= cols, "column window out of bounds");
    let n = out.len();
    let mut j = 0;
    while j + OB <= n {
        transposed_cols::<OB>(a, y, &mut out[j..j + OB], cols, c0 + j);
        j += OB;
    }
    for j in j..n {
        transposed_cols::<1>(a, y, &mut out[j..j + 1], cols, c0 + j);
    }
}

/// Columns `c..c + B` of [`matvec_t`].
#[inline(always)]
fn transposed_cols<const B: usize>(a: &[f64], y: &[f64], out: &mut [f64], cols: usize, c: usize) {
    let mut acc = [0.0f64; B];
    for (row, &yr) in a.chunks_exact(cols).zip(y) {
        for (s, &av) in acc.iter_mut().zip(&row[c..c + B]) {
            *s += yr * av;
        }
    }
    out.copy_from_slice(&acc);
}

/// Sum of outer products in **descending** `t`:
/// `C[r][k] = Σ_{t = T-1 … 0} a[t][r] · b[t][k]`, for row-major
/// `a (T × rows)`, `b (T × cols)` and `C (rows × cols)`.
///
/// Each cell sums its `T` products from `0.0`, last step first — the
/// order of `T` rank-1 updates applied during a backward pass — with
/// one accumulator. Cells run in blocks of 2 rows × 8 columns (then
/// narrower tails), each block sharing its loads of `b`.
///
/// As each pair of rows finishes, its squares are folded onto the serial
/// chain `sq` in row-major cell order (`sq += C[r][k]²`), and the final
/// chain is returned. That is the order `C.iter().map(|g| g * g)` feeds
/// a sum, so the gradient's clip norm runs alongside the products
/// instead of after them.
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
/// Blocked `MR`×`NR`; within each output element the `k` reduction
/// runs in ascending order with a single accumulator, so every `C[i][j]`
/// is bit-identical to the naive triple loop.
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

    /// Row counts around every block size (16, 8, 2) and their tails,
    /// with widths other than the LSTM's 26.
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
    fn matvec_colmajor_matches_the_naive_row_loop_bitwise() {
        for (rows, cols) in SHAPES {
            let a = fill(rows * cols, 1);
            let x = fill(cols, 2);
            let mut at = vec![0.0; rows * cols];
            for r in 0..rows {
                for c in 0..cols {
                    at[c * rows + r] = a[r * cols + c];
                }
            }
            let mut y = vec![0.0; rows];
            matvec_colmajor(&at, &x, &mut y, rows, cols);
            let want: Vec<f64> = (0..rows)
                .map(|r| {
                    let mut s = 0.0;
                    for c in 0..cols {
                        s += a[r * cols + c] * x[c];
                    }
                    s
                })
                .collect();
            assert_eq!(bits(&y), bits(&want), "{rows}x{cols}");
        }
    }

    #[test]
    fn matvec_t_matches_the_naive_ascending_loop_bitwise() {
        // (rows, cols, c0): windows of 1..=25 outputs around the block
        // of 8, starting at column 0 and past it.
        for (rows, cols, c0) in [
            (96, 26, 2),
            (100, 27, 2),
            (4, 3, 2),
            (20, 7, 2),
            (13, 11, 0),
            (9, 17, 1),
            (5, 25, 0),
            (3, 4, 4),
        ] {
            let a = fill(rows * cols, 3);
            let y = fill(rows, 4);
            let mut out = vec![f64::NAN; cols - c0];
            matvec_t(&a, &y, &mut out, cols, c0);
            let want: Vec<f64> = (0..cols - c0)
                .map(|j| {
                    let mut s = 0.0;
                    for r in 0..rows {
                        s += y[r] * a[r * cols + c0 + j];
                    }
                    s
                })
                .collect();
            assert_eq!(bits(&out), bits(&want), "{rows}x{cols} from {c0}");
        }
    }

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
        for (m, k, n) in [(96, 26, 8), (5, 7, 3), (4, 4, 4), (9, 1, 2), (3, 26, 17)] {
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
        let mut y: Vec<f64> = vec![];
        matvec_colmajor(&[], &[], &mut y, 0, 0);
        let mut c: Vec<f64> = vec![];
        matmul(&[], &[], &mut c, 0, 0, 0);
        let mut out: Vec<f64> = vec![];
        matvec_t(&[1.0, 2.0], &[1.0], &mut out, 2, 1);
        assert_eq!(outer_sum_desc(&[], &[], &mut c, 0, 0, 1.5), 1.5);
    }
}

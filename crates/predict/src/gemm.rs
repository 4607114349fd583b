//! Small hand-rolled blocked matrix kernels (row-major, `f64`, no deps).
//!
//! These are the hot-path kernels behind the packed LSTM cell
//! ([`crate::lstm`]) and the batched rolling-origin inference pass. They
//! are deliberately tiny: a register-blocked matrix–vector product, a
//! 4×4-blocked GEMM, a rank-1 accumulate, and a transposed
//! matrix–vector accumulate — exactly the four shapes one BPTT step
//! needs.
//!
//! # Determinism / equivalence contract
//!
//! Every kernel accumulates each output element's dot product **in
//! ascending index order with a single accumulator**, so results are
//! bit-for-bit identical to the naive scalar triple loop (the blocking
//! only reorders *independent* output elements, never the summation
//! within one element). The kernel-equivalence golden tests in
//! `crates/predict/tests/kernel_equiv.rs` pin this: the packed LSTM
//! forward built on these kernels must match the scalar reference
//! implementation ([`crate::reference`]) exactly.
//!
//! The speedup comes from instruction-level parallelism (4 concurrent
//! per-row accumulator chains hide the FP-add latency the scalar loop
//! serializes on) and from the row-major layout walking memory
//! sequentially — not from reassociating floating-point math.

/// Register rows per block: 4 independent accumulator chains saturate
/// the FP pipelines without spilling on any mainstream core.
const MR: usize = 4;
/// Register columns per GEMM block.
const NR: usize = 4;

/// `y = A·x` for a row-major `rows × cols` matrix.
///
/// Each `y[r]` is the ascending-order dot product of row `r` with `x`
/// (bit-identical to the naive loop); rows are processed in blocks of
/// `MR` so the four dot products run on independent accumulators.
pub fn matvec(a: &[f64], x: &[f64], y: &mut [f64], rows: usize, cols: usize) {
    assert_eq!(a.len(), rows * cols, "matrix size mismatch");
    assert_eq!(x.len(), cols, "input length mismatch");
    assert_eq!(y.len(), rows, "output length mismatch");
    let mut r = 0;
    while r + MR <= rows {
        let r0 = &a[r * cols..(r + 1) * cols];
        let r1 = &a[(r + 1) * cols..(r + 2) * cols];
        let r2 = &a[(r + 2) * cols..(r + 3) * cols];
        let r3 = &a[(r + 3) * cols..(r + 4) * cols];
        let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
        for c in 0..cols {
            let xc = x[c];
            s0 += r0[c] * xc;
            s1 += r1[c] * xc;
            s2 += r2[c] * xc;
            s3 += r3[c] * xc;
        }
        y[r] = s0;
        y[r + 1] = s1;
        y[r + 2] = s2;
        y[r + 3] = s3;
        r += MR;
    }
    for rr in r..rows {
        let row = &a[rr * cols..(rr + 1) * cols];
        let mut s = 0.0;
        for c in 0..cols {
            s += row[c] * x[c];
        }
        y[rr] = s;
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

/// Rank-1 accumulate: `A += y ⊗ x` for a row-major `rows × cols` matrix.
///
/// Row updates are independent elementwise adds (one product each), so
/// there is no reduction to reorder — the result is bit-identical to the
/// scalar double loop in any order. Rows walk memory sequentially.
pub fn rank1_acc(a: &mut [f64], y: &[f64], x: &[f64], rows: usize, cols: usize) {
    assert_eq!(a.len(), rows * cols, "matrix size mismatch");
    assert_eq!(y.len(), rows, "row-scale length mismatch");
    assert_eq!(x.len(), cols, "col-vector length mismatch");
    for (r, &yr) in y.iter().enumerate() {
        let row = &mut a[r * cols..(r + 1) * cols];
        for (cell, &xc) in row.iter_mut().zip(x) {
            *cell += yr * xc;
        }
    }
}

/// Transposed matrix–vector accumulate over a column window:
/// `out[j] += Σ_r y[r] · A[r, c0 + j]` for `j in 0..out.len()`.
///
/// This is the `dh_prev = Wᵀ·dz` shape of the BPTT step restricted to
/// the hidden-state columns of the packed cell matrix. The reduction
/// over rows runs in ascending row order for every `j`, and each
/// row's contribution is a vectorizable elementwise pass.
pub fn matvec_t_acc(a: &[f64], y: &[f64], out: &mut [f64], cols: usize, c0: usize) {
    let rows = y.len();
    assert_eq!(a.len(), rows * cols, "matrix size mismatch");
    assert!(c0 + out.len() <= cols, "column window out of bounds");
    for (r, &yr) in y.iter().enumerate() {
        let row = &a[r * cols + c0..r * cols + c0 + out.len()];
        for (o, &av) in out.iter_mut().zip(row) {
            *o += yr * av;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matvec(a: &[f64], x: &[f64], rows: usize, cols: usize) -> Vec<f64> {
        (0..rows)
            .map(|r| {
                let mut s = 0.0;
                for c in 0..cols {
                    s += a[r * cols + c] * x[c];
                }
                s
            })
            .collect()
    }

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

    #[test]
    fn matvec_matches_naive_bitwise() {
        // Sizes around the packed LSTM shape (96 × 26) plus odd tails.
        for (rows, cols) in [(96, 26), (7, 5), (4, 1), (1, 9), (13, 13)] {
            let a = fill(rows * cols, 1);
            let x = fill(cols, 2);
            let mut y = vec![0.0; rows];
            matvec(&a, &x, &mut y, rows, cols);
            assert_eq!(y, naive_matvec(&a, &x, rows, cols), "{rows}x{cols}");
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
    fn matmul_single_column_matches_matvec() {
        let (rows, cols) = (96, 26);
        let a = fill(rows * cols, 5);
        let x = fill(cols, 6);
        let mut y = vec![0.0; rows];
        matvec(&a, &x, &mut y, rows, cols);
        let mut c = vec![0.0; rows];
        matmul(&a, &x, &mut c, rows, cols, 1);
        assert_eq!(y, c, "GEMM with n=1 must equal matvec bit-for-bit");
    }

    #[test]
    fn rank1_accumulates() {
        let (rows, cols) = (6, 5);
        let mut a = fill(rows * cols, 7);
        let before = a.clone();
        let y = fill(rows, 8);
        let x = fill(cols, 9);
        rank1_acc(&mut a, &y, &x, rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                assert_eq!(a[r * cols + c], before[r * cols + c] + y[r] * x[c]);
            }
        }
    }

    #[test]
    fn matvec_t_acc_windows_columns() {
        let (rows, cols) = (8, 6);
        let a = fill(rows * cols, 10);
        let y = fill(rows, 11);
        let c0 = 2;
        let mut out = vec![0.5; 3];
        matvec_t_acc(&a, &y, &mut out, cols, c0);
        for (j, &o) in out.iter().enumerate() {
            let mut s = 0.5;
            for r in 0..rows {
                s += y[r] * a[r * cols + c0 + j];
            }
            assert_eq!(o, s, "col {j}");
        }
    }

    #[test]
    fn empty_and_degenerate_shapes() {
        let mut y: Vec<f64> = vec![];
        matvec(&[], &[], &mut y, 0, 0);
        let mut c: Vec<f64> = vec![];
        matmul(&[], &[], &mut c, 0, 0, 0);
        let mut out: Vec<f64> = vec![];
        matvec_t_acc(&[1.0, 2.0], &[1.0], &mut out, 2, 1);
    }
}

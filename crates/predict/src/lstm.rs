//! A from-scratch single-layer LSTM forecaster on packed matrix kernels.
//!
//! §4.4: "The LSTM model has 1 layer and 24 units (2496 weights)". With
//! input size 1 and hidden size 24 the recurrent cell holds
//! `4·24·(1+24) = 2400` matrix weights plus `4·24 = 96` biases — exactly
//! 2496. A linear readout (24 weights + 1 bias) maps the final hidden
//! state to the forecast; the paper's count covers the cell only, which
//! [`Lstm::cell_weight_count`] asserts.
//!
//! Training: per-sample full BPTT over a fixed lookback, Adam at a 0.01
//! learning rate, global-norm gradient clipping at 5, inputs scaled to
//! `[0, 1]` (CPU percent / 100). The learning rate and clip are module
//! constants shared with the scalar reference; [`LstmConfig`] keeps the
//! shape (hidden units, lookback), the schedule (epochs, stride) and the
//! seed, which callers and the kernel-equivalence sweeps vary.
//!
//! # Packed cell layout and kernels
//!
//! The four gate weight matrices and their biases live in **one**
//! contiguous row-major block of shape `[4·H × (1 + input + H)]`
//! (`input = 1`): row `gate·H + j` holds unit `j` of gate `i/f/g/o`, and
//! its columns are `[bias, x-weight, h-weights…]`. Adam updates run over
//! that buffer directly. One training sample then runs as:
//!
//! * **Forward.** One column-major copy of the block per sample, and per
//!   step one [`gemm::matvec_colmajor`] against the step vector
//!   `v = [1, x, h_prev…]`, vectorized across the 4·H gate rows. The
//!   activations run over contiguous gate blocks (sigmoid on `i`, `f`,
//!   `o`; tanh on `g`), then the `c` and `h` updates as slice loops; the
//!   caches keep every step's `v` (whose `h` slots the step writes for
//!   the next), gates, `c` (behind a zero row for `c₋₁`) and `tanh(c)`.
//! * **Backward.** Per BPTT step the pointwise gate gradients `dz`, kept
//!   for every step, and `dh_prev = W_hᵀ·dz` by [`gemm::matvec_t`]. After
//!   the last step one [`gemm::outer_sum_desc`] builds the weight
//!   gradient `Σ_t dz_t ⊗ v_t` and folds the clip norm's square sum on
//!   as it goes.
//! * **Adam** over equal-length slices, without the division by the
//!   first bias correction once it is exactly 1.0.
//!
//! A reusable `Workspace` holds every cache, so the hot loop never
//! allocates. Rolling-origin inference ([`Lstm::forecast_online`])
//! batches all test positions into one [`gemm::matmul`] per step, since
//! the rolling histories are known up front.
//!
//! # Equivalence
//!
//! Every output element keeps one accumulator, its starting value and
//! its summation order; the kernels only regroup independent elements.
//! So training is pinned **bit for bit** to the previous packed step —
//! per-step rank-1 gradient updates, a separate clip-norm sum, and Adam
//! dividing by both bias corrections — which the crate's unit tests keep
//! as a test-only reference and compare after `train` on every weight,
//! Adam moment and forecast
//! (`train_equals_the_previous_packed_step_bit_for_bit`).
//!
//! Against the pre-kernel scalar implementation (kept as
//! [`crate::reference::ScalarLstm`]) the packed **forward** pass is
//! bit-for-bit identical on the same weights: its dot products run in
//! the same ascending order, and `Lstm::new` draws its initialization in
//! the same RNG order, so both paths start from the same logical model.
//! The packed **backward** pass reorders two independent reductions
//! relative to the scalar one (the global clip norm and the `dh_prev`
//! row sum), which shifts training by floating-point round-off only; the
//! kernel-equivalence tests in `crates/predict/tests/kernel_equiv.rs`
//! pin both properties.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::gemm;

/// Adam learning rate, shared with [`crate::reference::ScalarLstm`].
pub(crate) const LR: f64 = 0.01;
/// Global-norm gradient clip, shared with [`crate::reference::ScalarLstm`].
pub(crate) const CLIP: f64 = 5.0;

/// Hyper-parameters.
#[derive(Debug, Clone)]
pub struct LstmConfig {
    /// Hidden units (paper: 24).
    pub hidden: usize,
    /// Lookback window length (number of past half-hour windows fed per
    /// prediction).
    pub lookback: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Stride between training sequences (1 = every position).
    pub stride: usize,
    /// Initialization / shuffling seed.
    pub seed: u64,
}

impl Default for LstmConfig {
    fn default() -> Self {
        LstmConfig {
            hidden: 24,
            lookback: 12,
            epochs: 6,
            stride: 1,
            seed: 7,
        }
    }
}

/// Adam's first-moment decay.
const B1: f64 = 0.9;
/// Adam's second-moment decay.
const B2: f64 = 0.999;
/// Adam's denominator guard.
const EPS: f64 = 1e-8;

/// Flat parameter block with Adam moments.
#[derive(Debug, Clone)]
struct AdamParam {
    w: Vec<f64>,
    m: Vec<f64>,
    v: Vec<f64>,
}

impl AdamParam {
    fn new(w: Vec<f64>) -> Self {
        let n = w.len();
        AdamParam {
            w,
            m: vec![0.0; n],
            v: vec![0.0; n],
        }
    }

    fn step(&mut self, grad: &[f64], t: usize) {
        let bc1 = 1.0 - B1.powi(t as i32);
        let bc2 = 1.0 - B2.powi(t as i32);
        // From t ≈ 356 on, 0.9ᵗ < 2⁻⁵⁴ and `bc1` rounds to exactly 1.0;
        // `m / 1.0 == m` for every value arithmetic produces, so that
        // division is skipped.
        if bc1 == 1.0 {
            self.update::<false>(grad, bc1, bc2);
        } else {
            self.update::<true>(grad, bc1, bc2);
        }
    }

    /// One Adam update over equal-length slices (so the loop
    /// vectorizes); `DIV1` divides the first moment by `bc1`.
    #[inline(always)]
    fn update<const DIV1: bool>(&mut self, grad: &[f64], bc1: f64, bc2: f64) {
        assert_eq!(grad.len(), self.w.len(), "gradient length mismatch");
        let moments = self.m.iter_mut().zip(self.v.iter_mut());
        for ((w, (m, v)), &g) in self.w.iter_mut().zip(moments).zip(grad) {
            *m = B1 * *m + (1.0 - B1) * g;
            *v = B2 * *v + (1.0 - B2) * g * g;
            let mh = if DIV1 { *m / bc1 } else { *m };
            let vh = *v / bc2;
            *w -= LR * mh / (vh.sqrt() + EPS);
        }
    }
}

/// The LSTM forecaster (packed-kernel implementation; see module docs).
#[derive(Debug, Clone)]
pub struct Lstm {
    cfg: LstmConfig,
    /// Packed cell block, rows = 4·H gates (i, f, g, o), cols =
    /// `[bias, x-weight, h-weights…]` (width 2 + H).
    wb: AdamParam,
    /// Readout weights, H.
    wy: AdamParam,
    /// Readout bias.
    by: AdamParam,
    adam_t: usize,
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Reusable buffers for one training/inference stream: the transposed
/// cell block, the per-step caches, and the backward scratch. Sized for
/// the longest sequence seen so far; reused across every
/// `train_one`/`forward` call of one training run so the hot loop never
/// allocates.
struct Workspace {
    hn: usize,
    cols: usize,
    /// Step capacity the per-step caches are sized for.
    steps: usize,
    /// Column-major copy of the packed cell block, `cols × 4H`.
    wt: Vec<f64>,
    /// Step vectors, `(steps + 1) × cols`: row `t` is `[1, x_t, h_{t-1}]`,
    /// so the hidden state of step `t` lives in row `t + 1`. Row 0's
    /// hidden slots are `h_{-1} = 0`: no step writes them.
    vs: Vec<f64>,
    /// Pre-activations, then activated gates (`i/f/g/o` in row layout)
    /// per step, `steps × 4H`.
    gates: Vec<f64>,
    /// Cell states, `(steps + 1) × H`: row `t + 1` is the state of step
    /// `t`, and row 0 is `c_{-1} = 0`: no step writes it.
    c: Vec<f64>,
    /// `tanh(c)` per step, `steps × H`.
    tanh_c: Vec<f64>,
    /// Backward: gate pre-activation gradients per step, `steps × 4H`.
    dz: Vec<f64>,
    /// Backward: dL/dh of the current step, H.
    dh: Vec<f64>,
    /// Backward: dL/dc carried across steps, H.
    dc: Vec<f64>,
    /// Packed cell gradient, same shape as `Lstm::wb`.
    gwb: Vec<f64>,
    /// Readout weight gradient, H.
    gwy: Vec<f64>,
}

impl Workspace {
    fn new(hn: usize) -> Self {
        let cols = 2 + hn;
        Workspace {
            hn,
            cols,
            steps: 0,
            wt: vec![0.0; 4 * hn * cols],
            vs: vec![0.0; cols],
            gates: Vec::new(),
            c: vec![0.0; hn],
            tanh_c: Vec::new(),
            dz: Vec::new(),
            dh: vec![0.0; hn],
            dc: vec![0.0; hn],
            gwb: vec![0.0; 4 * hn * cols],
            gwy: vec![0.0; hn],
        }
    }

    fn ensure_steps(&mut self, steps: usize) {
        if steps > self.steps {
            let (hn, c4) = (self.hn, 4 * self.hn);
            self.vs.resize((steps + 1) * self.cols, 0.0);
            self.gates.resize(steps * c4, 0.0);
            self.c.resize((steps + 1) * hn, 0.0);
            self.tanh_c.resize(steps * hn, 0.0);
            self.dz.resize(steps * c4, 0.0);
            self.steps = steps;
        }
    }
}

impl Lstm {
    /// Fresh, randomly-initialized model. The matrix weights are drawn
    /// in the same RNG order as the scalar reference
    /// ([`crate::reference::ScalarLstm::new`]) and scattered into the
    /// packed layout, so both implementations start from the same
    /// logical weights for a given seed.
    pub fn new(cfg: LstmConfig) -> Self {
        assert!(cfg.hidden > 0 && cfg.lookback > 0 && cfg.stride > 0);
        let h = cfg.hidden;
        let cols = 2 + h;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let k = 1.0 / (h as f64).sqrt();
        let mut wb = vec![0.0; 4 * h * cols];
        // Matrix part first (cols 1..), row-major — the reference draw
        // order.
        for row in wb.chunks_exact_mut(cols) {
            for v in &mut row[1..] {
                *v = rng.gen_range(-k..k);
            }
        }
        // Bias column: forget gate at 1.0 — the standard trick for
        // gradient flow — everything else at 0.
        for (r, row) in wb.chunks_exact_mut(cols).enumerate() {
            row[0] = if (h..2 * h).contains(&r) { 1.0 } else { 0.0 };
        }
        let wy: Vec<f64> = (0..h).map(|_| rng.gen_range(-k..k)).collect();
        Lstm {
            wb: AdamParam::new(wb),
            wy: AdamParam::new(wy),
            by: AdamParam::new(vec![0.0]),
            adam_t: 0,
            cfg,
        }
    }

    /// Trainable weights in the recurrent cell — the paper's quoted count
    /// (matrix weights plus biases; both live in the packed block).
    pub fn cell_weight_count(&self) -> usize {
        self.wb.w.len()
    }

    /// Total trainable weights including the readout.
    pub fn total_weight_count(&self) -> usize {
        self.cell_weight_count() + self.wy.w.len() + self.by.w.len()
    }

    /// Forward one sequence (normalized inputs) through the workspace,
    /// leaving all step caches populated; returns the prediction.
    fn forward_ws(&self, xs: &[f64], ws: &mut Workspace) -> f64 {
        assert!(!xs.is_empty(), "non-empty sequence");
        let (hn, cols) = (ws.hn, ws.cols);
        let c4 = 4 * hn;
        let steps = xs.len();
        ws.ensure_steps(steps);
        for (r, row) in self.wb.w.chunks_exact(cols).enumerate() {
            for (c, &w) in row.iter().enumerate() {
                ws.wt[c * c4 + r] = w;
            }
        }
        for (t, &x) in xs.iter().enumerate() {
            let (v_done, v_next) = ws.vs.split_at_mut((t + 1) * cols);
            let v = &mut v_done[t * cols..];
            v[0] = 1.0;
            v[1] = x;
            let z = &mut ws.gates[t * c4..(t + 1) * c4];
            gemm::matvec_colmajor(&ws.wt, v, z, c4, cols);
            let (ifg, o_g) = z.split_at_mut(3 * hn);
            let (i_f, g_g) = ifg.split_at_mut(2 * hn);
            for z in i_f.iter_mut().chain(o_g.iter_mut()) {
                *z = sigmoid(*z);
            }
            for z in g_g.iter_mut() {
                *z = z.tanh();
            }
            let (i_g, f_g) = i_f.split_at(hn);
            let (c_done, c_next) = ws.c.split_at_mut((t + 1) * hn);
            let (c_prev, c_t) = (&c_done[t * hn..], &mut c_next[..hn]);
            for j in 0..hn {
                c_t[j] = f_g[j] * c_prev[j] + i_g[j] * g_g[j];
            }
            let tc = &mut ws.tanh_c[t * hn..(t + 1) * hn];
            for (tc, cj) in tc.iter_mut().zip(c_t.iter()) {
                *tc = cj.tanh();
            }
            for ((h, o), tc) in v_next[2..cols].iter_mut().zip(o_g.iter()).zip(tc.iter()) {
                *h = o * tc;
            }
        }
        let h_last = &ws.vs[steps * cols + 2..(steps + 1) * cols];
        let s: f64 = self.wy.w.iter().zip(h_last).map(|(w, h)| w * h).sum();
        self.by.w[0] + s
    }

    /// Forward without exposing the workspace (inference, single
    /// sequence). Hot inference goes through the batched
    /// [`forecast_online`](Self::forecast_online) instead.
    pub fn predict_normalized(&self, xs: &[f64]) -> f64 {
        let mut ws = Workspace::new(self.cfg.hidden);
        self.forward_ws(xs, &mut ws)
    }

    /// One SGD/Adam step on a single (sequence → target) pair. Returns the
    /// squared error before the update.
    fn train_one_ws(&mut self, xs: &[f64], target: f64, ws: &mut Workspace) -> f64 {
        let (hn, cols) = (ws.hn, ws.cols);
        let c4 = 4 * hn;
        let y = self.forward_ws(xs, ws);
        let dy = 2.0 * (y - target);
        let steps = xs.len();

        let h_last = &ws.vs[steps * cols + 2..(steps + 1) * cols];
        for (g, &h) in ws.gwy.iter_mut().zip(h_last) {
            *g = dy * h;
        }
        let gby = dy;
        for (dhj, wyj) in ws.dh.iter_mut().zip(&self.wy.w) {
            *dhj = dy * wyj;
        }
        ws.dc.fill(0.0);

        for t in (0..steps).rev() {
            // Pointwise gate gradients; `dc` becomes `dc_prev` in place
            // (each element is read once before being overwritten).
            let gates = &ws.gates[t * c4..(t + 1) * c4];
            let (i_g, rest) = gates.split_at(hn);
            let (f_g, rest) = rest.split_at(hn);
            let (g_g, o_g) = rest.split_at(hn);
            let tc = &ws.tanh_c[t * hn..(t + 1) * hn];
            let c_prev = &ws.c[t * hn..(t + 1) * hn];
            let dz = &mut ws.dz[t * c4..(t + 1) * c4];
            let (dz_i, rest) = dz.split_at_mut(hn);
            let (dz_f, rest) = rest.split_at_mut(hn);
            let (dz_g, dz_o) = rest.split_at_mut(hn);
            let (dh, dc) = (&ws.dh[..hn], &mut ws.dc[..hn]);
            for j in 0..hn {
                let dcj = dc[j] + dh[j] * o_g[j] * (1.0 - tc[j] * tc[j]);
                let d_o = dh[j] * tc[j];
                let d_i = dcj * g_g[j];
                let d_f = dcj * c_prev[j];
                let d_g = dcj * i_g[j];
                dz_i[j] = d_i * i_g[j] * (1.0 - i_g[j]);
                dz_f[j] = d_f * f_g[j] * (1.0 - f_g[j]);
                dz_g[j] = d_g * (1.0 - g_g[j] * g_g[j]);
                dz_o[j] = d_o * o_g[j] * (1.0 - o_g[j]);
                dc[j] = dcj * f_g[j];
            }
            // dh_prev = W_hᵀ·dz over the hidden-state columns (step 0
            // has no previous step to carry it to).
            if t > 0 {
                let dz = &ws.dz[t * c4..(t + 1) * c4];
                gemm::matvec_t(&self.wb.w, dz, &mut ws.dh, cols, 2);
            }
        }

        // Weight gradients: the sum of every step's `dz ⊗ v`, last step
        // first, with the global clip norm's square sum (packed cell
        // gradient — weights and biases together — then the readout)
        // folded on from where `Sum for f64` starts.
        let sq = gemm::outer_sum_desc(
            &ws.dz[..steps * c4],
            &ws.vs[..steps * cols],
            &mut ws.gwb,
            c4,
            cols,
            -0.0,
        );
        let sq = ws.gwy.iter().fold(sq, |s, g| s + g * g);
        let norm = (sq + gby * gby).sqrt();
        let scale = if norm > CLIP { CLIP / norm } else { 1.0 };
        if scale < 1.0 {
            for g in ws.gwb.iter_mut().chain(&mut ws.gwy) {
                *g *= scale;
            }
        }
        let gby = [gby * scale];

        self.adam_t += 1;
        self.wb.step(&ws.gwb, self.adam_t);
        self.wy.step(&ws.gwy, self.adam_t);
        self.by.step(&gby, self.adam_t);
        (y - target) * (y - target)
    }

    /// One training step with an ephemeral workspace (tests and
    /// single-shot callers; `train` reuses one workspace for the whole
    /// run).
    #[cfg(test)]
    fn train_one(&mut self, xs: &[f64], target: f64) -> f64 {
        let mut ws = Workspace::new(self.cfg.hidden);
        self.train_one_ws(xs, target, &mut ws)
    }

    /// Train on a window series (raw percent values). Sequences are all
    /// `lookback`-length slices (stride `cfg.stride`), target = next
    /// window. Inputs/targets are scaled by 1/100 internally.
    pub fn train(&mut self, train_windows: &[f64]) {
        let l = self.cfg.lookback;
        if train_windows.len() <= l {
            return; // nothing to learn from
        }
        let xs: Vec<f64> = train_windows.iter().map(|v| v / 100.0).collect();
        let mut order: Vec<usize> = (0..xs.len() - l).step_by(self.cfg.stride).collect();
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0x5eed);
        let mut ws = Workspace::new(self.cfg.hidden);
        for _ in 0..self.cfg.epochs {
            // Fisher-Yates shuffle for sample order.
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for &s in &order {
                self.train_one_ws(&xs[s..s + l], xs[s + l], &mut ws);
            }
        }
    }

    /// One-step-ahead forecasts over `test_windows` given the training
    /// history (both in raw percent). Each prediction sees the true
    /// history up to that point (rolling origin), like the Holt-Winters
    /// evaluation.
    ///
    /// Because every rolling history is known up front, all test
    /// positions run as **one batch**: each LSTM step is a single
    /// `[4H × (2+H)] · [(2+H) × B]` [`gemm::matmul`] plus one pointwise
    /// pass over the `B` columns. Per column the arithmetic (and its
    /// order) is identical to feeding that sequence through
    /// [`predict_normalized`](Self::predict_normalized), so the batch is
    /// bit-for-bit equal to the sequential loop it replaced.
    pub fn forecast_online(&self, train_windows: &[f64], test_windows: &[f64]) -> Vec<f64> {
        let l = self.cfg.lookback;
        let hn = self.cfg.hidden;
        let cols = 2 + hn;
        let mut history: Vec<f64> = train_windows.iter().map(|v| v / 100.0).collect();
        assert!(
            history.len() >= l,
            "history shorter than lookback ({} < {l})",
            history.len()
        );
        let nb = test_windows.len();
        if nb == 0 {
            return Vec::new();
        }
        let t0 = history.len();
        history.extend(test_windows.iter().map(|v| v / 100.0));

        // Column b runs the sequence history[t0 + b - l .. t0 + b].
        let mut vmat = vec![0.0; cols * nb]; // (2+H) × B, row-major
        vmat[..nb].fill(1.0);
        let mut h = vec![0.0; hn * nb];
        let mut c = vec![0.0; hn * nb];
        let mut z = vec![0.0; 4 * hn * nb];
        for t in 0..l {
            for b in 0..nb {
                vmat[nb + b] = history[t0 + b + t - l];
            }
            vmat[2 * nb..].copy_from_slice(&h);
            gemm::matmul(&self.wb.w, &vmat, &mut z, 4 * hn, cols, nb);
            for j in 0..hn {
                for b in 0..nb {
                    let idx = j * nb + b;
                    let i_g = sigmoid(z[idx]);
                    let f_g = sigmoid(z[(hn + j) * nb + b]);
                    let g_g = z[(2 * hn + j) * nb + b].tanh();
                    let o_g = sigmoid(z[(3 * hn + j) * nb + b]);
                    let cv = f_g * c[idx] + i_g * g_g;
                    c[idx] = cv;
                    h[idx] = o_g * cv.tanh();
                }
            }
        }
        (0..nb)
            .map(|b| {
                let mut s = 0.0;
                for j in 0..hn {
                    s += self.wy.w[j] * h[j * nb + b];
                }
                let y = self.by.w[0] + s;
                (y * 100.0).clamp(0.0, 100.0)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgescope_analysis::stats::rmse;

    fn cfg_small() -> LstmConfig {
        LstmConfig {
            epochs: 8,
            lookback: 8,
            stride: 1,
            ..Default::default()
        }
    }

    /// Adam as the previous packed step ran it: indexed parallel arrays,
    /// dividing by both bias corrections on every step.
    #[allow(clippy::needless_range_loop)] // the reference's own loop
    fn reference_adam(p: &mut AdamParam, grad: &[f64], t: usize) {
        let bc1 = 1.0 - B1.powi(t as i32);
        let bc2 = 1.0 - B2.powi(t as i32);
        for i in 0..p.w.len() {
            p.m[i] = B1 * p.m[i] + (1.0 - B1) * grad[i];
            p.v[i] = B2 * p.v[i] + (1.0 - B2) * grad[i] * grad[i];
            let mh = p.m[i] / bc1;
            let vh = p.v[i] / bc2;
            p.w[i] -= LR * mh / (vh.sqrt() + EPS);
        }
    }

    /// The previous packed training step, the reference the kernels must
    /// equal bit for bit: per step one row-major mat-vec (each row's 26
    /// products ascending from 0.0), and per BPTT step a rank-1 update of
    /// the weight gradient plus `dh_prev = W_hᵀ·dz` accumulated through
    /// memory, rows ascending; then the clip norm as a separate sum over
    /// the packed gradient, the readout gradient and `gby²`, and
    /// [`reference_adam`]. Returns whether the gradient was clipped.
    #[allow(clippy::needless_range_loop)] // the reference's own loops
    fn reference_step(m: &mut Lstm, xs: &[f64], target: f64) -> bool {
        let hn = m.cfg.hidden;
        let (c4, cols) = (4 * hn, 2 + hn);
        let steps = xs.len();
        let w = m.wb.w.clone();
        let mut vs = vec![vec![0.0; cols]; steps];
        let mut gates = vec![vec![0.0; c4]; steps];
        let mut c = vec![vec![0.0; hn]; steps];
        let mut tanh_c = vec![vec![0.0; hn]; steps];
        let mut h = vec![vec![0.0; hn]; steps];
        let mut z = vec![0.0; c4];
        for t in 0..steps {
            vs[t][0] = 1.0;
            vs[t][1] = xs[t];
            if t > 0 {
                let h_prev = h[t - 1].clone();
                vs[t][2..].copy_from_slice(&h_prev);
            }
            for r in 0..c4 {
                let mut s = 0.0;
                for k in 0..cols {
                    s += w[r * cols + k] * vs[t][k];
                }
                z[r] = s;
            }
            for j in 0..hn {
                let i_g = sigmoid(z[j]);
                let f_g = sigmoid(z[hn + j]);
                let g_g = z[2 * hn + j].tanh();
                let o_g = sigmoid(z[3 * hn + j]);
                let c_prev = if t == 0 { 0.0 } else { c[t - 1][j] };
                let cj = f_g * c_prev + i_g * g_g;
                let tc = cj.tanh();
                gates[t][j] = i_g;
                gates[t][hn + j] = f_g;
                gates[t][2 * hn + j] = g_g;
                gates[t][3 * hn + j] = o_g;
                c[t][j] = cj;
                tanh_c[t][j] = tc;
                h[t][j] = o_g * tc;
            }
        }
        let s: f64 = m.wy.w.iter().zip(&h[steps - 1]).map(|(w, h)| w * h).sum();
        let y = m.by.w[0] + s;

        let dy = 2.0 * (y - target);
        let mut gwb = vec![0.0; c4 * cols];
        let mut gwy: Vec<f64> = h[steps - 1].iter().map(|h| dy * h).collect();
        let mut dh: Vec<f64> = m.wy.w.iter().map(|w| dy * w).collect();
        let mut dc = vec![0.0; hn];
        let mut dz = vec![0.0; c4];
        for t in (0..steps).rev() {
            let g = &gates[t];
            for j in 0..hn {
                let (i_g, f_g, g_g, o_g) = (g[j], g[hn + j], g[2 * hn + j], g[3 * hn + j]);
                let tc = tanh_c[t][j];
                let c_prev = if t == 0 { 0.0 } else { c[t - 1][j] };
                let dcj = dc[j] + dh[j] * o_g * (1.0 - tc * tc);
                let d_o = dh[j] * tc;
                let d_i = dcj * g_g;
                let d_f = dcj * c_prev;
                let d_g = dcj * i_g;
                dz[j] = d_i * i_g * (1.0 - i_g);
                dz[hn + j] = d_f * f_g * (1.0 - f_g);
                dz[2 * hn + j] = d_g * (1.0 - g_g * g_g);
                dz[3 * hn + j] = d_o * o_g * (1.0 - o_g);
                dc[j] = dcj * f_g;
            }
            for r in 0..c4 {
                for k in 0..cols {
                    gwb[r * cols + k] += dz[r] * vs[t][k];
                }
            }
            let mut dh_prev = vec![0.0; hn];
            for r in 0..c4 {
                for j in 0..hn {
                    dh_prev[j] += dz[r] * w[r * cols + 2 + j];
                }
            }
            dh = dh_prev;
        }

        let norm = (gwb.iter().chain(&gwy).map(|g| g * g).sum::<f64>() + dy * dy).sqrt();
        let scale = if norm > CLIP { CLIP / norm } else { 1.0 };
        if scale < 1.0 {
            for g in gwb.iter_mut().chain(&mut gwy) {
                *g *= scale;
            }
        }
        m.adam_t += 1;
        reference_adam(&mut m.wb, &gwb, m.adam_t);
        reference_adam(&mut m.wy, &gwy, m.adam_t);
        reference_adam(&mut m.by, &[dy * scale], m.adam_t);
        scale < 1.0
    }

    /// [`Lstm::train`] over [`reference_step`]; returns the number of
    /// clipped steps.
    fn reference_train(m: &mut Lstm, train_windows: &[f64]) -> usize {
        let l = m.cfg.lookback;
        let xs: Vec<f64> = train_windows.iter().map(|v| v / 100.0).collect();
        let mut order: Vec<usize> = (0..xs.len() - l).step_by(m.cfg.stride).collect();
        let mut rng = StdRng::seed_from_u64(m.cfg.seed ^ 0x5eed);
        let mut clipped = 0;
        for _ in 0..m.cfg.epochs {
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for &s in &order {
                clipped += usize::from(reference_step(m, &xs[s..s + l], xs[s + l]));
            }
        }
        clipped
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn train_equals_the_previous_packed_step_bit_for_bit() {
        // The first Adam step whose `1 - 0.9ᵗ` rounds to 1.0, from which
        // `AdamParam::step` skips the division by it.
        let bc1_exact = (1..).find(|&t| 1.0 - B1.powi(t) == 1.0).unwrap() as usize;
        let n = 96usize;
        let smooth: Vec<f64> = (0..n + 8)
            .map(|i| {
                let t = i as f64;
                45.0 + 20.0 * (2.0 * std::f64::consts::PI * t / 24.0).sin()
                    + 5.0 * (2.0 * std::f64::consts::PI * t / 7.0).cos()
            })
            .collect();
        // Targets up to 9 (normalized) against a near-zero initial
        // readout: gradient norms far above the clip.
        let spiky: Vec<f64> = (0..n + 8)
            .map(|i| if i % 5 < 2 { 900.0 } else { 3.0 * i as f64 })
            .collect();
        let (mut clipped, mut unclipped) = (0, 0);
        for hidden in [1, 4, 5, 24, 25] {
            for lookback in [1, 5, 12] {
                for stride in [1, 3] {
                    for series in [&smooth, &spiky] {
                        let per_epoch = (n - lookback).div_ceil(stride);
                        let cfg = LstmConfig {
                            hidden,
                            lookback,
                            stride,
                            epochs: (bc1_exact + 20).div_ceil(per_epoch),
                            seed: (hidden * 100 + lookback * 10 + stride) as u64,
                        };
                        let case = format!("{cfg:?} spiky {}", series[0] == 900.0);
                        let mut fast = Lstm::new(cfg);
                        let mut slow = fast.clone();
                        fast.train(&series[..n]);
                        let c = reference_train(&mut slow, &series[..n]);
                        clipped += c;
                        unclipped += slow.adam_t - c;
                        assert!(fast.adam_t > bc1_exact, "{case}: {}", fast.adam_t);
                        assert_eq!(fast.adam_t, slow.adam_t, "{case}");
                        for (name, a, b) in [
                            ("wb", &fast.wb, &slow.wb),
                            ("wy", &fast.wy, &slow.wy),
                            ("by", &fast.by, &slow.by),
                        ] {
                            assert_eq!(bits(&a.w), bits(&b.w), "{case}: {name}");
                            assert_eq!(bits(&a.m), bits(&b.m), "{case}: {name} first moment");
                            assert_eq!(bits(&a.v), bits(&b.v), "{case}: {name} second moment");
                        }
                        let got = fast.forecast_online(&series[..n], &series[n..]);
                        let want = slow.forecast_online(&series[..n], &series[n..]);
                        assert_eq!(bits(&got), bits(&want), "{case}: forecasts");
                    }
                }
            }
        }
        assert!(clipped > 1_000, "only {clipped} clipped steps");
        assert!(unclipped > 1_000, "only {unclipped} unclipped steps");
    }

    #[test]
    fn cell_weight_count_matches_paper() {
        let m = Lstm::new(LstmConfig::default());
        assert_eq!(m.cell_weight_count(), 2496);
        assert_eq!(m.total_weight_count(), 2496 + 24 + 1);
    }

    #[test]
    fn learns_constant_series() {
        let xs = vec![30.0; 120];
        let mut m = Lstm::new(cfg_small());
        m.train(&xs[..90]);
        let preds = m.forecast_online(&xs[..90], &xs[90..]);
        let err = rmse(&preds, &xs[90..]);
        assert!(err < 5.0, "rmse {err}");
    }

    #[test]
    fn learns_seasonal_series() {
        let xs: Vec<f64> = (0..48 * 10)
            .map(|i| 40.0 + 25.0 * (2.0 * std::f64::consts::PI * i as f64 / 48.0).sin())
            .collect();
        let mut m = Lstm::new(LstmConfig {
            epochs: 10,
            lookback: 16,
            ..Default::default()
        });
        let split = 48 * 8;
        m.train(&xs[..split]);
        let preds = m.forecast_online(&xs[..split], &xs[split..]);
        let err = rmse(&preds, &xs[split..]);
        // Naive previous-value baseline on this series has RMSE ≈ 3.3.
        assert!(err < 6.0, "rmse {err}");
    }

    #[test]
    fn training_reduces_error() {
        let xs: Vec<f64> = (0..48 * 6)
            .map(|i| 50.0 + 20.0 * (2.0 * std::f64::consts::PI * i as f64 / 48.0).sin())
            .collect();
        let split = 48 * 5;
        let untrained = Lstm::new(cfg_small());
        let before = rmse(
            &untrained.forecast_online(&xs[..split], &xs[split..]),
            &xs[split..],
        );
        let mut trained = untrained.clone();
        trained.train(&xs[..split]);
        let after = rmse(
            &trained.forecast_online(&xs[..split], &xs[split..]),
            &xs[split..],
        );
        assert!(after < before, "before {before} after {after}");
    }

    #[test]
    fn gradient_check_smoke() {
        // Finite-difference check of one weight's gradient via loss
        // difference. Uses the public API: nudging a weight must move the
        // loss in the direction the training step predicts.
        let xs = [0.2, 0.4, 0.6, 0.5, 0.3];
        let target = 0.45;
        let mut m = Lstm::new(LstmConfig {
            hidden: 4,
            lookback: 5,
            ..Default::default()
        });
        let y0 = m.predict_normalized(&xs);
        let loss0 = (y0 - target) * (y0 - target);
        // One Adam step must reduce this sample's loss.
        m.train_one(&xs, target);
        let y1 = m.predict_normalized(&xs);
        let loss1 = (y1 - target) * (y1 - target);
        assert!(loss1 < loss0, "loss {loss0} -> {loss1}");
    }

    #[test]
    fn deterministic_training() {
        let xs: Vec<f64> = (0..100).map(|i| (i % 10) as f64 * 5.0).collect();
        let run = || {
            let mut m = Lstm::new(cfg_small());
            m.train(&xs[..80]);
            m.forecast_online(&xs[..80], &xs[80..])
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn forecasts_clamped_to_percent_range() {
        let xs = vec![99.0; 60];
        let mut m = Lstm::new(cfg_small());
        m.train(&xs[..40]);
        for p in m.forecast_online(&xs[..40], &xs[40..]) {
            assert!((0.0..=100.0).contains(&p));
        }
    }

    #[test]
    fn batched_forecast_matches_sequential_singles() {
        // The batched GEMM inference must equal predicting each rolling
        // origin one at a time — bit for bit.
        let xs: Vec<f64> = (0..140)
            .map(|i| 35.0 + 20.0 * (2.0 * std::f64::consts::PI * i as f64 / 24.0).sin())
            .collect();
        let mut m = Lstm::new(LstmConfig {
            epochs: 2,
            lookback: 10,
            ..Default::default()
        });
        m.train(&xs[..100]);
        let batched = m.forecast_online(&xs[..100], &xs[100..]);
        let l = 10;
        let mut history: Vec<f64> = xs[..100].iter().map(|v| v / 100.0).collect();
        let mut singles = Vec::new();
        for &actual in &xs[100..] {
            let y = m.predict_normalized(&history[history.len() - l..]);
            singles.push((y * 100.0).clamp(0.0, 100.0));
            history.push(actual / 100.0);
        }
        assert_eq!(batched, singles);
    }

    #[test]
    fn empty_test_window_is_empty_forecast() {
        let m = Lstm::new(cfg_small());
        let hist = vec![10.0; 20];
        assert!(m.forecast_online(&hist, &[]).is_empty());
    }
}

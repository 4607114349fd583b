//! A from-scratch single-layer LSTM forecaster on packed matrix kernels.
//!
//! §4.4: "The LSTM model has 1 layer and 24 units (2496 weights)". With
//! input size 1 and hidden size 24 the recurrent cell holds
//! `4·24·(1+24) = 2400` matrix weights plus `4·24 = 96` biases — exactly
//! 2496. A linear readout (24 weights + 1 bias) maps the final hidden
//! state to the forecast; the paper's count covers the cell only, which
//! [`Lstm::cell_weight_count`] asserts.
//!
//! Training: mini-batches of [`BATCH`] shuffled windows, full BPTT over a
//! fixed lookback, the mean gradient of the batch, global-norm gradient
//! clipping at 5 and one Adam step at a 0.01 learning rate per batch,
//! inputs scaled to `[0, 1]` (CPU percent / 100). Keras, the paper's
//! framework, also trains in mini-batches; its default of 32 underfits
//! at our 2–3 epochs, so the batch is 8. The batch size, learning rate
//! and clip are module constants shared with the scalar reference;
//! [`LstmConfig`] keeps the shape (hidden units, lookback), the schedule
//! (epochs, stride) and the seed, which callers and the
//! kernel-equivalence sweeps vary.
//!
//! # Precision
//!
//! The weights, the workspace, the gradients and the Adam moments are
//! `f32`, and so is every operation on them: Keras, the paper's
//! framework, computes in float32 by default (its `floatx`). The model is
//! [`LstmOf`], generic over the sealed [`Element`]; [`Lstm`] is its `f32`
//! instance and the only one the product builds. The `f64` instance
//! exists for the round-off test that holds the packed trainer to the
//! scalar reference at 1e-9. Inputs and forecasts stay `f64` at the
//! interface: each input is scaled by 1/100 in `f64` and rounded to the
//! element type once, and each forecast is widened exactly before it is
//! scaled back to percent and clamped. Adam's constants are rounded to
//! `f32` too, so `1 − 0.9ᵗ` rounds to 1.0 from step 165 on (356 in
//! `f64`).
//!
//! # Packed cell layout and kernels
//!
//! The four gate weight matrices and their biases live in **one**
//! contiguous row-major block of shape `[4·H × (1 + input + H)]`
//! (`input = 1`): row `gate·H + j` holds unit `j` of gate `i/f/g/o`, and
//! its columns are `[bias, x-weight, h-weights…]`. Adam updates run over
//! that buffer directly. A batch of `B ≤ BATCH` windows runs with one
//! column per window:
//!
//! * **Forward.** Per step one [`gemm::matmul`] of the packed block by
//!   the `[(2+H) × B]` step matrix whose columns are `[1, x, h_prev…]`,
//!   then the activations over contiguous gate blocks (sigmoid on `i`,
//!   `f`, `o`; tanh on `g`), one plain slice loop per block, and the `c`
//!   and `h` updates as slice loops.
//!   The caches keep every step's matrix (whose `h` rows the step writes
//!   for the next), gates, `c` (behind a zero block for `c₋₁`) and
//!   `tanh(c)`. Each column is the per-window forward, bit for bit.
//! * **Backward.** The loss is the batch's mean squared error, so each
//!   window's output gradient is `2·(y − target) ÷ B`. Per BPTT step the
//!   pointwise gate gradients `dZ`, then `dH_prev = W_hᵀ·dZ` as one
//!   [`gemm::matmul`] over the batch's columns (against a transposed
//!   copy of `W_h` made once per batch). After the last step one
//!   [`gemm::outer_sum_desc`] over all the batch's `steps × B` step rows
//!   (step-major, each step's windows in column order) builds the weight
//!   gradient `Σ dz ⊗ v` and folds the clip norm's square sum on as it
//!   goes.
//! * **Adam** once per batch over equal-length slices, without the
//!   division by the first bias correction once it is exactly 1.0.
//!
//! A reusable `Workspace` holds every cache, so the hot loop never
//! allocates. Rolling-origin inference ([`Lstm::forecast_online`]) runs
//! the same cell step with one column per test position.
//!
//! # AVX2 dispatch
//!
//! [`Lstm::train`] and [`Lstm::forecast_online`] each have one
//! `#[inline(always)]` body, compiled twice: once for the crate's target
//! and once under `#[target_feature(enable = "avx2")]`. On x86-64 the
//! public method takes the AVX2 copy when `is_x86_feature_detected!`
//! reports AVX2; that call is the method's one `unsafe` block. No FMA is
//! enabled and no `mul_add` is written, so both copies run the same IEEE
//! operations in the same order on every element and return the same
//! bits; the AVX2 copy only holds more lanes per register: 8 `f32` lanes
//! against the baseline's 4, so one register holds a whole mini-batch's
//! row of a step matrix. The activations are
//! [`edgescope_obs::math::sigmoid_f32`] and
//! [`edgescope_obs::math::tanh_f32`]: branch-free and inlined, so each
//! gate block's loop vectorizes in the AVX2 copy, where a libm call per
//! element could not. Nothing but the CPU picks the path; the crate's
//! tests reach the baseline copy directly and compare the two in `f32`
//! (`avx2_and_baseline_paths_agree_bit_for_bit`).
//!
//! # Equivalence
//!
//! Every output element keeps one accumulator, its starting value and
//! its summation order; the kernels only regroup independent elements.
//! The crate's unit tests keep a per-window forward and backward as
//! test-only code, sum its gradients in the kernel's batch order, clip
//! once and step Adam, and compare every weight, Adam moment and
//! forecast after `train` (`train_equals_the_batched_reference_bit_for_bit`).
//!
//! Against the pre-kernel scalar implementation (kept as
//! [`crate::reference::ScalarLstm`], batched the same way) the packed
//! **forward** pass is bit-for-bit identical on the same weights: its
//! dot products run in the same ascending order, and `Lstm::new` draws
//! its initialization in the same RNG order, so both paths start from the
//! same logical model. The packed **backward** pass reorders independent
//! reductions relative to the scalar one (the global clip norm, the
//! `dh_prev` row sum and the batch's gradient sum), which shifts training
//! by floating-point round-off only; the kernel-equivalence tests in
//! `crates/predict/tests/kernel_equiv.rs` pin both properties, the first
//! in `f32` and the second in both element types. All the bitwise tests
//! run at `f32`, the product's element type.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::gemm::{self, Element};

/// Adam learning rate, shared with [`crate::reference::ScalarLstm`].
pub(crate) const LR: f64 = 0.01;
/// Global-norm gradient clip, shared with [`crate::reference::ScalarLstm`].
pub(crate) const CLIP: f64 = 5.0;
/// Training windows per mini-batch, and so per Adam step. An epoch's
/// last batch holds the remainder.
pub const BATCH: usize = 8;

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

/// The work one [`Lstm::train`] call did: the `predict.lstm_*` ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrainWork {
    /// Windows run forward and backward, summed over the epochs.
    pub samples: usize,
    /// Adam steps taken, one per mini-batch.
    pub optimizer_steps: usize,
}

/// Adam's first-moment decay.
const B1: f64 = 0.9;
/// Adam's second-moment decay.
const B2: f64 = 0.999;
/// Adam's denominator guard.
const EPS: f64 = 1e-8;

/// Flat parameter block with Adam moments.
#[derive(Debug, Clone)]
struct AdamParam<E> {
    w: Vec<E>,
    m: Vec<E>,
    v: Vec<E>,
}

impl<E: Element> AdamParam<E> {
    fn new(w: Vec<E>) -> Self {
        let n = w.len();
        AdamParam {
            w,
            m: vec![E::ZERO; n],
            v: vec![E::ZERO; n],
        }
    }

    #[inline(always)]
    fn step(&mut self, grad: &[E], t: usize) {
        let bc1 = E::ONE - E::of(B1).powi(t as i32);
        let bc2 = E::ONE - E::of(B2).powi(t as i32);
        // From t ≈ 165 on in `f32` (356 in `f64`), 0.9ᵗ is below half an
        // ulp of 1 and `bc1` rounds to exactly 1.0; `m / 1.0 == m` for
        // every value arithmetic produces, so that division is skipped.
        if bc1 == E::ONE {
            self.update::<false>(grad, bc1, bc2);
        } else {
            self.update::<true>(grad, bc1, bc2);
        }
    }

    /// One Adam update over equal-length slices (so the loop
    /// vectorizes); `DIV1` divides the first moment by `bc1`.
    #[inline(always)]
    fn update<const DIV1: bool>(&mut self, grad: &[E], bc1: E, bc2: E) {
        assert_eq!(grad.len(), self.w.len(), "gradient length mismatch");
        let (b1, b2) = (E::of(B1), E::of(B2));
        let (lr, eps) = (E::of(LR), E::of(EPS));
        let moments = self.m.iter_mut().zip(self.v.iter_mut());
        for ((w, (m, v)), &g) in self.w.iter_mut().zip(moments).zip(grad) {
            *m = b1 * *m + (E::ONE - b1) * g;
            *v = b2 * *v + (E::ONE - b2) * g * g;
            let mh = if DIV1 { *m / bc1 } else { *m };
            let vh = *v / bc2;
            *w -= lr * mh / (vh.sqrt() + eps);
        }
    }
}

/// The LSTM forecaster the product trains: [`LstmOf`] in `f32`.
pub type Lstm = LstmOf<f32>;

/// The LSTM forecaster (packed-kernel implementation; see module docs)
/// in element type `E`. Its inputs and forecasts are `f64` in either
/// type; [`Lstm`] is the `f32` instance the product uses.
#[derive(Debug, Clone)]
pub struct LstmOf<E> {
    cfg: LstmConfig,
    /// Packed cell block, rows = 4·H gates (i, f, g, o), cols =
    /// `[bias, x-weight, h-weights…]` (width 2 + H).
    wb: AdamParam<E>,
    /// Readout weights, H.
    wy: AdamParam<E>,
    /// Readout bias.
    by: AdamParam<E>,
    adam_t: usize,
}

/// One LSTM step over `nb` columns, every block `rows × nb` row-major:
/// activates the gate block `z` in place (`4H` rows of pre-activations
/// in, gates out), then writes the cell state `c = f·c_prev + i·g`,
/// `tanh(c)` and the hidden state `h = o·tanh(c)`.
#[inline(always)]
fn cell_step<E: Element>(z: &mut [E], c_prev: &[E], c: &mut [E], tanh_c: &mut [E], h: &mut [E]) {
    let n = c.len();
    let (ifg, o_g) = z.split_at_mut(3 * n);
    let (i_f, g_g) = ifg.split_at_mut(2 * n);
    // One plain loop per gate block: a loop over a chain of two slices
    // does not vectorize.
    for z in i_f.iter_mut() {
        *z = z.sigmoid();
    }
    for z in g_g.iter_mut() {
        *z = z.tanh();
    }
    for z in o_g.iter_mut() {
        *z = z.sigmoid();
    }
    let (i_g, f_g) = i_f.split_at(n);
    for e in 0..n {
        c[e] = f_g[e] * c_prev[e] + i_g[e] * g_g[e];
    }
    for (tc, cv) in tanh_c.iter_mut().zip(c.iter()) {
        *tc = cv.tanh();
    }
    for ((h, &o), &tc) in h.iter_mut().zip(o_g.iter()).zip(tanh_c.iter()) {
        *h = o * tc;
    }
}

/// Reusable buffers for one training run: the per-step caches of a
/// batch, the backward scratch and the gradients. Every per-step block
/// is `rows × nb` row-major for the current batch's `nb` columns, so a
/// short batch packs its blocks tighter in the same buffers.
struct Workspace<E> {
    hn: usize,
    cols: usize,
    steps: usize,
    /// Step matrices, `(steps + 1)` blocks of `cols × nb`: block `t` has
    /// rows `[1, x_t, h_{t-1}]`, so step `t`'s hidden state lives in block
    /// `t + 1`. Block 0's hidden rows are `h_{-1} = 0`.
    vs: Vec<E>,
    /// Pre-activations, then activated gates, per step, `4H × nb`.
    gates: Vec<E>,
    /// Cell states, `(steps + 1)` blocks of `H × nb`: block `t + 1` is
    /// step `t`'s state, and block 0 is `c_{-1} = 0`.
    c: Vec<E>,
    /// `tanh(c)` per step, `H × nb`.
    tanh_c: Vec<E>,
    /// Backward: the gate gradients of the current step, `4H × nb`.
    dz: Vec<E>,
    /// Backward: dL/dh of the current step, `H × nb`.
    dh: Vec<E>,
    /// Backward: dL/dc carried across steps, `H × nb`.
    dc: Vec<E>,
    /// `W_hᵀ`, `H × 4H`, copied once per batch.
    wht: Vec<E>,
    /// Every step's gate gradients as step rows: row `t·nb + b` is
    /// window `b`'s `dz` at step `t` (`4H` wide).
    dz_rows: Vec<E>,
    /// Every step's `[1, x, h_prev]` as step rows, laid out like
    /// `dz_rows` (`2 + H` wide).
    v_rows: Vec<E>,
    /// Per-window predictions after the forward pass, then the output
    /// gradients.
    dy: Vec<E>,
    /// Packed cell gradient, same shape as `Lstm::wb`.
    gwb: Vec<E>,
    /// Readout weight gradient, H.
    gwy: Vec<E>,
}

impl<E: Element> Workspace<E> {
    fn new(hn: usize, steps: usize) -> Self {
        let (cols, c4, nb) = (2 + hn, 4 * hn, BATCH);
        Workspace {
            hn,
            cols,
            steps,
            vs: vec![E::ZERO; (steps + 1) * cols * nb],
            gates: vec![E::ZERO; steps * c4 * nb],
            c: vec![E::ZERO; (steps + 1) * hn * nb],
            tanh_c: vec![E::ZERO; steps * hn * nb],
            dz: vec![E::ZERO; c4 * nb],
            dh: vec![E::ZERO; hn * nb],
            dc: vec![E::ZERO; hn * nb],
            wht: vec![E::ZERO; hn * c4],
            dz_rows: vec![E::ZERO; steps * nb * c4],
            v_rows: vec![E::ZERO; steps * nb * cols],
            dy: vec![E::ZERO; nb],
            gwb: vec![E::ZERO; c4 * cols],
            gwy: vec![E::ZERO; hn],
        }
    }
}

impl<E: Element> LstmOf<E> {
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
        let mut wb = vec![E::ZERO; 4 * h * cols];
        // Matrix part first (cols 1..), row-major — the reference draw
        // order. Each weight is an `f64` draw rounded to `E`.
        for row in wb.chunks_exact_mut(cols) {
            for v in &mut row[1..] {
                *v = E::of(rng.gen_range(-k..k));
            }
        }
        // Bias column: forget gate at 1.0 — the standard trick for
        // gradient flow — everything else at 0.
        for (r, row) in wb.chunks_exact_mut(cols).enumerate() {
            row[0] = if (h..2 * h).contains(&r) {
                E::ONE
            } else {
                E::ZERO
            };
        }
        let wy: Vec<E> = (0..h).map(|_| E::of(rng.gen_range(-k..k))).collect();
        LstmOf {
            wb: AdamParam::new(wb),
            wy: AdamParam::new(wy),
            by: AdamParam::new(vec![E::ZERO]),
            adam_t: 0,
            cfg,
        }
    }

    /// Trainable weights in the recurrent cell — the paper's quoted count
    /// (matrix weights plus biases; both live in the packed block).
    pub fn cell_weight_count(&self) -> usize {
        self.wb.w.len()
    }

    /// The readout `by + Σ_j wy_j·h_j` of each of the `nb` columns of the
    /// hidden block `h` (`H × nb`), summed in ascending `j` from `0.0`.
    #[inline(always)]
    fn readout(&self, h: &[E], nb: usize, y: &mut [E]) {
        y.fill(E::ZERO);
        for (&w, hj) in self.wy.w.iter().zip(h.chunks_exact(nb)) {
            for (s, &hv) in y.iter_mut().zip(hj) {
                *s += w * hv;
            }
        }
        for s in y.iter_mut() {
            *s += self.by.w[0];
        }
    }

    /// Forward the windows `xs[s..s + steps]` for `s` in `starts`, one
    /// column each, through the workspace, leaving every step cache
    /// populated and each column's prediction in `ws.dy[..starts.len()]`.
    #[inline(always)]
    fn forward_batch(&self, xs: &[E], starts: &[usize], ws: &mut Workspace<E>) {
        let (hn, cols, steps, nb) = (ws.hn, ws.cols, ws.steps, starts.len());
        let (c4, vb, hb) = (4 * hn, cols * nb, hn * nb);
        // Block 0's h rows and the c_{-1} block: this batch's width may
        // differ from the last one's, so clear them for it.
        ws.vs[2 * nb..vb].fill(E::ZERO);
        ws.c[..hb].fill(E::ZERO);
        for t in 0..steps {
            let (v_done, v_next) = ws.vs.split_at_mut((t + 1) * vb);
            let v = &mut v_done[t * vb..];
            v[..nb].fill(E::ONE);
            for (xv, &s) in v[nb..2 * nb].iter_mut().zip(starts) {
                *xv = xs[s + t];
            }
            let z = &mut ws.gates[t * c4 * nb..(t + 1) * c4 * nb];
            gemm::matmul(&self.wb.w, v, z, c4, cols, nb);
            let (c_done, c_next) = ws.c.split_at_mut((t + 1) * hb);
            let tc = &mut ws.tanh_c[t * hb..(t + 1) * hb];
            let h = &mut v_next[2 * nb..vb];
            cell_step(z, &c_done[t * hb..], &mut c_next[..hb], tc, h);
        }
        let h_last = &ws.vs[steps * vb + 2 * nb..(steps + 1) * vb];
        self.readout(h_last, nb, &mut ws.dy[..nb]);
    }

    /// Forward without exposing the workspace (inference, single
    /// sequence of normalized inputs, each rounded to `E`): one batch of
    /// one column. Hot inference goes through
    /// [`forecast_online`](Self::forecast_online) instead.
    pub fn predict_normalized(&self, xs: &[f64]) -> f64 {
        assert!(!xs.is_empty(), "non-empty sequence");
        let xs: Vec<E> = xs.iter().map(|&x| E::of(x)).collect();
        let mut ws = Workspace::new(self.cfg.hidden, xs.len());
        self.forward_batch(&xs, &[0], &mut ws);
        ws.dy[0].to_f64()
    }

    /// One Adam step on the mean gradient of the batch of windows
    /// starting at `starts` (each `xs[s..s + steps]` → `xs[s + steps]`).
    #[inline(always)]
    fn train_batch(&mut self, xs: &[E], starts: &[usize], ws: &mut Workspace<E>) {
        let (hn, cols, steps, nb) = (ws.hn, ws.cols, ws.steps, starts.len());
        let (c4, hb) = (4 * hn, hn * nb);
        self.forward_batch(xs, starts, ws);

        // Output gradients of the mean squared error: 2·(y − target) ÷ nb.
        let n = E::of(nb as f64);
        for (dy, &s) in ws.dy[..nb].iter_mut().zip(starts) {
            *dy = E::of(2.0) * (*dy - xs[s + steps]) / n;
        }
        let dy = &ws.dy[..nb];
        let vb = cols * nb;
        let h_last = &ws.vs[steps * vb + 2 * nb..(steps + 1) * vb];
        for (g, hj) in ws.gwy.iter_mut().zip(h_last.chunks_exact(nb)) {
            *g = hj.iter().zip(dy).fold(E::ZERO, |s, (&h, &d)| s + d * h);
        }
        let gby = dy.iter().fold(E::ZERO, |s, &d| s + d);
        for (dh, &w) in ws.dh[..hb].chunks_exact_mut(nb).zip(&self.wy.w) {
            for (dh, &d) in dh.iter_mut().zip(dy) {
                *dh = d * w;
            }
        }
        ws.dc[..hb].fill(E::ZERO);
        for (r, row) in self.wb.w.chunks_exact(cols).enumerate() {
            for (j, &w) in row[2..].iter().enumerate() {
                ws.wht[j * c4 + r] = w;
            }
        }

        for t in (0..steps).rev() {
            // Pointwise gate gradients; `dc` becomes `dc_prev` in place
            // (each element is read once before being overwritten).
            let gates = &ws.gates[t * c4 * nb..(t + 1) * c4 * nb];
            let (i_g, rest) = gates.split_at(hb);
            let (f_g, rest) = rest.split_at(hb);
            let (g_g, o_g) = rest.split_at(hb);
            let tc = &ws.tanh_c[t * hb..(t + 1) * hb];
            let c_prev = &ws.c[t * hb..(t + 1) * hb];
            let dz = &mut ws.dz[..c4 * nb];
            let (dz_i, rest) = dz.split_at_mut(hb);
            let (dz_f, rest) = rest.split_at_mut(hb);
            let (dz_g, dz_o) = rest.split_at_mut(hb);
            let (dh, dc) = (&ws.dh[..hb], &mut ws.dc[..hb]);
            let one = E::ONE;
            for e in 0..hb {
                let dce = dc[e] + dh[e] * o_g[e] * (one - tc[e] * tc[e]);
                let d_o = dh[e] * tc[e];
                let d_i = dce * g_g[e];
                let d_f = dce * c_prev[e];
                let d_g = dce * i_g[e];
                dz_i[e] = d_i * i_g[e] * (one - i_g[e]);
                dz_f[e] = d_f * f_g[e] * (one - f_g[e]);
                dz_g[e] = d_g * (one - g_g[e] * g_g[e]);
                dz_o[e] = d_o * o_g[e] * (one - o_g[e]);
                dc[e] = dce * f_g[e];
            }
            // The step's rows for the weight gradient.
            let v = &ws.vs[t * vb..(t + 1) * vb];
            let dz_rows = &mut ws.dz_rows[t * nb * c4..(t + 1) * nb * c4];
            let v_rows = &mut ws.v_rows[t * nb * cols..(t + 1) * nb * cols];
            for b in 0..nb {
                for (r, d) in dz_rows[b * c4..(b + 1) * c4].iter_mut().enumerate() {
                    *d = dz[r * nb + b];
                }
                for (k, d) in v_rows[b * cols..(b + 1) * cols].iter_mut().enumerate() {
                    *d = v[k * nb + b];
                }
            }
            // dH_prev = W_hᵀ·dZ over the batch's columns (step 0 has no
            // previous step to carry it to).
            if t > 0 {
                gemm::matmul(&ws.wht, dz, &mut ws.dh[..hb], hn, c4, nb);
            }
        }

        // Weight gradients: the sum of every step row's `dz ⊗ v`, last
        // row first, with the global clip norm's square sum (packed cell
        // gradient — weights and biases together — then the readout)
        // folded on from where `Sum for f64` starts.
        let sq = gemm::outer_sum_desc(
            &ws.dz_rows[..steps * nb * c4],
            &ws.v_rows[..steps * nb * cols],
            &mut ws.gwb,
            c4,
            cols,
            E::of(-0.0),
        );
        let sq = ws.gwy.iter().fold(sq, |s, &g| s + g * g);
        let norm = (sq + gby * gby).sqrt();
        let clip = E::of(CLIP);
        let scale = if norm > clip { clip / norm } else { E::ONE };
        if scale < E::ONE {
            for g in ws.gwb.iter_mut().chain(&mut ws.gwy) {
                *g *= scale;
            }
        }
        let gby = [gby * scale];

        self.adam_t += 1;
        self.wb.step(&ws.gwb, self.adam_t);
        self.wy.step(&ws.gwy, self.adam_t);
        self.by.step(&gby, self.adam_t);
    }

    /// Train on a window series (raw percent values). Sequences are all
    /// `lookback`-length slices (stride `cfg.stride`), target = next
    /// window, in mini-batches of [`BATCH`] reshuffled every epoch.
    /// Inputs/targets are scaled by 1/100 internally.
    pub fn train(&mut self, train_windows: &[f64]) -> TrainWork {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            // SAFETY: `train_avx2` needs AVX2, and the CPU has it (checked
            // just above).
            return unsafe { self.train_avx2(train_windows) };
        }
        self.train_baseline(train_windows)
    }

    /// [`train`](Self::train)'s body compiled with AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn train_avx2(&mut self, train_windows: &[f64]) -> TrainWork {
        self.train_body(train_windows)
    }

    /// [`train`](Self::train)'s body compiled for the crate's target.
    pub(crate) fn train_baseline(&mut self, train_windows: &[f64]) -> TrainWork {
        self.train_body(train_windows)
    }

    #[inline(always)]
    fn train_body(&mut self, train_windows: &[f64]) -> TrainWork {
        let l = self.cfg.lookback;
        let mut work = TrainWork::default();
        if train_windows.len() <= l {
            return work; // nothing to learn from
        }
        let xs: Vec<E> = train_windows.iter().map(|v| E::of(v / 100.0)).collect();
        let mut order: Vec<usize> = (0..xs.len() - l).step_by(self.cfg.stride).collect();
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0x5eed);
        let mut ws = Workspace::new(self.cfg.hidden, l);
        for _ in 0..self.cfg.epochs {
            // Fisher-Yates shuffle for sample order.
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for batch in order.chunks(BATCH) {
                self.train_batch(&xs, batch, &mut ws);
            }
            work.samples += order.len();
            work.optimizer_steps += order.len().div_ceil(BATCH);
        }
        work
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
    /// bit-for-bit equal to the sequential loop. Like [`train`](Self::train),
    /// it takes its AVX2 copy where the CPU has AVX2, with the same bits.
    pub fn forecast_online(&self, train_windows: &[f64], test_windows: &[f64]) -> Vec<f64> {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            // SAFETY: `forecast_online_avx2` needs AVX2, and the CPU has
            // it (checked just above).
            return unsafe { self.forecast_online_avx2(train_windows, test_windows) };
        }
        self.forecast_online_baseline(train_windows, test_windows)
    }

    /// [`forecast_online`](Self::forecast_online)'s body compiled with
    /// AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn forecast_online_avx2(&self, train_windows: &[f64], test_windows: &[f64]) -> Vec<f64> {
        self.forecast_online_body(train_windows, test_windows)
    }

    /// [`forecast_online`](Self::forecast_online)'s body compiled for the
    /// crate's target.
    pub(crate) fn forecast_online_baseline(
        &self,
        train_windows: &[f64],
        test_windows: &[f64],
    ) -> Vec<f64> {
        self.forecast_online_body(train_windows, test_windows)
    }

    #[inline(always)]
    fn forecast_online_body(&self, train_windows: &[f64], test_windows: &[f64]) -> Vec<f64> {
        let l = self.cfg.lookback;
        let hn = self.cfg.hidden;
        let cols = 2 + hn;
        let mut history: Vec<E> = train_windows.iter().map(|v| E::of(v / 100.0)).collect();
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
        history.extend(test_windows.iter().map(|v| E::of(v / 100.0)));

        // Column b runs the sequence history[t0 + b - l .. t0 + b]; the
        // step matrix's h rows hold the previous step's hidden state.
        let mut vmat = vec![E::ZERO; cols * nb]; // (2+H) × B, row-major
        vmat[..nb].fill(E::ONE);
        let mut c_prev = vec![E::ZERO; hn * nb];
        let mut c = vec![E::ZERO; hn * nb];
        let mut tanh_c = vec![E::ZERO; hn * nb];
        let mut z = vec![E::ZERO; 4 * hn * nb];
        for t in 0..l {
            vmat[nb..2 * nb].copy_from_slice(&history[t0 + t - l..t0 + t - l + nb]);
            gemm::matmul(&self.wb.w, &vmat, &mut z, 4 * hn, cols, nb);
            cell_step(&mut z, &c_prev, &mut c, &mut tanh_c, &mut vmat[2 * nb..]);
            std::mem::swap(&mut c, &mut c_prev);
        }
        let mut y = vec![E::ZERO; nb];
        self.readout(&vmat[2 * nb..], nb, &mut y);
        y.into_iter()
            .map(|y| (y.to_f64() * 100.0).clamp(0.0, 100.0))
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

    fn bits<E: Element>(xs: &[E]) -> Vec<u64> {
        xs.iter().map(|x| x.to_f64().to_bits()).collect()
    }

    /// Adam as written in textbooks: indexed parallel arrays, dividing by
    /// both bias corrections on every step.
    #[allow(clippy::needless_range_loop)] // the reference's own loop
    fn reference_adam<E: Element>(p: &mut AdamParam<E>, grad: &[E], t: usize) {
        let (b1, b2, one) = (E::of(B1), E::of(B2), E::ONE);
        let bc1 = one - b1.powi(t as i32);
        let bc2 = one - b2.powi(t as i32);
        for i in 0..p.w.len() {
            p.m[i] = b1 * p.m[i] + (one - b1) * grad[i];
            p.v[i] = b2 * p.v[i] + (one - b2) * grad[i] * grad[i];
            let mh = p.m[i] / bc1;
            let vh = p.v[i] / bc2;
            p.w[i] -= E::of(LR) * mh / (vh.sqrt() + E::of(EPS));
        }
    }

    /// One window's forward pass and its output, per step as a row-major
    /// mat-vec (each row's products ascending from 0.0).
    struct WindowForward<E> {
        /// `[1, x_t, h_{t-1}]` per step.
        vs: Vec<Vec<E>>,
        gates: Vec<Vec<E>>,
        c: Vec<Vec<E>>,
        tanh_c: Vec<Vec<E>>,
        h_last: Vec<E>,
        y: E,
    }

    #[allow(clippy::needless_range_loop)] // the reference's own loops
    fn reference_forward<E: Element>(m: &LstmOf<E>, xs: &[E]) -> WindowForward<E> {
        let hn = m.cfg.hidden;
        let (c4, cols) = (4 * hn, 2 + hn);
        let w = &m.wb.w;
        let (mut vs, mut gates, mut c, mut tanh_c) = (vec![], vec![], vec![], vec![]);
        let mut h = vec![E::ZERO; hn];
        let mut c_prev = vec![E::ZERO; hn];
        for &x in xs {
            let mut v = vec![E::ONE, x];
            v.extend_from_slice(&h);
            let mut z = vec![E::ZERO; c4];
            for r in 0..c4 {
                let mut s = E::ZERO;
                for k in 0..cols {
                    s += w[r * cols + k] * v[k];
                }
                z[r] = s;
            }
            let mut g = vec![E::ZERO; c4];
            let (mut ct, mut tc) = (vec![E::ZERO; hn], vec![E::ZERO; hn]);
            for j in 0..hn {
                g[j] = z[j].sigmoid();
                g[hn + j] = z[hn + j].sigmoid();
                g[2 * hn + j] = z[2 * hn + j].tanh();
                g[3 * hn + j] = z[3 * hn + j].sigmoid();
                ct[j] = g[hn + j] * c_prev[j] + g[j] * g[2 * hn + j];
                tc[j] = ct[j].tanh();
                h[j] = g[3 * hn + j] * tc[j];
            }
            c_prev = ct.clone();
            vs.push(v);
            gates.push(g);
            c.push(ct);
            tanh_c.push(tc);
        }
        let mut s = E::ZERO;
        for j in 0..hn {
            s += m.wy.w[j] * h[j];
        }
        WindowForward {
            vs,
            gates,
            c,
            tanh_c,
            h_last: h,
            y: m.by.w[0] + s,
        }
    }

    /// One window's backward pass from output gradient `dy`: its gate
    /// gradients per step, with `dh_prev = W_hᵀ·dz` accumulated through
    /// memory, rows ascending.
    #[allow(clippy::needless_range_loop)] // the reference's own loops
    fn reference_backward<E: Element>(m: &LstmOf<E>, f: &WindowForward<E>, dy: E) -> Vec<Vec<E>> {
        let hn = m.cfg.hidden;
        let (c4, cols, one) = (4 * hn, 2 + hn, E::ONE);
        let steps = f.vs.len();
        let mut dh: Vec<E> = m.wy.w.iter().map(|&w| dy * w).collect();
        let mut dc = vec![E::ZERO; hn];
        let mut dzs = vec![vec![E::ZERO; c4]; steps];
        for t in (0..steps).rev() {
            let (g, dz) = (&f.gates[t], &mut dzs[t]);
            for j in 0..hn {
                let (i_g, f_g, g_g, o_g) = (g[j], g[hn + j], g[2 * hn + j], g[3 * hn + j]);
                let tc = f.tanh_c[t][j];
                let c_prev = if t == 0 { E::ZERO } else { f.c[t - 1][j] };
                let dcj = dc[j] + dh[j] * o_g * (one - tc * tc);
                let d_o = dh[j] * tc;
                let d_i = dcj * g_g;
                let d_f = dcj * c_prev;
                let d_g = dcj * i_g;
                dz[j] = d_i * i_g * (one - i_g);
                dz[hn + j] = d_f * f_g * (one - f_g);
                dz[2 * hn + j] = d_g * (one - g_g * g_g);
                dz[3 * hn + j] = d_o * o_g * (one - o_g);
                dc[j] = dcj * f_g;
            }
            let mut dh_prev = vec![E::ZERO; hn];
            for r in 0..c4 {
                for j in 0..hn {
                    dh_prev[j] += dz[r] * m.wb.w[r * cols + 2 + j];
                }
            }
            dh = dh_prev;
        }
        dzs
    }

    /// One mini-batch the way the kernels must compute it: each window
    /// forward and backward on its own from `2·(y − target) ÷ n`; the
    /// weight gradient as rank-1 updates over the step rows, last step
    /// first and within a step the last window first; the readout
    /// gradients summed over the windows in order; then the clip norm as
    /// a separate sum and [`reference_adam`]. Returns whether the
    /// gradient was clipped.
    #[allow(clippy::needless_range_loop)] // the reference's own loops
    fn reference_batch<E: Element>(m: &mut LstmOf<E>, xs: &[E], starts: &[usize]) -> bool {
        let hn = m.cfg.hidden;
        let (l, c4, cols) = (m.cfg.lookback, 4 * hn, 2 + hn);
        let n = E::of(starts.len() as f64);
        let fwd: Vec<WindowForward<E>> = starts
            .iter()
            .map(|&s| reference_forward(m, &xs[s..s + l]))
            .collect();
        let dys: Vec<E> = fwd
            .iter()
            .zip(starts)
            .map(|(f, &s)| E::of(2.0) * (f.y - xs[s + l]) / n)
            .collect();
        let dzs: Vec<Vec<Vec<E>>> = fwd
            .iter()
            .zip(&dys)
            .map(|(f, &dy)| reference_backward(m, f, dy))
            .collect();
        let mut gwb = vec![E::ZERO; c4 * cols];
        for t in (0..l).rev() {
            for b in (0..starts.len()).rev() {
                for r in 0..c4 {
                    for k in 0..cols {
                        gwb[r * cols + k] += dzs[b][t][r] * fwd[b].vs[t][k];
                    }
                }
            }
        }
        let mut gwy = vec![E::ZERO; hn];
        let mut gby = E::ZERO;
        for (f, &dy) in fwd.iter().zip(&dys) {
            for j in 0..hn {
                gwy[j] += dy * f.h_last[j];
            }
            gby += dy;
        }
        let sq = gwb.iter().chain(&gwy).fold(E::of(-0.0), |s, &g| s + g * g);
        let norm = (sq + gby * gby).sqrt();
        let clip = E::of(CLIP);
        let scale = if norm > clip { clip / norm } else { E::ONE };
        if scale < E::ONE {
            for g in gwb.iter_mut().chain(&mut gwy) {
                *g *= scale;
            }
        }
        m.adam_t += 1;
        reference_adam(&mut m.wb, &gwb, m.adam_t);
        reference_adam(&mut m.wy, &gwy, m.adam_t);
        reference_adam(&mut m.by, &[gby * scale], m.adam_t);
        scale < E::ONE
    }

    /// [`Lstm::train`] over [`reference_batch`]; returns the number of
    /// clipped steps.
    fn reference_train<E: Element>(m: &mut LstmOf<E>, train_windows: &[f64]) -> usize {
        let l = m.cfg.lookback;
        let xs: Vec<E> = train_windows.iter().map(|v| E::of(v / 100.0)).collect();
        let mut order: Vec<usize> = (0..xs.len() - l).step_by(m.cfg.stride).collect();
        let mut rng = StdRng::seed_from_u64(m.cfg.seed ^ 0x5eed);
        let mut clipped = 0;
        for _ in 0..m.cfg.epochs {
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for batch in order.chunks(BATCH) {
                clipped += usize::from(reference_batch(m, &xs, batch));
            }
        }
        clipped
    }

    /// A smooth series and a spiky one whose targets (up to 9,
    /// normalized) against a near-zero initial readout drive gradient
    /// norms far above the clip; `n + 8` windows each.
    fn smooth_and_spiky(n: usize) -> [Vec<f64>; 2] {
        let smooth = (0..n + 8)
            .map(|i| {
                let t = i as f64;
                45.0 + 20.0 * (2.0 * std::f64::consts::PI * t / 24.0).sin()
                    + 5.0 * (2.0 * std::f64::consts::PI * t / 7.0).cos()
            })
            .collect();
        let spiky = (0..n + 8)
            .map(|i| if i % 5 < 2 { 900.0 } else { 3.0 * i as f64 })
            .collect();
        [smooth, spiky]
    }

    /// Asserts every weight, Adam moment and step count of `a` and `b`
    /// are the same bits.
    fn assert_same_model<E: Element>(a: &LstmOf<E>, b: &LstmOf<E>, case: &str) {
        assert_eq!(a.adam_t, b.adam_t, "{case}: steps");
        for (name, a, b) in [
            ("wb", &a.wb, &b.wb),
            ("wy", &a.wy, &b.wy),
            ("by", &a.by, &b.by),
        ] {
            assert_eq!(bits(&a.w), bits(&b.w), "{case}: {name}");
            assert_eq!(bits(&a.m), bits(&b.m), "{case}: {name} first moment");
            assert_eq!(bits(&a.v), bits(&b.v), "{case}: {name} second moment");
        }
    }

    #[test]
    fn train_equals_the_batched_reference_bit_for_bit() {
        // The first Adam step whose `1 - 0.9ᵗ` rounds to 1.0 in `f32`,
        // from which `AdamParam::step` skips the division by it (t 356
        // in `f64`). Every case trains on both sides of it.
        let b1 = B1 as f32;
        let bc1_exact = (1..).find(|&t| 1.0 - b1.powi(t) == 1.0).unwrap() as usize;
        assert!(
            (160..170).contains(&bc1_exact),
            "bc1 is 1.0 from step {bc1_exact}"
        );
        let n = 96usize;
        let (mut clipped, mut unclipped, mut short) = (0, 0, 0);
        for hidden in [1, 4, 5, 24, 25] {
            for lookback in [1, 5, 12] {
                for stride in [1, 3] {
                    for series in &smooth_and_spiky(n) {
                        // 95, 91, 84, 32, 31 or 28 windows per epoch: a
                        // short last batch of 7, 3, 4, none, 7 or 4.
                        let per_epoch = (n - lookback).div_ceil(stride);
                        short += usize::from(per_epoch % BATCH != 0);
                        let cfg = LstmConfig {
                            hidden,
                            lookback,
                            stride,
                            epochs: (bc1_exact + 8).div_ceil(per_epoch.div_ceil(BATCH)),
                            seed: (hidden * 100 + lookback * 10 + stride) as u64,
                        };
                        let case = format!("{cfg:?} spiky {}", series[0] == 900.0);
                        let mut fast = Lstm::new(cfg);
                        let mut slow = fast.clone();
                        let work = fast.train(&series[..n]);
                        let c = reference_train(&mut slow, &series[..n]);
                        clipped += c;
                        unclipped += slow.adam_t - c;
                        assert!(fast.adam_t > bc1_exact, "{case}: {}", fast.adam_t);
                        assert_eq!(work.optimizer_steps, fast.adam_t, "{case}");
                        assert_same_model(&fast, &slow, &case);
                        let got = fast.forecast_online(&series[..n], &series[n..]);
                        let want = slow.forecast_online(&series[..n], &series[n..]);
                        assert_eq!(bits(&got), bits(&want), "{case}: forecasts");
                    }
                }
            }
        }
        assert!(short > 0 && short < 60, "{short} of 60 cases end short");
        assert!(clipped > 1_000, "only {clipped} clipped steps");
        assert!(unclipped > 1_000, "only {unclipped} unclipped steps");
    }

    #[test]
    fn avx2_and_baseline_paths_agree_bit_for_bit() {
        #[cfg(target_arch = "x86_64")]
        let avx2 = is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        if !avx2 {
            println!("avx2_and_baseline_paths_agree_bit_for_bit: skipped, the host lacks AVX2");
            return;
        }
        let n = 200usize;
        for hidden in [1, 5, 24, 25] {
            for (lookback, stride) in [(1, 1), (5, 3), (12, 3)] {
                for series in &smooth_and_spiky(n) {
                    let cfg = LstmConfig {
                        hidden,
                        lookback,
                        stride,
                        epochs: 3,
                        seed: (hidden * 100 + lookback) as u64,
                    };
                    let case = format!("{cfg:?} spiky {}", series[0] == 900.0);
                    let mut dispatched = Lstm::new(cfg);
                    let mut baseline = dispatched.clone();
                    let work = dispatched.train(&series[..n]);
                    assert_eq!(work, baseline.train_baseline(&series[..n]), "{case}");
                    assert_same_model(&dispatched, &baseline, &case);
                    let got = dispatched.forecast_online(&series[..n], &series[n..]);
                    let want = baseline.forecast_online_baseline(&series[..n], &series[n..]);
                    assert_eq!(bits(&got), bits(&want), "{case}: forecasts");
                }
            }
        }
    }

    #[test]
    fn batched_forward_columns_equal_the_per_window_forward() {
        // Each column of a batch's forward is that window alone, bit for
        // bit: against one-column batches and the row-loop reference, for
        // a full and a short batch.
        let [xs, _] = smooth_and_spiky(40);
        let xs: Vec<f32> = xs.iter().map(|v| (v / 100.0) as f32).collect();
        for (hidden, lookback) in [(24, 12), (5, 7), (1, 3)] {
            let m = Lstm::new(LstmConfig {
                hidden,
                lookback,
                seed: hidden as u64,
                ..Default::default()
            });
            for starts in [&[3usize, 0, 17, 9, 21, 5, 11, 2][..], &[6, 1, 13]] {
                let mut ws = Workspace::new(hidden, lookback);
                m.forward_batch(&xs, starts, &mut ws);
                for (b, &s) in starts.iter().enumerate() {
                    let window = &xs[s..s + lookback];
                    let wide: Vec<f64> = window.iter().map(|&x| f64::from(x)).collect();
                    let y = f64::from(ws.dy[b]).to_bits();
                    assert_eq!(y, m.predict_normalized(&wide).to_bits(), "column {b}");
                    let want = f64::from(reference_forward(&m, window).y).to_bits();
                    assert_eq!(y, want, "column {b}");
                }
            }
        }
    }

    #[test]
    fn train_reports_its_samples_and_optimizer_steps() {
        // 90 windows at lookback 8 give 82 samples: ten full batches and
        // one of two, per epoch.
        let xs: Vec<f64> = (0..90).map(|i| (i % 10) as f64 * 5.0).collect();
        let mut m = Lstm::new(cfg_small());
        let work = m.train(&xs);
        assert_eq!(
            work,
            TrainWork {
                samples: 8 * 82,
                optimizer_steps: 8 * 11,
            }
        );
        assert_eq!(m.adam_t, work.optimizer_steps);
        assert_eq!(
            m.train(&xs[..8]),
            TrainWork::default(),
            "too short to train"
        );
    }

    #[test]
    fn cell_weight_count_matches_paper() {
        let m = Lstm::new(LstmConfig::default());
        assert_eq!(m.cell_weight_count(), 2496);
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
        // One Adam step on a one-window batch must reduce that window's
        // loss.
        let xs = [0.2f32, 0.4, 0.6, 0.5, 0.3, 0.45];
        let wide: Vec<f64> = xs.iter().map(|&x| f64::from(x)).collect();
        let target = wide[5];
        let mut m = Lstm::new(LstmConfig {
            hidden: 4,
            lookback: 5,
            ..Default::default()
        });
        let y0 = m.predict_normalized(&wide[..5]);
        let loss0 = (y0 - target) * (y0 - target);
        m.train_batch(&xs, &[0], &mut Workspace::new(4, 5));
        let y1 = m.predict_normalized(&wide[..5]);
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

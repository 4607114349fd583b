//! The pre-kernel scalar LSTM, kept as the equivalence/speedup reference.
//!
//! [`ScalarLstm`] is a faithful copy of the per-element implementation
//! the packed-GEMM [`crate::lstm::Lstm`] replaced: nested scalar loops
//! over `(gate, unit)` pairs with per-step cache allocations, exactly as
//! the forecaster trained before the kernel refactor, batched like the
//! packed trainer: each window's gradient accumulates into one buffer
//! from `2·(y − target) ÷ B`, then one clip and one Adam step per
//! mini-batch of [`BATCH`] windows. It exists for two gates, not for
//! production use:
//!
//! * **Kernel equivalence** — `crates/predict/tests/kernel_equiv.rs`
//!   asserts the packed forward pass matches this reference
//!   **bit-for-bit** on pinned seeds (both paths accumulate each dot
//!   product in the same ascending order), and that training stays
//!   within round-off over multiple BPTT/Adam steps (the packed
//!   backward reorders *independent* reductions — the global clip norm,
//!   `dh_prev` and the batch's gradient sum — so training equivalence is
//!   `≈`, not `==`: at `1e-9` for the `f64` instances, and at that bound
//!   scaled by `f32::EPSILON / f64::EPSILON` for the `f32` ones).
//! * **Kernel speedup floor** — `edgescope-bench predict` times this
//!   reference against the packed path on the same cohort and its
//!   `--check` fails CI when the measured win falls below the
//!   floor, keeping the "as fast as the hardware allows" claim
//!   measurement-gated.
//!
//! Like the packed model it is generic over the element type
//! ([`ScalarLstmOf`]); [`ScalarLstm`] is the `f32` instance, so the
//! speedup gate compares like with like. Seeding and draw order are
//! identical to [`crate::lstm::LstmOf::new`], so `ScalarLstmOf::<E>::new(cfg)`
//! and `LstmOf::<E>::new(cfg)` hold the same logical weights for the
//! same config. Both call the same owned activations through
//! [`Element`] (in `f32`, [`edgescope_obs::math::sigmoid_f32`] and
//! [`edgescope_obs::math::tanh_f32`]).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::gemm::Element;
use crate::lstm::{LstmConfig, TrainWork, BATCH, CLIP, LR};

/// Flat parameter block with Adam moments (reference copy).
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

    #[allow(clippy::needless_range_loop)] // parallel-array update
    fn step(&mut self, grad: &[E], t: usize) {
        let (b1, b2, eps, one) = (E::of(0.9), E::of(0.999), E::of(1e-8), E::ONE);
        let bc1 = one - b1.powi(t as i32);
        let bc2 = one - b2.powi(t as i32);
        for i in 0..self.w.len() {
            self.m[i] = b1 * self.m[i] + (one - b1) * grad[i];
            self.v[i] = b2 * self.v[i] + (one - b2) * grad[i] * grad[i];
            let mh = self.m[i] / bc1;
            let vh = self.v[i] / bc2;
            self.w[i] -= E::of(LR) * mh / (vh.sqrt() + eps);
        }
    }
}

struct StepCache<E> {
    x: E,
    h_prev: Vec<E>,
    c_prev: Vec<E>,
    i: Vec<E>,
    f: Vec<E>,
    g: Vec<E>,
    o: Vec<E>,
    tanh_c: Vec<E>,
    h: Vec<E>,
}

/// The scalar reference the product's kernels are held to:
/// [`ScalarLstmOf`] in `f32`, like [`crate::lstm::Lstm`].
pub type ScalarLstm = ScalarLstmOf<f32>;

/// The pre-kernel scalar LSTM (see module docs) in element type `E`.
/// Same hyper-parameters, same seeding, same training protocol as
/// [`crate::lstm::LstmOf`] — only the inner loops differ.
#[derive(Debug, Clone)]
pub struct ScalarLstmOf<E> {
    cfg: LstmConfig,
    /// Cell matrix, rows = 4·H gates (i, f, g, o), cols = 1 + H.
    w: AdamParam<E>,
    /// Cell biases, 4·H.
    b: AdamParam<E>,
    /// Readout weights, H.
    wy: AdamParam<E>,
    /// Readout bias.
    by: AdamParam<E>,
    adam_t: usize,
}

impl<E: Element> ScalarLstmOf<E> {
    /// Fresh model with the same weights as `LstmOf::<E>::new(cfg)`.
    pub fn new(cfg: LstmConfig) -> Self {
        assert!(cfg.hidden > 0 && cfg.lookback > 0 && cfg.stride > 0);
        let h = cfg.hidden;
        let cols = 1 + h;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let k = 1.0 / (h as f64).sqrt();
        let mut init =
            |n: usize| -> Vec<E> { (0..n).map(|_| E::of(rng.gen_range(-k..k))).collect() };
        let mut b = vec![E::ZERO; 4 * h];
        // Forget-gate bias at 1.0 — the standard trick for gradient flow.
        for v in b.iter_mut().take(2 * h).skip(h) {
            *v = E::ONE;
        }
        ScalarLstmOf {
            w: AdamParam::new(init(4 * h * cols)),
            b: AdamParam::new(b),
            wy: AdamParam::new(init(h)),
            by: AdamParam::new(vec![E::ZERO]),
            adam_t: 0,
            cfg,
        }
    }

    /// Forward one sequence (normalized inputs); returns caches and the
    /// prediction.
    fn forward(&self, xs: &[E]) -> (Vec<StepCache<E>>, E) {
        let hn = self.cfg.hidden;
        let cols = 1 + hn;
        let mut h = vec![E::ZERO; hn];
        let mut c = vec![E::ZERO; hn];
        let mut caches = Vec::with_capacity(xs.len());
        for &x in xs {
            let h_prev = h.clone();
            let c_prev = c.clone();
            let mut i_g = vec![E::ZERO; hn];
            let mut f_g = vec![E::ZERO; hn];
            let mut g_g = vec![E::ZERO; hn];
            let mut o_g = vec![E::ZERO; hn];
            for j in 0..hn {
                let mut acc = [E::ZERO; 4];
                for (gate, a) in acc.iter_mut().enumerate() {
                    let row = gate * hn + j;
                    let base = row * cols;
                    let mut s = self.b.w[row] + self.w.w[base] * x;
                    for (k2, &hp) in h_prev.iter().enumerate() {
                        s += self.w.w[base + 1 + k2] * hp;
                    }
                    *a = s;
                }
                i_g[j] = acc[0].sigmoid();
                f_g[j] = acc[1].sigmoid();
                g_g[j] = acc[2].tanh();
                o_g[j] = acc[3].sigmoid();
                c[j] = f_g[j] * c_prev[j] + i_g[j] * g_g[j];
                h[j] = o_g[j] * c[j].tanh();
            }
            caches.push(StepCache {
                x,
                h_prev,
                c_prev,
                i: i_g,
                f: f_g,
                g: g_g,
                o: o_g,
                tanh_c: c.iter().map(|&v| v.tanh()).collect(),
                h: h.clone(),
            });
        }
        let last = caches.last().expect("non-empty sequence");
        let y = self.by.w[0]
            + self
                .wy
                .w
                .iter()
                .zip(&last.h)
                .fold(E::of(-0.0), |s, (&w, &h)| s + w * h);
        (caches, y)
    }

    /// Forward without caches (inference; normalized inputs, each
    /// rounded to `E`).
    pub fn predict_normalized(&self, xs: &[f64]) -> f64 {
        let xs: Vec<E> = xs.iter().map(|&x| E::of(x)).collect();
        self.forward(&xs).1.to_f64()
    }

    /// One Adam step on the mean gradient of the batch of windows
    /// starting at `starts` (each `xs[s..s + l]` → `xs[s + l]`).
    #[allow(clippy::needless_range_loop)] // hidden-unit indices span several arrays
    fn train_batch(&mut self, xs: &[E], starts: &[usize]) {
        let hn = self.cfg.hidden;
        let (l, cols, one) = (self.cfg.lookback, 1 + hn, E::ONE);
        let n = E::of(starts.len() as f64);

        let mut gw = vec![E::ZERO; self.w.w.len()];
        let mut gb = vec![E::ZERO; self.b.w.len()];
        let mut gwy = vec![E::ZERO; hn];
        let mut gby = vec![E::ZERO];

        for &s in starts {
            let (caches, y) = self.forward(&xs[s..s + l]);
            let dy = E::of(2.0) * (y - xs[s + l]) / n;
            let last = caches.last().unwrap();
            for j in 0..hn {
                gwy[j] += dy * last.h[j];
            }
            gby[0] += dy;
            let mut dh: Vec<E> = self.wy.w.iter().map(|&w| dy * w).collect();
            let mut dc = vec![E::ZERO; hn];

            for cache in caches.iter().rev() {
                let mut dh_prev = vec![E::ZERO; hn];
                let mut dc_prev = vec![E::ZERO; hn];
                for j in 0..hn {
                    let dcj =
                        dc[j] + dh[j] * cache.o[j] * (one - cache.tanh_c[j] * cache.tanh_c[j]);
                    let d_o = dh[j] * cache.tanh_c[j];
                    let d_i = dcj * cache.g[j];
                    let d_f = dcj * cache.c_prev[j];
                    let d_g = dcj * cache.i[j];
                    let dz = [
                        d_i * cache.i[j] * (one - cache.i[j]),
                        d_f * cache.f[j] * (one - cache.f[j]),
                        d_g * (one - cache.g[j] * cache.g[j]),
                        d_o * cache.o[j] * (one - cache.o[j]),
                    ];
                    for (gate, &dzv) in dz.iter().enumerate() {
                        let row = gate * hn + j;
                        let base = row * cols;
                        gb[row] += dzv;
                        gw[base] += dzv * cache.x;
                        for k2 in 0..hn {
                            gw[base + 1 + k2] += dzv * cache.h_prev[k2];
                            dh_prev[k2] += dzv * self.w.w[base + 1 + k2];
                        }
                    }
                    dc_prev[j] = dcj * cache.f[j];
                }
                dh = dh_prev;
                dc = dc_prev;
            }
        }

        // Global-norm clipping across all parameter groups.
        let norm = gw
            .iter()
            .chain(&gb)
            .chain(&gwy)
            .chain(&gby)
            .fold(E::of(-0.0), |s, &g| s + g * g)
            .sqrt();
        let clip = E::of(CLIP);
        let scale = if norm > clip { clip / norm } else { one };
        if scale < one {
            for g in gw.iter_mut().chain(&mut gb).chain(&mut gwy) {
                *g *= scale;
            }
        }
        let gby = [gby[0] * scale];

        self.adam_t += 1;
        self.w.step(&gw, self.adam_t);
        self.b.step(&gb, self.adam_t);
        self.wy.step(&gwy, self.adam_t);
        self.by.step(&gby, self.adam_t);
    }

    /// Train on a window series (raw percent values) — the same epochs,
    /// shuffle stream, sample order and mini-batches as `Lstm::train`.
    pub fn train(&mut self, train_windows: &[f64]) -> TrainWork {
        let l = self.cfg.lookback;
        let mut work = TrainWork::default();
        if train_windows.len() <= l {
            return work; // nothing to learn from
        }
        let xs: Vec<E> = train_windows.iter().map(|v| E::of(v / 100.0)).collect();
        let mut order: Vec<usize> = (0..xs.len() - l).step_by(self.cfg.stride).collect();
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0x5eed);
        for _ in 0..self.cfg.epochs {
            // Fisher-Yates shuffle for sample order.
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for batch in order.chunks(BATCH) {
                self.train_batch(&xs, batch);
            }
            work.samples += order.len();
            work.optimizer_steps += order.len().div_ceil(BATCH);
        }
        work
    }

    /// One-step-ahead forecasts over `test_windows` given the training
    /// history (both in raw percent), rolling origin.
    pub fn forecast_online(&self, train_windows: &[f64], test_windows: &[f64]) -> Vec<f64> {
        let l = self.cfg.lookback;
        let mut history: Vec<E> = train_windows.iter().map(|v| E::of(v / 100.0)).collect();
        assert!(
            history.len() >= l,
            "history shorter than lookback ({} < {l})",
            history.len()
        );
        let mut out = Vec::with_capacity(test_windows.len());
        for &actual in test_windows {
            let y = self.forward(&history[history.len() - l..]).1;
            out.push((y.to_f64() * 100.0).clamp(0.0, 100.0));
            history.push(E::of(actual / 100.0));
        }
        out
    }
}

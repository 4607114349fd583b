#![warn(missing_docs)]
//! # edgescope-predict
//!
//! VM usage prediction, reproducing §4.4 / Fig. 14: predict the max/mean
//! CPU usage of the next half-hour window from history, per VM, with
//!
//! * **Holt-Winters** ([`holt_winters`]) — additive triple exponential
//!   smoothing with a daily seasonal period, the paper's classical
//!   baseline;
//! * **LSTM** ([`lstm`]) — a from-scratch single-layer LSTM with 24 hidden
//!   units. The recurrent cell has exactly `4·24·(1+24) + 4·24 = 2496`
//!   trainable weights — the figure the paper quotes — plus a 25-parameter
//!   linear readout (the paper's count covers the cell only). Trained with
//!   full BPTT and Adam in mini-batches of 8 windows, in `f32` as Keras
//!   trains by default.
//!
//! Baselines bounding the comparison — last-value, seasonal-naive, and an
//! AR(2) with a daily seasonal lag (the AR core of the ARIMA approach the paper's
//! prediction citations use) — live in [`baselines`].
//!
//! Shared plumbing: [`window`] builds the half-hour max/mean supervision
//! windows and the 3-week-train / 1-week-test split; [`eval`] runs either
//! model per VM and reports RMSE in CPU percentage points (the unit of
//! Fig. 14's x-axis). The per-VM loop is embarrassingly parallel — the
//! paper trains "on each separated VM" — so every [`eval`] entry point
//! takes a `jobs` worker count and fans the series out with
//! `edgescope_obs::pool::fan_out`, using per-series RNG streams and
//! per-series metric scopes, byte-identical at every worker count.
//!
//! ## Hot-path kernels
//! The LSTM cell runs on the packed blocked kernels in [`gemm`]: the four
//! gate weight matrices live in one contiguous `[4·hidden × (2+hidden)]`
//! block, training runs in mini-batches of [`lstm::BATCH`] windows so
//! each forward and BPTT step is one matrix–matrix product across the
//! batch's columns plus a pointwise pass, the weight gradient is one
//! pass after BPTT, and rolling-origin inference batches all test
//! positions the same way. Training and inference also have an AVX2 copy
//! the CPU picks at run time, 8 `f32` lanes wide, with the same bits. The Holt-Winters
//! smoothing grid is evaluated in a single pass over the series with
//! shared state arrays. Both batched paths are pinned to the scalar
//! reference implementation ([`mod@reference`]) by kernel-equivalence
//! golden tests, and LSTM training is pinned bit for bit to a test-only
//! per-window forward/backward summed in the batch's order.
//!
//! ## Omitted
//! No GPU, no training batches across VMs (the paper trains "on each
//! separated VM" — a mini-batch holds windows of one VM only), no
//! hyper-parameter search beyond Holt-Winters' small smoothing grid —
//! matching the paper's fixed 1-layer/24-unit setup.

pub mod baselines;
pub mod eval;
pub mod gemm;
pub mod holt_winters;
pub mod lstm;
pub mod reference;
pub mod window;

pub use baselines::{naive_forecast, seasonal_naive_forecast, ArModel};
pub use eval::{
    evaluate_baseline, evaluate_holt_winters, evaluate_lstm, BaselineKind, PredictionReport,
};
pub use holt_winters::HoltWinters;
pub use lstm::{Lstm, LstmConfig};
pub use window::{make_windows, train_test_split, Aggregation};

//! Kernel-equivalence golden tests: the packed-GEMM LSTM and the batched
//! Holt-Winters grid fit against their scalar references.
//!
//! Contract (see `predict::gemm` module docs):
//! * the packed **forward** pass accumulates every dot product in the
//!   same ascending order as the scalar loops, so inference in `f32`, the
//!   product's element type, is **bit-for-bit** identical to
//!   [`edgescope_predict::reference::ScalarLstm`];
//! * the packed **backward** pass reorders independent reductions
//!   (global clip norm, `dh_prev`, the mini-batch's gradient sum), so
//!   training equivalence is checked at round-off tolerance, in `f64`
//!   at 1e-9 and in `f32` at the same number of machine epsilons, and
//!   full-training `f32` outputs are pinned as golden values on a fixed
//!   seed;
//! * the batched grid fit replicates the per-cell recurrences exactly,
//!   so it is bit-for-bit against the original independent-refit search.
//!
//! These run in the CI clippy/test jobs; the `edgescope-bench predict
//! --check` gate separately enforces the measured speedup floor.

use edgescope_predict::gemm::Element;
use edgescope_predict::lstm::{Lstm, LstmConfig, LstmOf};
use edgescope_predict::reference::{ScalarLstm, ScalarLstmOf};
use edgescope_predict::HoltWinters;

/// Deterministic mixed-period series in CPU-percent range.
fn series(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let t = i as f64;
            40.0 + 0.015 * t
                + 18.0 * (2.0 * std::f64::consts::PI * t / 48.0).sin()
                + 4.0 * (2.0 * std::f64::consts::PI * t / 11.0).cos()
        })
        .collect()
}

#[test]
fn packed_forward_matches_scalar_bitwise() {
    for (seed, hidden, lookback) in [(7u64, 24usize, 12usize), (48764, 24, 12), (0x9ed1, 4, 5)] {
        let cfg = LstmConfig {
            hidden,
            lookback,
            seed,
            ..Default::default()
        };
        let packed = Lstm::new(cfg.clone());
        let scalar = ScalarLstm::new(cfg);
        let xs: Vec<f64> = series(lookback).iter().map(|v| v / 100.0).collect();
        let a = packed.predict_normalized(&xs);
        let b = scalar.predict_normalized(&xs);
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "seed {seed} hidden {hidden}: packed {a} vs scalar {b}"
        );
    }
}

#[test]
fn batched_inference_matches_scalar_bitwise() {
    // The batched one-GEMM-per-step rolling-origin inference must equal
    // the scalar per-sequence loop exactly, across all test positions.
    let cfg = LstmConfig {
        seed: 48764,
        ..Default::default()
    };
    let packed = Lstm::new(cfg.clone());
    let scalar = ScalarLstm::new(cfg);
    let xs = series(48 * 3);
    let split = 48 * 2;
    let a = packed.forecast_online(&xs[..split], &xs[split..]);
    let b = scalar.forecast_online(&xs[..split], &xs[split..]);
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "position {i}: {x} vs {y}");
    }
}

/// The largest distance, in CPU points, between the packed and the
/// scalar forecasts after the same two epochs of training in `E`.
fn training_drift<E: Element>() -> f64 {
    let cfg = LstmConfig {
        epochs: 2,
        stride: 3,
        seed: 48764,
        ..Default::default()
    };
    let mut packed = LstmOf::<E>::new(cfg.clone());
    let mut scalar = ScalarLstmOf::<E>::new(cfg);
    let xs = series(48 * 3);
    let split = 48 * 2;
    packed.train(&xs[..split]);
    scalar.train(&xs[..split]);
    let a = packed.forecast_online(&xs[..split], &xs[split..]);
    let b = scalar.forecast_online(&xs[..split], &xs[split..]);
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(&b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[test]
fn training_stays_within_roundoff_of_scalar() {
    // The packed backward reorders the clip-norm, dh_prev and batch-sum
    // reductions, so trained weights drift by round-off only. A few
    // epochs over a real series, in `f64`, must keep the forecasts
    // within 1e-9 CPU points.
    let drift = training_drift::<f64>();
    println!("f64 drift {drift:e}");
    assert!(
        drift < 1e-9,
        "packed and scalar f64 forecasts {drift} apart"
    );
}

#[test]
fn training_stays_within_f32_roundoff_of_scalar() {
    // The same check in `f32`, the product's element type, with the f64
    // bound scaled by the ratio of the two machine epsilons (2²⁹): the
    // same number of ε, 1e-9 / 2⁻⁵² ≈ 4.5·10⁶ of them.
    let bound = 1e-9 / f64::EPSILON * f64::from(f32::EPSILON);
    let drift = training_drift::<f32>();
    println!("f32 drift {drift:e}");
    assert!(
        drift < bound,
        "packed and scalar f32 forecasts {drift} apart (bound {bound})"
    );
}

#[test]
fn trained_lstm_forecast_golden_values() {
    // Full-training output pinned on a fixed seed: catches any silent
    // change to init draw order, packed layout, shuffle stream, Adam, or
    // the batched inference path.
    let xs = series(48 * 5);
    let split = 48 * 4;
    let cfg = LstmConfig {
        epochs: 2,
        stride: 3,
        lookback: 12,
        seed: 48764,
        ..Default::default()
    };
    let mut m = Lstm::new(cfg);
    m.train(&xs[..split]);
    let preds = m.forecast_online(&xs[..split], &xs[split..]);
    // Re-pinned when training moved to mini-batches of 8: two epochs of
    // 60 windows are now 16 Adam steps, not 120. Re-pinned again when
    // the LSTM moved to f32: each value moved by about 2·10⁻⁴.
    let golden = [
        33.37432146072388,
        33.91579985618591,
        34.45433974266052,
        35.044145584106445,
        35.73272228240967,
        36.54162883758545,
    ];
    for (i, (p, g)) in preds.iter().zip(&golden).enumerate() {
        assert!((p - g).abs() < 1e-9, "position {i}: {p} vs golden {g}");
    }
}

#[test]
fn grid_fit_golden_values() {
    // The batched one-pass grid fit is bit-for-bit against the per-cell
    // search (asserted in the crate's unit tests); pin its selected
    // parameters and forecasts so the contract survives refactors.
    let xs = series(48 * 5);
    let split = 48 * 4;
    let mut hw = HoltWinters::fit_grid(&xs[..split]);
    assert_eq!((hw.alpha, hw.beta, hw.gamma), (0.8, 0.01, 0.05));
    let preds = hw.forecast_online(&xs[split..]);
    let golden = [
        43.91890877018262,
        41.79344032700551,
        42.105694519310845,
        44.394233584715025,
        48.36388519258453,
        53.338188379118606,
    ];
    for (i, (p, g)) in preds.iter().zip(&golden).enumerate() {
        assert!((p - g).abs() < 1e-9, "position {i}: {p} vs golden {g}");
    }
}

//! Property-based tests of the predictors.

use edgescope_predict::holt_winters::HoltWinters;
use edgescope_predict::lstm::{Lstm, LstmConfig};
use edgescope_predict::window::{make_windows, train_test_split, Aggregation};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn windows_relate_max_and_mean(
        xs in prop::collection::vec(0.0..100.0f64, 4..400),
        w in 1usize..30,
    ) {
        let maxs = make_windows(&xs, w, Aggregation::Max);
        let means = make_windows(&xs, w, Aggregation::Mean);
        prop_assert_eq!(maxs.len(), means.len());
        prop_assert_eq!(maxs.len(), xs.len() / w);
        for (mx, mn) in maxs.iter().zip(&means) {
            prop_assert!(mx + 1e-9 >= *mn, "window max below mean");
        }
    }

    #[test]
    fn split_covers_everything_in_order(xs in prop::collection::vec(0.0..1.0f64, 8..500)) {
        let (train, test) = train_test_split(&xs);
        prop_assert_eq!(train.len() + test.len(), xs.len());
        prop_assert!(train.len() >= 3 * test.len() - 3, "≈3:1 split");
        prop_assert_eq!(train.last(), xs.get(train.len() - 1));
    }

    #[test]
    fn holt_winters_forecasts_finite_and_state_sane(
        xs in prop::collection::vec(0.0..100.0f64, 64..300),
        alpha in 0.01..0.99f64,
        beta in 0.01..0.99f64,
        gamma in 0.01..0.99f64,
    ) {
        let period = 16;
        let split = xs.len() * 3 / 4;
        let mut hw = HoltWinters::fit(&xs[..split], alpha, beta, gamma, period);
        let preds = hw.forecast_online(&xs[split..]);
        prop_assert_eq!(preds.len(), xs.len() - split);
        for p in preds {
            prop_assert!(p.is_finite());
            // Bounded inputs keep HW forecasts bounded, although extreme
            // smoothing constants on pure noise oscillate well beyond the
            // data range — only divergence would be a bug.
            prop_assert!(p.abs() < 1e5, "forecast {p}");
        }
    }

    #[test]
    fn lstm_inference_bounded_for_any_history(
        seed in 0u64..500,
        xs in prop::collection::vec(0.0..100.0f64, 20..120),
    ) {
        let cfg = LstmConfig { lookback: 8, epochs: 0, seed, ..Default::default() };
        let model = Lstm::new(cfg);
        // Untrained model, arbitrary history: output clamped to percent.
        let preds = model.forecast_online(&xs[..10], &xs[10..]);
        prop_assert_eq!(preds.len(), xs.len() - 10);
        for p in preds {
            prop_assert!((0.0..=100.0).contains(&p));
        }
    }

    #[test]
    fn lstm_weight_count_formula(hidden in 1usize..64) {
        let cfg = LstmConfig { hidden, ..Default::default() };
        let m = Lstm::new(cfg);
        prop_assert_eq!(m.cell_weight_count(), 4 * hidden * (1 + hidden) + 4 * hidden);
    }
}

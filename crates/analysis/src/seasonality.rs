//! Seasonal-strength estimation.
//!
//! §4.4 explains NEP's better predictability by "seasonality \[92\]" — the
//! characteristic-based clustering metric of Wang, Smith & Hyndman (2006).
//! Their seasonal strength is `1 − Var(remainder) / Var(deseasonalized
//! series after detrending)`; we implement the standard moving-average
//! classical decomposition variant:
//!
//! 1. trend `T` = centered moving average with window = one period;
//! 2. detrended `D = X − T`;
//! 3. seasonal component `S` = per-phase mean of `D`;
//! 4. remainder `R = D − S`;
//! 5. strength = `max(0, 1 − Var(R) / Var(D))`.
//!
//! A perfectly periodic series scores 1, white noise scores ≈0.

use crate::stats::variance;

/// Seasonal strength of `xs` with the given period (in samples), in
/// `[0, 1]`.
///
/// Requires at least two full periods; panics otherwise (a seasonality
/// estimate from under two cycles would be meaningless).
pub fn seasonal_strength(xs: &[f64], period: usize) -> f64 {
    assert!(period >= 2, "period must be at least 2");
    assert!(
        xs.len() >= 2 * period,
        "need at least two periods ({} samples), got {}",
        2 * period,
        xs.len()
    );

    let trend = centered_moving_average(xs, period);
    // Detrend only where the trend is defined (the interior of the series).
    let half = period / 2;
    let interior = half..xs.len() - half;
    let detrended: Vec<f64> = interior.clone().map(|i| xs[i] - trend[i - half]).collect();

    // Per-phase seasonal means over the detrended interior.
    let mut phase_sum = vec![0.0; period];
    let mut phase_cnt = vec![0usize; period];
    for (k, &d) in detrended.iter().enumerate() {
        let phase = (k + half) % period;
        phase_sum[phase] += d;
        phase_cnt[phase] += 1;
    }
    let seasonal: Vec<f64> = phase_sum
        .iter()
        .zip(&phase_cnt)
        .map(|(&s, &c)| if c > 0 { s / c as f64 } else { 0.0 })
        .collect();

    let remainder: Vec<f64> = detrended
        .iter()
        .enumerate()
        .map(|(k, &d)| d - seasonal[(k + half) % period])
        .collect();

    let var_d = variance(&detrended);
    if var_d == 0.0 {
        // A flat (post-detrend) series has no seasonal signal.
        return 0.0;
    }
    (1.0 - variance(&remainder) / var_d).max(0.0)
}

/// Centered moving average of window `w`; output has `len − 2·(w/2)`
/// entries aligned to the interior of the input. Even windows use the
/// standard 2×w trick (average of two adjacent w-windows).
fn centered_moving_average(xs: &[f64], w: usize) -> Vec<f64> {
    let half = w / 2;
    let n = xs.len();
    let mut out = Vec::with_capacity(n - 2 * half);
    for i in half..n - half {
        if w % 2 == 1 {
            let s: f64 = xs[i - half..=i + half].iter().sum();
            out.push(s / w as f64);
        } else {
            // 2×w MA: half-weight the two endpoints.
            let mut s = 0.5 * xs[i - half] + 0.5 * xs[i + half];
            s += xs[i - half + 1..i + half].iter().sum::<f64>();
            out.push(s / w as f64);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine(n: usize, period: usize, amp: f64, noise: impl Fn(usize) -> f64) -> Vec<f64> {
        (0..n)
            .map(|i| amp * (2.0 * std::f64::consts::PI * i as f64 / period as f64).sin() + noise(i))
            .collect()
    }

    #[test]
    fn pure_sine_is_strongly_seasonal() {
        let xs = sine(24 * 14, 24, 10.0, |_| 0.0);
        let s = seasonal_strength(&xs, 24);
        assert!(s > 0.95, "pure sine strength {s}");
    }

    #[test]
    fn deterministic_pseudo_noise_is_weak() {
        // A chaotic (period-free) sequence via a logistic map.
        let mut x = 0.37;
        let xs: Vec<f64> = (0..24 * 14)
            .map(|_| {
                x = 3.99 * x * (1.0 - x);
                x
            })
            .collect();
        let s = seasonal_strength(&xs, 24);
        assert!(s < 0.3, "chaotic strength {s}");
    }

    #[test]
    fn noisy_sine_between() {
        let xs = sine(24 * 14, 24, 10.0, |i| {
            // Deterministic "noise" with no period-24 component.
            ((i as f64 * 12.9898).sin() * 43758.5453).fract() * 8.0
        });
        let s = seasonal_strength(&xs, 24);
        assert!(s > 0.4 && s < 0.99, "noisy sine strength {s}");
    }

    #[test]
    fn trend_is_removed() {
        // Sine plus strong linear trend should still read as seasonal.
        let xs: Vec<f64> = sine(24 * 14, 24, 10.0, |_| 0.0)
            .iter()
            .enumerate()
            .map(|(i, v)| v + i as f64 * 0.5)
            .collect();
        let s = seasonal_strength(&xs, 24);
        assert!(s > 0.9, "trended sine strength {s}");
    }

    #[test]
    fn constant_series_zero() {
        let xs = vec![5.0; 100];
        assert_eq!(seasonal_strength(&xs, 10), 0.0);
    }

    #[test]
    fn moving_average_odd() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ma = centered_moving_average(&xs, 3);
        assert_eq!(ma, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "need at least two periods")]
    fn too_short_panics() {
        seasonal_strength(&[1.0; 10], 8);
    }
}

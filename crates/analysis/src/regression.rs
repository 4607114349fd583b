//! Ordinary least-squares simple linear regression.
//!
//! Fig. 4 relates inter-site RTT to distance; fitting `rtt = a·d + b`
//! turns the scatter into the deployment's effective propagation slope
//! (the paper's "reach 100 ms when two sites are 3000 km away" envelope).

/// A fitted line `y = slope·x + intercept` with its R².
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination in `[0, 1]`.
    pub r2: f64,
}

impl LinearFit {
    /// Evaluate the fitted line.
    pub fn predict(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }
}

/// Fit by ordinary least squares. Panics on fewer than two points or on a
/// degenerate (constant-x) input — both always indicate an upstream bug.
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> LinearFit {
    assert_eq!(xs.len(), ys.len(), "length mismatch");
    assert!(xs.len() >= 2, "need at least two points");
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    assert!(sxx > 0.0, "degenerate regression: constant x");
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let r2 = if syy == 0.0 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    LinearFit {
        slope,
        intercept,
        r2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_recovered() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys: Vec<f64> = xs.iter().map(|x| 2.5 * x + 1.0).collect();
        let f = linear_fit(&xs, &ys);
        assert!((f.slope - 2.5).abs() < 1e-12);
        assert!((f.intercept - 1.0).abs() < 1e-12);
        assert!((f.r2 - 1.0).abs() < 1e-12);
        assert!((f.predict(10.0) - 26.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_line_r2_below_one() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 3.0 * x + if i % 2 == 0 { 5.0 } else { -5.0 })
            .collect();
        let f = linear_fit(&xs, &ys);
        assert!((f.slope - 3.0).abs() < 0.05);
        assert!(f.r2 > 0.9 && f.r2 < 1.0);
    }

    #[test]
    fn constant_y_gives_zero_slope() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [7.0, 7.0, 7.0];
        let f = linear_fit(&xs, &ys);
        assert_eq!(f.slope, 0.0);
        assert_eq!(f.intercept, 7.0);
        assert_eq!(f.r2, 1.0);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn constant_x_panics() {
        linear_fit(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0]);
    }
}

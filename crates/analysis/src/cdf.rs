//! Empirical cumulative distribution functions.
//!
//! Nearly every figure in the paper is a CDF (Figs. 2, 3, 8, 9, 10, 13, 14).
//! [`Cdf`] stores the sorted sample and answers quantile lookups
//! `F⁻¹(q)`, which is also how it renders its `(x, F(x))` points.

use crate::stats::percentile_of_sorted;
use crate::table::xy_csv;

/// An empirical CDF over a finite sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build a CDF from a sample. Panics on empty input or NaN values — an
    /// empty CDF has no meaning in any experiment.
    pub fn new(mut xs: Vec<f64>) -> Self {
        assert!(!xs.is_empty(), "Cdf of empty sample");
        assert!(xs.iter().all(|x| !x.is_nan()), "NaN in Cdf input");
        // total_cmp: the assert above already rejects NaN, but keep every
        // sort in the workspace on the total order — no unwrap to trip on.
        xs.sort_by(f64::total_cmp);
        Cdf { sorted: xs }
    }

    /// Build from a borrowed slice.
    pub fn from_slice(xs: &[f64]) -> Self {
        Self::new(xs.to_vec())
    }

    /// Quantile lookup with linear interpolation, `q` in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        percentile_of_sorted(&self.sorted, q * 100.0)
    }

    /// Median of the sample.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Minimum of the sample.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Maximum of the sample.
    pub fn max(&self) -> f64 {
        *self.sorted.last().unwrap()
    }

    /// Render the CDF as `(x, F(x))` points on an `n_points`-step quantile
    /// grid (its ends are the exact min and max), ready to be written as a
    /// CSV series and plotted.
    pub fn points(&self, n_points: usize) -> Vec<(f64, f64)> {
        quantile_grid(n_points, |q| self.quantile(q))
    }

    /// CSV rendering: `x,cdf` header plus one row per point.
    pub fn to_csv(&self, n_points: usize) -> String {
        xy_csv(("x", "cdf"), &self.points(n_points))
    }
}

/// `(quantile(q), q)` at `n_points` evenly spaced `q` from 0 to 1: the
/// one grid every rendered CDF, exact or sketched, is drawn on.
pub(crate) fn quantile_grid(n_points: usize, quantile: impl Fn(f64) -> f64) -> Vec<(f64, f64)> {
    assert!(n_points >= 2, "need at least 2 CDF points");
    (0..n_points)
        .map(|i| {
            let q = i as f64 / (n_points - 1) as f64;
            (quantile(q), q)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_roundtrip() {
        let xs: Vec<f64> = (0..101).map(|i| i as f64).collect();
        let c = Cdf::new(xs);
        assert_eq!(c.quantile(0.0), 0.0);
        assert_eq!(c.quantile(1.0), 100.0);
        assert!((c.quantile(0.5) - 50.0).abs() < 1e-9);
        assert!((c.median() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn points_monotone() {
        let c = Cdf::new(vec![3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]);
        let pts = c.points(20);
        assert_eq!(pts.len(), 20);
        for w in pts.windows(2) {
            assert!(w[1].0 >= w[0].0, "x must be non-decreasing");
            assert!(w[1].1 >= w[0].1, "q must be non-decreasing");
        }
        assert_eq!(pts[0].0, c.min());
        assert_eq!(pts.last().unwrap().0, c.max());
    }

    #[test]
    fn csv_has_header_and_rows() {
        let c = Cdf::new(vec![1.0, 2.0]);
        let csv = c.to_csv(3);
        let lines: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(lines[0], "x,cdf");
        assert_eq!(lines.len(), 4);
    }

    #[test]
    #[should_panic(expected = "Cdf of empty sample")]
    fn empty_panics() {
        Cdf::new(vec![]);
    }
}

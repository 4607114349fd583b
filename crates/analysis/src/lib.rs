#![warn(missing_docs)]
//! # edgescope-analysis
//!
//! Statistics toolkit used by every EdgeScope experiment: descriptive
//! statistics, empirical CDFs, percentiles, Pearson correlation, bucket shares,
//! seasonality strength, load-imbalance metrics, and plain-text/CSV table
//! rendering.
//!
//! The paper ("From Cloud to Edge", IMC'21) reports almost every result as a
//! CDF, a median, a coefficient of variation, a Pearson correlation, or a
//! P95/P5 gap ratio; this crate is the single home for those estimators so
//! all experiments compute them identically.
//!
//! ## Implemented
//! * mean / population variance / std-dev / coefficient of variation,
//!   peaks, RMSE ([`stats`])
//! * percentiles with linear interpolation, medians ([`stats::percentile`]),
//!   and [`stats::select`], the one order-statistic helper
//! * empirical CDFs with quantile lookup and fixed-grid evaluation ([`cdf`])
//! * bucket fractions over explicit boundaries ([`histogram`])
//! * seasonal-strength estimator after Wang, Smith & Hyndman (2006), the
//!   metric the paper cites for "seasonality" in §4.4 ([`seasonality`])
//! * percentile-bootstrap confidence intervals of the median ([`bootstrap`])
//! * imbalance/gap metrics (max/min, P95/P5) used in §4.3 ([`imbalance`])
//! * windowed mean resampling ([`timeseries`])
//! * aligned text tables and the one `x,y` / `x,cdf` CSV writer
//!   ([`table`])
//! * mergeable one-pass sketches for bounded-memory (`metro`-scale)
//!   campaigns: streaming CDF/percentiles, Welford moments, and
//!   [`StreamingPearson`], the one bivariate estimator — Pearson's r
//!   (Fig. 4/5) and the OLS line (Fig. 4's RTT-vs-distance slope)
//!   ([`sketch`])
//!
//! ## Intentionally omitted
//! * No plotting — experiments emit CSV series that plot in any tool.

pub mod bootstrap;
pub mod cdf;
pub mod histogram;
pub mod imbalance;
pub mod seasonality;
pub mod sketch;
pub mod stats;
pub mod table;
pub mod timeseries;

pub use bootstrap::{median_ci, ConfidenceInterval};
pub use cdf::Cdf;
pub use imbalance::{gap_max_min, gap_p95_p5, normalized_to_min};
pub use seasonality::seasonal_strength;
pub use sketch::{LinearFit, PercentileSketch, StreamingMoments, StreamingPearson};
pub use stats::{coefficient_of_variation, mean, median, percentile, rmse, std_dev, Summary};
pub use table::Table;
pub use timeseries::resample_mean;

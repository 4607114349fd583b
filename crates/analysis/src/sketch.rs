//! Mergeable one-pass sketches for bounded-memory campaign aggregation.
//!
//! The materialised estimators in [`crate::stats`] / [`crate::cdf`] hold
//! every sample; at `metro` scale (hundreds of thousands of virtual
//! users, tens of thousands of VM series) that is the memory bottleneck,
//! so the campaign hot loops switch to the three sketches here. Each one
//! ingests a stream of values in O(1) memory per value and **merges**
//! with a sketch built over a disjoint shard of the stream — which is
//! what lets `pool::fan_out` workers aggregate entity shards
//! independently and combine them afterwards.
//!
//! # Determinism contract
//!
//! * [`PercentileSketch`] holds only integer bucket counts, so its merge
//!   is exactly commutative **and** associative: any merge order over
//!   the same shards produces bit-identical state, and every derived
//!   value (percentiles, CDF CSVs) is byte-identical regardless of the
//!   worker count.
//! * [`StreamingMoments`] and [`StreamingPearson`] hold floating-point
//!   accumulators; their merge (Chan et al.'s parallel update) is exact
//!   in value up to FP rounding, which **is** order-sensitive. Campaign
//!   loops therefore merge moment sketches in a fixed order — ascending
//!   entity/chunk index, never completion order — so results stay
//!   byte-identical for every `--jobs` value.
//!
//! # Accuracy
//!
//! [`PercentileSketch`] is a DDSketch-style logarithmic-bucket
//! histogram: a value `v` in `[min_value, max_value]` lands in bucket
//! `ceil(log_γ(v / min_value))` with `γ = (1 + α) / (1 − α)`, and every
//! bucket's representative value is within relative error `α` of every
//! value the bucket covers. `α` is [`ALPHA`] for every sketch in the
//! workspace, so a sketch is configured only by its value range.
//! Quantile queries interpolate between the two adjacent ranks exactly
//! like [`crate::stats::percentile`], so a
//! sketch percentile is within `α` **relative error** of the exact
//! percentile of the same stream (values outside the configured
//! `[min_value, max_value]` range are clamped to the edge buckets and
//! only then lose the guarantee). Moments are exact up to FP rounding.
//!
//! Non-finite inputs follow the workspace `f64::total_cmp` convention
//! (see [`crate::stats::percentile`]): `-inf` ranks first, `+inf` after
//! every finite value, and NaN **above** `+inf` — so a stray NaN
//! surfaces in the top percentiles instead of poisoning the sketch.

use crate::cdf::quantile_grid;
use crate::table::xy_csv;

/// The relative accuracy `α` of every [`PercentileSketch`]: a percentile
/// of an in-range stream is within `ALPHA` relative error of the exact
/// one.
pub const ALPHA: f64 = 0.01;

/// A deterministic streaming CDF/percentile sketch with fixed memory.
///
/// Logarithmic buckets with relative accuracy [`ALPHA`]; integer counts,
/// so merging is exactly order-independent (see the module docs).
///
/// ```
/// use edgescope_analysis::sketch::{PercentileSketch, ALPHA};
/// use edgescope_analysis::stats::percentile;
///
/// let xs: Vec<f64> = (1..=1000).map(|i| i as f64 * 0.37).collect();
///
/// // One-pass sketch vs the exact materialised percentile:
/// let mut sk = PercentileSketch::new(0.1, 1000.0);
/// for &x in &xs {
///     sk.add(x);
/// }
/// let exact = percentile(&xs, 95.0);
/// let approx = sk.percentile(95.0);
/// assert!((approx - exact).abs() <= ALPHA * exact + 1e-12);
///
/// // Sharded fill + merge gives bit-identical state in any order:
/// let fill = |chunk: &[f64]| {
///     let mut s = PercentileSketch::new(0.1, 1000.0);
///     chunk.iter().for_each(|&x| s.add(x));
///     s
/// };
/// let (a, b, c) = (fill(&xs[..100]), fill(&xs[100..700]), fill(&xs[700..]));
/// let mut ab_c = a.clone();
/// ab_c.merge(&b);
/// ab_c.merge(&c);
/// let mut c_b_a = c.clone();
/// c_b_a.merge(&b);
/// c_b_a.merge(&a);
/// assert_eq!(ab_c, c_b_a);
/// assert_eq!(ab_c.to_csv(50), sk.to_csv(50));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PercentileSketch {
    min_value: f64,
    gamma: f64,
    inv_ln_gamma: f64,
    /// Representative factor `2 / (1 + γ)`, so `rep(k) = min · γ^k · factor`.
    rep_factor: f64,
    /// Positive-value buckets, fixed length.
    pos: Vec<u64>,
    /// Negative-value buckets (by magnitude); allocated on first negative.
    neg: Vec<u64>,
    zero: u64,
    pos_inf: u64,
    neg_inf: u64,
    nan: u64,
    count: u64,
}

impl PercentileSketch {
    /// A sketch with relative accuracy [`ALPHA`] over the magnitude
    /// range `[min_value, max_value]`. Magnitudes outside the range clamp
    /// to the edge buckets (exactly counted, but without the accuracy
    /// guarantee). Panics unless `0 < min_value < max_value`.
    pub fn new(min_value: f64, max_value: f64) -> Self {
        assert!(
            min_value > 0.0 && min_value < max_value,
            "need 0 < min_value < max_value, got [{min_value}, {max_value}]"
        );
        let gamma = (1.0 + ALPHA) / (1.0 - ALPHA);
        let inv_ln_gamma = 1.0 / gamma.ln();
        let buckets = ((max_value / min_value).ln() * inv_ln_gamma).ceil() as usize + 1;
        PercentileSketch {
            min_value,
            gamma,
            inv_ln_gamma,
            rep_factor: 2.0 / (1.0 + gamma),
            pos: vec![0; buckets],
            neg: Vec::new(),
            zero: 0,
            pos_inf: 0,
            neg_inf: 0,
            nan: 0,
            count: 0,
        }
    }

    /// Total values ingested (including zero, `±inf` and NaN).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The lower end of the magnitude range given to [`Self::new`].
    pub fn min_value(&self) -> f64 {
        self.min_value
    }

    /// Every bucket count in a fixed order: zero, `+inf`, `−inf`, NaN,
    /// each positive bucket (as many as the range needs), then each
    /// negative bucket (none before the first negative value).
    pub fn bucket_counts(&self) -> impl Iterator<Item = u64> + '_ {
        [self.zero, self.pos_inf, self.neg_inf, self.nan]
            .into_iter()
            .chain(self.pos.iter().copied())
            .chain(self.neg.iter().copied())
    }

    fn bucket_of(&self, magnitude: f64) -> usize {
        let k = ((magnitude / self.min_value).ln() * self.inv_ln_gamma).ceil();
        if k <= 0.0 {
            0
        } else {
            (k as usize).min(self.pos.len() - 1)
        }
    }

    fn representative(&self, bucket: usize) -> f64 {
        self.min_value * self.gamma.powi(bucket as i32) * self.rep_factor
    }

    /// Ingest one value. O(1); never allocates except on the first
    /// negative value.
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        if x.is_nan() {
            self.nan += 1;
            return;
        }
        if x == f64::INFINITY {
            self.pos_inf += 1;
            return;
        }
        if x == f64::NEG_INFINITY {
            self.neg_inf += 1;
            return;
        }
        if x == 0.0 {
            self.zero += 1;
        } else if x > 0.0 {
            let b = self.bucket_of(x);
            self.pos[b] += 1;
        } else {
            if self.neg.is_empty() {
                self.neg = vec![0; self.pos.len()];
            }
            let b = self.bucket_of(-x);
            self.neg[b] += 1;
        }
    }

    /// Merge another sketch built over the **same value range** (panics
    /// otherwise). Pure integer bucket addition: exactly commutative and
    /// associative, so the merged state is bit-identical for any merge
    /// order over the same shards.
    pub fn merge(&mut self, other: &PercentileSketch) {
        assert!(
            self.min_value == other.min_value && self.pos.len() == other.pos.len(),
            "PercentileSketch config mismatch: merge requires an identical range"
        );
        for (a, b) in self.pos.iter_mut().zip(&other.pos) {
            *a += b;
        }
        if !other.neg.is_empty() {
            if self.neg.is_empty() {
                self.neg = vec![0; self.pos.len()];
            }
            for (a, b) in self.neg.iter_mut().zip(&other.neg) {
                *a += b;
            }
        }
        self.zero += other.zero;
        self.pos_inf += other.pos_inf;
        self.neg_inf += other.neg_inf;
        self.nan += other.nan;
        self.count += other.count;
    }

    /// The value at one integer rank of the total-order walk:
    /// `-inf` < negatives < zero < positives < `+inf` < NaN.
    fn value_at_rank(&self, rank: u64) -> f64 {
        let mut c = self.neg_inf;
        if rank < c {
            return f64::NEG_INFINITY;
        }
        if !self.neg.is_empty() {
            for k in (0..self.neg.len()).rev() {
                c += self.neg[k];
                if rank < c {
                    return -self.representative(k);
                }
            }
        }
        c += self.zero;
        if rank < c {
            return 0.0;
        }
        for (k, &n) in self.pos.iter().enumerate() {
            c += n;
            if rank < c {
                return self.representative(k);
            }
        }
        c += self.pos_inf;
        if rank < c {
            return f64::INFINITY;
        }
        f64::NAN
    }

    /// Approximate percentile, `p` in `[0, 100]`, with the same
    /// closest-ranks linear interpolation as
    /// [`crate::stats::percentile`] — within relative error [`ALPHA`] of
    /// the exact value for in-range streams. Panics on an empty sketch
    /// (same contract as the exact estimator).
    pub fn percentile(&self, p: f64) -> f64 {
        assert!(self.count > 0, "percentile of empty sketch");
        assert!((0.0..=100.0).contains(&p), "percentile p out of range: {p}");
        let rank = p / 100.0 * (self.count - 1) as f64;
        let lo = rank.floor() as u64;
        let hi = rank.ceil() as u64;
        let v_lo = self.value_at_rank(lo);
        if lo == hi {
            return v_lo;
        }
        let frac = rank - lo as f64;
        v_lo * (1.0 - frac) + self.value_at_rank(hi) * frac
    }

    /// Quantile lookup, `q` in `[0, 1]` (the [`crate::cdf::Cdf`]
    /// convention).
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        self.percentile(q * 100.0)
    }

    /// Approximate median.
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Approximate fraction of values `<= x`, within [`ALPHA`] relative
    /// error on the threshold. NaN values count in the denominator but
    /// never as `<= x` — they rank above `+inf` per the `total_cmp`
    /// convention.
    pub fn fraction_le(&self, x: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let mut n = self.neg_inf;
        if !self.neg.is_empty() {
            for (k, &c) in self.neg.iter().enumerate() {
                if -self.representative(k) <= x {
                    n += c;
                }
            }
        }
        if 0.0 <= x {
            n += self.zero;
        }
        for (k, &c) in self.pos.iter().enumerate() {
            if self.representative(k) <= x {
                n += c;
            }
        }
        if x == f64::INFINITY {
            n += self.pos_inf;
        }
        n as f64 / self.count as f64
    }

    /// The sketch CDF as `(x, F(x))` points on the quantile grid of
    /// [`crate::cdf::Cdf::points`].
    pub fn points(&self, n_points: usize) -> Vec<(f64, f64)> {
        quantile_grid(n_points, |q| self.quantile(q))
    }

    /// CSV rendering with the same `x,cdf` schema as
    /// [`crate::cdf::Cdf::to_csv`] — byte-identical for any merge order
    /// over the same shards.
    pub fn to_csv(&self, n_points: usize) -> String {
        xy_csv(("x", "cdf"), &self.points(n_points))
    }
}

/// Online mean / variance via Welford's algorithm, with Chan's
/// parallel rule for merging shard accumulators.
///
/// Results match the two-pass [`crate::stats`] estimators up to FP
/// rounding. The merge is **not** bit-associative (floating point), so
/// campaign loops merge in ascending chunk order — see the module docs.
///
/// ```
/// use edgescope_analysis::sketch::StreamingMoments;
/// use edgescope_analysis::stats;
///
/// let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
/// let mut m = StreamingMoments::new();
/// xs.iter().for_each(|&x| m.add(x));
/// assert!((m.mean() - stats::mean(&xs)).abs() < 1e-12);
/// assert!((m.std_dev() - stats::std_dev(&xs)).abs() < 1e-12);
///
/// // Shard + merge (fixed order) agrees with the single pass:
/// let mut a = StreamingMoments::new();
/// let mut b = StreamingMoments::new();
/// xs[..3].iter().for_each(|&x| a.add(x));
/// xs[3..].iter().for_each(|&x| b.add(x));
/// a.merge(&b);
/// assert!((a.variance() - m.variance()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StreamingMoments {
    count: u64,
    mean: f64,
    m2: f64,
}

impl StreamingMoments {
    /// An empty accumulator.
    pub fn new() -> Self {
        StreamingMoments::default()
    }

    /// Ingest one value (Welford update).
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Merge a shard accumulator (Chan et al.). FP-order-sensitive:
    /// callers must merge in a fixed (chunk-index) order for
    /// bit-reproducible output.
    pub fn merge(&mut self, other: &StreamingMoments) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let n = n1 + n2;
        let delta = other.mean - self.mean;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.count += other.count;
    }

    /// Mean; 0.0 when empty (the [`crate::stats::mean`] convention).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance; 0.0 for fewer than two values (the
    /// [`crate::stats::variance`] convention).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / self.count as f64).max(0.0)
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

/// A fitted line `y = slope·x + intercept` with its R², from
/// [`StreamingPearson::line`].
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

/// Online bivariate moments over a stream of `(x, y)` pairs, with a
/// Chan-style merge for shard accumulators: the workspace's one
/// estimator of Pearson's r ([`Self::r`]) and of the ordinary
/// least-squares line ([`Self::line`], Fig. 4's RTT-vs-distance slope).
///
/// Matches the two-pass centred-sum formulas up to FP rounding, with one
/// stream-friendly difference: fewer than two pairs return `r = 0.0`.
/// The merge is FP-order-sensitive (see the module docs).
///
/// ```
/// use edgescope_analysis::sketch::StreamingPearson;
///
/// let xs = [10.0, 8.0, 13.0, 9.0, 11.0, 14.0, 6.0, 4.0, 12.0, 7.0, 5.0];
/// let ys = [8.04, 6.95, 7.58, 8.81, 8.33, 9.96, 7.24, 4.26, 10.84, 4.82, 5.68];
/// let mut p = StreamingPearson::new();
/// xs.iter().zip(&ys).for_each(|(&x, &y)| p.add(x, y));
///
/// // The two-pass reference: centre on the means, then sum.
/// let (mx, my) = (xs.iter().sum::<f64>() / 11.0, ys.iter().sum::<f64>() / 11.0);
/// let (mut cov, mut vx, mut vy) = (0.0, 0.0, 0.0);
/// for (x, y) in xs.iter().zip(&ys) {
///     cov += (x - mx) * (y - my);
///     vx += (x - mx) * (x - mx);
///     vy += (y - my) * (y - my);
/// }
/// assert!((p.r() - cov / (vx.sqrt() * vy.sqrt())).abs() < 1e-12);
/// let fit = p.line();
/// assert!((fit.slope - cov / vx).abs() < 1e-12);
/// assert!((fit.intercept - (my - cov / vx * mx)).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StreamingPearson {
    count: u64,
    mean_x: f64,
    mean_y: f64,
    m2x: f64,
    m2y: f64,
    cxy: f64,
}

impl StreamingPearson {
    /// An empty accumulator.
    pub fn new() -> Self {
        StreamingPearson::default()
    }

    /// Ingest one `(x, y)` pair.
    pub fn add(&mut self, x: f64, y: f64) {
        self.count += 1;
        let n = self.count as f64;
        let dx = x - self.mean_x;
        self.mean_x += dx / n;
        let dy = y - self.mean_y;
        self.mean_y += dy / n;
        self.m2x += dx * (x - self.mean_x);
        self.m2y += dy * (y - self.mean_y);
        self.cxy += dx * (y - self.mean_y);
    }

    /// Merge a shard accumulator. FP-order-sensitive: merge in a fixed
    /// (chunk-index) order for bit-reproducible output.
    pub fn merge(&mut self, other: &StreamingPearson) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let n = n1 + n2;
        let dx = other.mean_x - self.mean_x;
        let dy = other.mean_y - self.mean_y;
        self.mean_x += dx * n2 / n;
        self.mean_y += dy * n2 / n;
        self.m2x += other.m2x + dx * dx * n1 * n2 / n;
        self.m2y += other.m2y + dy * dy * n1 * n2 / n;
        self.cxy += other.cxy + dx * dy * n1 * n2 / n;
        self.count += other.count;
    }

    /// Pearson's r in `[-1, 1]`; 0.0 when either marginal has zero
    /// variance (a constant series is uncorrelated with everything, which
    /// is how the paper reads capacity-capped throughput) or fewer than
    /// two pairs were seen.
    pub fn r(&self) -> f64 {
        if self.count < 2 || self.m2x <= 0.0 || self.m2y <= 0.0 {
            return 0.0;
        }
        self.cxy / (self.m2x * self.m2y).sqrt()
    }

    /// The ordinary least-squares line of `y` on `x`, with R² = 1 when
    /// `y` is constant. Panics on fewer than two pairs or on a constant
    /// `x` — both always indicate an upstream bug.
    pub fn line(&self) -> LinearFit {
        assert!(self.count >= 2, "need at least two points");
        assert!(self.m2x > 0.0, "degenerate regression: constant x");
        let slope = self.cxy / self.m2x;
        let r2 = if self.m2y == 0.0 {
            1.0
        } else {
            (self.cxy * self.cxy) / (self.m2x * self.m2y)
        };
        LinearFit {
            slope,
            intercept: self.mean_y - slope * self.mean_x,
            r2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{self, percentile, Summary};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The two-pass reference: centre on the means, then sum the
    /// products. Returns `(r, slope, intercept, r2)` with the
    /// conventions of [`StreamingPearson::r`] and
    /// [`StreamingPearson::line`].
    fn two_pass(xs: &[f64], ys: &[f64]) -> (f64, f64, f64, f64) {
        let n = xs.len() as f64;
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let (mut cov, mut vx, mut vy) = (0.0, 0.0, 0.0);
        for (x, y) in xs.iter().zip(ys) {
            cov += (x - mx) * (y - my);
            vx += (x - mx) * (x - mx);
            vy += (y - my) * (y - my);
        }
        let r = if vx == 0.0 || vy == 0.0 {
            0.0
        } else {
            cov / (vx.sqrt() * vy.sqrt())
        };
        let slope = cov / vx;
        let r2 = if vy == 0.0 {
            1.0
        } else {
            cov * cov / (vx * vy)
        };
        (r, slope, my - slope * mx, r2)
    }

    fn pairs(xs: &[f64], ys: &[f64]) -> StreamingPearson {
        let mut p = StreamingPearson::new();
        xs.iter().zip(ys).for_each(|(&x, &y)| p.add(x, y));
        p
    }

    /// A sketch over `[1e-3, 1e6]`, wide enough for every shape below.
    fn wide() -> PercentileSketch {
        PercentileSketch::new(1e-3, 1e6)
    }

    fn fill(xs: &[f64]) -> PercentileSketch {
        let mut s = wide();
        xs.iter().for_each(|&x| s.add(x));
        s
    }

    #[test]
    fn percentiles_within_documented_error() {
        // Log-spaced, linear, and heavy-tailed shapes.
        let shapes: Vec<Vec<f64>> = vec![
            (1..=2000).map(|i| i as f64 * 0.173).collect(),
            (0..1500).map(|i| 10.0f64.powf(i as f64 / 300.0)).collect(),
            (1..=999).map(|i| 1.0 / (i as f64 / 1000.0)).collect(),
        ];
        for xs in &shapes {
            let sk = fill(xs);
            for p in [1.0, 5.0, 25.0, 50.0, 75.0, 95.0, 99.0] {
                let exact = percentile(xs, p);
                let approx = sk.percentile(p);
                assert!(
                    (approx - exact).abs() <= ALPHA * exact.abs() + 1e-12,
                    "p{p}: approx {approx} vs exact {exact}"
                );
            }
        }
    }

    #[test]
    fn summary_agreement_via_moments() {
        let xs: Vec<f64> = (1..=500).map(|i| (i as f64).sqrt() * 3.7).collect();
        let mut m = StreamingMoments::new();
        xs.iter().for_each(|&x| m.add(x));
        let exact = Summary::of(&xs);
        assert!((m.mean() - exact.mean).abs() < 1e-9);
        assert!((m.std_dev() - exact.std_dev).abs() < 1e-9);
    }

    #[test]
    fn merge_is_associative_and_commutative_bit_exactly() {
        let xs: Vec<f64> = (0..3000)
            .map(|i| ((i * 2654435761u64 as usize) % 9973) as f64 / 7.0)
            .collect();
        let shards: Vec<PercentileSketch> = xs.chunks(700).map(fill).collect();
        // Left fold in entity order…
        let mut forward = wide();
        for s in &shards {
            forward.merge(s);
        }
        // …reverse order…
        let mut reverse = wide();
        for s in shards.iter().rev() {
            reverse.merge(s);
        }
        // …and a tree merge.
        let mut left = shards[0].clone();
        left.merge(&shards[1]);
        let mut right = shards[2].clone();
        for s in &shards[3..] {
            right.merge(s);
        }
        left.merge(&right);
        assert_eq!(forward, reverse);
        assert_eq!(forward, left);
        assert_eq!(forward, fill(&xs));
        assert_eq!(forward.to_csv(50), fill(&xs).to_csv(50));
    }

    #[test]
    fn moments_merge_in_entity_order_matches_single_pass() {
        let xs: Vec<f64> = (0..1000)
            .map(|i| (i as f64 * 0.73).sin() * 40.0 + 50.0)
            .collect();
        let mut single = StreamingMoments::new();
        xs.iter().for_each(|&x| single.add(x));
        let mut merged = StreamingMoments::new();
        for chunk in xs.chunks(64) {
            let mut shard = StreamingMoments::new();
            chunk.iter().for_each(|&x| shard.add(x));
            merged.merge(&shard);
        }
        assert!((single.mean() - merged.mean()).abs() < 1e-9);
        assert!((single.variance() - merged.variance()).abs() < 1e-6);
        assert!((single.variance() - stats::variance(&xs)).abs() < 1e-9);
    }

    #[test]
    fn pearson_matches_exact_and_merges() {
        let xs: Vec<f64> = (0..800).map(|i| i as f64 * 0.11).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| 3.0 * x + (x * 0.37).sin() * 10.0)
            .collect();
        let mut single = StreamingPearson::new();
        xs.iter().zip(&ys).for_each(|(&x, &y)| single.add(x, y));
        assert!((single.r() - two_pass(&xs, &ys).0).abs() < 1e-9);
        let mut merged = StreamingPearson::new();
        for (cx, cy) in xs.chunks(100).zip(ys.chunks(100)) {
            let mut shard = StreamingPearson::new();
            cx.iter().zip(cy).for_each(|(&x, &y)| shard.add(x, y));
            merged.merge(&shard);
        }
        assert!((merged.r() - single.r()).abs() < 1e-9);
    }

    #[test]
    fn pearson_degenerate_conventions() {
        let mut p = StreamingPearson::new();
        assert_eq!(p.r(), 0.0, "empty stream");
        p.add(1.0, 2.0);
        assert_eq!(p.r(), 0.0, "single pair");
        let mut flat = StreamingPearson::new();
        for i in 0..10 {
            flat.add(i as f64, 5.0);
        }
        assert_eq!(flat.r(), 0.0, "constant marginal (pearson convention)");
    }

    #[test]
    fn perfect_correlations_are_plus_and_minus_one() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((pairs(&xs, &[2.0, 4.0, 6.0, 8.0]).r() - 1.0).abs() < 1e-12);
        assert!((pairs(&xs, &[8.0, 6.0, 4.0, 2.0]).r() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_variance_marginal_is_uncorrelated() {
        assert_eq!(pairs(&[1.0, 2.0, 3.0], &[5.0, 5.0, 5.0]).r(), 0.0);
    }

    #[test]
    fn r_is_symmetric_and_bounded() {
        let xs = [1.0, 3.0, 2.0, 5.0, 4.0];
        let ys = [2.0, 1.0, 4.0, 3.0, 5.0];
        assert!((pairs(&xs, &ys).r() - pairs(&ys, &xs).r()).abs() < 1e-12);
        let xs = [1.0, -2.0, 3.5, 0.0, 9.0, -4.0];
        let ys = [0.2, 7.0, -1.0, 3.3, 2.0, 8.0];
        assert!((-1.0..=1.0).contains(&pairs(&xs, &ys).r()));
    }

    #[test]
    fn anscombe_quartet_r() {
        // Anscombe's first quartet: r ≈ 0.8164.
        let xs = [10.0, 8.0, 13.0, 9.0, 11.0, 14.0, 6.0, 4.0, 12.0, 7.0, 5.0];
        let ys = [
            8.04, 6.95, 7.58, 8.81, 8.33, 9.96, 7.24, 4.26, 10.84, 4.82, 5.68,
        ];
        assert!((pairs(&xs, &ys).r() - 0.8164).abs() < 1e-3);
    }

    #[test]
    fn line_recovers_an_exact_line() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys: Vec<f64> = xs.iter().map(|x| 2.5 * x + 1.0).collect();
        let f = pairs(&xs, &ys).line();
        assert!((f.slope - 2.5).abs() < 1e-12);
        assert!((f.intercept - 1.0).abs() < 1e-12);
        assert!((f.r2 - 1.0).abs() < 1e-12);
        assert!((f.predict(10.0) - 26.0).abs() < 1e-12);
    }

    #[test]
    fn line_of_a_noisy_series_has_r2_below_one() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 3.0 * x + if i % 2 == 0 { 5.0 } else { -5.0 })
            .collect();
        let f = pairs(&xs, &ys).line();
        assert!((f.slope - 3.0).abs() < 0.05);
        assert!(f.r2 > 0.9 && f.r2 < 1.0);
    }

    #[test]
    fn line_of_a_constant_y_is_flat_with_r2_one() {
        let f = pairs(&[1.0, 2.0, 3.0], &[7.0, 7.0, 7.0]).line();
        assert_eq!(f.slope, 0.0);
        assert_eq!(f.intercept, 7.0);
        assert_eq!(f.r2, 1.0);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn line_of_a_constant_x_panics() {
        pairs(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0]).line();
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn line_of_one_pair_panics() {
        pairs(&[2.0], &[1.0]).line();
    }

    #[test]
    fn line_and_r_match_the_two_pass_reference_on_random_inputs() {
        let mut rng = StdRng::seed_from_u64(0x11e);
        for case in 0..200 {
            let n = rng.gen_range(2..400);
            let (slope, offset) = (rng.gen_range(-10.0..10.0), rng.gen_range(-100.0..100.0));
            let noise = rng.gen_range(0.0..50.0);
            let xs: Vec<f64> = (0..n).map(|_| rng.gen_range(-50.0..50.0)).collect();
            let ys: Vec<f64> = xs
                .iter()
                .map(|x| slope * x + offset + noise * rng.gen_range(-1.0..1.0))
                .collect();
            let p = pairs(&xs, &ys);
            let fit = p.line();
            let (r, slope, intercept, r2) = two_pass(&xs, &ys);
            let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * (1.0 + b.abs());
            assert!(close(p.r(), r), "case {case}: r {} vs {r}", p.r());
            assert!(close(fit.slope, slope), "case {case}: slope");
            assert!(close(fit.intercept, intercept), "case {case}: intercept");
            assert!(close(fit.r2, r2), "case {case}: r2");
        }
    }

    #[test]
    fn adversarial_nan_and_infinities_follow_total_order() {
        // NaN ranks above +inf, which ranks above every finite value —
        // exactly the `total_cmp` convention of `stats::percentile`.
        let xs = [30.0, f64::NAN, 10.0, 20.0];
        let sk = fill(&xs);
        assert_eq!(sk.count(), 4);
        assert!((sk.percentile(0.0) - 10.0).abs() <= 0.01 * 10.0);
        assert!((sk.percentile(50.0) - percentile(&xs, 50.0)).abs() <= 0.01 * 25.0 + 1e-12);
        assert!(
            sk.percentile(100.0).is_nan(),
            "NaN surfaces at the top rank"
        );

        let ys = [1.0, f64::INFINITY, f64::NEG_INFINITY, 2.0, f64::NAN];
        let sk = fill(&ys);
        assert_eq!(sk.percentile(0.0), f64::NEG_INFINITY);
        assert!(sk.percentile(100.0).is_nan());
        assert_eq!(sk.value_at_rank(3), f64::INFINITY);
        // fraction_le: NaN inflates only the denominator.
        assert!((sk.fraction_le(f64::INFINITY) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn negatives_and_zero_rank_correctly() {
        let xs = [-100.0, -1.0, 0.0, 1.0, 100.0];
        let sk = fill(&xs);
        assert!((sk.percentile(0.0) + 100.0).abs() <= 1.0 + 1e-9);
        assert_eq!(sk.percentile(50.0), 0.0);
        assert!((sk.percentile(100.0) - 100.0).abs() <= 1.0 + 1e-9);
        assert!(sk.percentile(25.0) < 0.0 && sk.percentile(75.0) > 0.0);
        // Merging a negative-free sketch into a mixed one keeps both sides.
        let mut merged = fill(&[5.0, 6.0]);
        merged.merge(&sk);
        assert_eq!(merged.count(), 7);
        assert!(merged.percentile(0.0) < 0.0);
    }

    #[test]
    fn fraction_le_mirrors_the_exact_fraction() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let sk = fill(&xs);
        for x in [0.5, 1.0, 10.0, 50.0, 99.0, 1000.0] {
            let exact = xs.iter().filter(|&&v| v <= x).count() as f64 / xs.len() as f64;
            let d = (sk.fraction_le(x) - exact).abs();
            assert!(
                d <= 0.02 + 1e-12,
                "F({x}): sketch {} vs exact {exact}",
                sk.fraction_le(x)
            );
        }
    }

    #[test]
    fn out_of_range_values_clamp_exactly_in_count() {
        let mut sk = PercentileSketch::new(1.0, 1000.0);
        sk.add(1e-9);
        sk.add(1e9);
        assert_eq!(sk.count(), 2);
        // Clamped to the edge buckets: ordered, but outside the α bound.
        assert!(sk.percentile(0.0) <= 1.01);
        assert!(sk.percentile(100.0) >= 990.0);
    }

    #[test]
    #[should_panic(expected = "percentile of empty sketch")]
    fn empty_sketch_percentile_panics() {
        wide().percentile(50.0);
    }

    #[test]
    #[should_panic(expected = "config mismatch")]
    fn mismatched_merge_panics() {
        // An RTT sketch and a CV sketch: the range is the only
        // configuration two sketches can differ in.
        let mut a = PercentileSketch::new(0.1, 10_000.0);
        let b = PercentileSketch::new(1e-4, 100.0);
        a.merge(&b);
    }

    #[test]
    fn csv_schema_matches_cdf() {
        let sk = fill(&[1.0, 2.0, 3.0]);
        let csv = sk.to_csv(3);
        let lines: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(lines[0], "x,cdf");
        assert_eq!(lines.len(), 4);
    }
}

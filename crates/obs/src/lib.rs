//! Deterministic observability for the EdgeScope campaign.
//!
//! Three small facilities, all built to be invisible when unused, the
//! command line every binary shares, and the owned math of the two
//! hottest kernels:
//!
//! * **Scoped metrics** — lock-free, thread-local counters and
//!   fixed-bucket histograms, incremented by name from hot paths in the
//!   substrate crates ([`counter_add`], [`observe`]) and harvested by
//!   whoever installed the enclosing scope ([`scoped`]). When no scope
//!   is active every increment is a cheap no-op, so unit tests and
//!   examples observe nothing and pay (almost) nothing.
//! * **Deterministic fan-out** — the [`pool`] module: one closure per
//!   entity index over scoped worker threads, each index in its own
//!   metric scope, results and sets handed back in index order. Every
//!   data-parallel loop in the workspace goes through it, which is how
//!   metrics stay identical across worker counts.
//! * **Structured logging** — the [`log`] module: span-style start/close
//!   events in `pretty` or JSON-lines format on stderr, default `off`.
//! * **Command line** — the [`cli`] module: the one argument scanner and
//!   the one flag → `EDGESCOPE_*` variable → default resolver of every
//!   binary.
//! * **Owned math** — the [`math`] module: a branch-free `exp`,
//!   `sigmoid` and `tanh` whose bits do not depend on the platform's
//!   libm and whose slice loops vectorize, for the LSTM's gate
//!   activations and the trace generator's noise (this crate is the one
//!   both `predict` and `trace` depend on).
//!
//! All three are deliberately deterministic: metrics draw no randomness, take
//! no locks shared between threads, and never touch stdout, so render
//! output stays byte-identical whether collection is on or off, and
//! totals are identical across worker counts (each experiment runs
//! entirely on one worker thread, so a scope installed around it
//! captures exactly its increments).
//!
//! # Example
//!
//! ```
//! use edgescope_obs as obs;
//!
//! let ((), set) = obs::scoped(|| {
//!     obs::counter_add("demo.events", 3);
//!     obs::observe("demo.rtt_ms", 12.5, &[10.0, 50.0, 200.0]);
//! });
//! assert_eq!(set.counter("demo.events"), 3);
//! let h = set.histogram("demo.rtt_ms").unwrap();
//! assert_eq!(h.count(), 1);
//! assert!((h.sum() - 12.5).abs() < 1e-9);
//!
//! // Outside a scope, increments are dropped.
//! obs::counter_add("demo.events", 99);
//! assert_eq!(set.counter("demo.events"), 3);
//! ```

#![warn(missing_docs)]

pub mod cli;
pub mod log;
pub mod math;
pub mod pool;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;

thread_local! {
    static SCOPE: RefCell<Option<MetricSet>> = const { RefCell::new(None) };
}

/// Run `f` with a fresh metric scope installed on this thread and return
/// its result together with everything recorded while it ran.
///
/// Scopes do not nest: a `scoped` call inside `f` temporarily replaces
/// the outer scope, so the inner increments land only in the inner set.
/// The executor installs exactly one scope per study build and per
/// experiment, which is what makes per-experiment attribution exact.
///
/// ```
/// let (answer, set) = edgescope_obs::scoped(|| {
///     edgescope_obs::counter_inc("demo.calls");
///     42
/// });
/// assert_eq!(answer, 42);
/// assert_eq!(set.counter("demo.calls"), 1);
/// ```
pub fn scoped<T>(f: impl FnOnce() -> T) -> (T, MetricSet) {
    /// Puts the enclosing scope back when dropped — on return and on
    /// unwind alike, so a panic caught above `scoped` cannot leave this
    /// thread recording into the abandoned inner set.
    struct Restore(Option<MetricSet>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let previous = self.0.take();
            // The slot is gone only during thread-local teardown.
            let _ = SCOPE.try_with(|s| *s.borrow_mut() = previous);
        }
    }

    let restore = Restore(SCOPE.with(|s| s.borrow_mut().replace(MetricSet::new())));
    let value = f();
    let set = SCOPE.with(|s| s.borrow_mut().take().unwrap_or_default());
    drop(restore);
    (value, set)
}

/// Fold an already-collected [`MetricSet`] into the active scope; no-op
/// without one. This is the bridge [`pool::fan_out`] uses: each entity
/// (user, site, VM batch) records into its own scope on whichever worker
/// thread ran it, and the coordinating thread then replays the
/// per-entity sets **in entity order** into its own scope —
/// so the enclosing scope's content (including order-sensitive f64
/// histogram sums) is identical for every worker count.
///
/// ```
/// use edgescope_obs as obs;
/// let ((), inner) = obs::scoped(|| obs::counter_add("demo.work", 2));
/// let ((), outer) = obs::scoped(|| obs::record_set(&inner));
/// assert_eq!(outer.counter("demo.work"), 2);
/// ```
pub fn record_set(set: &MetricSet) {
    SCOPE.with(|s| {
        if let Some(active) = s.borrow_mut().as_mut() {
            active.merge(set);
        }
    });
}

/// Add `n` to the named counter in the active scope; no-op without one.
pub fn counter_add(name: &'static str, n: u64) {
    if n == 0 {
        return;
    }
    SCOPE.with(|s| {
        if let Some(set) = s.borrow_mut().as_mut() {
            *set.counters.entry(name).or_insert(0) += n;
        }
    });
}

/// Add 1 to the named counter in the active scope; no-op without one.
pub fn counter_inc(name: &'static str) {
    counter_add(name, 1);
}

/// Record `value` into the named fixed-bucket histogram in the active
/// scope; no-op without one. `bounds` are the upper bucket edges in
/// ascending order and must be identical at every call site using the
/// same name (they come from `static` slices in practice).
pub fn observe(name: &'static str, value: f64, bounds: &[f64]) {
    SCOPE.with(|s| {
        if let Some(set) = s.borrow_mut().as_mut() {
            set.histograms
                .entry(name)
                .or_insert_with(|| Histogram::new(bounds))
                .record(value);
        }
    });
}

/// A fixed-bucket histogram: upper bounds, per-bucket counts (the last
/// bucket is the overflow above every bound), and the running sum.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<u64>,
    sum: f64,
}

impl Histogram {
    /// An empty histogram over the given ascending upper bounds.
    pub fn new(bounds: &[f64]) -> Self {
        Histogram {
            bounds: bounds.to_vec(),
            buckets: vec![0; bounds.len() + 1],
            sum: 0.0,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|b| value <= *b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx] += 1;
        self.sum += value;
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// The upper bucket bounds this histogram was created with.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Cumulative count of observations `<=` each bound, in bound order
    /// (the overflow bucket is `count()` minus the last entry).
    pub fn cumulative(&self) -> Vec<u64> {
        let mut acc = 0;
        self.bounds
            .iter()
            .zip(&self.buckets)
            .map(|(_, c)| {
                acc += c;
                acc
            })
            .collect()
    }

    /// Fold another histogram into this one. Panics if the bucket
    /// bounds differ — names map 1:1 to static bound slices, so a
    /// mismatch is a programming error.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "histogram bound mismatch in merge"
        );
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.sum += other.sum;
    }
}

/// The value of one flattened metric row: an exact integer count or a
/// real-valued aggregate (histogram sums).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    /// An exact event count.
    Count(u64),
    /// A real-valued aggregate.
    Value(f64),
}

impl MetricValue {
    /// Render as a JSON number (non-finite values become `null`, which
    /// cannot occur for counts and sums of finite observations).
    pub fn to_json(&self) -> String {
        match self {
            MetricValue::Count(n) => format!("{n}"),
            MetricValue::Value(v) if v.is_finite() => format!("{v}"),
            MetricValue::Value(_) => "null".to_string(),
        }
    }
}

impl fmt::Display for MetricValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricValue::Count(n) => write!(f, "{n}"),
            MetricValue::Value(v) => write!(f, "{v:.3}"),
        }
    }
}

/// One flattened `name,kind,value` row, the unit of the `metrics.json`
/// schema. Histograms flatten to one `name[le=B]` row per bound plus
/// `name[count]` and `name[sum]`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRow {
    /// Metric name, with `[le=…]`/`[count]`/`[sum]` suffixes for
    /// histogram components.
    pub name: String,
    /// `"counter"` or `"histogram"`.
    pub kind: &'static str,
    /// The row's value.
    pub value: MetricValue,
}

/// Everything one scope recorded: counters and histograms keyed by
/// name. `BTreeMap` keeps iteration (and therefore every rendering)
/// in stable name order regardless of increment order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricSet {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricSet {
    /// An empty set.
    pub fn new() -> Self {
        MetricSet::default()
    }

    /// The named counter's value, 0 if never incremented.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, if anything was observed under that name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Iterate counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// Iterate histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(k, v)| (*k, v))
    }

    /// Fold another set into this one (summing counters, merging
    /// histograms bucket-wise). Used to build campaign totals from
    /// per-experiment sets.
    pub fn merge(&mut self, other: &MetricSet) {
        for (name, n) in &other.counters {
            *self.counters.entry(name).or_insert(0) += n;
        }
        for (name, h) in &other.histograms {
            self.histograms
                .entry(name)
                .and_modify(|mine| mine.merge(h))
                .or_insert_with(|| h.clone());
        }
    }

    /// Flatten to stable-ordered `name,kind,value` rows: counters
    /// first, then histogram components (`[le=B]` cumulative counts,
    /// `[count]`, `[sum]`) per histogram.
    ///
    /// ```
    /// let ((), set) = edgescope_obs::scoped(|| {
    ///     edgescope_obs::counter_add("demo.sent", 2);
    ///     edgescope_obs::observe("demo.ms", 7.0, &[5.0, 50.0]);
    /// });
    /// let names: Vec<String> = set.rows().into_iter().map(|r| r.name).collect();
    /// assert_eq!(
    ///     names,
    ///     ["demo.sent", "demo.ms[le=5]", "demo.ms[le=50]", "demo.ms[count]", "demo.ms[sum]"]
    /// );
    /// ```
    pub fn rows(&self) -> Vec<MetricRow> {
        let mut rows = Vec::new();
        for (name, n) in &self.counters {
            rows.push(MetricRow {
                name: (*name).to_string(),
                kind: "counter",
                value: MetricValue::Count(*n),
            });
        }
        for (name, h) in &self.histograms {
            for (bound, cum) in h.bounds().iter().zip(h.cumulative()) {
                rows.push(MetricRow {
                    name: format!("{name}[le={bound}]"),
                    kind: "histogram",
                    value: MetricValue::Count(cum),
                });
            }
            rows.push(MetricRow {
                name: format!("{name}[count]"),
                kind: "histogram",
                value: MetricValue::Count(h.count()),
            });
            rows.push(MetricRow {
                name: format!("{name}[sum]"),
                kind: "histogram",
                value: MetricValue::Value(h.sum()),
            });
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn increments_outside_a_scope_are_dropped() {
        counter_add("t.loose", 5);
        observe("t.loose_h", 1.0, &[10.0]);
        let ((), set) = scoped(|| {});
        assert!(set.is_empty());
    }

    #[test]
    fn scoped_captures_and_restores() {
        let ((), outer) = scoped(|| {
            counter_add("t.outer", 1);
            let ((), inner) = scoped(|| counter_add("t.inner", 7));
            assert_eq!(inner.counter("t.inner"), 7);
            assert_eq!(inner.counter("t.outer"), 0);
            counter_add("t.outer", 1);
        });
        assert_eq!(
            outer.counter("t.outer"),
            2,
            "outer scope restored after inner"
        );
        assert_eq!(outer.counter("t.inner"), 0);
    }

    #[test]
    fn scoped_restores_the_outer_scope_after_a_caught_panic() {
        let ((), outer) = scoped(|| {
            counter_add("t.before", 1);
            let caught = std::panic::catch_unwind(|| {
                scoped(|| {
                    counter_add("t.lost", 1);
                    panic!("handler failed");
                })
            });
            assert!(caught.is_err());
            counter_add("t.after", 1);
        });
        assert_eq!(outer.counter("t.before"), 1);
        assert_eq!(
            outer.counter("t.after"),
            1,
            "outer scope reinstalled on unwind"
        );
        assert_eq!(
            outer.counter("t.lost"),
            0,
            "the panicked scope's set is dropped"
        );
        assert!(
            SCOPE.with(|s| s.borrow().is_none()),
            "no scope left installed outside"
        );
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(&[10.0, 100.0]);
        for v in [1.0, 10.0, 11.0, 1000.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.cumulative(), vec![2, 3]); // <=10: two, <=100: three, overflow: one
        assert!((h.sum() - 1022.0).abs() < 1e-9);
    }

    #[test]
    fn merge_sums_counters_and_buckets() {
        let ((), a) = scoped(|| {
            counter_add("t.c", 2);
            observe("t.h", 5.0, &[10.0]);
        });
        let ((), b) = scoped(|| {
            counter_add("t.c", 3);
            counter_add("t.only_b", 1);
            observe("t.h", 50.0, &[10.0]);
        });
        let mut total = MetricSet::new();
        total.merge(&a);
        total.merge(&b);
        assert_eq!(total.counter("t.c"), 5);
        assert_eq!(total.counter("t.only_b"), 1);
        let h = total.histogram("t.h").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.cumulative(), vec![1]);
    }

    #[test]
    fn record_set_merges_into_active_scope_only() {
        let ((), worker) = scoped(|| {
            counter_add("t.rs", 3);
            observe("t.rs_h", 2.0, &[10.0]);
        });
        // Without a scope: dropped.
        record_set(&worker);
        let ((), outer) = scoped(|| {
            counter_add("t.rs", 1);
            record_set(&worker);
        });
        assert_eq!(outer.counter("t.rs"), 4);
        assert_eq!(outer.histogram("t.rs_h").unwrap().count(), 1);
    }

    #[test]
    fn rows_are_stable_ordered() {
        let ((), set) = scoped(|| {
            counter_add("t.z", 1);
            counter_add("t.a", 1);
        });
        let names: Vec<String> = set.rows().into_iter().map(|r| r.name).collect();
        assert_eq!(names, ["t.a", "t.z"]);
    }

    #[test]
    fn metric_value_json() {
        assert_eq!(MetricValue::Count(7).to_json(), "7");
        assert_eq!(MetricValue::Value(2.5).to_json(), "2.5");
        assert_eq!(MetricValue::Value(f64::NAN).to_json(), "null");
    }
}

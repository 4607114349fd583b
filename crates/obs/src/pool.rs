//! The workspace's one deterministic fan-out.
//!
//! [`fan_out`] runs one closure per entity index (user, site, VM,
//! evaluated series, experiment) over scoped worker threads and hands
//! the results back **in index order**. Each call runs inside its own
//! [`scoped`] metric scope, and the per-index sets are
//! replayed into the caller's scope in index order afterwards, so the
//! caller's metrics — including order-sensitive f64 histogram sums —
//! are the same for every worker count. Combined with per-entity RNG
//! streams this makes every campaign loop byte-identical at any
//! `--jobs`: determinism by construction, not by serialization.

use crate::{record_set, scoped, MetricSet};
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Run `f(i)` for every `i in 0..n` on up to `jobs` worker threads and
/// collect the results in index order.
///
/// Workers pull indices from a shared atomic cursor, so a slow index
/// never leaves the others idle. With `jobs <= 1` or fewer than two
/// indices everything runs on the calling thread. `f` must be
/// index-deterministic: the same `i` must produce the same value on any
/// thread (per-entity RNG streams guarantee this).
///
/// Every `f(i)` records into a metric scope of its own; the sets are
/// folded into the caller's scope with [`record_set`] in index order
/// once all indices are done. A panic in `f` is re-raised on the
/// calling thread with its original payload.
///
/// ```
/// use edgescope_obs as obs;
/// let (squares, set) = obs::scoped(|| {
///     obs::pool::fan_out(5, 2, |i| {
///         obs::counter_inc("demo.items");
///         i * i
///     })
/// });
/// assert_eq!(squares, [0, 1, 4, 9, 16]);
/// assert_eq!(set.counter("demo.items"), 5);
/// ```
pub fn fan_out<T, F>(n: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = jobs.min(n);
    let per_index: Vec<(T, MetricSet)> = if workers <= 1 {
        (0..n).map(|i| scoped(|| f(i))).collect()
    } else {
        // Relaxed suffices: the cursor only hands out indices, and the
        // results travel back through `join`, which synchronizes.
        let next = AtomicUsize::new(0);
        let worker = || {
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return done;
                }
                done.push((i, scoped(|| f(i))));
            }
        };
        let joined: Vec<_> = thread::scope(|s| {
            let handles: Vec<_> = (0..workers).map(|_| s.spawn(worker)).collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        let mut slots: Vec<Option<(T, MetricSet)>> = (0..n).map(|_| None).collect();
        for result in joined {
            for (i, out) in result.unwrap_or_else(|payload| resume_unwind(payload)) {
                slots[i] = Some(out);
            }
        }
        slots
            .into_iter()
            .map(|s| s.expect("every index ran exactly once"))
            .collect()
    };
    per_index
        .into_iter()
        .map(|(value, set)| {
            record_set(&set);
            value
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{counter_add, observe};

    #[test]
    fn results_come_back_in_index_order() {
        let expected: Vec<usize> = (0..37).map(|i| i * i).collect();
        for jobs in [1, 2, 3, 4, 8, 64] {
            assert_eq!(fan_out(37, jobs, |i| i * i), expected, "jobs {jobs}");
        }
    }

    #[test]
    fn degenerate_sizes() {
        assert_eq!(fan_out(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(fan_out(1, 4, |i| i + 10), vec![10]);
        assert_eq!(fan_out(3, 0, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn metric_sets_do_not_depend_on_the_worker_count() {
        // Uneven per-index cost makes workers finish out of order; the
        // histogram sum of non-representable fractions is sensitive to
        // the order the values are folded in.
        let run = |jobs: usize| {
            scoped(|| {
                fan_out(24, jobs, |i| {
                    let spin = (24 - i) * 2000;
                    let acc = (0..spin).fold(0u64, |a, k| a.wrapping_add(k as u64 ^ i as u64));
                    counter_add("t.pool", 1);
                    observe("t.pool_ms", 0.1 * i as f64 + 1.0 / 3.0, &[1.0, 2.0]);
                    acc
                })
            })
        };
        let (serial, serial_set) = run(1);
        assert_eq!(serial_set.counter("t.pool"), 24);
        for jobs in [2, 3, 4, 8] {
            let (values, set) = run(jobs);
            assert_eq!(values, serial, "jobs {jobs}");
            assert_eq!(set, serial_set, "jobs {jobs}");
            let (h, h1) = (
                set.histogram("t.pool_ms").unwrap(),
                serial_set.histogram("t.pool_ms").unwrap(),
            );
            assert_eq!(h.sum().to_bits(), h1.sum().to_bits(), "jobs {jobs}");
        }
    }

    #[test]
    fn unscoped_closure_counts_reach_the_caller() {
        // The closure installs no scope of its own; its increments must
        // still land in the caller's scope on the worker threads.
        let run =
            |jobs: usize| scoped(|| fan_out(10, jobs, |i| counter_add("t.loose", i as u64 + 1))).1;
        assert_eq!(run(1).counter("t.loose"), 55);
        assert_eq!(run(4), run(1));
    }

    #[test]
    #[should_panic(expected = "index 5 failed")]
    fn worker_panic_reaches_the_caller() {
        fan_out(8, 4, |i| {
            if i == 5 {
                panic!("index {i} failed");
            }
            i
        });
    }
}

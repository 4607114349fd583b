//! `edgescope-serve`: an always-on what-if query service over the
//! cached EdgeScope studies.
//!
//! The paper's measurements answer point-in-time questions ("what
//! RTT/QoE/bill does a user in city X see against deployment Y?"); this
//! crate turns the batch reproducer into a long-running service that
//! answers them on demand. At startup it builds exactly what the
//! handlers read, once: the latency study through
//! [`edgescope_core::executor::build_studies`] (the same stage
//! `reproduce` runs, at a configured scale and `--jobs` width), and from
//! it the `qoe` crowd context (one median nearest-edge RTT per access
//! network), and one placement candidate table per provider. `bill` and
//! `placement` otherwise read only the scenario, so no other study is
//! built. It keeps the medians, the tables and which studies it built
//! (not the study itself) in an immutable [`state::ServeState`] and
//! serves GET queries on a std-only threaded HTTP server
//! ([`http::Server`]).
//!
//! A request computes only what depends on its parameters or its RNG:
//! no handler recomputes a value that is the same for every request.
//! The one value kept across requests is a placement's simulated day
//! (≈ 2 ms, the only answer that costs milliseconds), remembered per
//! canonical input in a bounded memo
//! ([`state::PLACEMENT_MEMO_CAPACITY`] entries), so a repeated placement
//! query costs a lookup.
//!
//! # Endpoints
//!
//! | path | answers |
//! |---|---|
//! | `/healthz` | world identity: scale, seed, loaded studies |
//! | `/experiments` | the registry as a routing table (needs + readiness) |
//! | `/metrics` | per-endpoint counters/histograms, schema `edgescope-serve-metrics/1` |
//! | `/query/qoe` | link profile + gaming/streaming QoE for a city/access/deployment |
//! | `/query/bill` | a month of an app's traffic billed on NEP vs both clouds × 3 models |
//! | `/query/placement` | one simulated day under a scheduling policy (delay vs balance) |
//!
//! # Determinism contract, extended to the request path
//!
//! Every request derives its RNG from the query-string `seed` via the
//! existing `stream_seed`/`entity_tag` scheme under the
//! [`edgescope_net::rng::domains::SERVE`] domain (see
//! [`state::ServeState::request_rng`]). Responses contain no clocks,
//! worker counts, or connection state, and the JSON writer
//! ([`json::Json`]) renders keys in fixed order — so identical
//! `(path, query)` requests return **byte-identical** bodies regardless
//! of the worker-pool width or how requests interleave. `/metrics` is
//! the one deliberately stateful endpoint: a pure function of the
//! multiset of requests served so far.
//!
//! Unknown cities, policies, or parameters return structured JSON 4xx
//! errors — a malformed request must never panic a worker, which is
//! also why the `sched` comparators this crate routes queries through
//! use `f64::total_cmp`. A handler panic that slips through anyway is
//! caught by [`http`]: a JSON 500, a `serve.panics` count, and the
//! worker keeps serving.

#![warn(missing_docs)]

pub mod handlers;
pub mod http;
pub mod json;
pub mod query;
pub mod state;

pub use http::{Request, Response, Server};
pub use state::ServeState;

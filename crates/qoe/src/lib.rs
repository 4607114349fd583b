#![warn(missing_docs)]
//! # edgescope-qoe
//!
//! Application-QoE pipeline simulators for §3.3's two testbeds:
//!
//! * **Cloud gaming** ([`gaming`]) — a GamingAnywhere-style loop: touch
//!   input → uplink → server game logic + rendering → video encode →
//!   downlink (frame transmission) → hardware decode → display vsync. The
//!   measured quantity is the paper's *response delay* (command issued →
//!   action visible), Fig. 6.
//! * **Live streaming** ([`streaming`]) — an RTMP chain: camera capture +
//!   ISP → sender encode → RTMP uplink → server relay (optionally
//!   transcoding) → downlink → receiver decode → player render, with an
//!   optional receiver jitter buffer. The measured quantity is the
//!   *streaming delay* (real-world event → remote display), Fig. 7.
//!
//! [`framesim`] additionally simulates streaming at frame granularity so
//! the jitter-buffer trade-off (stalls vs. latency) emerges from dynamics
//! rather than a closed-form term.
//!
//! Stage costs are calibrated to §3.3's breakdowns (server-side gaming
//! execution ≈70 ms including encode; capture+render ≈140 ms; sender
//! encode 25 ms; receiver decode 10 ms; transcoding ≈+400 ms; MPlayer vs
//! ffplay ≈90 ms; 2 MB jitter buffer ⇒ ≈2 s). The network enters through a
//! [`LinkProfile`] (RTT, up/downlink bandwidth, jitter), so the same
//! pipeline runs against any edge or cloud VM.
//!
//! A pipeline's fields are what §3.3 varies: the game, phone and GPU
//! rendering for gaming; resolution, transcoding, jitter buffer and
//! player for streaming. What the testbeds hold fixed is a module
//! constant: the VM (8 vCPUs, one session, 8 ms encode),
//! GamingAnywhere's 800×600 at 60 FPS, and a Redmi Note 8 streaming at
//! 30 FPS to a MacBook.
//!
//! ## Omitted
//! Frame-accurate codec simulation and rate adaptation — §3.3 reports
//! per-stage delays, not codec internals; stage-level modelling reproduces
//! every reported number.

pub mod device;
pub mod framesim;
pub mod game;
pub mod gaming;
pub mod link;
pub mod streaming;
pub mod video;

pub use device::Device;
pub use framesim::{simulate_stream, FrameSimOutcome};
pub use game::Game;
pub use gaming::{GamingBreakdown, GamingPipeline};
pub use link::LinkProfile;
pub use streaming::{Player, StreamingBreakdown, StreamingPipeline};
pub use video::Resolution;

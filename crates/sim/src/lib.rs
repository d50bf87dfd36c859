//! # gtn-sim — deterministic discrete-event simulation engine
//!
//! The foundation of the GPU-TN reproduction. Every other crate in the
//! workspace (GPU, NIC, fabric, host CPU) is written as a *sans-IO* state
//! machine; this crate provides the clock, the event calendar, and the
//! bookkeeping (statistics, tracing, seeded randomness) that tie a simulated
//! cluster together.
//!
//! Design goals, in order:
//!
//! 1. **Determinism.** Two runs with the same configuration produce
//!    bit-identical event orders. Ties in simulated time are broken by
//!    insertion sequence number, and all randomness flows through
//!    explicitly-seeded [`rng::SimRng`] instances.
//! 2. **Inspectability.** The [`trace`] module records labelled spans that
//!    the evaluation harness turns into the paper's Figure-3/Figure-8 style
//!    latency decompositions.
//! 3. **Throughput.** The hot path (schedule/pop) is one binary heap of
//!    small `Copy` keys (see [`event`]), with payloads parked in a slab so
//!    heap sifts never move them; event payloads are generic so the cluster
//!    crate can use a plain `enum` with no boxing.
//!
//! Time is measured in integer **picoseconds** ([`time::SimTime`]), which
//! comfortably represents both the 5 ns serialization delay of a 64 B packet
//! on a 100 Gbps link and multi-millisecond application runs without floating
//! point drift.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod engine;
pub mod event;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use engine::{Engine, RunOutcome};
pub use time::{SimDuration, SimTime};

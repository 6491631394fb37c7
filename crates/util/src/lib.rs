//! Shared infrastructure for the LCRQ reproduction: cache-line padding,
//! backoff, fast RNG, latency histograms, software event counters, thread
//! affinity, and a (possibly simulated) cluster topology.
//!
//! Everything here is dependency-free. The hot-path types (`CachePadded`,
//! `Backoff`, `XorShift64Star`, the metric counters) never allocate or lock.

#![warn(missing_docs)]

pub mod affinity;
pub mod backoff;
pub mod fault;
pub mod hist;
pub mod metrics;
pub mod model;
pub mod pad;
pub mod rng;
pub mod spin;
pub mod sync;
pub mod topology;

pub use backoff::{set_wait_mode, wait_mode, Backoff, WaitMode};
pub use hist::LatencyHistogram;
pub use pad::CachePadded;
pub use rng::XorShift64Star;
pub use topology::ClusterTopology;

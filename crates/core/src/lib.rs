//! LCRQ — the linked concurrent ring queue of Morrison & Afek,
//! *Fast Concurrent Queues for x86 Processors* (PPoPP 2013).
//!
//! LCRQ is a linearizable, op-wise nonblocking MPMC FIFO queue. Its design
//! insight: the scalability collapse of CAS-based queues comes from *work
//! wasted on CAS failures*, not from the raw cost of a contended location.
//! x86's fetch-and-add always succeeds, so LCRQ uses contended F&A objects
//! to spread threads across the slots of a ring, where they complete in
//! parallel with (almost always uncontended) double-width CAS.
//!
//! # Architecture
//!
//! One list, three rings:
//!
//! * [`ring::Ring`] — the contract a bounded **tantrum** ring offers the
//!   list: an enqueue may refuse and permanently close the ring.
//! * [`list::RingList`] — *the* Michael–Scott linked list of rings:
//!   enqueuers that find the tail ring closed append a fresh ring;
//!   dequeuers drain the head ring and swing past it when empty. Retired
//!   rings are freed through hazard pointers once no thread names them,
//!   as the paper frees them. This restores
//!   unbounded, never-refusing queue semantics and the op-wise nonblocking
//!   property. It also owns shutdown: `close()` seals the last ring's
//!   `next`, so an accepted item can never appear after a consumer has seen
//!   "closed and empty". Every queue below is a type alias of it.
//! * [`crq::Crq`] → [`Lcrq`] — the paper's *concurrent ring queue*: in the
//!   common case an operation touches only one of head/tail — half the
//!   synchronization of prior array queues. [`LcrqCas`] is the same
//!   algorithm with every F&A emulated by a CAS loop (the paper's
//!   LCRQ-CAS), isolating the contribution of always-succeeding F&A
//!   (generic parameter: [`lcrq_atomic::FaaPolicy`]); LCRQ+H — enable
//!   [`config::HierarchicalConfig`] — batches operations per cluster (the
//!   paper's hierarchy-aware optimization, §4.1.1).
//! * [`scq::Scq`] / [`scq::ScqD`] → [`Lscq`] — the portable sibling
//!   (Nikolaev's SCQ, arXiv:1908.04511): cycle-tagged single-word entries,
//!   a threshold counter for livelock-free dequeue, and index indirection
//!   for arbitrary payloads — no double-width CAS anywhere, so this
//!   backend would run on non-x86 targets.
//! * [`wcq::WcqRing`] → [`Wcq`] — the wait-free sibling (Nikolaev's wCQ,
//!   arXiv:2201.02179): the SCQ cycle arithmetic plus per-ring request
//!   records and help-first scanning, so every ring operation completes in
//!   a bounded number of its own steps even when peers stall. See the
//!   module docs for the claim-serialized helping protocol.
//! * [`sharded::ShardedQueue`] — a relaxed d-choice front-end: N shards of
//!   any backend behind one facade, balanced by cached length estimates,
//!   with an exact-empty fallback sweep. Trades a bounded amount of
//!   cross-shard FIFO order for throughput.
//! * [`infinite::InfiniteArrayQueue`] — the idealized Figure-2 queue the
//!   CRQ is derived from (SWAP-based, livelock-prone; educational).
//! * [`typed::Typed`] — the generic `T`-valued facade over any of the raw
//!   `u64` lists (values are boxed; the queue transfers pointers, as the
//!   paper's workloads do); [`TypedLcrq`], [`TypedLscq`], [`TypedWcq`] are
//!   its aliases.
//!
//! # Quick start
//!
//! ```
//! use lcrq_core::Lcrq;
//! use lcrq_queues::ConcurrentQueue as _;
//!
//! let q = Lcrq::new();
//! q.enqueue(7);
//! q.enqueue(8);
//! assert_eq!(q.dequeue(), Some(7));
//! assert_eq!(q.dequeue(), Some(8));
//! assert_eq!(q.dequeue(), None);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod crq;
pub mod infinite;
pub mod list;
pub mod node;
pub mod ring;
pub mod scq;
pub mod sharded;
pub mod typed;
pub mod wcq;

pub use config::{HierarchicalConfig, LcrqConfig};
pub use crq::{Crq, CrqClosed};
pub use list::{Lcrq, LcrqCas, LcrqGeneric, Lscq, LscqCas, LscqGeneric, RingList, Wcq, WcqGeneric};
pub use ring::Ring;
pub use scq::{Scq, ScqD};
pub use sharded::{rank_error_bound_for, ShardedConfig, ShardedQueue};
pub use typed::{Typed, TypedLcrq, TypedLscq, TypedWcq};
pub use wcq::WcqRing;

/// The reserved "empty cell" value ⊥. User values must be strictly below it.
pub const BOTTOM: u64 = u64::MAX;

/// Largest enqueueable value (`BOTTOM - 1`).
pub const MAX_VALUE: u64 = u64::MAX - 1;

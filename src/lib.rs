//! # lcrq — Fast Concurrent Queues for x86 Processors
//!
//! A from-scratch Rust reproduction of Morrison & Afek's LCRQ
//! (*Fast Concurrent Queues for x86 Processors*, PPoPP 2013): a
//! linearizable, op-wise nonblocking MPMC FIFO queue built on x86
//! fetch-and-add and double-width compare-and-swap, together with every
//! baseline the paper evaluates against and a benchmark harness that
//! regenerates each of the paper's figures and tables.
//!
//! ## Quick start
//!
//! ```
//! use lcrq::Lcrq;
//!
//! let q = Lcrq::new();
//! q.enqueue(1);
//! q.enqueue(2);
//! assert_eq!(q.dequeue(), Some(1));
//! assert_eq!(q.dequeue(), Some(2));
//! assert_eq!(q.dequeue(), None);
//! ```
//!
//! Typed values ride the same lock-free fast path, boxed:
//!
//! ```
//! use lcrq::TypedLcrq;
//!
//! let q: TypedLcrq<String> = TypedLcrq::new();
//! q.enqueue("hello".into());
//! assert_eq!(q.dequeue().as_deref(), Some("hello"));
//! ```
//!
//! Blocking channels layer parking, shutdown, and (optional) backpressure
//! over the same lock-free queue:
//!
//! ```
//! let (tx, rx) = lcrq::channel::channel::<u64>();
//! std::thread::spawn(move || {
//!     tx.send(7).unwrap();
//!     // last Sender dropping closes the channel
//! });
//! assert_eq!(rx.recv(), Ok(7));
//! assert_eq!(rx.recv(), Err(lcrq::channel::RecvError::Disconnected));
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |--------|----------|
//! | [`core`] (re-exported at the root) | one list of rings, [`RingList`], over the [`Ring`] contract, and its aliases: [`Lcrq`] / [`LcrqCas`] over the paper's [`Crq`], the portable [`Lscq`] over [`ScqD`] (index rings: [`Scq`]), the wait-free [`Wcq`] over [`WcqRing`]; one boxing facade, [`Typed`] ([`TypedLcrq`], [`TypedLscq`], [`TypedWcq`]); the Figure-2 infinite-array queue; the d-choice sharded front-end [`ShardedQueue`] |
//! | [`queues`] | baselines: MS queue, two-lock queue, CC-Queue, H-Queue, FC queue; the [`ConcurrentQueue`] trait; stress-test harnesses |
//! | [`channel`] | blocking & async channel layer over the typed list (`Sender<T, R = Crq>`): parking receivers, waker registry, shutdown |
//! | [`combining`] | CC-Synch, H-Synch, flat combining universal constructions |
//! | [`hazard`] | hazard-pointer reclamation |
//! | [`atomic`] | 128-bit CAS (`CMPXCHG16B`), counted F&A/SWAP/T&S, the CAS-loop F&A policy |
//! | [`util`] | cache padding, backoff, fast RNG, latency histograms, software perf counters, affinity, cluster topology |

#![warn(missing_docs)]

pub use lcrq_atomic as atomic;
pub use lcrq_channel as channel;
pub use lcrq_combining as combining;
pub use lcrq_core as core;
pub use lcrq_hazard as hazard;
pub use lcrq_queues as queues;
pub use lcrq_util as util;

pub use lcrq_core::{
    rank_error_bound_for, Crq, CrqClosed, HierarchicalConfig, Lcrq, LcrqCas, LcrqConfig,
    LcrqGeneric, Lscq, LscqCas, LscqGeneric, Ring, RingList, RingPool, Scq, ScqD, ShardedConfig,
    ShardedQueue, Typed, TypedLcrq, TypedLscq, TypedWcq, Wcq, WcqGeneric, WcqRing,
};
pub use lcrq_queues::{
    CcQueue, ClosableQueue, ConcurrentQueue, FcQueue, HQueue, MsQueue, TwoLockQueue,
};

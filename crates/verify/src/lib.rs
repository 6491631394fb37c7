//! Linearizability verification for concurrent queue histories.
//!
//! The paper proves CRQ is a linearizable *tantrum queue* (§4.1.2) and LCRQ
//! a linearizable FIFO queue (§4.2). This crate provides the machinery to
//! *test* those claims on real executions:
//!
//! * [`record`] — runs a concurrent workload against any
//!   [`ConcurrentQueue`](lcrq_queues::ConcurrentQueue), recording each operation's invocation/response
//!   interval on a global atomic clock;
//! * [`check_fifo`] — a Wing & Gong style exhaustive search (with
//!   memoization) deciding whether a recorded history has a linearization
//!   satisfying the sequential FIFO queue specification;
//! * [`check_tantrum`] — the same for the tantrum-queue specification
//!   (enqueues may return CLOSED; after the first CLOSED-returning enqueue
//!   is linearized, every later enqueue must also return CLOSED);
//! * [`measure_relaxation`] / [`check_relaxed`] — quantitative checking
//!   for *relaxed* queues (the sharded d-choice front-end): measures the
//!   empirical rank error of a history and asserts it within a bound,
//!   while still hard-rejecting duplicates, loss, and dishonest EMPTYs.
//!
//! Exhaustive checking is exponential, so it is applied to many *small*
//! histories (a few threads, a few operations each) rather than one big
//! run; large runs are covered by the cheaper per-producer order check in
//! `lcrq_queues::testing`.

#![warn(missing_docs)]

pub mod checker;
pub mod history;
pub mod relaxed;

pub use checker::{check_fifo, check_tantrum, CheckError};
pub use history::{record, Completed, HistoryOp, OpRecord, Recording};
pub use relaxed::{check_relaxed, measure_relaxation, RelaxError, RelaxationReport};

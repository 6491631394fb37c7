//! The baseline concurrent FIFO queues evaluated against LCRQ in the paper.
//!
//! * [`MsQueue`] — Michael & Scott's classic nonblocking linked-list queue
//!   (PODC 1996), with hazard-pointer reclamation. Scales poorly because
//!   every operation CASes a contended hot spot and most attempts fail.
//! * [`TwoLockQueue`] — Michael & Scott's two-lock queue: the substrate the
//!   combining queues are built on.
//! * [`CcQueue`] — Fatourou & Kallimanis's CC-Queue (PPoPP 2012): the
//!   two-lock queue with each lock replaced by a CC-Synch combining
//!   instance, so enqueue and dequeue batches proceed in parallel.
//! * [`HQueue`] — the hierarchical (NUMA-aware) version using H-Synch.
//! * [`FcQueue`] — Hendler et al.'s flat-combining queue (SPAA 2010): a
//!   linked list of cyclic arrays behind a single flat-combining instance.
//!
//! All queues implement the [`ConcurrentQueue`] trait over `u64` payloads
//! (the paper transfers integers/pointers), so the benchmark harness, the
//! linearizability checker, and the stress tests treat every algorithm —
//! including the LCRQ variants from `lcrq-core` — uniformly.

#![warn(missing_docs)]

pub mod cc_queue;
pub mod fc_queue;
pub mod h_queue;
mod ll;
pub mod ms_queue;
pub mod testing;
pub mod traits;
pub mod two_lock;

pub use cc_queue::CcQueue;
pub use fc_queue::FcQueue;
pub use h_queue::HQueue;
pub use ms_queue::MsQueue;
pub use traits::ConcurrentQueue;
pub use two_lock::TwoLockQueue;

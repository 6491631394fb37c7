//! Combining universal constructions, the paper's main competitors (§2, §5).
//!
//! A *combining* construction turns any sequential object into a linearizable
//! concurrent one: threads announce operations, and a single *combiner*
//! thread applies a batch of announced operations serially. This trades
//! parallelism for synchronization: the object itself is touched by one
//! thread at a time, so its cache lines never bounce, but all work is
//! serialized and waiting threads burn time.
//!
//! Three constructions are implemented, matching the paper's evaluation:
//!
//! * [`CcSynch`] — Fatourou & Kallimanis (PPoPP 2012). Threads add
//!   themselves to a request list with SWAP; the thread at the head combines.
//!   Blocking (a preempted combiner stalls everyone) but starvation-free with
//!   a bounded help limit.
//! * [`HSynch`] — the hierarchical (NUMA-aware) version: one CC-Synch
//!   request list per cluster plus a global lock; each cluster's combiner
//!   acquires the lock and serves its cluster's batch.
//! * [`FlatCombining`] — Hendler, Incze, Shavit & Tzafrir (SPAA 2010). A
//!   global try-lock plus a publication list; the lock winner scans the list
//!   and serves everyone's pending requests.
//!
//! All three implement operations against a user-supplied [`SeqObject`]. The
//! baseline queues in `lcrq-queues` instantiate them exactly as the paper
//! describes (CC-Queue = two CC-Synch instances on the two-lock queue's head
//! and tail; H-Queue likewise with H-Synch; FC queue = flat combining over a
//! linked list of arrays).

#![warn(missing_docs)]

pub mod ccsynch;
pub mod flat;
pub mod hsynch;
mod list;
pub mod lock;
pub mod seq;
mod tls;

pub use ccsynch::CcSynch;
pub use flat::FlatCombining;
pub use hsynch::HSynch;
pub use lock::TasLock;
pub use seq::SeqObject;

/// Default bound on how many requests one combiner serves before handing the
/// role over (keeps individual combining rounds — and thus any one thread's
/// unpaid servitude — bounded, as in the CC-Synch paper).
pub const DEFAULT_HELP_LIMIT: usize = 512;

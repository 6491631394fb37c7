//! The only file of the benchmark that names `lcrq::` symbols, so a later
//! API change knows exactly what the benchmark pins:
//!
//! - `lcrq::{Lcrq, Crq, Lscq, Wcq, TypedLcrq, ShardedQueue, ShardedConfig,
//!   LcrqConfig, ConcurrentQueue}`
//! - `lcrq::channel::{channel, bounded, Sender, Receiver}`
//! - `lcrq::atomic::{HardwareFaa, FaaPolicy, AtomicPair, cas2_backend}`
//! - `lcrq::util::affinity::{allowed_cpus, pin_to_cpu}`
//! - `lcrq::util::metrics::local_snapshot` (read by event *name* through
//!   `Snapshot::nonzero`, never by enum position)
//!
//! Everything here goes through the `lcrq::` facade and calls only public
//! functions: the benchmark stands outside the program.
//!
//! Every call into the program is an `#[inline(never)]` function of this
//! file, so the program's code is compiled inside these functions and not
//! inside the benchmark's loops: how the program is compiled must not depend
//! on how the benchmark is written. It did: moving a timing loop into a
//! helper was enough to change register allocation around the program's
//! `cmpxchg16b` block and make a ledger row crash (README, Findings 1). The
//! price is one call and return per operation, the same on every row.

use std::collections::BTreeMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use lcrq::atomic::{AtomicPair, FaaPolicy, HardwareFaa};
use lcrq::channel::{Receiver, Sender};
use lcrq::{
    ConcurrentQueue, Crq, Lcrq, LcrqConfig, Lscq, ShardedConfig, ShardedQueue, TypedLcrq, Wcq,
};

/// One layer of the stack, seen as "put a `u64`, take a `u64`". A clone is
/// another thread's handle to the same shared object.
pub trait Target: Clone + Send + 'static {
    /// The layer's public insert call. Must accept `v` (workloads are
    /// chosen so no operation fails).
    fn put(&self, v: u64);
    /// The layer's public non-blocking remove call.
    fn take(&self) -> Option<u64>;
    /// Rings the layer has linked right now, where its public API says; 0
    /// where it does not.
    fn ring_count(&self) -> usize {
        0
    }
}

/// Capacity of the `stream` workload's bounded channel.
pub const STREAM_CAPACITY: usize = 1024;
/// Ring order the bare-`Crq` ledger row uses (the library default).
pub const CRQ_ORDER: u32 = 12;

#[repr(align(128))]
pub struct Padded<T>(pub T);

/// `atomic`: one padded counter bumped with `HardwareFaa::fetch_add`.
#[derive(Clone)]
pub struct FaaCell(Arc<Padded<AtomicU64>>);

impl FaaCell {
    pub fn new() -> Self {
        FaaCell(Arc::new(Padded(AtomicU64::new(0))))
    }
}

impl Target for FaaCell {
    #[inline(never)]
    fn put(&self, _v: u64) {
        HardwareFaa::fetch_add(&self.0 .0, 1);
    }
    #[inline(never)]
    fn take(&self) -> Option<u64> {
        Some(HardwareFaa::fetch_add(&self.0 .0, 1))
    }
}

/// `atomic`: one padded pair advanced with `AtomicPair::compare_exchange`.
/// Single-threaded rows only: every exchange is expected to succeed.
#[derive(Clone)]
pub struct Cas2Cell(Arc<Padded<AtomicPair>>);

impl Cas2Cell {
    pub fn new() -> Self {
        Cas2Cell(Arc::new(Padded(AtomicPair::new(0, 0))))
    }
    #[inline]
    fn step(&self) -> u64 {
        let old = (self.0 .0.load_first(), self.0 .0.load_second());
        let new = (old.0.wrapping_add(1), old.1.wrapping_add(1));
        match self.0 .0.compare_exchange(old, new) {
            Ok(()) => new.0,
            Err(seen) => seen.0,
        }
    }
}

impl Target for Cas2Cell {
    #[inline(never)]
    fn put(&self, _v: u64) {
        self.step();
    }
    #[inline(never)]
    fn take(&self) -> Option<u64> {
        Some(self.step())
    }
}

/// Which CAS2 implementation the build selected (printed beside
/// `atomic.cas2_ns`).
pub fn cas2_backend() -> &'static str {
    lcrq::atomic::cas2_backend()
}

/// `core::crq`: one bare ring. The pair drivers keep it at depth ≤ 2, so it
/// never fills and never closes.
#[derive(Clone)]
pub struct CrqTarget(Arc<Crq>);

impl CrqTarget {
    pub fn new() -> Self {
        CrqTarget(Arc::new(Crq::new(
            &LcrqConfig::new().with_ring_order(CRQ_ORDER),
        )))
    }
}

impl Target for CrqTarget {
    #[inline(never)]
    fn put(&self, v: u64) {
        // A closed ring drops the item; validation then reports it missing.
        let _ = self.0.enqueue(v);
    }
    #[inline(never)]
    fn take(&self) -> Option<u64> {
        self.0.dequeue()
    }
}

/// A layer whose public type is shared behind an `Arc` and offers
/// `enqueue(u64)` / `dequeue() -> Option<u64>`. Extra trait items (a
/// `ring_count` override) go in the trailing braces.
macro_rules! queue_target {
    ($(#[$doc:meta])* $name:ident, $queue:ty, $make:expr, { $($extra:tt)* }) => {
        $(#[$doc])*
        #[derive(Clone)]
        pub struct $name(Arc<$queue>);

        impl $name {
            pub fn new() -> Self {
                $name(Arc::new($make))
            }
        }

        impl Target for $name {
            #[inline(never)]
            fn put(&self, v: u64) {
                self.0.enqueue(v);
            }
            #[inline(never)]
            fn take(&self) -> Option<u64> {
                self.0.dequeue()
            }
            $($extra)*
        }
    };
}

queue_target!(
    /// `core::lcrq`: the list of rings with hazard pointers and the ring pool,
    /// default configuration (ring order 12, pool capacity 8).
    LcrqTarget, Lcrq, Lcrq::new(), {
        fn ring_count(&self) -> usize {
            self.0.ring_count()
        }
    }
);
queue_target!(
    /// `core::lscq`: the SCQ sibling of the ring list.
    LscqTarget, Lscq, Lscq::new(), {}
);
queue_target!(
    /// `core::wcq`: the wait-free sibling of the ring list.
    WcqTarget, Wcq, Wcq::new(), {}
);
queue_target!(
    /// `core::typed`: `TypedLcrq<u64>`, the boxing facade.
    TypedTarget, TypedLcrq<u64>, TypedLcrq::new(), {}
);
queue_target!(
    /// `core::sharded`: `ShardedQueue<Lcrq>`, 8 shards, d = 2.
    ShardedTarget,
    ShardedQueue<Lcrq>,
    ShardedQueue::from_factory(&ShardedConfig::new().with_shards(8).with_d(2), |_| Lcrq::new()),
    {}
);

/// `channel`, non-blocking calls only: `try_send` / `try_recv` on an
/// unbounded channel.
#[derive(Clone)]
pub struct ChannelTryTarget(Sender<u64>, Receiver<u64>);

impl ChannelTryTarget {
    pub fn new() -> Self {
        let (tx, rx) = lcrq::channel::channel::<u64>();
        ChannelTryTarget(tx, rx)
    }
}

impl Target for ChannelTryTarget {
    #[inline(never)]
    fn put(&self, v: u64) {
        let _ = self.0.try_send(v);
    }
    #[inline(never)]
    fn take(&self) -> Option<u64> {
        self.1.try_recv().ok()
    }
}

/// Sending half of the full stack (`Sender::send`, blocking).
pub struct ChanTx(Sender<u64>);
/// Receiving half of the full stack (`Receiver::recv`, blocking).
pub struct ChanRx(Receiver<u64>);

impl ChanTx {
    /// `false` when the channel refused the item.
    #[inline(never)]
    pub fn send(&self, v: u64) -> bool {
        self.0.send(v).is_ok()
    }
}

impl ChanRx {
    /// `None` once the channel is closed and drained.
    #[inline(never)]
    pub fn recv(&self) -> Option<u64> {
        self.0.recv().ok()
    }
}

/// `channel::bounded::<u64>(STREAM_CAPACITY)`.
pub fn bounded_link() -> (ChanTx, ChanRx) {
    let (tx, rx) = lcrq::channel::bounded::<u64>(STREAM_CAPACITY);
    (ChanTx(tx), ChanRx(rx))
}

/// `channel::channel::<u64>()`, unbounded.
pub fn unbounded_link() -> (ChanTx, ChanRx) {
    let (tx, rx) = lcrq::channel::channel::<u64>();
    (ChanTx(tx), ChanRx(rx))
}

/// The calling thread's software event counters, by event name.
pub type Counts = BTreeMap<&'static str, u64>;

/// Snapshot of the calling thread's counters (`local_snapshot`), so a worker
/// can bracket its own timed window.
pub fn thread_counts() -> Counts {
    lcrq::util::metrics::local_snapshot().nonzero().collect()
}

/// CPUs the calling thread may run on.
pub fn allowed_cpus() -> Vec<usize> {
    lcrq::util::affinity::allowed_cpus()
}

/// Pins the calling thread to one CPU.
pub fn pin_to_cpu(cpu: usize) -> Result<(), String> {
    lcrq::util::affinity::pin_to_cpu(cpu).map_err(|e| e.to_string())
}

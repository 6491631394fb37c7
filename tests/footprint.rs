//! What an idle queue costs the heap: the list's first ring has 256 slots
//! and every spill's ring is full-size (`lcrq_core::list` module docs), so
//! a queue that holds one item carries about 4.6 KiB of ring, not the
//! 64 KiB of a full `2^12` ring; and once a deep queue drains, what is
//! left is its last ring alone. The list frees every ring it retires at
//! once unless a hazard slot names it, and the scan that frees it
//! allocates nothing. A bounded channel's rings hold its capacity, so
//! `bounded(1024)` ends on a 16 KiB ring, not a 64 KiB one.
//!
//! A test binary of its own because it installs a counting
//! `#[global_allocator]`. The counts are per thread — each test builds and
//! uses its queue on its own threads — so the harness and the other tests
//! do not show.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lcrq::{channel, Crq, Lcrq, LcrqConfig, Lscq, Ring, RingList, Wcq};

struct Counting;

thread_local! {
    /// Bytes allocated minus bytes freed by this thread. `const` and without
    /// a destructor, so the allocator may touch it at any point of a
    /// thread's life.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// Allocations made by this thread; the same holds.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every request is forwarded to `System` unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.set(LIVE.get() + layout.size() as i64);
        ALLOCS.set(ALLOCS.get() + 1);
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.set(LIVE.get() - layout.size() as i64);
        // SAFETY: the caller's contract, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Builds a value with `make` and returns it with the bytes it left live.
fn live_of<T>(make: impl FnOnce() -> T) -> (T, i64) {
    let before = LIVE.get();
    let value = make();
    (value, LIVE.get() - before)
}

/// The bytes of one full-size ring of type `R` (`2^ring_order` slots).
fn ring_bytes<R: Ring>(config: &LcrqConfig) -> i64 {
    let (ring, bytes) = live_of(|| Box::new(R::new(config, config.ring_order)));
    drop(ring);
    bytes
}

#[test]
fn a_queue_holding_one_item_stays_under_6_kib() {
    let (q, live) = live_of(|| {
        let q = Lcrq::new();
        q.enqueue(7);
        q
    });
    assert!(live <= 6144, "{live} B live for a one-item Lcrq");
    assert_eq!(q.dequeue(), Some(7));
}

#[test]
fn a_channel_holding_one_item_stays_under_8_kib() {
    let ((tx, rx), live) = live_of(|| {
        let (tx, rx) = channel::channel::<u64>();
        tx.send(7).unwrap();
        (tx, rx)
    });
    assert!(live <= 8192, "{live} B live for a one-item channel");
    assert_eq!(rx.recv(), Ok(7));
    drop(tx);
}

/// Fills the queue `new` builds 10^5 deep and drains it on this thread:
/// what is left is its last ring.
fn a_drain_keeps_only_the_last_ring<R: Ring>(new: fn() -> RingList<R>) {
    const DEPTH: u64 = 100_000;
    let config = LcrqConfig::new();
    let ring_bytes = ring_bytes::<R>(&config);
    let before = LIVE.get();
    let (q, empty) = live_of(new);
    (0..DEPTH).for_each(|i| q.enqueue(i));
    (0..DEPTH).for_each(|i| assert_eq!(q.dequeue(), Some(i)));
    assert_eq!(q.dequeue(), None);
    let live = LIVE.get() - before;
    assert!(
        live <= empty + ring_bytes,
        "{live} B live after a drain; the empty queue took {empty} B \
         and one ring of {ring_bytes} B is allowed"
    );
}

#[test]
fn a_drained_queue_keeps_only_its_last_ring() {
    a_drain_keeps_only_the_last_ring(Lcrq::new);
}

#[test]
fn a_drained_lscq_keeps_only_its_last_ring() {
    a_drain_keeps_only_the_last_ring(Lscq::new);
}

#[test]
fn a_drained_wcq_keeps_only_its_last_ring() {
    a_drain_keeps_only_the_last_ring(Wcq::new);
}

#[test]
fn four_consumers_leave_no_drained_ring_behind() {
    const DEPTH: u64 = 1 << 17;
    const CONSUMERS: i64 = 4;
    let config = LcrqConfig::new();
    let ring_bytes = ring_bytes::<Crq>(&config);
    let before = LIVE.get();
    let (q, empty) = live_of(Lcrq::new);
    (0..DEPTH).for_each(|i| q.enqueue(i));
    let q = std::sync::Arc::new(q);
    // Each consumer drains until EMPTY and reports how many items it took
    // and the bytes its thread left live (negative: the rings it freed).
    let consumers: Vec<_> = (0..CONSUMERS)
        .map(|_| {
            let q = std::sync::Arc::clone(&q);
            std::thread::spawn(move || {
                let before = LIVE.get();
                let taken = std::iter::from_fn(|| q.dequeue()).count() as u64;
                (taken, LIVE.get() - before)
            })
        })
        .collect();
    let (mut taken, mut consumers_live) = (0, 0);
    for c in consumers {
        let (t, l) = c.join().unwrap();
        taken += t;
        consumers_live += l;
    }
    assert_eq!(taken, DEPTH);
    let live = LIVE.get() - before + consumers_live;
    // A consumer scans at every ring it retires, and a scan keeps only the
    // rings other threads' slots name: here the other consumers' head
    // slots, one ring each (the producer's names the last ring). So after
    // its last scan a consumer holds at most CONSUMERS - 1 retired rings.
    let rings = 1 + (CONSUMERS - 1) * CONSUMERS;
    assert!(
        live <= empty + rings * ring_bytes,
        "{live} B live after {CONSUMERS} consumers drained the queue; the \
         empty queue took {empty} B and {rings} rings of {ring_bytes} B \
         are allowed"
    );
}

#[test]
fn a_drain_that_retires_rings_allocates_nothing() {
    const DEPTH: u64 = 100_000;
    let q = Lcrq::new();
    // Warm: the first drain grows this thread's hazard buffers (its
    // retired list and hazard snapshot); the second fill allocates the
    // rings the second drain retires and frees.
    (0..DEPTH).for_each(|i| q.enqueue(i));
    assert!(q.drain().eq(0..DEPTH));
    (0..DEPTH).for_each(|i| q.enqueue(i));
    assert!(q.ring_count() >= 20, "the drain below must retire rings");
    let before = ALLOCS.get();
    assert!(q.drain().eq(0..DEPTH));
    let allocs = ALLOCS.get() - before;
    assert_eq!(allocs, 0, "allocations while draining {DEPTH} items");
}

#[test]
fn a_closed_drained_channel_keeps_only_its_last_ring() {
    const DEPTH: u64 = 100_000;
    let ring_bytes = ring_bytes::<Crq>(&LcrqConfig::new());
    let before = LIVE.get();
    let ((tx, rx), empty) = live_of(channel::channel::<u64>);
    (0..DEPTH).for_each(|i| tx.send(i).unwrap());
    drop(tx);
    (0..DEPTH).for_each(|i| assert_eq!(rx.recv(), Ok(i)));
    assert!(rx.recv().is_err(), "disconnected once drained");
    let live = LIVE.get() - before;
    assert!(
        live <= empty + ring_bytes,
        "{live} B live in a closed, drained channel; the empty channel took \
         {empty} B and one ring of {ring_bytes} B is allowed"
    );
}

#[test]
fn a_bounded_channel_keeps_one_capacity_sized_ring() {
    const MESSAGES: u64 = 100_000;
    const CAPACITY: usize = 1024;
    let ring_bytes = ring_bytes::<Crq>(&LcrqConfig::new().with_ring_order(10));
    let before = LIVE.get();
    let ((tx, rx), empty) = live_of(|| channel::bounded::<u64>(CAPACITY));
    // The spill out of the 256-slot first ring allocates on the sender's
    // thread, so its delta joins this thread's.
    let sender = std::thread::spawn(move || {
        let before = LIVE.get();
        (0..MESSAGES).for_each(|i| tx.send(i).unwrap());
        let live = LIVE.get() - before;
        drop(tx);
        live
    });
    (0..MESSAGES).for_each(|i| assert_eq!(rx.recv(), Ok(i)));
    let live = LIVE.get() - before + sender.join().unwrap();
    assert!(
        live <= empty + ring_bytes,
        "{live} B live in a drained bounded({CAPACITY}) channel; the empty \
         channel took {empty} B and one ring of {ring_bytes} B is allowed"
    );
}

//! What an idle queue costs the heap: the list's first ring has 256 slots
//! and every spill's ring is full-size (`lcrq_core::list` module docs), so
//! a queue that holds one item carries about 4.6 KiB of ring, not the
//! 64 KiB of a full `2^12` ring; and once a deep queue drains, what is
//! left is its last ring plus the rings its pool keeps — or, once it is
//! closed, its last ring alone.
//!
//! A test binary of its own because it installs a counting
//! `#[global_allocator]`. The counts are per thread — each test builds and
//! uses its queue on its own thread — so the harness and the other tests
//! do not show.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lcrq::{channel, Crq, Lcrq, LcrqConfig};

struct Counting;

thread_local! {
    /// Bytes allocated minus bytes freed by this thread. `const` and without
    /// a destructor, so the allocator may touch it at any point of a
    /// thread's life.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

// SAFETY: every request is forwarded to `System` unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.set(LIVE.get() + layout.size() as i64);
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

#[test]
fn a_drained_queue_keeps_its_last_ring_and_its_pool() {
    const DEPTH: u64 = 100_000;
    let config = LcrqConfig::new();
    let (full_ring, ring_bytes) = live_of(|| Box::<Crq>::new(Crq::new(&config)));
    drop(full_ring);
    let before = LIVE.get();
    let (q, empty) = live_of(Lcrq::new);
    (0..DEPTH).for_each(|i| q.enqueue(i));
    (0..DEPTH).for_each(|i| assert_eq!(q.dequeue(), Some(i)));
    assert_eq!(q.dequeue(), None);
    // Once the pool is full the list stops scanning eagerly, and the rings
    // it retires wait for the domain's threshold scan; take that scan now.
    q.hazard_domain().scan();
    let live = LIVE.get() - before;
    let rings = 1 + config.ring_pool_capacity as i64;
    assert!(
        live <= empty + rings * ring_bytes,
        "{live} B live after a drain; the empty queue took {empty} B \
         and {rings} rings of {ring_bytes} B are allowed"
    );
}

#[test]
fn a_closed_drained_channel_keeps_only_its_last_ring() {
    const DEPTH: u64 = 100_000;
    let (full_ring, ring_bytes) = live_of(|| Box::<Crq>::new(Crq::new(&LcrqConfig::new())));
    drop(full_ring);
    let before = LIVE.get();
    let ((tx, rx), empty) = live_of(channel::channel::<u64>);
    (0..DEPTH).for_each(|i| tx.send(i).unwrap());
    // The last sender's drop seals the list, and the seal empties the pool.
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

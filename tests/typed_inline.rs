//! What a message costs the allocator (`lcrq_core::typed` module docs): a scalar
//! whose word has bit 63 clear is its own queue word and allocates nothing;
//! with bit 63 set it is boxed, once; anything else is boxed as ever.
//!
//! And what a queued item costs the heap: a `Crq` node is its 16 bytes, so a
//! deep `Lcrq` holds an item in under 20 (DESIGN.md "Ring layout").
//!
//! A test binary of its own because it installs a counting
//! `#[global_allocator]`. The counts are per thread — each test sends and
//! receives on its own — so the harness and the other tests do not show.
//! ci.sh runs it in `--release` too: the zero is a property of the
//! optimised build as much as of this one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lcrq::channel::{self, Receiver, Sender};

struct Counting;

thread_local! {
    /// (allocations, frees, bytes allocated − bytes freed) made by this
    /// thread. `const` and without a destructor, so the allocator may touch
    /// it at any point of a thread's life.
    static CALLS: Cell<(u64, u64, i64)> = const { Cell::new((0, 0, 0)) };
}

// SAFETY: every request is forwarded to `System` unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let (allocs, frees, live) = CALLS.get();
        CALLS.set((allocs + 1, frees, live + layout.size() as i64));
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let (allocs, frees, live) = CALLS.get();
        CALLS.set((allocs, frees + 1, live - layout.size() as i64));
        // SAFETY: the caller's contract, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const MESSAGES: u64 = 10_000;

/// Sends and receives `MESSAGES` values of `make` through a warm channel,
/// in bursts of 8 (the capacity of the bounded one), and returns the
/// (allocations, frees) that took.
fn calls_of<T: Send + PartialEq + std::fmt::Debug>(
    (tx, rx): (Sender<T>, Receiver<T>),
    make: impl Fn(u64) -> T,
) -> (u64, u64) {
    let burst = |from: u64| {
        (from..from + 8).for_each(|i| tx.send(make(i)).unwrap());
        (from..from + 8).for_each(|i| assert_eq!(rx.recv(), Ok(make(i))));
    };
    // Warm: the first call builds the thread's hazard record, and `make`
    // may have lazy state of its own.
    burst(0);
    let before = CALLS.get();
    (0..MESSAGES).step_by(8).for_each(burst);
    let after = CALLS.get();
    (after.0 - before.0, after.1 - before.1)
}

#[test]
fn a_scalar_under_the_tag_bit_never_allocates() {
    let small = |i: u64| (1 << 63) - 1 - i;
    assert_eq!(calls_of(channel::channel(), small), (0, 0));
    assert_eq!(calls_of(channel::bounded(8), small), (0, 0));
    assert_eq!(calls_of(channel::bounded(8), |i| i as u8), (0, 0));
    assert_eq!(calls_of(channel::bounded(8), |i| -(i as f32)), (0, 0));
    assert_eq!(calls_of(channel::bounded(8), |i| i % 2 == 0), (0, 0));
}

#[test]
fn a_scalar_over_the_tag_bit_is_boxed_once() {
    let large = |i: u64| (1 << 63) + i;
    assert_eq!(calls_of(channel::channel(), large), (MESSAGES, MESSAGES));
    assert_eq!(calls_of(channel::bounded(8), large), (MESSAGES, MESSAGES));
    let negative = |i: u64| -1 - i as i64;
    assert_eq!(
        calls_of(channel::bounded(8), negative),
        (MESSAGES, MESSAGES)
    );
}

#[test]
fn anything_else_is_boxed_as_ever() {
    // One box a message, plus whatever the payload itself allocates (a
    // `String` its buffer, twice: `calls_of` builds the expected value too).
    let (allocs, frees) = calls_of(channel::bounded(8), |i| i.to_string());
    assert!(allocs >= MESSAGES && allocs == frees, "{allocs} / {frees}");
    // A word-sized type off the list is not looked into.
    #[derive(Debug, PartialEq)]
    struct Id(u64);
    assert_eq!(calls_of(channel::bounded(8), Id), (MESSAGES, MESSAGES));
}

#[test]
fn a_queued_item_costs_under_twenty_heap_bytes() {
    const DEPTH: u64 = 1 << 16; // 16 default rings
    let before = CALLS.get().2;
    let q = lcrq::Lcrq::new();
    (0..DEPTH).for_each(|i| q.enqueue(i));
    let live = CALLS.get().2 - before;
    assert!(
        live <= 20 * DEPTH as i64,
        "{live} B live for {DEPTH} queued items = {:.1} B an item",
        live as f64 / DEPTH as f64
    );
    (0..DEPTH).for_each(|i| assert_eq!(q.dequeue(), Some(i)));
}

//! A counting `#[global_allocator]` over `System`. Every thread counts into
//! a cell of its own, on a cache line of its own, so a producer that
//! allocates and a consumer that frees never share a line through the
//! counter. Cells are read only at quiescent points (before and after a
//! timed window).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};

/// More cells than threads alive at once (at most 3: main and two workers);
/// consecutive threads take consecutive cells, so live threads never share.
const CELLS: usize = 64;

#[repr(align(128))]
struct ThreadCell {
    allocs: AtomicU64,
    alloc_bytes: AtomicU64,
    free_bytes: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY: ThreadCell = ThreadCell {
    allocs: AtomicU64::new(0),
    alloc_bytes: AtomicU64::new(0),
    free_bytes: AtomicU64::new(0),
};

static TABLE: [ThreadCell; CELLS] = [EMPTY; CELLS];
static NEXT_CELL: AtomicUsize = AtomicUsize::new(0);
static COUNTING: AtomicBool = AtomicBool::new(true);

thread_local! {
    // `usize::MAX` = not assigned yet. Const-initialised and without a
    // destructor, so reading it inside the allocator never allocates.
    static CELL: Cell<usize> = const { Cell::new(usize::MAX) };
}

#[inline]
fn cell() -> &'static ThreadCell {
    let idx = CELL.with(|c| {
        let mut i = c.get();
        if i == usize::MAX {
            i = NEXT_CELL.fetch_add(1, Relaxed) % CELLS;
            c.set(i);
        }
        i
    });
    &TABLE[idx]
}

/// One writer per cell, so a plain load and store replace a locked add.
#[inline]
fn bump(counter: &AtomicU64, by: u64) {
    counter.store(counter.load(Relaxed).wrapping_add(by), Relaxed);
}

#[inline]
fn count(allocated: usize, freed: usize) {
    if COUNTING.load(Relaxed) {
        let c = cell();
        if allocated > 0 {
            bump(&c.allocs, 1);
            bump(&c.alloc_bytes, allocated as u64);
        }
        bump(&c.free_bytes, freed as u64);
    }
}

pub struct Counting;

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    #[inline(never)]
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 0);
        // SAFETY: the caller's layout is passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    #[inline(never)]
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, layout.size());
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    #[inline(never)]
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 0);
        // SAFETY: the caller's layout is passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    #[inline(never)]
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size, layout.size());
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's, unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turns counting off for the whole process (the with/without comparison in
/// the README). Heap metrics read 0 afterwards.
pub fn disable_counting() {
    COUNTING.store(false, Relaxed);
}

/// Heap allocations made by all threads so far.
pub fn allocs() -> u64 {
    TABLE.iter().map(|c| c.allocs.load(Relaxed)).sum()
}

/// Heap bytes currently allocated, over all threads. Exact only while no
/// other thread is allocating or freeing.
pub fn live_bytes() -> u64 {
    let (a, f) = TABLE.iter().fold((0u64, 0u64), |(a, f), c| {
        (
            a.wrapping_add(c.alloc_bytes.load(Relaxed)),
            f.wrapping_add(c.free_bytes.load(Relaxed)),
        )
    });
    a.saturating_sub(f)
}

//! The idealized infinite-array queue (paper §4, Figure 2).
//!
//! The conceptual ancestor of the CRQ: an infinite array `Q` with F&A-driven
//! `head`/`tail` indices. An enqueuer swaps its item into cell `Q[t]`; a
//! dequeuer swaps ⊤ into `Q[h]` and returns what was there, or — if the
//! cell was still ⊥ — has thereby *poisoned* the cell so the matching
//! enqueuer cannot complete there, and retries (returning EMPTY if
//! `tail <= h+1`).
//!
//! The paper keeps this algorithm "unrealistic" for two reasons it then
//! fixes in the CRQ/LCRQ: the infinite array, and the livelock in which a
//! dequeuer keeps poisoning the cell its matching enqueuer is about to use.
//! We make the array practical with a lazily allocated segment directory
//! (so memory grows with the number of *operations*, never reclaimed — that
//! is the "unrealistic" part we keep); the livelock we keep too, documented,
//! as it is the algorithm's defining flaw.

use core::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

use lcrq_atomic::{ops, FaaPolicy, HardwareFaa};
use lcrq_util::CachePadded;

use crate::BOTTOM;

/// The reserved dequeuer-poison value ⊤. Values must be `< TOP`.
pub const TOP: u64 = u64::MAX - 1;

/// Cells per lazily allocated segment.
const SEG_SIZE: usize = 1 << 12;

struct Segment {
    cells: Box<[AtomicU64; SEG_SIZE]>,
}

impl Segment {
    fn alloc() -> *mut Segment {
        let cells: Vec<AtomicU64> = (0..SEG_SIZE).map(|_| AtomicU64::new(BOTTOM)).collect();
        let cells: Box<[AtomicU64; SEG_SIZE]> =
            cells.into_boxed_slice().try_into().expect("size matches");
        Box::into_raw(Box::new(Segment { cells }))
    }
}

/// Maximum number of segments the directory can hold. `DIR_SIZE * SEG_SIZE`
/// bounds the total operations over the queue's lifetime (2^28 here — the
/// "infinite" array made finite but generous).
const DIR_SIZE: usize = 1 << 16;

/// The Figure-2 queue: linearizable, but *not* livelock-free and with
/// unreclaimed memory — for study and comparison only.
pub struct InfiniteArrayQueue<P: FaaPolicy = HardwareFaa> {
    head: CachePadded<AtomicU64>,
    tail: CachePadded<AtomicU64>,
    directory: Box<[AtomicPtr<Segment>]>,
    _faa: core::marker::PhantomData<P>,
}

// SAFETY: all shared state is atomics.
unsafe impl<P: FaaPolicy> Send for InfiniteArrayQueue<P> {}
unsafe impl<P: FaaPolicy> Sync for InfiniteArrayQueue<P> {}

impl<P: FaaPolicy> InfiniteArrayQueue<P> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            head: CachePadded::new(AtomicU64::new(0)),
            tail: CachePadded::new(AtomicU64::new(0)),
            directory: (0..DIR_SIZE)
                .map(|_| AtomicPtr::new(core::ptr::null_mut()))
                .collect(),
            _faa: core::marker::PhantomData,
        }
    }

    /// Returns the cell for absolute index `i`, allocating its segment on
    /// first touch (allocation races are resolved by CAS; losers free).
    fn cell(&self, i: u64) -> &AtomicU64 {
        let seg_idx = (i as usize) / SEG_SIZE;
        assert!(
            seg_idx < DIR_SIZE,
            "InfiniteArrayQueue exhausted its {}-operation lifetime budget",
            DIR_SIZE * SEG_SIZE
        );
        let slot = &self.directory[seg_idx];
        let mut seg = slot.load(Ordering::Acquire);
        if seg.is_null() {
            let fresh = Segment::alloc();
            match slot.compare_exchange(
                core::ptr::null_mut(),
                fresh,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => seg = fresh,
                Err(winner) => {
                    // SAFETY: fresh lost the race and was never shared.
                    unsafe { drop(Box::from_raw(fresh)) };
                    seg = winner;
                }
            }
        }
        // SAFETY: segments are never freed while the queue is alive.
        unsafe { &(*seg).cells[(i as usize) % SEG_SIZE] }
    }

    /// Appends `value` (must be `< TOP`). Figure 2 lines 1–5.
    pub fn enqueue(&self, value: u64) {
        assert!(value < TOP, "TOP and BOTTOM are reserved");
        loop {
            let t = P::fetch_add(&self.tail, 1);
            if ops::swap(self.cell(t), value) == BOTTOM {
                return;
            }
            // A dequeuer poisoned our cell; its contents are dead. Retry.
        }
    }

    /// Removes the oldest value, or `None` if empty. Figure 2 lines 6–12.
    pub fn dequeue(&self) -> Option<u64> {
        loop {
            let h = P::fetch_add(&self.head, 1);
            let x = ops::swap(self.cell(h), TOP);
            if x != BOTTOM {
                return Some(x);
            }
            if self.tail.load(Ordering::SeqCst) <= h + 1 {
                return None;
            }
        }
    }
}

impl<P: FaaPolicy> Default for InfiniteArrayQueue<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: FaaPolicy> Drop for InfiniteArrayQueue<P> {
    fn drop(&mut self) {
        for slot in self.directory.iter() {
            let seg = slot.load(Ordering::Relaxed);
            if !seg.is_null() {
                // SAFETY: exclusive access in drop.
                unsafe { drop(Box::from_raw(seg)) };
            }
        }
    }
}

impl<P: FaaPolicy> lcrq_queues::ConcurrentQueue for InfiniteArrayQueue<P> {
    fn enqueue(&self, value: u64) {
        InfiniteArrayQueue::enqueue(self, value)
    }
    fn dequeue(&self) -> Option<u64> {
        InfiniteArrayQueue::dequeue(self)
    }
    fn name(&self) -> &'static str {
        "infinite-array"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcrq_queues::testing;

    type Q = InfiniteArrayQueue<HardwareFaa>;

    #[test]
    fn empty_dequeue_returns_none() {
        let q = Q::new();
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn fifo_order_sequential() {
        let q = Q::new();
        for i in 0..100 {
            q.enqueue(i);
        }
        for i in 0..100 {
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn crosses_segment_boundaries() {
        let q = Q::new();
        let n = (SEG_SIZE + 100) as u64;
        for i in 0..n {
            q.enqueue(i);
        }
        for i in 0..n {
            assert_eq!(q.dequeue(), Some(i));
        }
    }

    #[test]
    fn poisoned_cells_force_enqueue_retry_without_loss() {
        let q = Q::new();
        // Poison cells 0..10 by dequeuing on empty.
        for _ in 0..10 {
            assert_eq!(q.dequeue(), None);
        }
        // head = 10, tail = 0: enqueues now burn through poisoned cells
        // (every swap returns TOP) until t reaches 10.
        q.enqueue(42);
        // 42 landed at t >= 10... but head is already 10+, so head may have
        // passed it. Dequeue must still find it (dequeuers retry forward).
        assert_eq!(q.dequeue(), Some(42));
    }

    #[test]
    fn mpmc_stress() {
        let q = Q::new();
        testing::mpmc_stress(&q, 2, 2, 4_000);
    }

    #[test]
    fn model_check_against_vecdeque() {
        testing::model_check(&Q::new(), 0x1F);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn reserved_values_rejected() {
        let q = Q::new();
        q.enqueue(TOP);
    }
}

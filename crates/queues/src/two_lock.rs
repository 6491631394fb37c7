//! Michael & Scott's two-lock queue (PODC 1996).
//!
//! A dummy-headed linked list with one lock serializing enqueues (tail) and
//! another serializing dequeues (head), so the two kinds of operations never
//! block each other. Enqueue's write of the old tail's `next` races benignly
//! with dequeue's read of the dummy's `next` when the queue is empty; the
//! `next` field is atomic, so the dequeuer sees either `null` (empty) or the
//! completed node.
//!
//! This is the substrate of CC-Queue and H-Queue, which replace each lock
//! with a combining instance (§5). Evaluated standalone here for tests and
//! as an extra datapoint.

use core::cell::UnsafeCell;
use core::sync::atomic::Ordering;

use crate::ll::{free_chain, LlNode};
use lcrq_combining::TasLock;
use lcrq_util::CachePadded;

/// Michael & Scott's two-lock FIFO queue.
pub struct TwoLockQueue {
    head_lock: CachePadded<TasLock>,
    tail_lock: CachePadded<TasLock>,
    head: CachePadded<UnsafeCell<*mut LlNode>>,
    tail: CachePadded<UnsafeCell<*mut LlNode>>,
}

// SAFETY: `head` is only accessed under `head_lock`, `tail` under
// `tail_lock`; the node link crossing the two is atomic.
unsafe impl Send for TwoLockQueue {}
unsafe impl Sync for TwoLockQueue {}

impl TwoLockQueue {
    /// Creates an empty queue (one dummy node).
    pub fn new() -> Self {
        let dummy = LlNode::alloc(0);
        Self {
            head_lock: CachePadded::new(TasLock::new()),
            tail_lock: CachePadded::new(TasLock::new()),
            head: CachePadded::new(UnsafeCell::new(dummy)),
            tail: CachePadded::new(UnsafeCell::new(dummy)),
        }
    }

    /// Appends `value`.
    pub fn enqueue(&self, value: u64) {
        let node = LlNode::alloc(value);
        let _guard = self.tail_lock.lock();
        // SAFETY: tail is only touched under tail_lock; the tail node is
        // never freed while it is the tail (dequeue frees strictly older
        // nodes).
        unsafe {
            let tail = *self.tail.get();
            (*tail).next.store(node, Ordering::Release);
            *self.tail.get() = node;
        }
    }

    /// Removes the oldest value, or `None` if empty.
    pub fn dequeue(&self) -> Option<u64> {
        let _guard = self.head_lock.lock();
        // SAFETY: head is only touched under head_lock.
        unsafe {
            let head = *self.head.get();
            let next = (*head).next.load(Ordering::Acquire);
            if next.is_null() {
                return None;
            }
            let value = (*next).value;
            *self.head.get() = next; // `next` becomes the new dummy
            drop(Box::from_raw(head));
            Some(value)
        }
    }
}

impl Default for TwoLockQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for TwoLockQueue {
    fn drop(&mut self) {
        // SAFETY: exclusive access in drop; the chain from head covers every
        // live node including the dummy and the tail.
        unsafe { free_chain(*self.head.get()) };
    }
}

impl crate::ConcurrentQueue for TwoLockQueue {
    fn enqueue(&self, value: u64) {
        TwoLockQueue::enqueue(self, value)
    }
    fn dequeue(&self) -> Option<u64> {
        TwoLockQueue::dequeue(self)
    }
    fn name(&self) -> &'static str {
        "two-lock"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing;
    use crate::ConcurrentQueue as _;

    #[test]
    fn empty_queue_returns_none() {
        let q = TwoLockQueue::new();
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn fifo_order_sequential() {
        let q = TwoLockQueue::new();
        for i in 0..100 {
            q.enqueue(i);
        }
        for i in 0..100 {
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn enqueue_dequeue_do_not_deadlock_each_other() {
        // Producer and consumer take different locks; run them concurrently.
        let q = TwoLockQueue::new();
        testing::mpmc_stress(&q, 1, 1, 20_000);
    }

    #[test]
    fn mpmc_stress() {
        let q = TwoLockQueue::new();
        testing::mpmc_stress(&q, 4, 4, 5_000);
    }

    #[test]
    fn model_check_against_vecdeque() {
        testing::model_check(&TwoLockQueue::new(), 0x2C);
    }

    #[test]
    fn drop_with_items_is_clean() {
        let q = TwoLockQueue::new();
        for i in 0..500 {
            q.enqueue(i);
        }
    }

    #[test]
    fn trait_metadata() {
        let q = TwoLockQueue::new();
        assert_eq!(q.name(), "two-lock");
    }
}

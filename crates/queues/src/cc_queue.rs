//! CC-Queue (Fatourou & Kallimanis, PPoPP 2012).
//!
//! The two-lock queue with each lock replaced by a CC-Synch combining
//! instance: one instance serializes enqueues against the tail, the other
//! serializes dequeues against the head, and the two run in parallel. This
//! was the fastest previously published queue the paper compares against on
//! single-processor runs (LCRQ outperforms it by ≈1.5×; Figure 6a).

use crate::ll::{free_chain, LlNode};
use crate::ConcurrentQueue;
use core::sync::atomic::Ordering;
use lcrq_combining::{CcSynch, SeqObject};

/// The enqueue side: owns the tail pointer; `apply(v)` appends a node.
pub(crate) struct EnqSide {
    tail: *mut LlNode,
}

// SAFETY: only the (unique) combiner of the owning construction touches it.
unsafe impl Send for EnqSide {}

impl EnqSide {
    /// Creates the enqueue side with `tail` as the current last node.
    pub(crate) fn with_tail(tail: *mut LlNode) -> Self {
        Self { tail }
    }
}

impl SeqObject for EnqSide {
    type Op = u64;
    type Ret = ();

    fn apply(&mut self, value: u64) {
        let node = LlNode::alloc(value);
        // SAFETY: `tail` is the last node of the list; it is never freed
        // while reachable (dequeue frees strictly older nodes).
        unsafe {
            (*self.tail).next.store(node, Ordering::Release);
        }
        self.tail = node;
    }
}

/// The dequeue side: owns the head (dummy) pointer; `apply(())` removes the
/// oldest item.
pub(crate) struct DeqSide {
    head: *mut LlNode,
}

// SAFETY: as for EnqSide.
unsafe impl Send for DeqSide {}

impl DeqSide {
    /// Creates the dequeue side with `head` as the current dummy.
    pub(crate) fn with_head(head: *mut LlNode) -> Self {
        Self { head }
    }

    /// The current dummy pointer (for teardown).
    pub(crate) fn head_ptr(&mut self) -> *mut LlNode {
        self.head
    }
}

impl SeqObject for DeqSide {
    type Op = ();
    type Ret = Option<u64>;

    fn apply(&mut self, _: ()) -> Option<u64> {
        // SAFETY: `head` is the dummy; `next` is atomic because it races
        // (benignly) with a concurrent enqueue when the queue is empty.
        unsafe {
            let next = (*self.head).next.load(Ordering::Acquire);
            if next.is_null() {
                return None;
            }
            let value = (*next).value;
            let old = self.head;
            self.head = next;
            drop(Box::from_raw(old));
            Some(value)
        }
    }
}

/// The CC-Queue: two CC-Synch instances over the two-lock queue's sides.
pub struct CcQueue {
    enq: CcSynch<EnqSide>,
    deq: CcSynch<DeqSide>,
}

impl CcQueue {
    /// Creates an empty queue (one dummy node).
    pub fn new() -> Self {
        let dummy = LlNode::alloc(0);
        Self {
            enq: CcSynch::new(EnqSide { tail: dummy }),
            deq: CcSynch::new(DeqSide { head: dummy }),
        }
    }

    /// Creates a queue whose combiners serve at most `help_limit` requests
    /// per round.
    pub fn with_help_limit(help_limit: usize) -> Self {
        let dummy = LlNode::alloc(0);
        Self {
            enq: CcSynch::with_help_limit(EnqSide { tail: dummy }, help_limit),
            deq: CcSynch::with_help_limit(DeqSide { head: dummy }, help_limit),
        }
    }

    /// Appends `value`.
    pub fn enqueue(&self, value: u64) {
        self.enq.apply(value);
    }

    /// Removes the oldest value, or `None` if empty.
    pub fn dequeue(&self) -> Option<u64> {
        self.deq.apply(())
    }
}

impl Default for CcQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for CcQueue {
    fn drop(&mut self) {
        // SAFETY: exclusive access in drop; the chain from the dummy covers
        // every remaining node including the tail.
        unsafe { free_chain(self.deq.state_mut().head) };
    }
}

impl ConcurrentQueue for CcQueue {
    fn enqueue(&self, value: u64) {
        CcQueue::enqueue(self, value)
    }
    fn dequeue(&self) -> Option<u64> {
        CcQueue::dequeue(self)
    }
    fn name(&self) -> &'static str {
        "cc-queue"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing;

    #[test]
    fn empty_queue_returns_none() {
        let q = CcQueue::new();
        assert_eq!(q.dequeue(), None);
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn fifo_order_sequential() {
        let q = CcQueue::new();
        for i in 0..200 {
            q.enqueue(i);
        }
        for i in 0..200 {
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn enqueue_and_dequeue_sides_run_in_parallel() {
        let q = CcQueue::new();
        testing::mpmc_stress(&q, 2, 2, 10_000);
    }

    #[test]
    fn mpmc_stress() {
        let q = CcQueue::new();
        testing::mpmc_stress(&q, 4, 4, 5_000);
    }

    #[test]
    fn model_check_against_vecdeque() {
        testing::model_check(&CcQueue::new(), 0xCC);
    }

    #[test]
    fn small_help_limit_works() {
        let q = CcQueue::with_help_limit(1);
        testing::mpmc_stress(&q, 2, 2, 2_000);
    }

    #[test]
    fn drop_with_items_is_clean() {
        let q = CcQueue::new();
        for i in 0..500 {
            q.enqueue(i);
        }
    }

    #[test]
    fn pairs_workload_drains() {
        let q = CcQueue::new();
        testing::pairs_smoke(&q, 4, 2_000);
    }
}

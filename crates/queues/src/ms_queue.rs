//! Michael & Scott's nonblocking linked-list queue (PODC 1996).
//!
//! The paper's non-combining baseline. Every enqueue CASes the tail node's
//! `next` pointer and every dequeue CASes `head` — two contended hot spots
//! where most attempts fail under load. The paper attributes the queue's
//! throughput "meltdown" at high concurrency to the work wasted by those
//! failures (§1, Table 2), which is exactly what our software counters show.
//!
//! Memory reclamation uses hazard pointers (two slots: the node being
//! operated on and its successor), per Michael's original scheme, so the
//! baseline pays the same reclamation cost as LCRQ.

use core::sync::atomic::{AtomicPtr, Ordering};

use lcrq_atomic::ops::ptr::cas_ptr;
use lcrq_hazard::Domain;
use lcrq_util::CachePadded;

struct MsNode {
    next: AtomicPtr<MsNode>,
    value: u64,
}

impl MsNode {
    fn alloc(value: u64) -> *mut MsNode {
        Box::into_raw(Box::new(MsNode {
            next: AtomicPtr::new(core::ptr::null_mut()),
            value,
        }))
    }
}

/// Michael & Scott's lock-free FIFO queue.
///
/// ```
/// use lcrq_queues::{MsQueue, ConcurrentQueue};
/// let q = MsQueue::new();
/// q.enqueue(1);
/// q.enqueue(2);
/// assert_eq!(q.dequeue(), Some(1));
/// assert_eq!(q.dequeue(), Some(2));
/// assert_eq!(q.dequeue(), None);
/// ```
pub struct MsQueue {
    head: CachePadded<AtomicPtr<MsNode>>,
    tail: CachePadded<AtomicPtr<MsNode>>,
    domain: Domain,
}

// SAFETY: all shared mutation is via atomics; reclamation via hazard ptrs.
unsafe impl Send for MsQueue {}
unsafe impl Sync for MsQueue {}

impl MsQueue {
    /// Creates an empty queue (one dummy node).
    pub fn new() -> Self {
        let dummy = MsNode::alloc(0);
        Self {
            head: CachePadded::new(AtomicPtr::new(dummy)),
            tail: CachePadded::new(AtomicPtr::new(dummy)),
            domain: Domain::new(),
        }
    }

    /// Appends `value`.
    pub fn enqueue(&self, value: u64) {
        let node = MsNode::alloc(value);
        loop {
            let tail = self.domain.protect(0, &self.tail);
            // SAFETY: `tail` is hazard-protected (validated against self.tail).
            let next = unsafe { (*tail).next.load(Ordering::Acquire) };
            // Scheduler-adversary point inside the read→CAS window
            // (`Site::Preempt`): the MS queue is nonblocking — a
            // preempted operation blocks nobody — but its own CAS attempt
            // is wasted, the work-waste effect the paper measures.
            let _ = lcrq_util::fault::inject(lcrq_util::fault::Site::Preempt);
            if tail != self.tail.load(Ordering::Acquire) {
                continue;
            }
            if next.is_null() {
                // SAFETY: as above.
                if unsafe { cas_ptr(&(*tail).next, core::ptr::null_mut(), node) }.is_ok() {
                    // Linearization point. Swing tail (failure is benign —
                    // another thread already helped).
                    let _ = cas_ptr(&self.tail, tail, node);
                    self.domain.clear(0);
                    return;
                }
            } else {
                // Tail is lagging; help swing it.
                let _ = cas_ptr(&self.tail, tail, next);
            }
        }
    }

    /// Removes the oldest value, or `None` if empty.
    pub fn dequeue(&self) -> Option<u64> {
        loop {
            let head = self.domain.protect(0, &self.head);
            let tail = self.tail.load(Ordering::Acquire);
            let _ = lcrq_util::fault::inject(lcrq_util::fault::Site::Preempt);
            // SAFETY: `head` is hazard-protected.
            let next = self.domain.protect(1, unsafe { &(*head).next });
            if head != self.head.load(Ordering::Acquire) {
                continue;
            }
            if next.is_null() {
                self.domain.clear(0);
                self.domain.clear(1);
                return None;
            }
            if head == tail {
                // Tail is lagging behind a half-finished enqueue; help.
                let _ = cas_ptr(&self.tail, tail, next);
                continue;
            }
            // SAFETY: `next` is hazard-protected; read the value *before*
            // the CAS publishes `next` as the new dummy (after which another
            // dequeuer may retire it once our hazard clears).
            let value = unsafe { (*next).value };
            if cas_ptr(&self.head, head, next).is_ok() {
                self.domain.clear(0);
                self.domain.clear(1);
                // SAFETY: `head` (old dummy) is now unreachable from the
                // queue; hazard-pointer retirement defers the free.
                unsafe { self.domain.retire(head) };
                return Some(value);
            }
        }
    }
}

impl Default for MsQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for MsQueue {
    fn drop(&mut self) {
        // Exclusive access: free the remaining chain (dummy + live items).
        let mut cur = *self.head.get_mut();
        while !cur.is_null() {
            // SAFETY: exclusive access in drop.
            let node = unsafe { Box::from_raw(cur) };
            cur = node.next.load(Ordering::Relaxed);
        }
        // Retired-but-unreclaimed nodes are freed when `domain` drops.
    }
}

impl crate::ConcurrentQueue for MsQueue {
    fn enqueue(&self, value: u64) {
        MsQueue::enqueue(self, value)
    }
    fn dequeue(&self) -> Option<u64> {
        MsQueue::dequeue(self)
    }
    fn name(&self) -> &'static str {
        "ms"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing;

    #[test]
    fn empty_queue_returns_none() {
        let q = MsQueue::new();
        assert_eq!(q.dequeue(), None);
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn fifo_order_sequential() {
        let q = MsQueue::new();
        for i in 0..100 {
            q.enqueue(i);
        }
        for i in 0..100 {
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn interleaved_enq_deq() {
        let q = MsQueue::new();
        q.enqueue(1);
        assert_eq!(q.dequeue(), Some(1));
        assert_eq!(q.dequeue(), None);
        q.enqueue(2);
        q.enqueue(3);
        assert_eq!(q.dequeue(), Some(2));
        q.enqueue(4);
        assert_eq!(q.dequeue(), Some(3));
        assert_eq!(q.dequeue(), Some(4));
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn mpmc_stress() {
        let q = MsQueue::new();
        testing::mpmc_stress(&q, 4, 4, 5_000);
    }

    #[test]
    fn spsc_stress() {
        let q = MsQueue::new();
        testing::mpmc_stress(&q, 1, 1, 20_000);
    }

    #[test]
    fn drop_with_items_left_frees_them() {
        let q = MsQueue::new();
        for i in 0..1_000 {
            q.enqueue(i);
        }
        drop(q); // leak-checked implicitly; must not crash
    }

    #[test]
    fn model_check_against_vecdeque() {
        testing::model_check(&MsQueue::new(), 0xA5);
    }
}

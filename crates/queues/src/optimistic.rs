//! The optimistic FIFO queue of Ladan-Mozes & Shavit (DISC 2004), one of
//! the MS-queue descendants the paper's related work cites as "still
//! suffering from the CAS retry problem" (§2, ref. 17).
//!
//! Idea: the MS queue needs **two** CASes per enqueue (link `next`, swing
//! `tail`); the optimistic queue needs **one** (swing `tail`), because the
//! list is singly linked *backwards* — each new node points at the previous
//! tail via `next` — and the forward `prev` pointers dequeuers need are
//! written *optimistically* after the CAS, without synchronization. A
//! dequeuer that finds a missing/stale `prev` chain repairs it by walking
//! the immutable `next` chain from the tail (`fix_list`).
//!
//! Memory reclamation uses hazard pointers. The subtle part is `fix_list`,
//! which dereferences (and writes `prev` into) interior nodes:
//!
//! * `next` pointers are immutable once a node is published, so the walk
//!   itself never chases a mutating pointer;
//! * every node carries a `seq` number (`tail.seq + 1` at enqueue), and a
//!   node is only ever retired when `head` moves past it — so *all retired
//!   nodes have `seq <= head.seq`*;
//! * the walk therefore protects each step's node, then re-validates that
//!   `head` has not moved: if `head` is unchanged, every node with
//!   `seq > head.seq` is still live, and each walked node's seq is known
//!   without dereferencing it (`cur.seq - 1`). If `head` moved, the walk
//!   aborts before touching the node.

use core::sync::atomic::{AtomicPtr, Ordering};

use lcrq_atomic::ops::ptr::cas_ptr;
use lcrq_hazard::Domain;
use lcrq_util::CachePadded;

struct Node {
    value: u64,
    /// Position in the queue's lifetime order; immutable after publish.
    seq: u64,
    /// Toward *older* nodes (the previous tail); immutable after publish.
    next: AtomicPtr<Node>,
    /// Toward *newer* nodes; written optimistically, repaired by fix_list.
    prev: AtomicPtr<Node>,
}

const HP_HEAD: usize = 0;
const HP_TAIL: usize = 1;
const HP_FIRST: usize = 2;
const HP_WALK: usize = 3;

/// The Ladan-Mozes–Shavit optimistic lock-free FIFO queue.
pub struct OptimisticQueue {
    head: CachePadded<AtomicPtr<Node>>,
    tail: CachePadded<AtomicPtr<Node>>,
    domain: Domain,
}

// SAFETY: all shared mutation is via atomics; reclamation via hazard ptrs.
unsafe impl Send for OptimisticQueue {}
unsafe impl Sync for OptimisticQueue {}

impl OptimisticQueue {
    /// Creates an empty queue (one dummy node).
    pub fn new() -> Self {
        let dummy = Box::into_raw(Box::new(Node {
            value: 0,
            seq: 0,
            next: AtomicPtr::new(core::ptr::null_mut()),
            prev: AtomicPtr::new(core::ptr::null_mut()),
        }));
        Self {
            head: CachePadded::new(AtomicPtr::new(dummy)),
            tail: CachePadded::new(AtomicPtr::new(dummy)),
            domain: Domain::new(),
        }
    }

    /// Appends `value` with a single CAS on `tail`.
    pub fn enqueue(&self, value: u64) {
        let node = Box::into_raw(Box::new(Node {
            value,
            seq: 0,
            next: AtomicPtr::new(core::ptr::null_mut()),
            prev: AtomicPtr::new(core::ptr::null_mut()),
        }));
        loop {
            let tail = self.domain.protect(HP_TAIL, &self.tail);
            // SAFETY: tail is hazard-protected (validated by protect()).
            let tail_seq = unsafe { (*tail).seq };
            // SAFETY: node is unpublished; these writes are pre-publication.
            unsafe {
                (*node).next.store(tail, Ordering::Relaxed);
                (*node).seq = tail_seq + 1;
            }
            let _ = lcrq_util::fault::inject(lcrq_util::fault::Site::Preempt);
            if cas_ptr(&self.tail, tail, node).is_ok() {
                // Optimistic prev link; a missing link is repaired by
                // fix_list. SAFETY: tail is still hazard-protected.
                unsafe { (*tail).prev.store(node, Ordering::Release) };
                self.domain.clear(HP_TAIL);
                return;
            }
        }
    }

    /// Removes the oldest value, or `None` if empty.
    pub fn dequeue(&self) -> Option<u64> {
        loop {
            let head = self.domain.protect(HP_HEAD, &self.head);
            let tail = self.domain.protect(HP_TAIL, &self.tail);
            if head == tail {
                // Unlike the MS queue, tail never lags (it is CASed
                // directly), so head == tail means linearizably empty.
                self.domain.clear(HP_HEAD);
                self.domain.clear(HP_TAIL);
                return None;
            }
            // SAFETY: head is hazard-protected.
            let head_seq = unsafe { (*head).seq };
            let first = unsafe { (*head).prev.load(Ordering::Acquire) };
            // Protect the candidate, then re-validate via head: if head is
            // unchanged, nothing with seq > head_seq has been retired, and
            // `first` (seq head_seq + 1, when the chain is intact) is live.
            self.domain.protect_raw(HP_FIRST, first as *mut ());
            if self.head.load(Ordering::SeqCst) != head {
                continue;
            }
            // SAFETY: `first` may be null or stale; check before any use.
            let chain_ok = !first.is_null() && unsafe { (*first).seq } == head_seq + 1;
            if !chain_ok {
                self.fix_list(head, head_seq, tail);
                continue;
            }
            let _ = lcrq_util::fault::inject(lcrq_util::fault::Site::Preempt);
            // SAFETY: first is protected + validated above.
            let value = unsafe { (*first).value };
            if cas_ptr(&self.head, head, first).is_ok() {
                self.domain.clear(HP_HEAD);
                self.domain.clear(HP_TAIL);
                self.domain.clear(HP_FIRST);
                // SAFETY: old dummy is unreachable from the queue; hazard
                // retirement defers the free.
                unsafe { self.domain.retire(head) };
                return Some(value);
            }
        }
    }

    /// Repairs the `prev` chain between `tail` and `head` by walking the
    /// immutable `next` chain. Aborts (safely) as soon as `head` moves.
    fn fix_list(&self, head: *mut Node, head_seq: u64, tail: *mut Node) {
        let mut cur = tail; // protected by HP_TAIL
                            // SAFETY: tail is hazard-protected.
        let mut cur_seq = unsafe { (*cur).seq };
        while cur_seq > head_seq + 1 {
            // SAFETY: cur is protected (HP_TAIL initially, HP_WALK after);
            // next pointers are immutable after publish.
            let nxt = unsafe { (*cur).next.load(Ordering::Acquire) };
            debug_assert!(!nxt.is_null(), "interior next chain is complete");
            // nxt.seq == cur_seq - 1 *by construction* — known without
            // dereferencing. Publish the hazard, then validate liveness:
            // retired nodes all have seq <= current head.seq, so if head is
            // still `head` (seq head_seq < nxt.seq), nxt is live.
            self.domain.protect_raw(HP_FIRST, nxt as *mut ());
            if self.head.load(Ordering::SeqCst) != head {
                return; // a dequeue advanced head; its fix or ours is moot
            }
            // SAFETY: nxt is protected + proven live; writing prev on a
            // live node is safe even if it is dequeued concurrently.
            unsafe { (*nxt).prev.store(cur, Ordering::Release) };
            // Move the walk protection into HP_WALK so HP_FIRST is free for
            // the next step's candidate.
            self.domain.protect_raw(HP_WALK, nxt as *mut ());
            cur = nxt;
            cur_seq -= 1;
        }
        self.domain.clear(HP_WALK);
    }
}

impl Default for OptimisticQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for OptimisticQueue {
    fn drop(&mut self) {
        // The next chain from tail runs through *retired* nodes too (they
        // are never unlinked): free only the live span [tail ..= head]; the
        // older, retired nodes belong to the hazard domain.
        let head = *self.head.get_mut();
        let mut cur = *self.tail.get_mut();
        loop {
            // SAFETY: exclusive access in drop; `cur` is live (between tail
            // and head inclusive).
            let node = unsafe { Box::from_raw(cur) };
            if cur == head {
                break;
            }
            cur = node.next.load(Ordering::Relaxed);
        }
    }
}

impl crate::ConcurrentQueue for OptimisticQueue {
    fn enqueue(&self, value: u64) {
        OptimisticQueue::enqueue(self, value)
    }
    fn dequeue(&self) -> Option<u64> {
        OptimisticQueue::dequeue(self)
    }
    fn name(&self) -> &'static str {
        "optimistic"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing;

    #[test]
    fn empty_queue_returns_none() {
        let q = OptimisticQueue::new();
        assert_eq!(q.dequeue(), None);
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn fifo_order_sequential() {
        let q = OptimisticQueue::new();
        for i in 0..500 {
            q.enqueue(i);
        }
        for i in 0..500 {
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn interleaved_enq_deq() {
        let q = OptimisticQueue::new();
        for round in 0..300 {
            assert_eq!(q.dequeue(), None);
            q.enqueue(round);
            q.enqueue(round + 1000);
            assert_eq!(q.dequeue(), Some(round));
            assert_eq!(q.dequeue(), Some(round + 1000));
        }
    }

    #[test]
    fn single_cas_per_uncontended_enqueue() {
        use lcrq_util::metrics::{self, Event};
        let q = OptimisticQueue::new();
        q.enqueue(0); // warm the dummy path
        let before = metrics::local_snapshot();
        for i in 0..100 {
            q.enqueue(i);
        }
        let d = metrics::local_snapshot().delta_since(&before);
        assert_eq!(
            d.get(Event::CasAttempt),
            100,
            "the optimistic queue's selling point: one CAS per enqueue"
        );
        assert_eq!(d.get(Event::CasFailure), 0);
    }

    #[test]
    fn mpmc_stress() {
        let q = OptimisticQueue::new();
        testing::mpmc_stress(&q, 4, 4, 5_000);
    }

    #[test]
    fn spsc_stress() {
        let q = OptimisticQueue::new();
        testing::mpmc_stress(&q, 1, 1, 20_000);
    }

    #[test]
    fn model_check_against_vecdeque() {
        testing::model_check(&OptimisticQueue::new(), 0x0C);
    }

    #[test]
    fn drop_with_items_is_clean() {
        let q = OptimisticQueue::new();
        for i in 0..1_000 {
            q.enqueue(i);
        }
    }
}

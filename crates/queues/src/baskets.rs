//! The Baskets queue of Hoffman, Shalev & Shavit (OPODIS 2007), another
//! related-work MS descendant from the paper's §2 (ref. 15).
//!
//! Idea: when several enqueuers contend on the same tail, their operations
//! are concurrent, so their relative order is *free*. A loser of the
//! `tail.next` CAS does not retry at the new tail — it inserts itself into
//! the "basket" at the same position (prepending to `tail.next`), turning
//! the MS queue's retry storm into useful insertions. Dequeue logically
//! deletes by *marking* the `next` pointer (LSB tag) and physically
//! advances `head` in batches once a deleted chain grows past
//! `MAX_HOPS` — amortizing the head CAS just like the basket amortizes
//! the tail CAS.
//!
//! The paper's verdict still holds, though: every operation ends in a CAS
//! that can fail, so under contention it wastes work where LCRQ's F&A
//! cannot — this implementation exists to demonstrate exactly that.
//!
//! Reclamation: hazard pointers. Marked (logically deleted) nodes are only
//! *retired* by the `free_chain` that swings `head` past them, so a walker
//! that re-validates `head` after publishing its hazard can never touch a
//! freed node (same liveness argument as the optimistic queue's
//! `fix_list`).

use core::sync::atomic::{AtomicUsize, Ordering};

use lcrq_hazard::Domain;
use lcrq_util::metrics::{self, Event};
use lcrq_util::CachePadded;

/// Physically advance `head` once this many logically deleted nodes have
/// accumulated (the original paper's batching constant).
const MAX_HOPS: usize = 3;

const MARK: usize = 1;

#[inline]
fn ptr_of(word: usize) -> *mut Node {
    (word & !MARK) as *mut Node
}

#[inline]
fn is_marked(word: usize) -> bool {
    word & MARK != 0
}

#[inline]
fn pack(ptr: *mut Node, marked: bool) -> usize {
    ptr as usize | usize::from(marked)
}

struct Node {
    value: u64,
    /// Packed (successor pointer | deleted mark).
    next: AtomicUsize,
}

impl Node {
    fn alloc(value: u64) -> *mut Node {
        Box::into_raw(Box::new(Node {
            value,
            next: AtomicUsize::new(0),
        }))
    }
}

const HP_HEAD: usize = 0;
const HP_TAIL: usize = 1;
const HP_ITER: usize = 2;
const HP_NEXT: usize = 3;

/// The baskets lock-free FIFO queue.
pub struct BasketsQueue {
    head: CachePadded<AtomicUsize>,
    tail: CachePadded<AtomicUsize>,
    domain: Domain,
}

// SAFETY: all shared mutation is via atomics; reclamation via hazard ptrs.
unsafe impl Send for BasketsQueue {}
unsafe impl Sync for BasketsQueue {}

/// Counted CAS on a packed pointer word.
#[inline]
fn cas_word(a: &AtomicUsize, old: usize, new: usize) -> bool {
    metrics::inc(Event::CasAttempt);
    if a.compare_exchange(old, new, Ordering::SeqCst, Ordering::Acquire)
        .is_ok()
    {
        true
    } else {
        metrics::inc(Event::CasFailure);
        false
    }
}

impl BasketsQueue {
    /// Creates an empty queue (one dummy node).
    pub fn new() -> Self {
        let dummy = Node::alloc(0);
        Self {
            head: CachePadded::new(AtomicUsize::new(dummy as usize)),
            tail: CachePadded::new(AtomicUsize::new(dummy as usize)),
            domain: Domain::new(),
        }
    }

    /// Protects the node currently stored in the packed word `src` in
    /// hazard `slot`, returning the validated word.
    fn protect_word(&self, slot: usize, src: &AtomicUsize) -> usize {
        let mut word = src.load(Ordering::Acquire);
        loop {
            self.domain.protect_raw(slot, ptr_of(word) as *mut ());
            let again = src.load(Ordering::SeqCst);
            if again == word {
                return word;
            }
            word = again;
        }
    }

    /// Appends `value`.
    pub fn enqueue(&self, value: u64) {
        let node = Node::alloc(value);
        loop {
            let tail_word = self.protect_word(HP_TAIL, &self.tail);
            let tail = ptr_of(tail_word);
            // SAFETY: tail is hazard-protected.
            let next = unsafe { (*tail).next.load(Ordering::Acquire) };
            if ptr_of(next).is_null() && !is_marked(next) {
                // SAFETY: node unpublished.
                unsafe { (*node).next.store(0, Ordering::Relaxed) };
                lcrq_util::adversary::preempt_point(); // read→CAS window
                                                       // SAFETY: tail protected.
                if cas_word(unsafe { &(*tail).next }, 0, pack(node, false)) {
                    let _ = cas_word(&self.tail, tail_word, pack(node, false));
                    self.domain.clear(HP_TAIL);
                    return;
                }
                // CAS failed: the basket! Everyone who lost this race is
                // concurrent — prepend into tail.next until the window
                // closes (tail moved or chain got marked).
                loop {
                    if self.tail.load(Ordering::SeqCst) != tail_word {
                        break; // window closed: retry from the new tail
                    }
                    // SAFETY: tail still protected (self.tail unchanged).
                    let next = unsafe { (*tail).next.load(Ordering::Acquire) };
                    if is_marked(next) {
                        break; // a dequeuer got here; retry from scratch
                    }
                    // SAFETY: node unpublished.
                    unsafe { (*node).next.store(next, Ordering::Relaxed) };
                    // SAFETY: tail protected.
                    if cas_word(unsafe { &(*tail).next }, next, pack(node, false)) {
                        self.domain.clear(HP_TAIL);
                        return;
                    }
                }
            } else if !ptr_of(next).is_null() {
                // Tail lags; help advance it to its successor.
                let _ = cas_word(&self.tail, tail_word, pack(ptr_of(next), false));
            }
        }
    }

    /// Removes the oldest value, or `None` if empty.
    ///
    /// A mark on `X.next` means *`X`'s successor is logically deleted* (the
    /// original paper's convention): the dequeuer that deleted it won the
    /// `CAS(X.next, (succ, 0), (succ, 1))`.
    pub fn dequeue(&self) -> Option<u64> {
        'restart: loop {
            let head_word = self.protect_word(HP_HEAD, &self.head);
            let head = ptr_of(head_word);
            let tail_word = self.protect_word(HP_TAIL, &self.tail);
            let tail = ptr_of(tail_word);
            // SAFETY: head protected.
            let mut next = unsafe { (*head).next.load(Ordering::Acquire) };
            if self.head.load(Ordering::SeqCst) != head_word {
                continue;
            }
            if head == tail && ptr_of(next).is_null() {
                self.clear_all();
                return None;
            }
            // Walk past the logically deleted prefix (marked links).
            let mut iter = head; // protected by HP_HEAD
            let mut hops = 0usize;
            while is_marked(next) && iter != tail {
                // Advance: protect the successor, then re-validate head —
                // deleted nodes are only retired by a free_chain that moves
                // head, so "head unchanged" proves the successor is live.
                let succ = ptr_of(next);
                debug_assert!(!succ.is_null(), "a marked link has a successor");
                let slot = if hops.is_multiple_of(2) {
                    HP_ITER
                } else {
                    HP_NEXT
                };
                self.domain.protect_raw(slot, succ as *mut ());
                if self.head.load(Ordering::SeqCst) != head_word {
                    continue 'restart;
                }
                iter = succ;
                // SAFETY: iter protected + head-validated above.
                next = unsafe { (*iter).next.load(Ordering::Acquire) };
                hops += 1;
            }
            let candidate = ptr_of(next);
            if candidate.is_null() {
                // The deleted prefix runs out with no live successor: the
                // queue is empty. Physically reclaim the prefix first.
                if iter != head {
                    self.free_chain(head_word, iter);
                }
                self.clear_all();
                return None;
            }
            if iter == tail {
                if is_marked(next) {
                    // The deleted prefix continues past the lagging tail
                    // pointer; help tail forward and retry.
                    let _ = cas_word(&self.tail, tail_word, pack(candidate, false));
                    continue;
                }
                // Live successor beyond tail: an enqueue is half done; help.
                let _ = cas_word(&self.tail, tail_word, pack(candidate, false));
                continue;
            }
            // `candidate` is the oldest live node: read its value, then
            // logically delete it by marking the link that points at it.
            let slot = if hops.is_multiple_of(2) {
                HP_ITER
            } else {
                HP_NEXT
            };
            self.domain.protect_raw(slot, candidate as *mut ());
            if self.head.load(Ordering::SeqCst) != head_word {
                continue 'restart;
            }
            // SAFETY: candidate protected + head-validated.
            let value = unsafe { (*candidate).value };
            lcrq_util::adversary::preempt_point(); // read→CAS window
                                                   // SAFETY: iter protected throughout the walk.
            if cas_word(
                unsafe { &(*iter).next },
                pack(candidate, false),
                pack(candidate, true),
            ) {
                if hops >= MAX_HOPS {
                    // Batch-advance: `candidate` (just deleted) becomes the
                    // new dummy; everything before it is retired.
                    self.free_chain(head_word, candidate);
                }
                self.clear_all();
                return Some(value);
            }
        }
    }

    /// Swings `head` from `head_word` to `new_head` and retires every node
    /// in between (exclusive of `new_head`). No-op if the CAS loses.
    fn free_chain(&self, head_word: usize, new_head: *mut Node) {
        if !cas_word(&self.head, head_word, pack(new_head, false)) {
            return;
        }
        let mut cur = ptr_of(head_word);
        while cur != new_head {
            // SAFETY: the whole span became unreachable when our CAS
            // succeeded; we read `next` before retiring `cur` (retire may
            // trigger an immediate scan+free).
            let next = unsafe { ptr_of((*cur).next.load(Ordering::Acquire)) };
            // SAFETY: unreachable, retired exactly once (by the CAS winner).
            unsafe { self.domain.retire(cur) };
            cur = next;
        }
    }

    fn clear_all(&self) {
        for slot in [HP_HEAD, HP_TAIL, HP_ITER, HP_NEXT] {
            self.domain.clear(slot);
        }
    }
}

impl Default for BasketsQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for BasketsQueue {
    fn drop(&mut self) {
        // Free the reachable chain from head (dummy + live + trailing
        // marked nodes); already-retired nodes belong to the domain.
        let mut cur = ptr_of(*self.head.get_mut());
        while !cur.is_null() {
            // SAFETY: exclusive access in drop.
            let node = unsafe { Box::from_raw(cur) };
            cur = ptr_of(node.next.load(Ordering::Relaxed));
        }
    }
}

impl crate::ConcurrentQueue for BasketsQueue {
    fn enqueue(&self, value: u64) {
        BasketsQueue::enqueue(self, value)
    }
    fn dequeue(&self) -> Option<u64> {
        BasketsQueue::dequeue(self)
    }
    fn name(&self) -> &'static str {
        "baskets"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing;

    #[test]
    fn empty_queue_returns_none() {
        let q = BasketsQueue::new();
        assert_eq!(q.dequeue(), None);
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn fifo_order_sequential() {
        let q = BasketsQueue::new();
        for i in 0..500 {
            q.enqueue(i);
        }
        for i in 0..500 {
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn logical_deletion_then_refill() {
        let q = BasketsQueue::new();
        for round in 0..200u64 {
            // Few items (< MAX_HOPS) so dequeues leave marked chains behind.
            q.enqueue(round);
            q.enqueue(round + 1_000);
            assert_eq!(q.dequeue(), Some(round));
            assert_eq!(q.dequeue(), Some(round + 1_000));
            assert_eq!(q.dequeue(), None);
        }
    }

    #[test]
    fn marked_chain_batching_reclaims() {
        // Enough traffic that free_chain runs many times.
        let q = BasketsQueue::new();
        for i in 0..10_000u64 {
            q.enqueue(i);
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn mpmc_stress() {
        let q = BasketsQueue::new();
        testing::mpmc_stress(&q, 4, 4, 5_000);
    }

    #[test]
    fn spsc_stress() {
        let q = BasketsQueue::new();
        testing::mpmc_stress(&q, 1, 1, 20_000);
    }

    #[test]
    fn model_check_against_vecdeque() {
        testing::model_check(&BasketsQueue::new(), 0xBA);
    }

    #[test]
    fn stress_under_adversarial_preemption_exercises_baskets() {
        // Preemption inside the read→CAS windows produces the tail-CAS
        // failures that send enqueuers down the basket-insertion path.
        lcrq_util::adversary::set_preempt_ppm(5_000);
        let q = BasketsQueue::new();
        testing::mpmc_stress(&q, 3, 3, 2_000);
        lcrq_util::adversary::set_preempt_ppm(0);
    }

    #[test]
    fn drop_with_items_and_marked_prefix_is_clean() {
        let q = BasketsQueue::new();
        for i in 0..100 {
            q.enqueue(i);
        }
        for _ in 0..10 {
            let _ = q.dequeue(); // leaves marked nodes (< MAX_HOPS batches)
        }
        drop(q);
    }
}

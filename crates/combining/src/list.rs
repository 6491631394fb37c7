//! The SWAP-based request list shared by CC-Synch and H-Synch.
//!
//! Threads append themselves to a singly linked list with an atomic SWAP on
//! the tail — an always-succeeding instruction, which is why Fatourou &
//! Kallimanis's constructions have constant synchronization cost per
//! operation regardless of contention. The thread whose node reaches the
//! head of the list becomes the *combiner* and serves up to `h` queued
//! requests before handing the role to the next waiting thread.

use core::cell::UnsafeCell;
use core::sync::atomic::{AtomicPtr, AtomicU8, Ordering};
use lcrq_atomic::ops::ptr::swap_ptr;
use lcrq_util::metrics::{self, Event};
use lcrq_util::Backoff;
use std::sync::Mutex;

use crate::seq::SeqObject;
use crate::tls;

/// Node status: owner spins while `WAITING`; the combiner moves it to `DONE`
/// (request applied, result available) or `COMBINER` (role hand-off).
const WAITING: u8 = 0;
const COMBINER: u8 = 1;
const DONE: u8 = 2;

pub(crate) struct Node<S: SeqObject> {
    status: AtomicU8,
    next: AtomicPtr<Node<S>>,
    op: UnsafeCell<Option<S::Op>>,
    ret: UnsafeCell<Option<S::Ret>>,
}

impl<S: SeqObject> Node<S> {
    fn new(status: u8) -> Self {
        Self {
            status: AtomicU8::new(status),
            next: AtomicPtr::new(core::ptr::null_mut()),
            op: UnsafeCell::new(None),
            ret: UnsafeCell::new(None),
        }
    }
}

/// Outcome of announcing a request.
pub(crate) enum Announced<S: SeqObject> {
    /// Another combiner applied our request; here is the result.
    Done(S::Ret),
    /// We are the combiner; serve the list starting from our own node.
    Combine(*mut Node<S>),
}

/// A request list instance. `S`'s state lives with the caller (CC-Synch owns
/// it directly; H-Synch shares one state among several lists).
pub(crate) struct RequestList<S: SeqObject> {
    tail: AtomicPtr<Node<S>>,
    /// Every node ever allocated for this list, freed on drop.
    registry: Mutex<Vec<*mut Node<S>>>,
    id: u64,
}

// SAFETY: nodes are shared across threads but all cross-thread access is
// mediated by the status/next atomics with acquire/release pairs.
unsafe impl<S: SeqObject> Send for RequestList<S> {}
unsafe impl<S: SeqObject> Sync for RequestList<S> {}

impl<S: SeqObject> RequestList<S> {
    pub(crate) fn new() -> Self {
        let list = Self {
            tail: AtomicPtr::new(core::ptr::null_mut()),
            registry: Mutex::new(Vec::new()),
            id: tls::new_instance_id(),
        };
        // Initial dummy: whoever swaps it out becomes the first combiner.
        let dummy = list.alloc(COMBINER);
        list.tail.store(dummy, Ordering::Release);
        list
    }

    fn alloc(&self, status: u8) -> *mut Node<S> {
        let p = Box::into_raw(Box::new(Node::new(status)));
        self.registry
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(p);
        p
    }

    /// This thread's spare node for this list (allocated on first use).
    fn spare(&self) -> *mut Node<S> {
        tls::get_or_insert(self.id, || self.alloc(WAITING) as *mut ()) as *mut Node<S>
    }

    /// Announces `op` and waits until it is either applied (`Done`) or this
    /// thread is promoted to combiner (`Combine`).
    pub(crate) fn announce(&self, op: S::Op) -> Announced<S> {
        let next_node = self.spare();
        // SAFETY: the spare node is owned by this thread until the SWAP
        // publishes it; afterwards only status/next are touched by others.
        unsafe {
            (*next_node)
                .next
                .store(core::ptr::null_mut(), Ordering::Relaxed);
            (*next_node).status.store(WAITING, Ordering::Relaxed);
        }
        let cur_node = swap_ptr(&self.tail, next_node);
        // Most damaging preemption point: we hold the list position every
        // later arrival depends on, but have not yet published our request.
        let _ = lcrq_util::fault::inject(lcrq_util::fault::Site::Preempt);
        // SAFETY: cur_node was the tail; by protocol its previous owner will
        // never touch op/ret/next again — they are ours to write until the
        // release-store of `next` publishes them to the combiner.
        unsafe {
            *(*cur_node).op.get() = Some(op);
            (*cur_node).next.store(next_node, Ordering::Release);
        }
        // cur_node becomes this thread's spare for the next call.
        tls::replace(self.id, cur_node as *mut ());

        let backoff = Backoff::new();
        loop {
            // SAFETY: cur_node stays valid (registry-owned) for list lifetime.
            let status = unsafe { (*cur_node).status.load(Ordering::Acquire) };
            match status {
                WAITING => backoff.snooze(),
                DONE => {
                    // SAFETY: DONE (acquire) happens-after the combiner's
                    // write of ret.
                    let ret = unsafe { (*(*cur_node).ret.get()).take() };
                    return Announced::Done(ret.expect("combiner stored a result"));
                }
                _ => return Announced::Combine(cur_node),
            }
        }
    }

    /// Serves requests starting at `start` (inclusive), applying at most `h`
    /// of them to `state`, then hands the combiner role onward. Returns the
    /// result of `start`'s own request.
    ///
    /// # Safety
    ///
    /// The caller must hold the combiner role for this list (obtained via
    /// [`Announced::Combine`]) and must have exclusive access to `state`
    /// among combiners (CC-Synch: implied; H-Synch: global lock).
    pub(crate) unsafe fn combine(&self, start: *mut Node<S>, state: &mut S, h: usize) -> S::Ret {
        metrics::inc(Event::CombinerRound);
        let h = h.max(1); // the combiner always serves at least itself
        let mut my_ret: Option<S::Ret> = None;
        let mut cur = start;
        let mut served = 0usize;
        loop {
            // SAFETY: combiner exclusively walks the published prefix.
            let next = unsafe { (*cur).next.load(Ordering::Acquire) };
            if next.is_null() || served >= h {
                break;
            }
            served += 1;
            // SAFETY: next != null (acquire) publishes the owner's op write.
            let op = unsafe { (*(*cur).op.get()).take() }.expect("announced node has an op");
            let ret = state.apply(op);
            metrics::inc(Event::OpsCombined);
            if cur == start {
                my_ret = Some(ret);
                // Our own node: no need to publish DONE to ourselves, but we
                // must not hand the combiner role to it either; just move on.
                unsafe { (*cur).status.store(DONE, Ordering::Relaxed) };
            } else {
                // SAFETY: write ret before releasing DONE.
                unsafe {
                    *(*cur).ret.get() = Some(ret);
                    (*cur).status.store(DONE, Ordering::Release);
                }
            }
            cur = next;
        }
        // Hand off: `cur` is either the current tail dummy (its future owner
        // combines immediately on arrival) or the first unserved node (its
        // owner is promoted now).
        unsafe { (*cur).status.store(COMBINER, Ordering::Release) };
        my_ret.expect("combiner serves at least its own request")
    }
}

impl<S: SeqObject> Drop for RequestList<S> {
    fn drop(&mut self) {
        let registry =
            core::mem::take(&mut *self.registry.lock().unwrap_or_else(|e| e.into_inner()));
        for p in registry {
            // SAFETY: exclusive access in drop; every node is registry-owned.
            unsafe { drop(Box::from_raw(p)) };
        }
    }
}

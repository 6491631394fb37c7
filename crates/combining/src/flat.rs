//! Flat combining (Hendler, Incze, Shavit & Tzafrir, SPAA 2010).
//!
//! Threads publish pending operations in per-thread *publication records*
//! linked into a global list. Any thread whose operation is pending tries to
//! acquire a global lock; the winner becomes the combiner, scans the
//! publication list, and applies every pending operation it finds, writing
//! results back into the records. Losers spin until their record's result
//! arrives or the lock frees up.
//!
//! Compared to CC-Synch, flat combining pays *no* atomic operation at all on
//! the fast path of a served thread (just a record write and a spin), which
//! is why the paper's Table 2 shows the FC queue averaging only 0.21 atomic
//! operations per queue operation — but the combiner must rescan the whole
//! publication list each round, and the lock makes it blocking.
//!
//! Simplification vs. the original: records are never aged out of the
//! publication list (the original unlinks records unused for a while). With
//! bounded thread counts this only adds a predictable constant to each scan.

use core::cell::UnsafeCell;
use core::sync::atomic::{AtomicPtr, AtomicU8, Ordering};
use std::sync::Mutex;

use crate::seq::SeqObject;
use crate::tls;
use lcrq_atomic::ops::ptr::cas_ptr;
use lcrq_util::metrics::{self, Event};
use lcrq_util::Backoff;

use crate::lock::TasLock;

const EMPTY: u8 = 0;
const PENDING: u8 = 1;
const DONE: u8 = 2;

struct FcRecord<S: SeqObject> {
    status: AtomicU8,
    op: UnsafeCell<Option<S::Op>>,
    ret: UnsafeCell<Option<S::Ret>>,
    next: AtomicPtr<FcRecord<S>>,
}

impl<S: SeqObject> FcRecord<S> {
    fn new() -> Self {
        Self {
            status: AtomicU8::new(EMPTY),
            op: UnsafeCell::new(None),
            ret: UnsafeCell::new(None),
            next: AtomicPtr::new(core::ptr::null_mut()),
        }
    }
}

/// A linearizable concurrent version of `S` built with flat combining.
///
/// ```
/// use lcrq_combining::{FlatCombining, seq::SeqCounter};
/// let counter = FlatCombining::new(SeqCounter::default());
/// assert_eq!(counter.apply(7), 0);
/// assert_eq!(counter.apply(1), 7);
/// ```
pub struct FlatCombining<S: SeqObject> {
    lock: TasLock,
    pub_head: AtomicPtr<FcRecord<S>>,
    state: UnsafeCell<S>,
    registry: Mutex<Vec<*mut FcRecord<S>>>,
    id: u64,
}

// SAFETY: `state` is only touched under `lock`; op/ret fields cross threads
// via the record status release/acquire edges.
unsafe impl<S: SeqObject + Send> Send for FlatCombining<S> {}
unsafe impl<S: SeqObject + Send> Sync for FlatCombining<S> {}

impl<S: SeqObject> FlatCombining<S> {
    /// Wraps `state`.
    pub fn new(state: S) -> Self {
        Self {
            lock: TasLock::new(),
            pub_head: AtomicPtr::new(core::ptr::null_mut()),
            state: UnsafeCell::new(state),
            registry: Mutex::new(Vec::new()),
            id: tls::new_instance_id(),
        }
    }

    /// This thread's publication record, linked into the list on first use.
    fn my_record(&self) -> *mut FcRecord<S> {
        tls::get_or_insert(self.id, || {
            let rec = Box::into_raw(Box::new(FcRecord::new()));
            self.registry
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(rec);
            // Link into the publication list (push-front, retried CAS).
            loop {
                let head = self.pub_head.load(Ordering::Acquire);
                // SAFETY: rec is unpublished until the CAS succeeds.
                unsafe { (*rec).next.store(head, Ordering::Relaxed) };
                if cas_ptr(&self.pub_head, head, rec).is_ok() {
                    break;
                }
            }
            rec as *mut ()
        }) as *mut FcRecord<S>
    }

    /// Applies `op` linearizably; blocks while a combiner works.
    pub fn apply(&self, op: S::Op) -> S::Ret {
        let rec = self.my_record();
        // SAFETY: our own record; status is EMPTY so no combiner reads it.
        unsafe {
            *(*rec).op.get() = Some(op);
            (*rec).status.store(PENDING, Ordering::Release);
        }
        let backoff = Backoff::new();
        loop {
            // SAFETY: record is registry-owned for the instance lifetime.
            if unsafe { (*rec).status.load(Ordering::Acquire) } == DONE {
                // SAFETY: DONE (acquire) happens-after the combiner's writes.
                let ret = unsafe { (*(*rec).ret.get()).take() };
                unsafe { (*rec).status.store(EMPTY, Ordering::Relaxed) };
                return ret.expect("combiner stored a result");
            }
            if let Some(guard) = self.lock.try_lock() {
                // We are the combiner; our own record is in the list, so one
                // scan completes our operation too.
                self.combine();
                drop(guard);
                debug_assert_eq!(unsafe { (*rec).status.load(Ordering::Relaxed) }, DONE);
            } else {
                backoff.snooze();
            }
        }
    }

    /// One combining pass: serve every pending record. Caller holds `lock`.
    fn combine(&self) {
        metrics::inc(Event::CombinerRound);
        // SAFETY below: holding the lock gives exclusive access to `state`;
        // PENDING (acquire) publishes the owner's op write.
        let state = unsafe { &mut *self.state.get() };
        let mut cur = self.pub_head.load(Ordering::Acquire);
        while !cur.is_null() {
            let rec = unsafe { &*cur };
            if rec.status.load(Ordering::Acquire) == PENDING {
                let op = unsafe { (*rec.op.get()).take() }.expect("pending record has an op");
                let ret = state.apply(op);
                metrics::inc(Event::OpsCombined);
                unsafe { *rec.ret.get() = Some(ret) };
                rec.status.store(DONE, Ordering::Release);
            }
            cur = rec.next.load(Ordering::Acquire);
        }
    }

    /// Exclusive access to the wrapped state (no concurrency possible).
    pub fn state_mut(&mut self) -> &mut S {
        self.state.get_mut()
    }

    /// Consumes the wrapper, returning the sequential state.
    pub fn into_inner(self) -> S {
        // Free the records ourselves, move the state out, and skip Drop so
        // the state is not dropped a second time.
        let registry =
            core::mem::take(&mut *self.registry.lock().unwrap_or_else(|e| e.into_inner()));
        for p in registry {
            // SAFETY: exclusive access by ownership; records are registry-owned.
            unsafe { drop(Box::from_raw(p)) };
        }
        // SAFETY: exclusive access by ownership; `forget` prevents a second
        // drop of the state (and of the now-empty registry).
        let state = unsafe { core::ptr::read(self.state.get()) };
        core::mem::forget(self);
        state
    }
}

impl<S: SeqObject> Drop for FlatCombining<S> {
    fn drop(&mut self) {
        let registry =
            core::mem::take(&mut *self.registry.lock().unwrap_or_else(|e| e.into_inner()));
        for p in registry {
            // SAFETY: exclusive access in drop; records are registry-owned.
            unsafe { drop(Box::from_raw(p)) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::{FifoOp, SeqCounter, SeqFifo};
    use std::sync::Arc;

    #[test]
    fn sequential_semantics() {
        let c = FlatCombining::new(SeqCounter::default());
        assert_eq!(c.apply(1), 0);
        assert_eq!(c.apply(10), 1);
        assert_eq!(c.apply(0), 11);
    }

    #[test]
    fn no_lost_updates_under_contention() {
        let c = Arc::new(FlatCombining::new(SeqCounter::default()));
        let threads = 8;
        let per = 5_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..per {
                        c.apply(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.apply(0), threads * per);
    }

    #[test]
    fn previous_values_are_unique() {
        let c = Arc::new(FlatCombining::new(SeqCounter::default()));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || (0..2_000).map(|_| c.apply(1)).collect::<Vec<_>>())
            })
            .collect();
        let mut seen: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..8_000).collect::<Vec<_>>());
    }

    #[test]
    fn fifo_behaviour_preserved() {
        let q = FlatCombining::new(SeqFifo::default());
        q.apply(FifoOp::Enq(1));
        q.apply(FifoOp::Enq(2));
        assert_eq!(q.apply(FifoOp::Deq), Some(1));
        assert_eq!(q.apply(FifoOp::Deq), Some(2));
        assert_eq!(q.apply(FifoOp::Deq), None);
    }

    #[test]
    fn fast_path_uses_no_atomics_when_served() {
        // A thread whose op is served by another combiner performs zero
        // RMW instructions — verify at least that a solo run performs only
        // the try-lock T&S per op (plus the one-time record link CAS).
        use lcrq_util::metrics::{self, Event};
        let c = FlatCombining::new(SeqCounter::default());
        c.apply(1); // force record creation + first combine
        let before = metrics::local_snapshot();
        for _ in 0..10 {
            c.apply(1);
        }
        let d = metrics::local_snapshot().delta_since(&before);
        assert_eq!(d.get(Event::Tas), 10, "one try-lock per solo op");
        assert_eq!(d.get(Event::CasAttempt), 0);
        assert_eq!(d.get(Event::Faa), 0);
    }

    #[test]
    fn into_inner_returns_final_state() {
        let c = FlatCombining::new(SeqCounter::default());
        c.apply(5);
        c.apply(6);
        let mut s = c.into_inner();
        assert_eq!(s.apply(0), 11);
    }

    #[test]
    fn reuse_after_combining_rounds() {
        let c = FlatCombining::new(SeqCounter::default());
        for i in 0..100 {
            assert_eq!(c.apply(1), i);
        }
    }

    #[test]
    fn drop_with_records_is_clean() {
        for _ in 0..50 {
            let c = FlatCombining::new(SeqCounter::default());
            c.apply(1);
        }
    }
}

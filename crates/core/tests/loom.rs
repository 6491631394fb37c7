//! Model-checked interleavings of the list of rings' shutdown protocol and
//! of its kept hazard slots, run by the ci.sh loom gate:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p lcrq-core --test loom -q
//! ```
//!
//! **Close.** `RingList`'s `head`/`tail`/`closed` and every ring's `next`
//! come from the sync facade, so each step of enqueue, `close()` and
//! dequeue is a decision point. The models run the list over [`TinyRing`]
//! — a ring of `2^order` slots whose body is a mutex, so the schedule
//! budget goes to the *list* protocol — and race one enqueuer, one
//! `close()` and one consumer doing the channel's settle poll (`dequeue`,
//! `is_closed`, `dequeue`). Property: an enqueue that returned `Ok` is
//! delivered exactly once, and never after the consumer has concluded
//! "closed and empty". The sealed protocol must hold it on every schedule;
//! the planted flag-then-walk twin must be caught losing the item. The
//! list's first ring has order 1 under the cfg and `ring_order` is 2, so
//! the enqueuer that finds the first ring exhausted crosses the spill from
//! the small ring to a full-size one, twice its size.
//!
//! **An EMPTY after an EMPTY.** A dequeue that follows its thread's EMPTY
//! on the same head ring answers EMPTY if the ring proves itself empty and
//! `next` is still null. [`TinyRing`]'s proof is its item queue read empty
//! under the mutex, closed or not, so the `next` read is all that stands
//! between a drained ring with a successor and a wrong EMPTY. One model
//! races a consumer polling twice, the second time through that shortcut,
//! against an enqueuer whose item spills behind the drained first ring.
//! Property: exactly-once delivery, and no EMPTY from a poll that started
//! after the enqueue returned `Ok`, unless an earlier poll took the item.
//! The planted twin that trusts the proof without reading `next` must be
//! caught answering that EMPTY.
//!
//! **Kept slots.** The list leaves its hazard slots published between calls
//! and `Domain::protect` publishes nothing while the slot already names the
//! ring; the hazard slots come from the sync facade too, so the publish, the
//! own-slot compare and every slot load of a scan are decision points. One
//! model runs the list over watched rings (they count the threads inside
//! them): a feeder enqueues twice, the second time through the elided
//! publication, while a churner overflows the first ring, drains it, swings
//! `head` past it and scans. Property: no ring is dropped with a thread
//! inside it, and every `Ok` item is delivered exactly once. A second model
//! cuts the rule down to one cell and one slot, so that the twin can be
//! planted in it: enter, enter again (elided), clear, enter again, against
//! replace + retire + scan. `protect` must hold it on every schedule; the
//! planted twin that compares against a remembered copy of the pointer
//! instead of the live slot must be caught entering a reclaimed ring.
#![cfg(loom)]

use lcrq_core::config::LcrqConfig;
use lcrq_core::crq::CrqClosed;
use lcrq_core::{Ring, RingList};
use lcrq_hazard::Domain;
use lcrq_util::model::{thread, Builder, Report};
use lcrq_util::sync::{AtomicBool, AtomicPtr, Mutex, Ordering};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::Arc;

/// Runs a planted-bug model and returns the failure the checker reports.
fn rejection(model: impl FnOnce() -> Report + std::panic::UnwindSafe) -> String {
    let payload =
        std::panic::catch_unwind(model).expect_err("the checker must reject the planted twin");
    let msg = payload.downcast_ref::<String>();
    msg.expect("model failures carry a String").clone()
}

/// A ring that accepts `2^order` enqueues in its lifetime and throws its
/// tantrum at the next (no wrap-around, like a chunk of the Figure-2
/// infinite array). Trivially linearizable: one mutex around its whole
/// state. Under the cfg the list's first ring has order 1, so it takes two.
///
/// A `WATCHED` ring also counts the threads inside `enqueue`/`dequeue`.
/// Entering and acting are two critical sections, so the scheduler can have
/// the ring retired and reclaimed between them, and a reclaimed ring must be
/// vacant.
struct TinyRing<const WATCHED: bool = false> {
    state: Mutex<TinyState>,
    order: u32,
    next: AtomicPtr<Self>,
}

#[derive(Default)]
struct TinyState {
    items: VecDeque<u64>,
    accepted: usize,
    closed: bool,
    inside: usize,
}

impl<const WATCHED: bool> TinyRing<WATCHED> {
    /// Runs `op` on the state, as a thread inside the ring if it is watched.
    fn inside<T>(&self, op: impl FnOnce(&mut TinyState) -> T) -> T {
        if WATCHED {
            self.state.lock().unwrap().inside += 1;
        }
        let mut s = self.state.lock().unwrap();
        if WATCHED {
            s.inside -= 1;
        }
        op(&mut s)
    }
}

impl<const WATCHED: bool> Drop for TinyRing<WATCHED> {
    fn drop(&mut self) {
        // Not while unwinding out of a failed execution: a second panic
        // would abort the test process.
        if !std::thread::panicking() {
            let inside = self.state.get_mut().inside;
            assert_eq!(inside, 0, "ring dropped while a thread is inside it");
        }
    }
}

impl<const WATCHED: bool> Ring for TinyRing<WATCHED> {
    fn new(_config: &LcrqConfig, order: u32) -> Self {
        TinyRing {
            state: Mutex::new(TinyState::default()),
            order,
            next: AtomicPtr::new(core::ptr::null_mut()),
        }
    }
    fn order(&self) -> u32 {
        self.order
    }
    fn enqueue(&self, value: u64) -> Result<(), CrqClosed> {
        self.inside(|s| {
            if s.accepted == 1 << self.order {
                s.closed = true;
            }
            if s.closed {
                return Err(CrqClosed);
            }
            s.items.push_back(value);
            s.accepted += 1;
            Ok(())
        })
    }
    fn dequeue(&self) -> Option<u64> {
        self.inside(|s| s.items.pop_front())
    }
    fn close(&self) {
        self.state.lock().unwrap().closed = true;
    }
    fn is_closed(&self) -> bool {
        self.state.lock().unwrap().closed
    }
    fn next(&self) -> &AtomicPtr<Self> {
        &self.next
    }
    fn head_index(&self) -> u64 {
        0
    }
    fn tail_index(&self) -> u64 {
        self.state.lock().unwrap().items.len() as u64
    }
    const PROVES_EMPTY: bool = true;
    // Empty, closed or not: only the list's `next` read keeps a drained ring
    // with a successor from answering EMPTY.
    fn proves_empty(&self) -> bool {
        self.state.lock().unwrap().items.is_empty()
    }
    fn name(_hierarchical: bool) -> &'static str {
        "tiny"
    }
}

type TinyList = RingList<TinyRing>;

/// A shutdown protocol: how producers enqueue and how the queue is closed.
#[derive(Clone, Copy)]
struct Protocol {
    try_enqueue: fn(&TinyList, u64) -> Result<(), u64>,
    close: fn(&TinyList) -> bool,
}

/// One enqueuer × one closer × one settle-polling consumer.
///
/// `exhausted` puts the enqueuer where the lost item lived: the tail ring
/// has used up both its slots (and been drained), so the enqueue finds it
/// closed and goes to link a fresh full-size ring. Otherwise the tail ring
/// is open and the enqueue races the close inside it.
///
/// The exhausted space is 42 132 schedules: the consumer that swings `head`
/// past the drained ring scans at once, and every slot that scan loads is a
/// decision point, and a settle poll's second dequeue that follows an EMPTY
/// on the same ring asks the ring's proof and reads `next` first. The open
/// one is 25 674.
fn settle_model(p: Protocol, exhausted: bool) -> Report {
    Builder {
        max_executions: 42_200,
        ..Builder::new()
    }
    .check(move || {
        let q = Arc::new(TinyList::with_config(LcrqConfig::new().with_ring_order(2)));
        if exhausted {
            q.enqueue(1);
            q.enqueue(2);
            assert_eq!((q.dequeue(), q.dequeue()), (Some(1), Some(2)));
        }
        let (qe, qc, qr) = (Arc::clone(&q), Arc::clone(&q), Arc::clone(&q));
        let enqueuer = thread::spawn(move || (p.try_enqueue)(&qe, 3).is_ok());
        let closer = thread::spawn(move || (p.close)(&qc));
        let consumer = thread::spawn(move || {
            let first = qr.dequeue();
            let closed = qr.is_closed();
            (first, closed, qr.dequeue())
        });
        let accepted = enqueuer.join().unwrap();
        assert!(
            closer.join().unwrap(),
            "the only closer reports the transition"
        );
        let (first, closed, second) = consumer.join().unwrap();
        let leftover: Vec<u64> = q.drain().collect();
        if closed && second.is_none() {
            // The settle poll concluded "closed and empty": final.
            assert!(leftover.is_empty(), "lost item: accepted after the settle");
        }
        let delivered = first.iter().chain(&second).chain(&leftover).count();
        assert_eq!(delivered, accepted as usize, "accepted != delivered");
        assert_eq!((p.try_enqueue)(&q, 4), Err(4), "closed stays closed");
    })
}

#[test]
fn sealed_close_never_loses_an_accepted_item() {
    for exhausted in [true, false] {
        let sealed = Protocol {
            try_enqueue: TinyList::try_enqueue,
            close: TinyList::close,
        };
        let report = settle_model(sealed, exhausted);
        assert!(
            report.executions > 1,
            "must explore >1 interleaving: {report:?}"
        );
        assert!(report.complete, "bounded space not exhausted: {report:?}");
    }
}

#[test]
fn flag_then_walk_close_is_caught_losing_an_item() {
    // The planted twin: shutdown is a flag enqueuers check and `close`
    // raises before walking the chain closing rings; every `next` stays
    // null. An enqueuer that found its ring closed and re-checked the flag
    // just before it was raised links a fresh ring after the walk — and
    // after the consumer concluded.
    let unsealed = Protocol {
        try_enqueue: TinyList::try_enqueue_flag_checked,
        close: TinyList::close_flag_then_walk,
    };
    let msg = rejection(|| settle_model(unsealed, true));
    assert!(msg.contains("lost item"), "wrong failure: {msg}");
}

/// One enqueuer × one consumer that polls twice, the second time after an
/// EMPTY on the same head ring, so through the list's read-only EMPTY. The
/// first ring has used up both its slots and been drained before the
/// threads start, so the enqueue closes it and spills its item into a
/// full-size ring linked behind it. `poll` is the consumer's dequeue.
///
/// Properties: the item of an `Ok` enqueue is delivered exactly once, and
/// a poll that starts after that enqueue returned does not answer EMPTY
/// unless an earlier poll took the item.
fn poll_model(poll: fn(&TinyList) -> Option<u64>) -> Report {
    Builder::new().check(move || {
        let q = Arc::new(TinyList::with_config(LcrqConfig::new().with_ring_order(2)));
        q.enqueue(1);
        q.enqueue(2);
        assert_eq!((q.dequeue(), q.dequeue()), (Some(1), Some(2)));
        let returned = Arc::new(AtomicBool::new(false));
        let (qe, qr) = (Arc::clone(&q), Arc::clone(&q));
        let flag = Arc::clone(&returned);
        let enqueuer = thread::spawn(move || {
            let accepted = qe.try_enqueue(3).is_ok();
            flag.store(accepted, Ordering::SeqCst);
            accepted
        });
        let consumer = thread::spawn(move || {
            let first = poll(&qr);
            let after_ok = returned.load(Ordering::SeqCst);
            (first, after_ok, poll(&qr))
        });
        let accepted = enqueuer.join().unwrap();
        let (first, after_ok, second) = consumer.join().unwrap();
        if after_ok && first.is_none() {
            assert_eq!(second, Some(3), "dishonest EMPTY after an Ok enqueue");
        }
        let leftover: Vec<u64> = q.drain().collect();
        let delivered = first.iter().chain(&second).chain(&leftover).count();
        assert_eq!(delivered, accepted as usize, "accepted != delivered");
    })
}

#[test]
fn an_empty_after_an_empty_is_honest() {
    let report = poll_model(TinyList::dequeue);
    assert!(
        report.executions > 1,
        "must explore >1 interleaving: {report:?}"
    );
    assert!(report.complete, "bounded space not exhausted: {report:?}");
}

#[test]
fn trusting_the_proof_without_next_is_caught_answering_empty() {
    // The planted twin: the second poll answers EMPTY on the ring's proof
    // alone. The drained first ring proves empty while its successor holds
    // the item.
    let msg = rejection(|| poll_model(TinyList::dequeue_trusting_the_proof));
    assert!(msg.contains("dishonest EMPTY"), "wrong failure: {msg}");
}

type WatchedRing = TinyRing<true>;

#[test]
fn kept_tail_slot_pins_its_ring_until_its_thread_moves_on() {
    let report = Builder::new().check(|| {
        let q = Arc::new(RingList::<WatchedRing>::new());
        let (q1, q2) = (Arc::clone(&q), Arc::clone(&q));
        // The second enqueue finds HP_TAIL still naming the tail ring and
        // enters it without publishing anything.
        let feeder = thread::spawn(move || [1, 2].map(|v| q1.try_enqueue(v).map_or(0, |()| v)));
        let churner = thread::spawn(move || {
            // Three enqueues overflow the first ring whatever the feeder
            // put into it; three dequeues drain it, swing `head` past it
            // and retire it.
            [11, 12, 13].into_iter().for_each(|v| q2.enqueue(v));
            let got = [(); 3].map(|()| q2.dequeue());
            // The list scanned as it retired the first ring; scan again,
            // later, which drops the ring unless the feeder still pins it.
            q2.hazard_domain().scan();
            got
        });
        let accepted = feeder.join().unwrap();
        let got = churner.join().unwrap();
        let mut delivered: Vec<u64> = got.into_iter().flatten().chain(q.drain()).collect();
        delivered.sort_unstable();
        let mut expected: Vec<u64> = accepted.into_iter().filter(|&v| v != 0).collect();
        expected.extend([11, 12, 13]);
        assert_eq!(delivered, expected, "an Ok item was lost or duplicated");
    });
    assert!(
        report.executions > 1,
        "must explore >1 interleaving: {report:?}"
    );
    assert!(report.complete, "bounded space not exhausted: {report:?}");
}

/// How a thread protects the ring `src` names: `(domain, slot, src, last)`,
/// where `last` is the caller's cell that only the twin uses.
type Protect =
    fn(&Domain, usize, &AtomicPtr<WatchedRing>, &Cell<*mut WatchedRing>) -> *mut WatchedRing;

/// Reclaimer of [`keep_model`]: looks, does not free (the model's root does,
/// at the end), so the planted twin is caught by this assertion and not by
/// its victim touching freed memory.
unsafe fn inspect(ring: *mut ()) {
    // SAFETY: still allocated, see above.
    let inside = unsafe { &*(ring as *const WatchedRing) }
        .state
        .lock()
        .unwrap()
        .inside;
    assert_eq!(inside, 0, "ring reclaimed while a thread is inside it");
}

/// The list's keep rule cut down to one cell, where the twin can be planted:
/// `cell` names the ring in use, as `tail` does. A user enters that ring
/// three times under `protect` — the second time with its slot still in
/// place, the third after clearing it, as a thread that saw the ring go out
/// of use does — while a retirer replaces the ring, retires the old one and
/// scans.
fn keep_model(protect: Protect) -> Report {
    Builder::new().check(move || {
        let domain = Domain::new();
        let rings =
            [(); 2].map(|()| Box::into_raw(Box::new(WatchedRing::new(&LcrqConfig::new(), 1))));
        let cell = Arc::new(AtomicPtr::new(rings[0]));
        let user = {
            let (domain, cell) = (domain.clone(), Arc::clone(&cell));
            thread::spawn(move || {
                let last = Cell::new(core::ptr::null_mut());
                for (value, clear_first) in [(1, false), (2, false), (3, true)] {
                    if clear_first {
                        domain.clear(0);
                    }
                    let ring = protect(&domain, 0, &cell, &last);
                    // SAFETY: protected; and if `protect` is the twin and it
                    // is not, still allocated (see `inspect`).
                    let _ = unsafe { &*ring }.enqueue(value);
                }
            })
        };
        let retirer = {
            let (domain, cell, fresh) = (domain.clone(), Arc::clone(&cell), rings[1] as usize);
            thread::spawn(move || {
                let old = cell.swap(fresh as *mut WatchedRing, Ordering::SeqCst);
                // SAFETY: unlinked by the swap, retired once, never freed by
                // `inspect`.
                unsafe { domain.retire_with(old as *mut (), inspect) };
                domain.scan();
            })
        };
        user.join().unwrap();
        retirer.join().unwrap();
        // The last handle: whatever is still retired is inspected now.
        drop(domain);
        for ring in rings {
            // SAFETY: both threads are done and nothing else frees a ring.
            drop(unsafe { Box::from_raw(ring) });
        }
    })
}

#[test]
fn protect_keeps_a_ring_that_is_cleared_and_entered_again() {
    let report = keep_model(|domain, slot, src, _| domain.protect(slot, src));
    assert!(
        report.executions > 1,
        "must explore >1 interleaving: {report:?}"
    );
    assert!(report.complete, "bounded space not exhausted: {report:?}");
}

#[test]
fn remembered_pointer_is_caught_entering_a_reclaimed_ring() {
    // The planted twin: the elision compares `src` against a remembered
    // copy instead of the live slot. The clear empties the slot, the copy
    // still matches, and the third entry goes in with nothing published.
    let msg = rejection(|| keep_model(Domain::protect_remembering));
    assert!(
        msg.contains("reclaimed while a thread is inside"),
        "wrong failure: {msg}"
    );
}

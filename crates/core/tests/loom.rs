//! Model-checked interleavings of the `RingPool` slot claim and of the list
//! of rings' shutdown protocol, run by the ci.sh loom gate:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p lcrq-core --test loom -q
//! ```
//!
//! **Pool.** The pool is `capacity` pointer slots: `push` CASes `null →
//! ring` into a vacant slot, `pop` swaps an occupied slot to null, and
//! whoever's swap returns the pointer owns the ring. The model races a
//! thread that pops twice and pushes both rings back against a thread that
//! pops once, over a full two-slot pool. Property: every ring is delivered
//! exactly once, none is lost, and `len()` never exceeds the capacity. The
//! swap must hold it on every schedule; the planted load-then-`store(null)`
//! twin must be caught handing one ring to two poppers.
//!
//! **Close.** `RingList`'s `head`/`tail`/`closed` and every ring's `next`
//! come from the sync facade, so each step of enqueue, `close()` and
//! dequeue is a decision point. The models run the list over [`TinyRing`]
//! — a two-slot ring whose body is a mutex, so the schedule budget goes to
//! the *list* protocol — and race one enqueuer, one `close()` and one
//! consumer doing the channel's settle poll (`dequeue`, `is_closed`,
//! `dequeue`). Property: an enqueue that returned `Ok` is delivered exactly
//! once, and never after the consumer has concluded "closed and empty".
//! The sealed protocol must hold it on every schedule; the planted
//! flag-then-walk twin must be caught losing the item.
#![cfg(loom)]

use lcrq_core::config::LcrqConfig;
use lcrq_core::crq::{Crq, CrqClosed};
use lcrq_core::pool::RingPool;
use lcrq_core::{Ring, RingList};
use lcrq_util::model::{thread, Builder, Report};
use lcrq_util::sync::{AtomicPtr, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;

/// Two parked rings; a cycler pops both and pushes both back while a racer
/// pops one. `pop` is the claim under test.
fn pool_model(pop: fn(&RingPool) -> Option<Box<Crq>>) -> Report {
    Builder {
        max_executions: 2_000,
        ..Builder::new()
    }
    .check(move || {
        let pool = RingPool::new(2);
        let config = LcrqConfig::new().with_ring_order(2);
        let mut parked = Vec::new();
        for _ in 0..2 {
            let ring = Box::new(Crq::new(&config));
            parked.push(&*ring as *const Crq as usize);
            assert!(pool.push(ring).is_ok());
        }
        let (p1, p2) = (Arc::clone(&pool), Arc::clone(&pool));
        let cycler = thread::spawn(move || {
            // The racer may hold one ring, so the second pop can miss.
            let held: Vec<Box<Crq>> = [pop(&p1), pop(&p1)].into_iter().flatten().collect();
            for ring in held {
                assert!(p1.len() <= p1.capacity());
                assert!(p1.push(ring).is_ok(), "nobody else pushes");
            }
        });
        // Rings travel as addresses: a double hand-off must be compared,
        // not dropped twice.
        let racer = thread::spawn(move || pop(&p2).map(|r| Box::into_raw(r) as usize));
        cycler.join().unwrap();
        let stolen = racer.join().unwrap();
        assert!(pool.len() <= pool.capacity());
        let mut seen: Vec<usize> = stolen.into_iter().collect();
        while let Some(r) = pop(&pool) {
            seen.push(Box::into_raw(r) as usize);
        }
        seen.sort_unstable();
        parked.sort_unstable();
        assert_eq!(seen, parked, "a ring was lost or delivered twice");
        for addr in seen {
            // SAFETY: `seen == parked`, so each address is one distinct ring
            // that was popped (hence exclusively owned) exactly once.
            drop(unsafe { Box::from_raw(addr as *mut Crq) });
        }
    })
}

#[test]
fn racing_pops_and_repushes_deliver_every_ring_exactly_once() {
    let report = pool_model(RingPool::pop);
    assert!(
        report.executions > 1,
        "must explore >1 interleaving: {report:?}"
    );
    assert!(report.complete, "bounded space not exhausted: {report:?}");
}

/// Runs a planted-bug model and returns the failure the checker reports.
fn rejection(model: impl FnOnce() -> Report + std::panic::UnwindSafe) -> String {
    let payload =
        std::panic::catch_unwind(model).expect_err("the checker must reject the planted twin");
    let msg = payload.downcast_ref::<String>();
    msg.expect("model failures carry a String").clone()
}

#[test]
fn load_then_store_pop_is_caught_delivering_a_ring_twice() {
    let msg = rejection(|| pool_model(RingPool::pop_load_then_store));
    assert!(msg.contains("delivered twice"), "wrong failure: {msg}");
}

/// A ring that accepts two enqueues in its lifetime and throws its tantrum
/// at the third (no wrap-around, like a chunk of the Figure-2 infinite
/// array). Trivially linearizable: one mutex around `(items, accepted,
/// closed)`.
struct TinyRing {
    state: Mutex<(VecDeque<u64>, usize, bool)>,
    next: AtomicPtr<TinyRing>,
}

impl Ring for TinyRing {
    fn new(_config: &LcrqConfig) -> Self {
        TinyRing {
            state: Mutex::new((VecDeque::new(), 0, false)),
            next: AtomicPtr::new(core::ptr::null_mut()),
        }
    }
    fn enqueue(&self, value: u64) -> Result<(), CrqClosed> {
        let mut s = self.state.lock().unwrap();
        if s.1 == 2 {
            s.2 = true;
        }
        if s.2 {
            return Err(CrqClosed);
        }
        s.0.push_back(value);
        s.1 += 1;
        Ok(())
    }
    fn dequeue(&self) -> Option<u64> {
        self.state.lock().unwrap().0.pop_front()
    }
    fn close(&self) {
        self.state.lock().unwrap().2 = true;
    }
    fn is_closed(&self) -> bool {
        self.state.lock().unwrap().2
    }
    fn next(&self) -> &AtomicPtr<Self> {
        &self.next
    }
    fn head_index(&self) -> u64 {
        0
    }
    fn tail_index(&self) -> u64 {
        self.state.lock().unwrap().0.len() as u64
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
/// closed and goes to link a fresh ring. Otherwise the tail ring is open
/// and the enqueue races the close inside it.
fn settle_model(p: Protocol, exhausted: bool) -> Report {
    Builder {
        max_executions: 40_000,
        ..Builder::new()
    }
    .check(move || {
        let q = Arc::new(TinyList::new());
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

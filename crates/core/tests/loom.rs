//! Model-checked interleavings of the `RingPool` versioned Treiber stack
//! and of the list of rings' shutdown protocol, run by the ci.sh loom gate:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p lcrq-core --test loom -q
//! ```
//!
//! **Pool.** The property under test is exactly-once hand-off through the pop ABA
//! window: a popper reads `top = (v, A)` and `A.next`, then CASes
//! `(v, A) -> (v+1, next)`. Without the version word, a concurrent
//! pop/re-push of `A` would let that stale CAS succeed and corrupt the
//! stack; the version forces it to fail. These models drive poppers and
//! re-pushers through that window and assert no ring is ever delivered
//! twice or lost. Under `--cfg loom` every `AtomicPair` op goes through
//! the instrumented seqlock fallback and the pool's shard striping is
//! keyed by model thread id, so schedules replay deterministically.
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
use lcrq_hazard::Domain;
use lcrq_util::model::{thread, Builder, Report};
use lcrq_util::sync::{AtomicPtr, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;

fn ring() -> Box<Crq> {
    Box::new(Crq::new(&LcrqConfig::new().with_ring_order(2)))
}

/// Pops one ring and returns its address (the Box is re-materialized by
/// the caller so rings can be compared across threads).
fn pop_addr(pool: &RingPool, domain: &Domain) -> Option<usize> {
    pool.pop(domain, 0).map(|r| Box::into_raw(r) as usize)
}

/// Reclaims a ring previously leaked by [`pop_addr`].
///
/// # Safety
/// `addr` must come from `pop_addr` and not have been freed already.
unsafe fn free_addr(addr: usize) {
    drop(Box::from_raw(addr as *mut Crq));
}

#[test]
fn two_racing_poppers_get_distinct_rings() {
    let report = Builder {
        max_executions: 2_000,
        ..Builder::new()
    }
    .check(|| {
        // Capacity 3 => 3 shards. The root (model tid 0) pushes three
        // rings: the first parks in shard[0], the rest go to the Treiber
        // stack — which tids 1 and 2 (shards empty) then race to pop.
        let pool = RingPool::new(3);
        let domain = Arc::new(Domain::new());
        for _ in 0..3 {
            assert!(pool.push(ring()).is_ok());
        }
        let (p1, d1) = (Arc::clone(&pool), Arc::clone(&domain));
        let (p2, d2) = (Arc::clone(&pool), Arc::clone(&domain));
        let t1 = thread::spawn(move || pop_addr(&p1, &d1));
        let t2 = thread::spawn(move || pop_addr(&p2, &d2));
        let a = t1.join().unwrap().expect("popper 1 found the stack empty");
        let b = t2.join().unwrap().expect("popper 2 found the stack empty");
        assert_ne!(a, b, "one ring delivered to two poppers");
        assert_eq!(pool.len(), 1, "a ring was lost or double-counted");
        let c = pop_addr(&pool, &domain).expect("third ring");
        assert_ne!(c, a);
        assert_ne!(c, b);
        // SAFETY: each address was popped (hence exclusively owned) and is
        // freed exactly once.
        unsafe {
            free_addr(a);
            free_addr(b);
            free_addr(c);
        }
    });
    assert!(
        report.executions > 1,
        "must explore >1 interleaving: {report:?}"
    );
}

#[test]
fn stale_version_cas_is_defeated_by_pop_repush() {
    let report = Builder {
        max_executions: 2_000,
        ..Builder::new()
    }
    .check(|| {
        // Capacity 4 => 4 shards. The root fills shard[0] and leaves three
        // rings on the stack. Thread 1 pops twice and pushes both back
        // (its first push lands in its empty shard[1], forcing the second
        // back onto the *stack* — re-creating the classic ABA shape where
        // a previously-seen head pointer returns with a bumped version).
        // Thread 2 pops once, concurrently, possibly holding a stale
        // (version, ptr) snapshot across the whole dance.
        let pool = RingPool::new(4);
        let domain = Arc::new(Domain::new());
        for _ in 0..4 {
            assert!(pool.push(ring()).is_ok());
        }
        let (p1, d1) = (Arc::clone(&pool), Arc::clone(&domain));
        let (p2, d2) = (Arc::clone(&pool), Arc::clone(&domain));
        let t1 = thread::spawn(move || {
            let a = p1.pop(&d1, 0).expect("cycler pop 1");
            let b = p1.pop(&d1, 0).expect("cycler pop 2");
            assert!(p1.push(a).is_ok());
            assert!(p1.push(b).is_ok());
        });
        let t2 = thread::spawn(move || pop_addr(&p2, &d2));
        t1.join().unwrap();
        let stolen = t2.join().unwrap().expect("racer pop");
        // The cycler's net effect is zero, so exactly 3 rings remain and
        // none of them may alias the racer's ring (exactly-once).
        assert_eq!(pool.len(), 3, "ABA corrupted the stack length");
        let mut rest = Vec::new();
        while let Some(addr) = pop_addr(&pool, &domain) {
            rest.push(addr);
        }
        assert_eq!(rest.len(), 3, "a ring was lost in the ABA window");
        for &r in &rest {
            assert_ne!(r, stolen, "ring delivered twice through a stale CAS");
        }
        // All survivors distinct among themselves, too.
        let mut sorted = rest.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "duplicate ring in the drained stack");
        // SAFETY: every address was popped exactly once above.
        unsafe {
            free_addr(stolen);
            for r in rest {
                free_addr(r);
            }
        }
    });
    assert!(report.executions > 1);
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
    let r = std::panic::catch_unwind(|| settle_model(unsealed, true));
    let payload = r.expect_err("the checker must reject the unsealed close");
    let msg = payload
        .downcast_ref::<String>()
        .expect("model failures carry a String");
    assert!(msg.contains("lost item"), "wrong failure: {msg}");
}

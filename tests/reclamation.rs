//! Memory-reclamation integration tests: retired CRQs are freed (or, with
//! the recycling pool, scrubbed and reused), typed values are dropped
//! exactly once, sustained ring churn does not accumulate unbounded
//! garbage, and steady-state churn through the pool allocates nothing.

mod common;

use common::adversarial_preemption;
use lcrq::hazard::Domain;
use lcrq::util::metrics::{self, Event};
use lcrq::{
    Crq, Lcrq, LcrqConfig, Lscq, Ring, RingPool, ScqD, TypedLcrq, TypedLscq, TypedWcq, Wcq,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

struct DropCounter(Arc<AtomicUsize>);
impl Drop for DropCounter {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn typed_values_drop_exactly_once_through_ring_churn() {
    let drops = Arc::new(AtomicUsize::new(0));
    let q: TypedLcrq<DropCounter> = TypedLcrq::with_config(LcrqConfig::new().with_ring_order(2)); // R = 4
    const N: usize = 5_000;
    for _ in 0..N {
        q.enqueue(DropCounter(Arc::clone(&drops)));
    }
    for _ in 0..N / 2 {
        drop(q.dequeue().expect("items present"));
    }
    assert_eq!(drops.load(Ordering::SeqCst), N / 2);
    drop(q);
    assert_eq!(drops.load(Ordering::SeqCst), N, "queue drop frees the rest");
}

#[test]
fn ring_churn_does_not_accumulate_rings() {
    // Constant spill through tiny rings: after a drain + eager reclaim the
    // list must be back to a handful of rings.
    let q = Lcrq::with_config(LcrqConfig::new().with_ring_order(2));
    for round in 0..200u64 {
        for i in 0..100 {
            q.enqueue(round * 1000 + i);
        }
        for i in 0..100 {
            assert_eq!(q.dequeue(), Some(round * 1000 + i));
        }
    }
    assert!(
        q.ring_count() <= 3,
        "live ring chain should stay short, got {}",
        q.ring_count()
    );
}

#[test]
fn concurrent_churn_then_quiescent_drop() {
    // Hazard-protected rings may be retired while other threads still hold
    // them; after all threads quiesce, dropping the queue must free
    // everything without crashes (validated under the default allocator;
    // UAF/double-free would abort).
    let q = Lcrq::with_config(LcrqConfig::new().with_ring_order(3));
    let q = &q;
    std::thread::scope(|s| {
        for t in 0..4u64 {
            s.spawn(move || {
                for i in 0..10_000u64 {
                    q.enqueue(t << 40 | i);
                    let _ = q.dequeue();
                }
            });
        }
    });
    while q.dequeue().is_some() {}
}

#[test]
fn many_short_lived_queues_do_not_leak_or_crash() {
    for i in 0..300 {
        let q = Lcrq::with_config(LcrqConfig::new().with_ring_order(2));
        for v in 0..50 {
            q.enqueue(v + i);
        }
        // Half-drained drop.
        for _ in 0..25 {
            let _ = q.dequeue();
        }
    }
}

// ---------------------------------------------------------------------------
// Recycle-pool suite: the bounded ring pool replaces retire-means-free with
// retire-means-recycle (see DESIGN.md "Ring recycling").
// ---------------------------------------------------------------------------

/// Single-threaded spill churn: every round overflows the tiny ring several
/// times, so each round closes and retires rings.
fn churn_rounds(q: &Lcrq, rounds: u64) {
    for round in 0..rounds {
        for i in 0..16 {
            q.enqueue(round * 100 + i);
        }
        for i in 0..16 {
            assert_eq!(q.dequeue(), Some(round * 100 + i));
        }
    }
}

#[test]
fn steady_state_ring_churn_allocates_zero() {
    let q = Lcrq::with_config(
        LcrqConfig::new()
            .with_ring_order(2) // R = 4: 16 items/round force >= 3 closes
            .with_ring_pool_capacity(4),
    );
    churn_rounds(&q, 50); // warm the pool
    let before = metrics::local_snapshot();
    churn_rounds(&q, 200);
    let d = metrics::local_snapshot().delta_since(&before);
    assert_eq!(
        d.get(Event::RingAlloc),
        0,
        "steady-state spills must be served from the pool"
    );
    assert!(
        d.get(Event::RingReuse) >= 200,
        "every round spills through recycled rings, got {}",
        d.get(Event::RingReuse)
    );
}

#[test]
fn disabled_pool_allocates_per_spill_like_before() {
    let q = Lcrq::with_config(
        LcrqConfig::new()
            .with_ring_order(2)
            .with_ring_pool_capacity(0),
    );
    churn_rounds(&q, 20);
    let before = metrics::local_snapshot();
    churn_rounds(&q, 50);
    let d = metrics::local_snapshot().delta_since(&before);
    assert_eq!(d.get(Event::RingReuse), 0, "pool disabled: no reuse");
    assert!(d.get(Event::RingAlloc) > 0, "every spill allocates");
    assert_eq!(q.ring_pool().len(), 0);
    assert_eq!(q.ring_pool().capacity(), 0);
}

#[test]
fn typed_values_drop_exactly_once_across_spill_reuse_cycles() {
    let drops = Arc::new(AtomicUsize::new(0));
    let q: TypedLcrq<DropCounter> = TypedLcrq::with_config(
        LcrqConfig::new()
            .with_ring_order(2)
            .with_ring_pool_capacity(4),
    );
    let mut expected = 0usize;
    // Several cycles so values live in recycled rings, with a residue left
    // behind each cycle that the next cycle drains.
    for cycle in 0..50 {
        for _ in 0..20 {
            q.enqueue(DropCounter(Arc::clone(&drops)));
        }
        let take = 10 + cycle % 11; // drain unevenly across ring boundaries
        for _ in 0..take {
            if let Some(v) = q.dequeue() {
                drop(v);
                expected += 1;
            }
        }
        assert_eq!(drops.load(Ordering::SeqCst), expected);
    }
    // The rest (in live rings, some of them recycled incarnations) drop with
    // the queue, exactly once each.
    drop(q);
    assert_eq!(drops.load(Ordering::SeqCst), 50 * 20);
}

#[test]
fn pool_never_exceeds_its_configured_bound() {
    let q = Lcrq::with_config(
        LcrqConfig::new()
            .with_ring_order(2)
            .with_ring_pool_capacity(2),
    );
    assert_eq!(q.ring_pool().capacity(), 2);
    for round in 0..100 {
        churn_rounds(&q, 1);
        assert!(
            q.ring_pool().len() <= 2,
            "round {round}: pool len {} exceeds bound",
            q.ring_pool().len()
        );
    }
    // And concurrently, sampled while churn is in flight.
    let q = &q;
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(move || {
                for round in 0..2_000u64 {
                    for i in 0..16 {
                        q.enqueue(round * 100 + i);
                    }
                    for _ in 0..16 {
                        let _ = q.dequeue();
                    }
                }
            });
        }
        s.spawn(move || {
            for _ in 0..10_000 {
                assert!(q.ring_pool().len() <= 2, "bound violated under churn");
            }
        });
    });
}

#[test]
fn full_pool_refuses_rings_without_scrubbing_them() {
    // A drain retires rings far faster than spills take them back: with two
    // vacancies and >= 40 retired rings per drain, a push that scrubbed
    // before looking for a slot would rewrite every one of them for nothing.
    let q = Lcrq::with_config(
        LcrqConfig::new()
            .with_ring_order(2)
            .with_ring_pool_capacity(2),
    );
    let before = metrics::local_snapshot();
    for _ in 0..2 {
        for i in 0..200 {
            q.enqueue(i);
        }
        assert!(q.ring_count() >= 40);
        assert_eq!(q.drain().count(), 200);
    }
    let d = metrics::local_snapshot().delta_since(&before);
    assert_eq!(
        d.get(Event::RingScrub),
        d.get(Event::RingReuse) + q.ring_pool().len() as u64,
        "every scrubbed ring was parked: reused since, or still pooled"
    );
    assert_eq!(q.ring_pool().len(), 2);
}

// --- What a kept hazard slot pins. The list leaves its head and tail slots
// published between calls (DESIGN.md "List of rings"), so an idle thread can
// hold back the ring it last used, and nothing else. Pool capacity 64: a
// reclaimed ring is scrubbed into the pool, which the scanning thread counts.

fn pinning_queue() -> Lcrq {
    Lcrq::with_config(
        LcrqConfig::new()
            .with_ring_order(2) // R = 4
            .with_ring_pool_capacity(64),
    )
}

/// Main's side of the pinning tests: spill `q` ten rings past wherever it
/// is, drain it dry, scan. Returns `(rings retired, rings scrubbed)`; what
/// was retired and not scrubbed is still in main's retired list.
fn spill_drain_scan(q: &Lcrq) -> (u64, u64) {
    let before = metrics::local_snapshot();
    for i in 0..40 {
        q.enqueue(i);
    }
    let rings = q.ring_count() as u64;
    assert!(rings >= 10);
    assert!(q.drain().count() >= 40);
    q.hazard_domain().scan();
    let d = metrics::local_snapshot().delta_since(&before);
    assert_eq!(q.ring_count(), 1, "drained down to the last ring");
    (rings - 1, d.get(Event::RingScrub))
}

#[test]
fn idle_producer_pins_only_the_ring_it_last_used() {
    use std::sync::mpsc::channel;
    let q = &pinning_queue();
    let (to_t1, t1_inbox) = channel::<()>();
    let (to_main, inbox) = channel::<()>();
    std::thread::scope(|s| {
        s.spawn(move || {
            for _ in 0..2 {
                q.enqueue(7); // keeps HP_TAIL on the ring it went into
                to_main.send(()).unwrap();
                t1_inbox.recv().unwrap();
            }
        });
        inbox.recv().unwrap();
        // T1 idles on the first ring while main retires it and nine more.
        let (retired, scrubbed) = spill_drain_scan(q);
        assert_eq!(scrubbed, retired - 1, "every retired ring but T1's");
        assert_eq!(q.hazard_domain().retired_count(), 1);
        // T1's next enqueue moves its slot to the ring in use now.
        to_t1.send(()).unwrap();
        inbox.recv().unwrap();
        let before = metrics::local_snapshot();
        q.hazard_domain().scan();
        let d = metrics::local_snapshot().delta_since(&before);
        assert_eq!(d.get(Event::RingScrub), 1);
        assert_eq!(q.hazard_domain().retired_count(), 0);
        to_t1.send(()).unwrap();
    });
}

#[test]
fn consumer_that_saw_empty_pins_nothing() {
    use std::sync::mpsc::channel;
    let q = &pinning_queue();
    q.enqueue(7);
    let (to_t1, t1_inbox) = channel::<()>();
    let (to_main, inbox) = channel::<()>();
    std::thread::scope(|s| {
        s.spawn(move || {
            // Publishes HP_HEAD on the first ring; the EMPTY clears it.
            assert_eq!(q.dequeue(), Some(7));
            assert_eq!(q.dequeue(), None);
            to_main.send(()).unwrap();
            t1_inbox.recv().unwrap();
        });
        inbox.recv().unwrap();
        let (retired, scrubbed) = spill_drain_scan(q);
        assert_eq!(scrubbed, retired);
        assert_eq!(q.hazard_domain().retired_count(), 0);
        to_t1.send(()).unwrap();
    });
}

#[test]
fn exited_thread_pins_nothing() {
    let q = Arc::new(pinning_queue());
    // Exits with both slots published on the first ring. Joined by handle:
    // that waits for the thread's destructors, which a scope's end does not.
    let t1 = {
        let q = Arc::clone(&q);
        std::thread::spawn(move || {
            q.enqueue(7);
            q.enqueue(8);
            assert_eq!(q.dequeue(), Some(7));
        })
    };
    t1.join().unwrap();
    let (retired, scrubbed) = spill_drain_scan(&q);
    assert_eq!(scrubbed, retired);
    assert_eq!(q.hazard_domain().retired_count(), 0);
}

#[test]
fn ring_count_is_safe_against_concurrent_head_swings() {
    // A guard, not a proof: `ring_count` (and `Debug`, which calls it) used
    // to walk the chain unprotected, so with retired rings really freed
    // (pool capacity 0) this was a read of freed memory that might or might
    // not crash. Now the walk is hazard-protected and every answer must be a
    // chain length that can have existed.
    use std::sync::atomic::AtomicBool;
    let q = Lcrq::with_config(
        LcrqConfig::new()
            .with_ring_order(2)
            .with_ring_pool_capacity(0),
    );
    let stop = AtomicBool::new(false);
    let (linked, (least, most)) = std::thread::scope(|s| {
        let churner = s.spawn(|| {
            let before = metrics::local_snapshot();
            churn_rounds(&q, 20_000);
            stop.store(true, Ordering::SeqCst);
            // No pool: every ring ever linked after the first was allocated.
            let d = metrics::local_snapshot().delta_since(&before);
            1 + d.get(Event::RingAlloc) as usize
        });
        let reader = s.spawn(|| {
            let (mut least, mut most) = (usize::MAX, 0);
            while !stop.load(Ordering::SeqCst) {
                let n = q.ring_count();
                (least, most) = (least.min(n), most.max(n));
                assert!(format!("{q:?}").contains("rings"));
            }
            (least, most)
        });
        (churner.join().unwrap(), reader.join().unwrap())
    });
    assert!(1 <= least && most <= linked, "{least}..={most} of {linked}");
    // 16 items in flight at most: five rings of four, and the walk may
    // count a ring or two linked behind it while head stood still.
    assert!(most <= 8, "a chain of {most} rings never existed");
}

// --- ABA regression: a reader stalled with a hazard pointer on a ring must
// not observe scrubbed/reused tuples after the ring is recycled. -----------

static STALL_POOL: OnceLock<Arc<RingPool>> = OnceLock::new();

/// Reclaimer used by the stalled-reader test: park the ring in a pool the
/// test can observe (mirrors the queue-internal recycle callback).
unsafe fn recycle_into_stall_pool(p: *mut ()) {
    // SAFETY: `p` is the Box::into_raw ring retired below; the hazard
    // domain hands it over with sole ownership.
    let ring = unsafe { Box::from_raw(p as *mut Crq) };
    let _ = STALL_POOL.get().unwrap().push(ring);
}

#[test]
fn stalled_hazard_reader_never_observes_a_scrubbed_ring() {
    // Arm the scheduler adversary so the protect/retire interleaving below
    // runs with preemption injected inside read→CAS2 windows too.
    let _adversary = adversarial_preemption(10_000);
    let pool = Arc::clone(STALL_POOL.get_or_init(|| RingPool::new(4)));
    let domain = Domain::new();
    let ring: Box<Crq> = Box::new(Crq::new(&LcrqConfig::new().with_ring_order(3)));
    for i in 0..5 {
        ring.enqueue(i).unwrap();
    }
    while ring.dequeue().is_some() {}
    ring.close();
    let top_before = ring.head_index().max(ring.tail_index());
    let raw = Box::into_raw(ring);

    // A reader stalls holding a hazard pointer on the ring — the position
    // of a dequeuer preempted between protecting the head ring and acting
    // on its (now stale) node views.
    domain.protect_raw(0, raw as *mut ());
    // Meanwhile the ring is retired for recycling.
    // SAFETY: `raw` is unreachable from any queue; the stalled hazard above
    // is exactly what retirement must (and does) respect.
    unsafe { domain.retire_with(raw as *mut (), recycle_into_stall_pool) };
    domain.scan();
    assert_eq!(pool.len(), 0, "protected ring must not be recycled");
    // The stalled reader's world is intact: no scrub happened, so every
    // tuple it can see is from its own epoch.
    // SAFETY: still hazard-protected.
    let r = unsafe { &*raw };
    assert_eq!(r.reuse_epoch(), 0, "no scrub while a hazard is held");
    assert!(r.is_closed());
    assert!(r.head_index().max(r.tail_index()) == top_before);

    // The reader finishes and releases its hazard; only now is the ring
    // scrubbed into the pool, on a fresh epoch.
    domain.clear(0);
    domain.scan();
    assert_eq!(pool.len(), 1, "quiescent ring is recycled");
    let r = pool.pop().expect("pooled ring");
    assert_eq!(r.reuse_epoch(), 1);
    assert!(!r.is_closed());
    // The reuse-epoch re-base: every index of the new incarnation lies
    // strictly above anything the stalled reader could have seen, so its
    // stale views can never alias recycled tuples (CAS2s must fail).
    assert!(
        r.base_index() > top_before + r.ring_size() - 1,
        "base {} must clear the old incarnation (top {top_before})",
        r.base_index()
    );
}

#[test]
fn adversary_churn_with_recycling_preserves_per_producer_fifo() {
    // MPMC churn through tiny recycled rings with the scheduler adversary
    // injecting preemptions inside read→CAS2 windows: per-producer
    // sequences must come out strictly in order, each value exactly once —
    // an ABA through a recycled ring would surface as loss or duplication.
    let _adversary = adversarial_preemption(20_000);
    let q = Lcrq::with_config(
        LcrqConfig::new()
            .with_ring_order(2)
            .with_starvation_limit(4) // tantrum early and often
            .with_ring_pool_capacity(4),
    );
    const PRODUCERS: u64 = 2;
    const PER: u64 = 20_000;
    let q = &q;
    let seen: Vec<Vec<u64>> = std::thread::scope(|s| {
        for t in 0..PRODUCERS {
            s.spawn(move || {
                for i in 0..PER {
                    q.enqueue(t << 48 | i);
                }
            });
        }
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(move || {
                    let mut got = Vec::new();
                    let mut misses = 0u32;
                    while misses < 1_000 {
                        match q.dequeue() {
                            Some(v) => {
                                misses = 0;
                                got.push(v);
                            }
                            None => {
                                misses += 1;
                                std::thread::yield_now();
                            }
                        }
                    }
                    got
                })
            })
            .collect();
        consumers.into_iter().map(|c| c.join().unwrap()).collect()
    });
    let mut remaining: Vec<u64> = Vec::new();
    while let Some(v) = q.dequeue() {
        remaining.push(v);
    }
    let mut counts = vec![0u64; PRODUCERS as usize];
    for stream in seen.iter().chain(std::iter::once(&remaining)) {
        let mut stream_last = vec![None::<u64>; PRODUCERS as usize];
        for &v in stream {
            let (t, i) = ((v >> 48) as usize, v & ((1 << 48) - 1));
            counts[t] += 1;
            // FIFO per producer within one consumer's stream.
            assert!(stream_last[t].is_none_or(|p| p < i), "reordered: {v:#x}");
            stream_last[t] = Some(i);
        }
    }
    for (t, &c) in counts.iter().enumerate() {
        assert_eq!(c, PER, "producer {t}: lost or duplicated items");
    }
}

// ---------------------------------------------------------------------------
// LSCQ suite: the SCQ-ring list reuses the same hazard domain machinery but
// frees retired rings outright (no recycle pool), so its invariants are the
// classic ones — drop exactly once, defer while a hazard is held, no
// unbounded garbage.
// ---------------------------------------------------------------------------

#[test]
fn lscq_typed_values_drop_exactly_once_through_ring_churn() {
    let drops = Arc::new(AtomicUsize::new(0));
    let q: TypedLscq<DropCounter> = TypedLscq::with_config(LcrqConfig::new().with_ring_order(2));
    const N: usize = 5_000;
    for _ in 0..N {
        q.enqueue(DropCounter(Arc::clone(&drops)));
    }
    for _ in 0..N / 2 {
        drop(q.dequeue().expect("items present"));
    }
    assert_eq!(drops.load(Ordering::SeqCst), N / 2);
    drop(q);
    assert_eq!(drops.load(Ordering::SeqCst), N, "queue drop frees the rest");
}

#[test]
fn lscq_ring_churn_does_not_accumulate_rings() {
    let q = Lscq::with_config(LcrqConfig::new().with_ring_order(2));
    for round in 0..200u64 {
        for i in 0..100 {
            q.enqueue(round * 1000 + i);
        }
        for i in 0..100 {
            assert_eq!(q.dequeue(), Some(round * 1000 + i));
        }
    }
    assert!(
        q.ring_count() <= 3,
        "live SCQ ring chain should stay short, got {}",
        q.ring_count()
    );
}

#[test]
fn lscq_concurrent_churn_then_quiescent_drop() {
    let q = Lscq::with_config(LcrqConfig::new().with_ring_order(3));
    let q = &q;
    std::thread::scope(|s| {
        for t in 0..4u64 {
            s.spawn(move || {
                for i in 0..10_000u64 {
                    q.enqueue(t << 40 | i);
                    let _ = q.dequeue();
                }
            });
        }
    });
    while q.dequeue().is_some() {}
}

/// Reclaimer used by the LSCQ stalled-reader test: count frees into a sink
/// the test can observe instead of dropping silently.
static SCQ_RINGS_FREED: AtomicUsize = AtomicUsize::new(0);
unsafe fn count_scq_ring_free(p: *mut ()) {
    // SAFETY: `p` is the Box::into_raw ScqD retired below; the hazard
    // domain hands it over with sole ownership.
    drop(unsafe { Box::from_raw(p as *mut ScqD) });
    SCQ_RINGS_FREED.fetch_add(1, Ordering::SeqCst);
}

#[test]
fn lscq_stalled_hazard_reader_defers_ring_reclamation() {
    // The SCQ twist on the stalled-reader ABA scenario: a dequeuer preempted
    // between protecting the head ring and acting on its entry views must
    // keep the ring alive — if it were freed (or its slots reused) under
    // the hazard, the reader's cycle-tagged views would alias a new
    // incarnation.
    let _adversary = adversarial_preemption(10_000);
    let domain = Domain::new();
    let ring: Box<ScqD> = Box::new(ScqD::new(&LcrqConfig::new().with_ring_order(3)));
    for i in 0..5 {
        ring.enqueue(i).unwrap();
    }
    while ring.dequeue().is_some() {}
    ring.close();
    let top_before = ring.head_index().max(ring.tail_index());
    let raw = Box::into_raw(ring);

    // Reader stalls holding a hazard pointer on the ring...
    domain.protect_raw(0, raw as *mut ());
    // ...while the ring is retired.
    // SAFETY: `raw` is unreachable from any queue; the stalled hazard above
    // is exactly what retirement must (and does) respect.
    unsafe { domain.retire_with(raw as *mut (), count_scq_ring_free) };
    domain.scan();
    assert_eq!(
        SCQ_RINGS_FREED.load(Ordering::SeqCst),
        0,
        "protected SCQ ring must not be freed"
    );
    // The stalled reader's world is intact: the ring is still the closed,
    // drained incarnation it protected.
    // SAFETY: still hazard-protected.
    let r = unsafe { &*raw };
    assert!(r.is_closed());
    assert_eq!(r.head_index().max(r.tail_index()), top_before);
    assert_eq!(r.dequeue(), None, "still drained, still answerable");

    // Only after the reader releases its hazard is the ring reclaimed.
    domain.clear(0);
    domain.scan();
    assert_eq!(
        SCQ_RINGS_FREED.load(Ordering::SeqCst),
        1,
        "quiescent SCQ ring is freed exactly once"
    );
}

#[test]
fn lscq_adversary_churn_preserves_per_producer_fifo() {
    // MPMC churn through tiny SCQ rings with the scheduler adversary
    // injecting preemptions inside the entry CAS windows: per-producer
    // sequences must come out strictly in order, each value exactly once —
    // an ABA through a reclaimed ring would surface as loss or duplication.
    let _adversary = adversarial_preemption(20_000);
    let q = Lscq::with_config(LcrqConfig::new().with_ring_order(2));
    const PRODUCERS: u64 = 2;
    const PER: u64 = 20_000;
    let q = &q;
    let seen: Vec<Vec<u64>> = std::thread::scope(|s| {
        for t in 0..PRODUCERS {
            s.spawn(move || {
                for i in 0..PER {
                    q.enqueue(t << 48 | i);
                }
            });
        }
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(move || {
                    let mut got = Vec::new();
                    let mut misses = 0u32;
                    while misses < 1_000 {
                        match q.dequeue() {
                            Some(v) => {
                                misses = 0;
                                got.push(v);
                            }
                            None => {
                                misses += 1;
                                std::thread::yield_now();
                            }
                        }
                    }
                    got
                })
            })
            .collect();
        consumers.into_iter().map(|c| c.join().unwrap()).collect()
    });
    let mut remaining: Vec<u64> = Vec::new();
    while let Some(v) = q.dequeue() {
        remaining.push(v);
    }
    let mut counts = vec![0u64; PRODUCERS as usize];
    for stream in seen.iter().chain(std::iter::once(&remaining)) {
        let mut stream_last = vec![None::<u64>; PRODUCERS as usize];
        for &v in stream {
            let (t, i) = ((v >> 48) as usize, v & ((1 << 48) - 1));
            counts[t] += 1;
            assert!(stream_last[t].is_none_or(|p| p < i), "reordered: {v:#x}");
            stream_last[t] = Some(i);
        }
    }
    for (t, &c) in counts.iter().enumerate() {
        assert_eq!(c, PER, "producer {t}: lost or duplicated items");
    }
}

// ---------------------------------------------------------------------------
// wCQ suite: the wait-free list shares the LSCQ chain/hazard machinery, but
// dequeues may complete through helper records — values bound into a slot by
// one thread and published by another must still drop exactly once.
// ---------------------------------------------------------------------------

#[test]
fn wcq_typed_values_drop_exactly_once_through_ring_churn() {
    let drops = Arc::new(AtomicUsize::new(0));
    let q: TypedWcq<DropCounter> = TypedWcq::with_config(LcrqConfig::new().with_ring_order(2));
    const N: usize = 5_000;
    for _ in 0..N {
        q.enqueue(DropCounter(Arc::clone(&drops)));
    }
    for _ in 0..N / 2 {
        drop(q.dequeue().expect("items present"));
    }
    assert_eq!(drops.load(Ordering::SeqCst), N / 2);
    drop(q);
    assert_eq!(drops.load(Ordering::SeqCst), N, "queue drop frees the rest");
}

#[test]
fn wcq_ring_churn_does_not_accumulate_rings() {
    let q = Wcq::with_config(LcrqConfig::new().with_ring_order(2));
    for round in 0..200u64 {
        for i in 0..100 {
            q.enqueue(round * 1000 + i);
        }
        for i in 0..100 {
            assert_eq!(q.dequeue(), Some(round * 1000 + i));
        }
    }
    assert!(
        q.ring_count() <= 3,
        "live wCQ ring chain should stay short, got {}",
        q.ring_count()
    );
}

#[test]
fn wcq_concurrent_churn_then_quiescent_drop() {
    let q = Wcq::with_config(LcrqConfig::new().with_ring_order(3));
    let q = &q;
    std::thread::scope(|s| {
        for t in 0..4u64 {
            s.spawn(move || {
                for i in 0..10_000u64 {
                    q.enqueue(t << 40 | i);
                    let _ = q.dequeue();
                }
            });
        }
    });
    while q.dequeue().is_some() {}
}

#[test]
fn wcq_adversary_churn_preserves_per_producer_fifo() {
    // Same ABA-through-reclamation hunt as the LSCQ variant, with the extra
    // hazard that a helper may finish a dequeue against a ring another
    // thread is about to retire.
    let _adversary = adversarial_preemption(20_000);
    let q = Wcq::with_config(LcrqConfig::new().with_ring_order(2));
    const PRODUCERS: u64 = 2;
    const PER: u64 = 20_000;
    let q = &q;
    let seen: Vec<Vec<u64>> = std::thread::scope(|s| {
        for t in 0..PRODUCERS {
            s.spawn(move || {
                for i in 0..PER {
                    q.enqueue(t << 48 | i);
                }
            });
        }
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(move || {
                    let mut got = Vec::new();
                    let mut misses = 0u32;
                    while misses < 1_000 {
                        match q.dequeue() {
                            Some(v) => {
                                misses = 0;
                                got.push(v);
                            }
                            None => {
                                misses += 1;
                                std::thread::yield_now();
                            }
                        }
                    }
                    got
                })
            })
            .collect();
        consumers.into_iter().map(|c| c.join().unwrap()).collect()
    });
    let mut remaining: Vec<u64> = Vec::new();
    while let Some(v) = q.dequeue() {
        remaining.push(v);
    }
    let mut counts = vec![0u64; PRODUCERS as usize];
    for stream in seen.iter().chain(std::iter::once(&remaining)) {
        let mut stream_last = vec![None::<u64>; PRODUCERS as usize];
        for &v in stream {
            let (t, i) = ((v >> 48) as usize, v & ((1 << 48) - 1));
            counts[t] += 1;
            assert!(stream_last[t].is_none_or(|p| p < i), "reordered: {v:#x}");
            stream_last[t] = Some(i);
        }
    }
    for (t, &c) in counts.iter().enumerate() {
        assert_eq!(c, PER, "producer {t}: lost or duplicated items");
    }
}

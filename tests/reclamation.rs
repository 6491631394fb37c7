//! Memory-reclamation integration tests for the three lists of rings. A
//! retired ring is freed once no hazard slot names it, on one path for
//! every ring type, so each property is written once, generic over the
//! [`Ring`], and run as one test per list: typed values drop exactly once,
//! sustained ring churn does not accumulate rings, a stalled hazard reader
//! defers the free, and churn under the scheduler adversary delivers every
//! item exactly once, in per-producer order.

mod common;

use common::adversarial_preemption;
use lcrq::hazard::Domain;
use lcrq::util::metrics::{self, Event};
use lcrq::{Crq, Lcrq, LcrqConfig, Ring, RingList, ScqD, Typed, WcqRing};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// R = 4: a spill every few items.
fn r4() -> LcrqConfig {
    LcrqConfig::new().with_ring_order(2)
}

struct DropCounter(Arc<AtomicUsize>);
impl Drop for DropCounter {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

fn typed_values_drop_exactly_once<R: Ring>() {
    let drops = Arc::new(AtomicUsize::new(0));
    let q: Typed<DropCounter, R> = Typed::with_config(r4());
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
fn typed_values_drop_exactly_once_through_ring_churn() {
    typed_values_drop_exactly_once::<Crq>();
}

#[test]
fn lscq_typed_values_drop_exactly_once_through_ring_churn() {
    typed_values_drop_exactly_once::<ScqD>();
}

#[test]
fn wcq_typed_values_drop_exactly_once_through_ring_churn() {
    typed_values_drop_exactly_once::<WcqRing>();
}

/// Constant spill through tiny rings: after each drain the list must be
/// back to a handful of rings.
fn ring_churn_keeps_the_chain_short<R: Ring>() {
    let q = RingList::<R>::with_config(r4());
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
        "live {} chain should stay short, got {}",
        q.name(),
        q.ring_count()
    );
}

#[test]
fn ring_churn_does_not_accumulate_rings() {
    ring_churn_keeps_the_chain_short::<Crq>();
}

#[test]
fn lscq_ring_churn_does_not_accumulate_rings() {
    ring_churn_keeps_the_chain_short::<ScqD>();
}

#[test]
fn wcq_ring_churn_does_not_accumulate_rings() {
    ring_churn_keeps_the_chain_short::<WcqRing>();
}

/// Rings may be retired while other threads still hold them; after all
/// threads quiesce, dropping the queue must free everything without a
/// crash (a use-after-free or double free would abort).
fn concurrent_churn_then_drop<R: Ring>() {
    let q = RingList::<R>::with_config(LcrqConfig::new().with_ring_order(3));
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
fn concurrent_churn_then_quiescent_drop() {
    concurrent_churn_then_drop::<Crq>();
}

#[test]
fn lscq_concurrent_churn_then_quiescent_drop() {
    concurrent_churn_then_drop::<ScqD>();
}

#[test]
fn wcq_concurrent_churn_then_quiescent_drop() {
    concurrent_churn_then_drop::<WcqRing>();
}

#[test]
fn many_short_lived_queues_do_not_leak_or_crash() {
    for i in 0..300 {
        let q = Lcrq::with_config(r4());
        for v in 0..50 {
            q.enqueue(v + i);
        }
        // Half-drained drop.
        for _ in 0..25 {
            let _ = q.dequeue();
        }
    }
}

/// A dequeuer preempted between protecting the head ring and acting on its
/// (now stale) views must keep the ring alive: were it freed under the
/// hazard, the reader would act on freed memory, or on a new allocation
/// at the same address. The scheduler adversary is armed so the
/// protect/retire interleaving runs with preemption injected too.
fn stalled_reader_defers_reclamation<R: Ring>() {
    let _adversary = adversarial_preemption(10_000);
    let domain = Domain::new();
    let ring = Box::new(R::new(&LcrqConfig::new(), 3));
    for i in 0..5 {
        ring.enqueue(i).unwrap();
    }
    while ring.dequeue().is_some() {}
    ring.close();
    let top_before = ring.head_index().max(ring.tail_index());
    let raw = Box::into_raw(ring);

    // A reader stalls holding a hazard pointer on the ring...
    domain.protect_raw(0, raw as *mut ());
    // ...while the ring is retired, as the list retires it.
    // SAFETY: `raw` came from `Box::into_raw` and is reachable from no
    // queue; the stalled hazard above is what retirement must respect.
    unsafe { domain.retire(raw) };
    domain.scan();
    assert_eq!(
        domain.retired_count(),
        1,
        "a protected ring must not be freed"
    );
    // The stalled reader's world is intact: still the closed, drained ring
    // it protected.
    // SAFETY: still hazard-protected.
    let r = unsafe { &*raw };
    assert!(r.is_closed());
    assert_eq!(r.head_index().max(r.tail_index()), top_before);
    assert_eq!(r.dequeue(), None, "still drained, still answerable");

    // Only after the reader releases its hazard is the ring freed.
    domain.clear(0);
    domain.scan();
    assert_eq!(domain.retired_count(), 0, "a ring no slot names is freed");
}

#[test]
fn stalled_hazard_reader_defers_ring_reclamation() {
    stalled_reader_defers_reclamation::<Crq>();
}

#[test]
fn lscq_stalled_hazard_reader_defers_ring_reclamation() {
    stalled_reader_defers_reclamation::<ScqD>();
}

/// MPMC churn through tiny rings with the scheduler adversary injecting
/// preemptions inside the rings' read→CAS windows: per-producer sequences
/// must come out strictly in order, each value exactly once — an ABA
/// through a reclaimed ring would surface as loss or duplication.
fn adversary_churn_preserves_fifo<R: Ring>(config: LcrqConfig) {
    let _adversary = adversarial_preemption(20_000);
    let q = RingList::<R>::with_config(config);
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
    let remaining: Vec<u64> = q.drain().collect();
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

#[test]
fn adversary_churn_with_recycling_preserves_per_producer_fifo() {
    // The allocator hands freed ring memory back to later spills, so rings
    // are recycled at the same addresses; this leg also tantrums early
    // and often.
    adversary_churn_preserves_fifo::<Crq>(r4().with_starvation_limit(4));
}

#[test]
fn lscq_adversary_churn_preserves_per_producer_fifo() {
    adversary_churn_preserves_fifo::<ScqD>(r4());
}

#[test]
fn wcq_adversary_churn_preserves_per_producer_fifo() {
    // wCQ adds a hazard of its own: a helper may finish a dequeue against a
    // ring another thread is about to retire.
    adversary_churn_preserves_fifo::<WcqRing>(r4());
}

// --- What a kept hazard slot pins. The list leaves its head and tail slots
// published between calls (DESIGN.md "List of rings"), so an idle thread can
// hold back the ring it last used, and nothing else. What the scanning
// thread still holds retired is what some slot pinned.

/// Single-threaded spill churn: every round overflows the tiny ring several
/// times, so each round closes and retires rings.
fn churn_rounds<R: Ring>(q: &RingList<R>, rounds: u64) {
    for round in 0..rounds {
        for i in 0..16 {
            q.enqueue(round * 100 + i);
        }
        for i in 0..16 {
            assert_eq!(q.dequeue(), Some(round * 100 + i));
        }
    }
}

/// Main's side of the pinning tests: spill `q` ten rings past wherever it
/// is, drain it dry and scan. What stays in main's retired list afterwards
/// is what another thread's slot pins.
fn spill_drain_scan(q: &Lcrq) {
    for i in 0..40 {
        q.enqueue(i);
    }
    assert!(q.ring_count() >= 10);
    assert!(q.drain().count() >= 40);
    q.hazard_domain().scan();
    assert_eq!(q.ring_count(), 1, "drained down to the last ring");
}

#[test]
fn idle_producer_pins_only_the_ring_it_last_used() {
    use std::sync::mpsc::channel;
    let q = &Lcrq::with_config(r4());
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
        // T1 idles on the first ring while main retires it and nine more:
        // every retired ring but T1's is freed.
        spill_drain_scan(q);
        assert_eq!(q.hazard_domain().retired_count(), 1);
        // T1's next enqueue moves its slot to the ring in use now.
        to_t1.send(()).unwrap();
        inbox.recv().unwrap();
        q.hazard_domain().scan();
        assert_eq!(q.hazard_domain().retired_count(), 0);
        to_t1.send(()).unwrap();
    });
}

#[test]
fn consumer_that_saw_empty_pins_nothing() {
    use std::sync::mpsc::channel;
    let q = &Lcrq::with_config(r4());
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
        spill_drain_scan(q);
        assert_eq!(q.hazard_domain().retired_count(), 0);
        to_t1.send(()).unwrap();
    });
}

#[test]
fn exited_thread_pins_nothing() {
    let q = Arc::new(Lcrq::with_config(r4()));
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
    spill_drain_scan(&q);
    assert_eq!(q.hazard_domain().retired_count(), 0);
}

#[test]
fn ring_count_is_safe_against_concurrent_head_swings() {
    // A guard, not a proof: `ring_count` (and `Debug`, which calls it) used
    // to walk the chain unprotected, so with retired rings really freed this
    // was a read of freed memory that might or might not crash. Now the walk
    // is hazard-protected and every answer must be a chain length that can
    // have existed.
    use std::sync::atomic::AtomicBool;
    let q = Lcrq::with_config(r4());
    let stop = AtomicBool::new(false);
    let (linked, (least, most)) = std::thread::scope(|s| {
        let churner = s.spawn(|| {
            let before = metrics::local_snapshot();
            churn_rounds(&q, 20_000);
            stop.store(true, Ordering::SeqCst);
            // Every ring linked after the first was allocated by a spill.
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

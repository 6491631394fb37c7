//! Contract tests for arena contenders (ISSUE 9, satellite 3).
//!
//! Every queue the arena can put on the scoreboard — registry queues and
//! external baselines alike, each a `Box<dyn ConcurrentQueue>` from
//! `Entry::build` — must behave like a concurrent multiset channel before
//! its throughput numbers mean anything:
//!
//! * **exactly-once delivery** — N producers push disjoint tagged values,
//!   N consumers drain; every value comes out exactly once, nothing else;
//! * **empty is empty** — a freshly built contender dequeues `None`, and
//!   does so again after a fill/drain cycle;
//! * **single-thread FIFO** — with one thread, real queue adapters keep
//!   insertion order (external baselines included: mpsc channels and the
//!   mutex deque are strict FIFO too).
//!
//! The synthetic F&A upper bound (`faa`) is exempt from delivery and
//! empty-queue checks — it transfers no values by design (that is what
//! `Entry::synthetic` marks); its own test pins the ticket semantics the
//! arena relies on instead.

use lcrq_bench::arena::{self, Entry};
use lcrq_queues::ConcurrentQueue;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

/// Small ring so registry queues exercise ring-close paths in the fill
/// test rather than staying inside one ring.
const RING_ORDER: u32 = 6;

/// N producers enqueue disjoint tagged ranges while N consumers drain.
/// Returns the multiset of dequeued values.
fn hammer(c: &dyn ConcurrentQueue, producers: usize, per: u64) -> HashMap<u64, u64> {
    let total = producers as u64 * per;
    let consumed = AtomicU64::new(0);
    let barrier = Barrier::new(2 * producers);
    let mut buckets: Vec<Vec<u64>> = Vec::new();
    std::thread::scope(|s| {
        let (c, consumed, barrier) = (&c, &consumed, &barrier);
        for t in 0..producers {
            s.spawn(move || {
                barrier.wait();
                for i in 0..per {
                    c.enqueue(((t as u64) << 32) | i);
                }
            });
        }
        let handles: Vec<_> = (0..producers)
            .map(|_| {
                s.spawn(move || {
                    barrier.wait();
                    let mut got = Vec::new();
                    while consumed.load(Ordering::Relaxed) < total {
                        if let Some(v) = c.dequeue() {
                            consumed.fetch_add(1, Ordering::Relaxed);
                            got.push(v);
                        } else {
                            std::thread::yield_now();
                        }
                    }
                    got
                })
            })
            .collect();
        for h in handles {
            buckets.push(h.join().unwrap());
        }
    });
    let mut multiset = HashMap::new();
    for v in buckets.into_iter().flatten() {
        *multiset.entry(v).or_insert(0u64) += 1;
    }
    multiset
}

#[test]
fn every_contender_delivers_exactly_once() {
    let producers = 3;
    let per = 500u64;
    for e in arena::default_roster(RING_ORDER) {
        if e.synthetic {
            continue; // faa transfers no values by design
        }
        let c = e.build();
        let multiset = hammer(&*c, producers, per);
        let expected = producers as u64 * per;
        let delivered: u64 = multiset.values().sum();
        assert_eq!(delivered, expected, "{}: wrong delivery count", e.name);
        for t in 0..producers as u64 {
            for i in 0..per {
                let v = (t << 32) | i;
                assert_eq!(
                    multiset.get(&v).copied(),
                    Some(1),
                    "{}: value {v:#x} not delivered exactly once",
                    e.name
                );
            }
        }
        assert_eq!(
            multiset.len() as u64,
            expected,
            "{}: phantom values delivered",
            e.name
        );
    }
}

#[test]
fn empty_contender_dequeues_none() {
    for e in arena::default_roster(RING_ORDER) {
        if e.synthetic {
            continue; // the F&A bound has no notion of empty
        }
        let c = e.build();
        assert_eq!(c.dequeue(), None, "{}: fresh contender not empty", e.name);
        // Fill/drain cycle, then empty again.
        for i in 0..64u64 {
            c.enqueue(i);
        }
        let mut drained = 0;
        while c.dequeue().is_some() {
            drained += 1;
            assert!(drained <= 64, "{}: drained more than enqueued", e.name);
        }
        assert_eq!(drained, 64, "{}: fill/drain lost items", e.name);
        assert_eq!(c.dequeue(), None, "{}: not empty after drain", e.name);
    }
}

#[test]
fn single_thread_order_is_fifo() {
    for e in arena::default_roster(RING_ORDER) {
        if e.synthetic {
            continue; // tickets, not values
        }
        if e.name.starts_with("sharded:") {
            continue; // d-choice front-end is relaxed FIFO by design
        }
        let c = e.build();
        for i in 0..256u64 {
            c.enqueue(i);
        }
        for i in 0..256u64 {
            assert_eq!(c.dequeue(), Some(i), "{}: order violated at {i}", e.name);
        }
    }
}

#[test]
fn synthetic_bound_is_marked_and_hands_out_tickets() {
    let faa: Vec<Entry> = arena::external_entries()
        .into_iter()
        .filter(|e| e.synthetic)
        .collect();
    assert_eq!(faa.len(), 1, "exactly one synthetic upper bound expected");
    assert_eq!(faa[0].name, "faa");
    let c = faa[0].build();
    // Unconditional F&A on both ends: every dequeue succeeds with a
    // monotone ticket regardless of enqueues. The arena must therefore
    // route it around delivery validation — pinned here so a refactor
    // cannot silently start "validating" the ceiling.
    for i in 0..8u64 {
        c.enqueue(i);
        assert_eq!(c.dequeue(), Some(i), "ticket stream not monotone");
    }
    assert_eq!(c.dequeue(), Some(8), "dequeue on empty must still tick");
}

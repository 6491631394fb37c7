//! wCQ request-record state-machine suite (seeded model checks).
//!
//! The slow path in `crates/core/src/wcq.rs` runs a tiny state machine
//! per operation: INIT → announce (`PH_ENQ`/`PH_DEQ`) → claim candidates
//! → placement → finalize (`PH_DONE`/`PH_CLOSED`) → release. Helpers race
//! the owner through every transition, so the invariants worth pinning
//! are the ones a helping scheme can silently lose:
//!
//! 1. **exactly-once finalization** — each announced request is finalized
//!    by exactly one successful state CAS, so at quiescence the global
//!    `HelpFinalized` count equals `HelpAnnounce`;
//! 2. **no lost or duplicated values** — every enqueued value is dequeued
//!    exactly once, in its producer's order within each consumer's stream,
//!    across record-slot reuse generations;
//! 3. **drop-exactly-once** — a value delivered through a *helped*
//!    dequeue runs its destructor exactly once;
//! 4. **stall independence** — a thread stalled mid-help (possibly while
//!    owning an announced record) cannot block other requests from
//!    finalizing.
//!
//! On this host natural contention never escapes the fast path, so every
//! test forces announcements with `FaultAction::Fail` storms at the wCQ
//! entry sites; the file is compiled only with `--features
//! fault-injection`. Seeds honor `LCRQ_TEST_SEED` for byte-identical
//! replay.

#![cfg(feature = "fault-injection")]

mod common;

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::registry;
use lcrq::queues::testing::{check_delivery, encode, items};
use lcrq::util::fault::{self, FaultAction, Scenario, Site};
use lcrq::util::metrics::{self, Event};
use lcrq::util::rng::test_seed;
use lcrq::{LcrqConfig, TypedWcq, Wcq};

/// A storm that denies every fast-path placement window, forcing each
/// operation through announce → help → finalize. The slow path has no
/// fail points of its own, so 100 % probability cannot livelock it.
fn slow_path_storm(seed: u64) -> Scenario {
    Scenario::new(seed)
        .with(Site::WcqEnqueue, 1_000_000, FaultAction::Fail)
        .with(Site::WcqDequeue, 1_000_000, FaultAction::Fail)
}

/// Invariant 1 + 2 across four derived seeds: every announced request
/// finalizes exactly once, and the dequeued multiset is exact. Helping
/// races are additionally perturbed with lost helper windows
/// (`Site::WcqHelp` `Fail` = re-read from the state check).
#[test]
fn announced_requests_finalize_exactly_once_across_seeds() {
    let _registry = registry();
    const THREADS: usize = 4;
    const PAIRS: u64 = 500;
    for round in 0..4u64 {
        let seed = test_seed(0x9ECD_0000 + round);
        slow_path_storm(seed)
            .with(Site::WcqHelp, 150_000, FaultAction::Fail)
            .arm();
        let q = Wcq::with_config(LcrqConfig::new().with_ring_order(5));
        let announced = AtomicU64::new(0);
        let finalized = AtomicU64::new(0);
        let mut streams: Vec<Vec<u64>> = std::thread::scope(|s| {
            let (q, announced, finalized) = (&q, &announced, &finalized);
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    s.spawn(move || {
                        let before = metrics::local_snapshot();
                        let mut got = Vec::new();
                        for i in 0..PAIRS {
                            q.enqueue(encode(t, i));
                            if let Some(v) = q.dequeue() {
                                got.push(v);
                            }
                        }
                        let d = metrics::local_snapshot().delta_since(&before);
                        announced.fetch_add(d.get(Event::HelpAnnounce), Ordering::SeqCst);
                        finalized.fetch_add(d.get(Event::HelpFinalized), Ordering::SeqCst);
                        got
                    })
                })
                .collect();
            workers.into_iter().map(|h| h.join().unwrap()).collect()
        });
        fault::disarm();
        streams.push(std::iter::from_fn(|| q.dequeue()).collect());
        if let Err(e) = check_delivery(&items(THREADS, PAIRS), &streams) {
            panic!("{e} (seed {seed:#x})");
        }
        let (a, f) = (
            announced.load(Ordering::SeqCst),
            finalized.load(Ordering::SeqCst),
        );
        assert!(
            a >= PAIRS,
            "storm failed to engage the slow path (seed {seed:#x})"
        );
        assert_eq!(
            f, a,
            "announce/finalize mismatch: {a} announced, {f} finalized (seed {seed:#x})"
        );
    }
}

/// Invariant 2 under record-slot reuse: far more announced operations
/// than the 64 request records, over a tiny spilling ring, so every slot
/// cycles through many sequence generations. A stale-generation helper
/// delivering into a recycled record would duplicate or lose a value.
#[test]
fn record_generations_recycle_without_duplication() {
    let _registry = registry();
    let seed = test_seed(0x9ECD_0010);
    slow_path_storm(seed).arm();
    // R = 4: constant spill → tantrum-close → fresh-ring churn underneath
    // the record machinery.
    let q = Wcq::with_config(LcrqConfig::new().with_ring_order(2));
    const PRODUCERS: usize = 2;
    const CONSUMERS: usize = 2;
    const PER_PRODUCER: u64 = 2_000;
    let sent = items(PRODUCERS, PER_PRODUCER);
    let produced_done = AtomicUsize::new(0);
    let mut streams: Vec<Vec<u64>> = std::thread::scope(|s| {
        let (q, produced_done) = (&q, &produced_done);
        for mine in sent.chunks(PER_PRODUCER as usize) {
            s.spawn(move || {
                for &v in mine {
                    q.enqueue(v);
                }
                produced_done.fetch_add(1, Ordering::SeqCst);
            });
        }
        let consumers: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                s.spawn(|| {
                    let mut got = Vec::new();
                    loop {
                        match q.dequeue() {
                            Some(v) => got.push(v),
                            None if produced_done.load(Ordering::SeqCst) == PRODUCERS => break,
                            None => std::thread::yield_now(),
                        }
                    }
                    got
                })
            })
            .collect();
        consumers.into_iter().map(|h| h.join().unwrap()).collect()
    });
    fault::disarm();
    streams.push(std::iter::from_fn(|| q.dequeue()).collect());
    if let Err(e) = check_delivery(&sent, &streams) {
        panic!("record reuse: {e} (seed {seed:#x})");
    }
}

struct DropCounter(Arc<AtomicUsize>);
impl Drop for DropCounter {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// Invariant 3: with every dequeue denied its fast window, delivery runs
/// through announced dequeue records that concurrent threads help — the
/// path where a double-delivery would double-free the boxed value. Each
/// received value must drop exactly once, and the queue's own drop must
/// account for exactly the undelivered remainder.
#[test]
fn helped_dequeues_drop_each_value_exactly_once() {
    let _registry = registry();
    const TOTAL: usize = 800;
    const TAKE: usize = 400;
    let seed = test_seed(0x9ECD_0020);
    slow_path_storm(seed).arm();
    let drops = Arc::new(AtomicUsize::new(0));
    let q: TypedWcq<DropCounter> = TypedWcq::with_config(LcrqConfig::new().with_ring_order(4));
    std::thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..TOTAL {
                q.enqueue(DropCounter(Arc::clone(&drops)));
            }
        });
        s.spawn(|| {
            let mut taken = 0;
            while taken < TAKE {
                if q.dequeue().is_some() {
                    // received value dropped here
                    taken += 1;
                } else {
                    std::thread::yield_now();
                }
            }
        });
    });
    fault::disarm();
    assert_eq!(
        drops.load(Ordering::SeqCst),
        TAKE,
        "a helped dequeue delivered a value zero or two times"
    );
    drop(q);
    assert_eq!(
        drops.load(Ordering::SeqCst),
        TOTAL,
        "queue drop missed undelivered boxed values"
    );
}

/// Invariant 4: one of four threads stalls permanently inside a helping
/// step (`Site::WcqHelp` `Stall`) — possibly while its *own* record is
/// announced and unfinalized. The survivors must finish their full op
/// budget anyway: peers complete the stalled thread's request and move
/// on. After `disarm` the sleeper resumes and the global accounting must
/// still be exact — its helped request must not complete a second time.
#[test]
fn a_stalled_helper_never_blocks_other_finalizations() {
    let _registry = registry();
    const WORKERS: usize = 4;
    const STALLS: usize = 1;
    const PAIRS: u64 = 400;
    let seed = test_seed(0x9ECD_0030);
    slow_path_storm(seed)
        .with(Site::WcqHelp, 400_000, FaultAction::Stall)
        .max_stalls(STALLS as u64)
        .arm();
    let q = Wcq::with_config(LcrqConfig::new().with_ring_order(5));
    let done = AtomicUsize::new(0);
    let mut streams: Vec<Vec<u64>> = std::thread::scope(|s| {
        let (q, done) = (&q, &done);
        let workers: Vec<_> = (0..WORKERS)
            .map(|t| {
                s.spawn(move || {
                    let mut got = Vec::new();
                    for i in 0..PAIRS {
                        q.enqueue(encode(t, i));
                        if let Some(v) = q.dequeue() {
                            got.push(v);
                        }
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                    got
                })
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(120);
        while done.load(Ordering::SeqCst) < WORKERS - STALLS {
            assert!(
                Instant::now() < deadline,
                "survivors wedged behind a stalled helper"
            );
            std::thread::yield_now();
        }
        assert_eq!(fault::stalled_count(), STALLS, "stall gate never fired");
        fault::disarm(); // wake the sleeper so the scope can join
        workers.into_iter().map(|h| h.join().unwrap()).collect()
    });
    streams.push(std::iter::from_fn(|| q.dequeue()).collect());
    if let Err(e) = check_delivery(&items(WORKERS, PAIRS), &streams) {
        panic!("stall + resume: {e} (seed {seed:#x})");
    }
}

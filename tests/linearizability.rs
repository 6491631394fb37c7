//! Linearizability checking of real concurrent executions, for every queue
//! algorithm in the repository.
//!
//! Strategy: record many *small* histories (3 threads × 4 operations) under
//! genuine concurrency and run the Wing–Gong checker on each. Small
//! histories keep exhaustive checking fast while still catching ordering,
//! duplication, loss, and premature-EMPTY bugs — each seed produces a
//! different interleaving pressure via randomized op mixes.

#[cfg(feature = "fault-injection")]
mod common;

use lcrq::queues::testing::encode;
use lcrq_bench::{QueueKind, QueueSpec, ALL_KINDS};
use lcrq_verify::{
    check_fifo, check_relaxed, check_tantrum, record, Completed, HistoryOp, Recording,
};

/// Builds randomized scripts: `threads` threads, each with `ops` operations,
/// roughly half enqueues (values unique per thread) and half dequeues.
fn scripts(seed: u64, threads: usize, ops: usize) -> Vec<Vec<Completed>> {
    let mut rng = lcrq::util::XorShift64Star::new(seed);
    (0..threads)
        .map(|t| {
            (0..ops)
                .map(|i| {
                    if rng.chance(55, 100) {
                        Completed::Enq(encode(t, i as u64))
                    } else {
                        Completed::Deq
                    }
                })
                .collect()
        })
        .collect()
}

/// Records `rounds` histories of `kind` at `ring_order`, on 3 threads of
/// the scripts `script` builds from seed `stride.0 * round + stride.1`,
/// and checks each with Wing–Gong.
fn check_histories(
    kind: QueueKind,
    ring_order: u32,
    rounds: u64,
    stride: (u64, u64),
    script: fn(u64) -> Vec<Vec<Completed>>,
) {
    for round in 0..rounds {
        // LCRQ_TEST_SEED pins every round to one script seed for replay.
        let script_seed = lcrq::util::rng::test_seed(round * stride.0 + stride.1);
        let q = QueueSpec::backend(kind)
            .with_ring_order(ring_order)
            .with_clusters(2)
            .build();
        let rec = record(&q, &script(script_seed));
        if let Err(e) = check_fifo(&rec) {
            panic!(
                "{}: script seed {script_seed} produced a non-linearizable history \
                 (reproduce with LCRQ_TEST_SEED={script_seed}): {e}\n{:#?}",
                kind.name(),
                rec.ops
            );
        }
    }
}

/// Scalar scripts of 4 operations a thread on tiny rings (R = 16), which
/// exercise CRQ switching.
fn check_kind(kind: QueueKind, rounds: u64) {
    check_histories(kind, 4, rounds, (7, 1), |seed| scripts(seed, 3, 4));
}

/// Randomized scripts mixing scalar and batch steps. Batches are small
/// (2–4 items) so the expanded histories stay exhaustively checkable.
fn batch_scripts(seed: u64, threads: usize, ops: usize) -> Vec<Vec<Completed>> {
    let mut rng = lcrq::util::XorShift64Star::new(seed);
    (0..threads)
        .map(|t| {
            (0..ops)
                .map(|i| {
                    let base = encode(t, (i as u64) << 8);
                    match rng.next_below(4) {
                        0 => Completed::Enq(base),
                        1 => Completed::Deq,
                        2 => {
                            let n = 2 + rng.next_below(3);
                            Completed::EnqBatch((0..n).map(|j| base | j).collect())
                        }
                        _ => Completed::DeqBatch(2 + rng.next_below(3) as usize),
                    }
                })
                .collect()
        })
        .collect()
}

/// Batch scripts of 3 steps a thread at `ring_order`.
fn check_kind_batched(kind: QueueKind, ring_order: u32, rounds: u64) {
    check_histories(kind, ring_order, rounds, (13, 3), |seed| {
        batch_scripts(seed, 3, 3)
    });
}

#[test]
fn lcrq_batch_histories_are_linearizable() {
    // R = 16: batches fit; exercises the multi-slot reservation fast path.
    check_kind_batched(QueueKind::Lcrq, 4, 30);
}

#[test]
fn lcrq_batch_histories_with_ring_close_mid_batch_are_linearizable() {
    // R = 4 with batches up to 4: reservations regularly overrun the ring,
    // closing it mid-batch and spilling the remainder into a fresh seeded
    // ring — the tentpole's trickiest linearizability case.
    check_kind_batched(QueueKind::Lcrq, 2, 30);
    check_kind_batched(QueueKind::LcrqCas, 2, 20);
}

#[test]
fn default_batch_impl_histories_are_linearizable() {
    // A queue without a native batch path runs the trait's scalar-loop
    // defaults; its histories must check out the same way.
    check_kind_batched(QueueKind::Ms, 4, 20);
}

#[test]
fn lcrq_histories_are_linearizable() {
    check_kind(QueueKind::Lcrq, 40);
}

#[test]
fn lscq_histories_are_linearizable() {
    check_kind(QueueKind::Lscq, 40);
}

#[test]
fn lscq_cas_histories_are_linearizable() {
    check_kind(QueueKind::LscqCas, 40);
}

#[test]
fn wcq_histories_are_linearizable() {
    check_kind(QueueKind::Wcq, 40);
}

#[test]
fn wcq_batch_histories_are_linearizable() {
    // wCQ has no native batch path: scalar-loop defaults over tiny rings,
    // closing and spilling mid-batch — helped placements included.
    check_kind_batched(QueueKind::Wcq, 2, 30);
}

#[test]
fn lscq_batch_histories_are_linearizable() {
    // LSCQ has no native batch path: these run the trait's scalar-loop
    // defaults over tiny rings, closing and spilling mid-batch.
    check_kind_batched(QueueKind::Lscq, 2, 30);
    check_kind_batched(QueueKind::LscqCas, 2, 20);
}

#[test]
fn lcrq_cas_histories_are_linearizable() {
    check_kind(QueueKind::LcrqCas, 40);
}

#[test]
fn lcrq_h_histories_are_linearizable() {
    check_kind(QueueKind::LcrqH, 25);
}

#[test]
fn ms_queue_histories_are_linearizable() {
    check_kind(QueueKind::Ms, 40);
}

#[test]
fn two_lock_histories_are_linearizable() {
    check_kind(QueueKind::TwoLock, 25);
}

#[test]
fn cc_queue_histories_are_linearizable() {
    check_kind(QueueKind::Cc, 25);
}

#[test]
fn h_queue_histories_are_linearizable() {
    check_kind(QueueKind::H, 25);
}

#[test]
fn fc_queue_histories_are_linearizable() {
    check_kind(QueueKind::Fc, 25);
}

#[test]
fn infinite_array_histories_are_linearizable() {
    check_kind(QueueKind::Infinite, 25);
}

/// Records one history of pollers on an `Lcrq` built with `config`: a
/// producer enqueues `ITEMS` values with random gaps while two consumers,
/// started on the empty queue, each poll `dequeue` `POLLS` times with
/// gaps of their own. Back-to-back EMPTYs take the list's read-only EMPTY
/// after an EMPTY, and the enqueues that land between polls must make it
/// fail.
fn poller_history(config: lcrq::LcrqConfig, seed: u64) -> Recording {
    use lcrq::util::XorShift64Star;
    use lcrq_verify::OpRecord;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Barrier, Mutex};
    const ITEMS: u64 = 6;
    const POLLS: usize = 8;

    /// Up to `max` spin-loop hints, sometimes a yield instead.
    fn gap(rng: &mut XorShift64Star, max: u64) {
        if rng.chance(1, 4) {
            std::thread::yield_now();
        } else {
            (0..rng.next_below(max)).for_each(|_| std::hint::spin_loop());
        }
    }

    let q = lcrq::Lcrq::with_config(config);
    let clock = AtomicU64::new(0);
    let log: Mutex<Vec<OpRecord>> = Mutex::new(Vec::new());
    let barrier = Barrier::new(3);
    let (q, clock, log, barrier) = (&q, &clock, &log, &barrier);
    let timed = |thread: usize, op: &dyn Fn() -> HistoryOp| {
        let invoked = clock.fetch_add(1, Ordering::SeqCst);
        let op = op();
        let returned = clock.fetch_add(1, Ordering::SeqCst);
        OpRecord {
            thread,
            op,
            invoked,
            returned,
        }
    };
    std::thread::scope(|s| {
        for thread in 0..3 {
            s.spawn(move || {
                let mut rng = XorShift64Star::new(seed ^ ((thread as u64 + 1) << 40));
                let mut local = Vec::new();
                barrier.wait();
                if thread == 0 {
                    for v in 0..ITEMS {
                        gap(&mut rng, 4_000);
                        local.push(timed(0, &|| {
                            q.enqueue(v);
                            HistoryOp::Enq(v)
                        }));
                    }
                } else {
                    for _ in 0..POLLS {
                        local.push(timed(thread, &|| match q.dequeue() {
                            Some(v) => HistoryOp::DeqOk(v),
                            None => HistoryOp::DeqEmpty,
                        }));
                        gap(&mut rng, 1_500);
                    }
                }
                log.lock().unwrap().extend(local);
            });
        }
    });
    let mut ops = std::mem::take(&mut *log.lock().unwrap());
    ops.sort_by_key(|r| r.invoked);
    Recording { ops }
}

/// [`poller_history`] over `rounds` seeds on the default ring and on
/// `ring_order` 1 and 2, where polls cross ring closes, spills and rings
/// freed and allocated again at the same address.
fn check_pollers(rounds: u64) {
    for order in [None, Some(1), Some(2)] {
        let config = order.map_or_else(lcrq::LcrqConfig::new, |o| {
            lcrq::LcrqConfig::new().with_ring_order(o)
        });
        for round in 0..rounds {
            let seed = lcrq::util::rng::test_seed(round * 29 + 11);
            let rec = poller_history(config.clone(), seed);
            if let Err(e) = check_fifo(&rec) {
                panic!(
                    "lcrq pollers (ring_order {order:?}): seed {seed} produced a \
                     non-linearizable history (reproduce with LCRQ_TEST_SEED={seed}): \
                     {e}\n{:#?}",
                    rec.ops
                );
            }
        }
    }
}

#[test]
fn lcrq_poller_histories_are_linearizable() {
    check_pollers(40);
}

/// The same pollers with the scheduler adversary armed: every
/// `Site::Preempt` point, the one inside the read-only EMPTY proof
/// included, yields one visit in ten.
#[cfg(feature = "fault-injection")]
#[test]
fn lcrq_poller_histories_are_linearizable_under_preemption() {
    let _adversary = common::adversarial_preemption(100_000);
    check_pollers(40);
}

#[test]
fn every_kind_is_covered_by_a_linearizability_test() {
    // Guard against new registry kinds silently skipping verification.
    // (The sharded front-end is a spec wrapper, not a kind: its histories
    // are checked by the relaxed tests below.)
    assert_eq!(ALL_KINDS.len(), 12);
}

/// Records real concurrent histories of a sharded spec and checks them with
/// the relaxation checker at the spec's analytic bound — the relaxed
/// analogue of [`check_kind`].
fn check_spec_relaxed(spec_str: &str, rounds: u64) {
    let spec = QueueSpec::parse(spec_str).unwrap();
    let bound = spec.rank_error_bound(3);
    for seed in 0..rounds {
        let script_seed = lcrq::util::rng::test_seed(seed * 11 + 5);
        let q = spec.build();
        let rec = record(&q, &scripts(script_seed, 3, 4));
        if let Err(e) = check_relaxed(&rec, bound) {
            panic!(
                "{spec}: script seed {script_seed} violated the relaxed spec at bound \
                 {bound} (reproduce with LCRQ_TEST_SEED={script_seed}): {e}\n{:#?}",
                rec.ops
            );
        }
    }
}

#[test]
fn sharded_lcrq_histories_satisfy_the_relaxed_specification() {
    // Tiny inner rings exercise switching under the front-end.
    check_spec_relaxed("sharded:shards=4,d=2,inner=lcrq:ring=4", 30);
}

#[test]
fn sharded_lscq_histories_satisfy_the_relaxed_specification() {
    check_spec_relaxed("sharded:shards=4,d=2,inner=lscq:ring=4", 30);
}

#[test]
fn sharded_wcq_histories_satisfy_the_relaxed_specification() {
    check_spec_relaxed("sharded:shards=4,d=2,inner=wcq:ring=4", 30);
}

#[test]
fn sharded_with_stale_estimates_still_satisfies_the_relaxed_specification() {
    // A 4-op script never reaches a refresh, so every pick runs on the
    // estimates cached at its thread's first operation. d = 1 ignores them
    // altogether: uniform placement is the stale-estimate worst case. The
    // relaxation may grow but exactly-once and honest-EMPTY must hold.
    check_spec_relaxed("sharded:shards=4,d=1,inner=lcrq:ring=4", 20);
}

#[test]
fn sharded_single_shard_histories_are_strictly_linearizable() {
    // shards=1 must add no relaxation at all: run the *strict* checker.
    let spec = QueueSpec::parse("sharded:shards=1,d=1,inner=lcrq:ring=4").unwrap();
    assert_eq!(spec.rank_error_bound(3), 0);
    for seed in 0..20u64 {
        let script_seed = lcrq::util::rng::test_seed(seed * 17 + 7);
        let q = spec.build();
        let rec = record(&q, &scripts(script_seed, 3, 4));
        if let Err(e) = check_fifo(&rec) {
            panic!(
                "sharded(1): seed {script_seed} not linearizable \
                 (reproduce with LCRQ_TEST_SEED={script_seed}): {e}\n{:#?}",
                rec.ops
            );
        }
    }
}

#[test]
fn sharded_batch_histories_satisfy_the_relaxed_specification() {
    let spec = QueueSpec::parse("sharded:shards=3,d=2,inner=lcrq:ring=2").unwrap();
    let bound = spec.rank_error_bound(3);
    for seed in 0..20u64 {
        let script_seed = lcrq::util::rng::test_seed(seed * 19 + 9);
        let q = spec.build();
        let rec = record(&q, &batch_scripts(script_seed, 3, 3));
        if let Err(e) = check_relaxed(&rec, bound) {
            panic!(
                "{spec}: batch seed {script_seed} violated the relaxed spec at bound \
                 {bound} (reproduce with LCRQ_TEST_SEED={script_seed}): {e}\n{:#?}",
                rec.ops
            );
        }
    }
}

/// The bare CRQ is a *tantrum* queue: enqueues may return CLOSED. Record
/// histories on a tiny ring (closes are common) and check against the
/// tantrum specification.
#[test]
fn crq_histories_satisfy_the_tantrum_specification() {
    use lcrq::{Crq, LcrqConfig};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Barrier, Mutex};

    for seed in 0..30u64 {
        let crq: Crq = Crq::new(&LcrqConfig::new().with_ring_order(2)); // R = 4
        let scripts = scripts(seed + 1000, 3, 4);
        let clock = AtomicU64::new(0);
        let log: Mutex<Vec<lcrq_verify::OpRecord>> = Mutex::new(Vec::new());
        let barrier = Barrier::new(scripts.len());
        let (crq, clock, log, barrier) = (&crq, &clock, &log, &barrier);
        std::thread::scope(|s| {
            for (t, script) in scripts.iter().enumerate() {
                s.spawn(move || {
                    let mut local = Vec::new();
                    barrier.wait();
                    for step in script {
                        let invoked = clock.fetch_add(1, Ordering::SeqCst);
                        let op = match *step {
                            Completed::Enq(v) => match crq.enqueue(v) {
                                Ok(()) => HistoryOp::Enq(v),
                                Err(_) => HistoryOp::EnqClosed(v),
                            },
                            Completed::Deq => match crq.dequeue() {
                                Some(v) => HistoryOp::DeqOk(v),
                                None => HistoryOp::DeqEmpty,
                            },
                            // scripts() only emits scalar steps.
                            _ => unreachable!("batch steps not used here"),
                        };
                        let returned = clock.fetch_add(1, Ordering::SeqCst);
                        local.push(lcrq_verify::OpRecord {
                            thread: t,
                            op,
                            invoked,
                            returned,
                        });
                    }
                    log.lock().unwrap().extend(local);
                });
            }
        });
        let mut ops = std::mem::take(&mut *log.lock().unwrap());
        ops.sort_by_key(|r| r.invoked);
        let rec = Recording { ops };
        if let Err(e) = check_tantrum(&rec) {
            panic!("CRQ seed {seed}: tantrum check failed: {e}\n{:#?}", rec.ops);
        }
    }
}

//! Sharded d-choice front-end integration suite.
//!
//! Focus areas the shared batteries don't isolate:
//!
//! * the exact-empty fallback sweep when the balancer's cached length
//!   estimates are deliberately desynchronized from reality (the
//!   correctness property: counters are advisory, the sweep is ground
//!   truth);
//! * the strict-FIFO degenerate configurations;
//! * the seeded stress entry points the ci.sh sharded gate replays under
//!   four `LCRQ_TEST_SEED` values against all three inner backend
//!   families, plus one large recorded history checked for exactly-once
//!   delivery and honest EMPTY.

use lcrq::queues::testing;
use lcrq::util::rng::test_seed;
use lcrq::{ConcurrentQueue, Lcrq, LcrqConfig, ShardedConfig, ShardedQueue};
use lcrq_bench::QueueSpec;
use lcrq_verify::{check_relaxed, record, Completed};

fn sharded_lcrq(shards: usize, d: usize) -> ShardedQueue<Lcrq> {
    ShardedQueue::from_factory(&ShardedConfig::new().with_shards(shards).with_d(d), |_| {
        Lcrq::with_config(LcrqConfig::new().with_ring_order(6))
    })
}

/// The balancer-counter mutation check: one thread's sampler is primed on
/// an *empty* queue, so its cached estimates claim every shard is empty
/// until its next refresh, 64 operations later. Elements then arrive from
/// other threads (whose operations never update the stale cache). The
/// consumer's dequeues must still find every element via the exact-empty
/// fallback sweep — `None` while an element is definitely present is the
/// regression this test pins down.
#[test]
fn stale_all_empty_estimates_never_cause_false_empty() {
    let q = sharded_lcrq(8, 2);
    // Prime this thread's sampler: every estimate caches 0 and is not
    // re-read for the next 63 operations.
    assert_eq!(q.dequeue(), None);
    for round in 0..500u64 {
        std::thread::scope(|s| {
            s.spawn(|| q.enqueue(round));
        });
        // The producer has returned, so the element is definitely present;
        // the stale estimates still say "all shards empty".
        assert_eq!(
            q.dequeue(),
            Some(round),
            "dequeue reported empty while element {round} was present"
        );
    }
    assert_eq!(q.dequeue(), None);
}

/// The opposite desynchronization: the consumer's estimates claim every
/// shard is *full* (primed while hundreds of elements were queued), then
/// other threads drain everything. The consumer must chase its wrong
/// first pick through the sweep and report the true state — finding a
/// lone straggler if present, `None` once genuinely empty.
#[test]
fn stale_all_full_estimates_still_observe_reality() {
    let q = sharded_lcrq(4, 2);
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 0..400u64 {
                q.enqueue(i);
            }
        });
    });
    // Prime: estimates now cache ~100 elements per shard, and the few
    // operations below never reach the next refresh.
    // (The first dequeue takes some shard's head — not necessarily the
    // globally oldest element; this front-end is FIFO-up-to-relaxation.)
    assert!(q.dequeue().is_some());
    // Another thread drains the rest.
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut got = 1;
            while q.dequeue().is_some() {
                got += 1;
            }
            assert_eq!(got, 400);
        });
    });
    // Estimates still say "full everywhere"; reality is empty.
    assert_eq!(q.dequeue(), None);
    // A single new element must be found despite the wrong-first-pick.
    std::thread::scope(|s| {
        s.spawn(|| q.enqueue(7777));
    });
    assert_eq!(q.dequeue(), Some(7777));
    assert_eq!(q.dequeue(), None);
}

/// shards=1 (any d) is plain delegation and must stay strictly FIFO.
#[test]
fn single_shard_spec_is_strict_fifo() {
    for spec_str in [
        "sharded:shards=1,d=1,inner=lcrq",
        "sharded:shards=1,inner=lscq",
    ] {
        let spec = QueueSpec::parse(spec_str).unwrap();
        assert_eq!(spec.rank_error_bound(8), 0, "{spec_str}");
        let q = spec.build();
        testing::model_check(&q, 0x51AE ^ spec_str.len() as u64);
        testing::mpmc_stress(&q, 2, 2, 2_000);
    }
}

/// Degenerate configurations clamp instead of panicking, and the clamped
/// queue still delivers exactly once.
#[test]
fn degenerate_configs_clamp_and_work() {
    for (shards, d) in [(0usize, 0usize), (1, 9), (3, 99)] {
        let q =
            ShardedQueue::from_factory(&ShardedConfig::new().with_shards(shards).with_d(d), |_| {
                Lcrq::with_config(LcrqConfig::new().with_ring_order(4))
            });
        assert!(q.shards() >= 1);
        assert!((1..=q.shards()).contains(&q.d()));
        testing::mpmc_stress_relaxed(&q, 2, 2, 1_000, q.rank_error_bound(4));
    }
}

/// ci.sh sharded-gate entry point: relaxed MPMC stress over the LCRQ
/// inner backend, honoring `LCRQ_TEST_SEED` (the gate replays four
/// seeds). The analytic envelope comes from the spec, the workload from
/// the shared battery. The last leg records one large history on the
/// default geometry.
#[test]
fn seeded_stress_sharded_lcrq() {
    let spec = QueueSpec::parse("sharded:shards=4,d=2,inner=lcrq:ring=6").unwrap();
    let q = spec.build();
    let seed = test_seed(0x5EED_0001);
    testing::relaxed_model_check(&q, seed, spec.rank_error_bound(1) as usize);
    testing::mpmc_stress_relaxed(&q, 3, 3, 4_000, spec.rank_error_bound(6));
    large_history_delivers_exactly_once(seed);
}

/// 16 workers × 1000 operations on `sharded:shards=8,d=2,inner=lcrq`,
/// enqueue-leaning so the queue stays occupied and dequeues race, replayed
/// by the relaxation checker: no value is delivered twice or invented,
/// every EMPTY is honest, and draining afterwards finds exactly the values
/// the history left behind. The envelope at 16 threads (115,808) exceeds
/// the ≈ 8,900 enqueues in the history, so its rank arm cannot fail here.
fn large_history_delivers_exactly_once(seed: u64) {
    const WORKERS: u64 = 16;
    const OPS: usize = 1_000;
    let spec = QueueSpec::parse("sharded:shards=8,d=2,inner=lcrq").unwrap();
    let mut rng = lcrq::util::XorShift64Star::new(seed);
    let scripts: Vec<Vec<Completed>> = (0..WORKERS)
        .map(|t| {
            let mut next = 0u64;
            (0..OPS)
                .map(|_| {
                    if rng.chance(5, 9) {
                        next += 1;
                        Completed::Enq((t << 40) | next)
                    } else {
                        Completed::Deq
                    }
                })
                .collect()
        })
        .collect();
    let q = spec.build();
    let rec = record(&q, &scripts);
    let report = check_relaxed(&rec, spec.rank_error_bound(WORKERS as usize))
        .unwrap_or_else(|e| panic!("{spec}: 16 x 1000-op history (LCRQ_TEST_SEED={seed:#x}): {e}"));
    assert_eq!(
        testing::drain(&q).len() as u64,
        report.undelivered,
        "{spec}: leftovers after the history (LCRQ_TEST_SEED={seed:#x})"
    );
}

/// ci.sh sharded-gate entry point: same battery over the SCQ-based
/// portable inner backend.
#[test]
fn seeded_stress_sharded_lscq() {
    let spec = QueueSpec::parse("sharded:shards=4,d=2,inner=lscq:ring=6").unwrap();
    let q = spec.build();
    let seed = test_seed(0x5EED_0002);
    testing::relaxed_model_check(&q, seed, spec.rank_error_bound(1) as usize);
    testing::mpmc_stress_relaxed(&q, 3, 3, 4_000, spec.rank_error_bound(6));
}

/// ci.sh sharded-gate entry point: same battery over the wait-free wCQ
/// inner backend (helping engages under the stress battery's contention).
#[test]
fn seeded_stress_sharded_wcq() {
    let spec = QueueSpec::parse("sharded:shards=4,d=2,inner=wcq:ring=6").unwrap();
    let q = spec.build();
    let seed = test_seed(0x5EED_0003);
    testing::relaxed_model_check(&q, seed, spec.rank_error_bound(1) as usize);
    testing::mpmc_stress_relaxed(&q, 3, 3, 4_000, spec.rank_error_bound(6));
}

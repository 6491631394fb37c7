//! Cross-algorithm stress and model checks: the same battery for every
//! queue in the registry, so a regression in any algorithm (or in shared
//! substrates like hazard pointers and the combining constructions) fails
//! loudly here. The sharded d-choice front-end runs the *relaxed* variants
//! of the battery at its analytic rank-error bound — exactly-once delivery
//! and honest EMPTY reports are never relaxed.

use lcrq::queues::testing;
use lcrq_bench::{QueueKind, QueueSpec, ALL_KINDS};

fn backend(k: QueueKind, ring_order: u32) -> Box<dyn lcrq::queues::ConcurrentQueue> {
    QueueSpec::backend(k)
        .with_ring_order(ring_order)
        .with_clusters(2)
        .build()
}

#[test]
fn model_check_every_kind_against_vecdeque() {
    for &k in ALL_KINDS {
        let q = backend(k, 10);
        testing::model_check(&q, 0xBEEF ^ k.name().len() as u64);
    }
}

#[test]
fn mpmc_stress_every_kind() {
    for &k in ALL_KINDS {
        let q = backend(k, 12);
        testing::mpmc_stress(&q, 3, 3, 3_000);
    }
}

#[test]
fn mpmc_stress_lcrq_variants_with_tiny_rings() {
    // Ring switching under contention is LCRQ's trickiest path; LSCQ
    // shares the list structure but swaps in SCQ rings underneath, and wCQ
    // adds the helping records on top.
    for kind in [
        QueueKind::Lcrq,
        QueueKind::LcrqCas,
        QueueKind::LcrqH,
        QueueKind::Lscq,
        QueueKind::LscqCas,
        QueueKind::Wcq,
    ] {
        let q = backend(kind, 3); // R = 8
        testing::mpmc_stress(&q, 3, 3, 3_000);
    }
}

#[test]
fn pairs_workload_every_kind_drains() {
    for &k in ALL_KINDS {
        let q = backend(k, 8);
        testing::pairs_smoke(&q, 4, 1_500);
    }
}

#[test]
fn single_producer_single_consumer_order_every_kind() {
    for &k in ALL_KINDS {
        let q = backend(k, 8);
        testing::mpmc_stress(&q, 1, 1, 10_000);
    }
}

#[test]
fn burst_then_drain_every_kind() {
    // Large burst (beyond one CRQ ring) followed by a full drain in order.
    for &k in ALL_KINDS {
        let q = backend(k, 6); // R = 64 for the LCRQ variants
        for i in 0..10_000u64 {
            q.enqueue(i);
        }
        for i in 0..10_000u64 {
            assert_eq!(q.dequeue(), Some(i), "{}", k.name());
        }
        assert_eq!(q.dequeue(), None, "{}", k.name());
    }
}

#[test]
fn batch_model_check_every_kind_against_vecdeque() {
    // The model check mixes scalar and batch steps: the LCRQ variants run
    // their native multi-slot reservation paths; every other registry queue
    // runs the trait's default scalar-loop batches. Both must match the
    // model. A second seed beside `model_check_every_kind_against_vecdeque`.
    for &k in ALL_KINDS {
        let q = backend(k, 10);
        testing::model_check(&q, 0xFACE ^ k.name().len() as u64);
    }
}

#[test]
fn mpmc_batch_stress_every_kind() {
    for &k in ALL_KINDS {
        let q = backend(k, 12);
        testing::mpmc_batch_stress(&q, 3, 3, 3_000, 16);
    }
}

#[test]
fn mpmc_batch_stress_lcrq_variants_with_tiny_rings() {
    // Ring-close-mid-batch is the tentpole's trickiest path: R = 8 with
    // batches of 16 forces every reservation to overrun and spill its
    // remainder into a freshly appended seeded ring. The LSCQ variants run
    // the scalar-loop default batches over the same tiny rings.
    for kind in [
        QueueKind::Lcrq,
        QueueKind::LcrqCas,
        QueueKind::LcrqH,
        QueueKind::Lscq,
        QueueKind::LscqCas,
        QueueKind::Wcq,
    ] {
        let q = backend(kind, 3); // R = 8
        testing::mpmc_batch_stress(&q, 3, 3, 3_000, 16);
    }
}

#[test]
fn batch_and_scalar_cross_product_lcrq() {
    // Scalar producers with batch consumers and vice versa, across scalar
    // and tiny rings: the two APIs must interoperate on one queue.
    for kind in [QueueKind::Lcrq, QueueKind::LcrqCas] {
        for ring_order in [3u32, 10] {
            let q = backend(kind, ring_order);
            let q = &q;
            let total = 4_000u64;
            // Batch producer / scalar consumer.
            std::thread::scope(|s| {
                s.spawn(move || {
                    let mut i = 0u64;
                    while i < total {
                        let n = 16.min(total - i);
                        let vals: Vec<u64> = (i..i + n).collect();
                        q.enqueue_batch(&vals);
                        i += n;
                    }
                });
                let mut expect = 0u64;
                while expect < total {
                    if let Some(v) = q.dequeue() {
                        assert_eq!(v, expect, "single consumer must see FIFO");
                        expect += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
            });
            // Scalar producer / batch consumer.
            std::thread::scope(|s| {
                s.spawn(move || {
                    for i in 0..total {
                        q.enqueue(i);
                    }
                });
                let mut got = Vec::new();
                while (got.len() as u64) < total {
                    if q.dequeue_batch(&mut got, 16) == 0 {
                        std::thread::yield_now();
                    }
                }
                let expect: Vec<u64> = (0..total).collect();
                assert_eq!(got, expect, "single batch consumer must see FIFO");
            });
            assert_eq!(q.dequeue(), None);
        }
    }
}

#[test]
fn alternating_empty_nonempty_every_kind() {
    // Hammers the EMPTY path (empty transitions + fixState for CRQ-based
    // queues) interleaved with successful operations.
    for &k in ALL_KINDS {
        let q = backend(k, 6);
        for round in 0..500u64 {
            assert_eq!(q.dequeue(), None, "{}", k.name());
            q.enqueue(round);
            assert_eq!(q.dequeue(), Some(round), "{}", k.name());
        }
    }
}

/// The sharded specs the shared battery runs against: LCRQ and LSCQ inner
/// backends (the ci.sh sharded gate's pair), plus a nested composition.
const SHARDED_SPECS: &[&str] = &[
    "sharded:shards=4,d=2,inner=lcrq:ring=6",
    "sharded:shards=4,d=2,inner=lscq:ring=6",
    "sharded:shards=4,d=2,inner=wcq:ring=6",
    "sharded:shards=2,d=2,inner=sharded:shards=2,d=1,inner=lcrq:ring=6",
];

/// Empirical relaxation windows in these tests are far below the analytic
/// envelope; the stress harness uses the spec's bound at the test's
/// concurrency. At these sizes the bound exceeds the pending count of the
/// model check and stress runs, so only their exactly-once and EMPTY arms
/// can fail; the sequential burst-and-drain holds enough elements for the
/// flat specs' rank arm to bite.
fn parsed_sharded() -> Vec<QueueSpec> {
    SHARDED_SPECS
        .iter()
        .map(|s| QueueSpec::parse(s).unwrap())
        .collect()
}

#[test]
fn relaxed_model_check_sharded_specs() {
    for spec in parsed_sharded() {
        let q = spec.build();
        // Sequential, single sampler, estimates up to 64 operations
        // stale: the d-choice window stays within the bound for 1 thread.
        let window = spec.rank_error_bound(1) as usize;
        testing::relaxed_model_check(&q, 0x54AD ^ window as u64, window);
    }
}

#[test]
fn mpmc_stress_relaxed_sharded_specs() {
    for spec in parsed_sharded() {
        let q = spec.build();
        testing::mpmc_stress_relaxed(&q, 3, 3, 3_000, spec.rank_error_bound(6));
    }
}

#[test]
fn mpmc_batch_stress_relaxed_sharded_specs() {
    for spec in parsed_sharded() {
        let q = spec.build();
        // The estimate refresh counts operations and each batched call
        // moves up to 16 elements, so the envelope scales by the batch size.
        let bound = spec.rank_error_bound(6).saturating_mul(16);
        testing::mpmc_batch_stress_relaxed(&q, 3, 3, 3_000, 16, bound);
    }
}

#[test]
fn burst_then_drain_sharded_stays_within_displacement_bound() {
    // Sequential burst + drain: element i must come out within the
    // analytic bound of position i, and nothing may be lost.
    for spec in parsed_sharded() {
        let q = spec.build();
        let bound = spec.rank_error_bound(1);
        let total = 10_000u64;
        for i in 0..total {
            q.enqueue(i);
        }
        let mut seen = vec![false; total as usize];
        for p in 0..total {
            let v = q
                .dequeue()
                .unwrap_or_else(|| panic!("{spec}: lost items at {p}"));
            assert!(
                v <= p + bound && p <= v + bound,
                "{spec}: displacement |{v} - {p}| exceeds bound {bound}"
            );
            assert!(!seen[v as usize], "{spec}: duplicate {v}");
            seen[v as usize] = true;
        }
        assert_eq!(q.dequeue(), None, "{spec}");
    }
}

#[test]
fn alternating_empty_nonempty_sharded_is_exact() {
    // With a single element in flight there is nothing to relax: the
    // exact-empty fallback sweep must find it every round, and EMPTY must
    // only be reported when the queue really is empty.
    for spec in parsed_sharded() {
        let q = spec.build();
        for round in 0..500u64 {
            assert_eq!(q.dequeue(), None, "{spec}");
            q.enqueue(round);
            assert_eq!(q.dequeue(), Some(round), "{spec}");
        }
    }
}

#[test]
fn pairs_workload_sharded_drains() {
    for spec in parsed_sharded() {
        let q = spec.build();
        testing::pairs_smoke(&q, 4, 1_500);
    }
}

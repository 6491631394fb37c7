//! Shared test harnesses for queue implementations.
//!
//! Used by the unit tests of every queue in this crate, by `lcrq-core`'s
//! tests, and by the workspace integration tests. Not compiled out of tests
//! builds (it is ordinary code) so downstream crates can reuse it.

use crate::ConcurrentQueue;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

/// Encodes a (producer id, sequence number) pair into a queue payload.
pub fn encode(producer: usize, seq: u64) -> u64 {
    ((producer as u64) << 40) | seq
}

/// Inverse of [`encode`].
pub fn decode(value: u64) -> (usize, u64) {
    ((value >> 40) as usize, value & ((1 << 40) - 1))
}

/// Multi-producer multi-consumer stress test.
///
/// `producers` threads each enqueue `per_producer` encoded items while
/// `consumers` threads dequeue until everything is drained. Verifies:
///
/// 1. every enqueued item is dequeued exactly once (no loss, no duplication);
/// 2. items from each producer are dequeued in that producer's enqueue order
///    (a necessary condition of FIFO linearizability that scales to large
///    histories, unlike full linearizability checking).
///
/// Panics on any violation.
pub fn mpmc_stress<Q: ConcurrentQueue>(
    queue: &Q,
    producers: usize,
    consumers: usize,
    per_producer: u64,
) {
    mpmc_stress_relaxed(queue, producers, consumers, per_producer, 0)
}

/// [`mpmc_stress`] generalized to relaxed queues (e.g. a sharded d-choice
/// front-end): exactly-once delivery stays mandatory, but within each
/// consumer's stream an item of producer `p` may overtake at most
/// `relaxation` of `p`'s earlier items. `relaxation == 0` is exactly the
/// strict FIFO check; pass the queue's rank-error bound for relaxed queues.
///
/// Panics on any violation.
pub fn mpmc_stress_relaxed<Q: ConcurrentQueue>(
    queue: &Q,
    producers: usize,
    consumers: usize,
    per_producer: u64,
    relaxation: u64,
) {
    assert!(producers > 0 && consumers > 0);
    let total = producers as u64 * per_producer;
    let dequeued = AtomicU64::new(0);
    let barrier = Barrier::new(producers + consumers);

    let barrier = &barrier;
    let dequeued = &dequeued;
    let all: Vec<Vec<u64>> = std::thread::scope(|s| {
        let mut consumer_handles = Vec::new();
        for p in 0..producers {
            s.spawn(move || {
                barrier.wait();
                for seq in 0..per_producer {
                    queue.enqueue(encode(p, seq));
                }
            });
        }
        for _ in 0..consumers {
            consumer_handles.push(s.spawn(move || {
                barrier.wait();
                let mut got = Vec::new();
                while dequeued.load(Ordering::Relaxed) < total {
                    match queue.dequeue() {
                        Some(v) => {
                            dequeued.fetch_add(1, Ordering::Relaxed);
                            got.push(v);
                        }
                        None => std::thread::yield_now(),
                    }
                }
                got
            }));
        }
        consumer_handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });

    // 1. Exactly-once delivery.
    let mut seen: Vec<u64> = all.iter().flatten().copied().collect();
    assert_eq!(seen.len() as u64, total, "lost or duplicated items");
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len() as u64, total, "duplicated items");

    // 2. Per-producer order within each consumer's local stream, up to the
    // allowed relaxation. (The global interleaving across consumers is not
    // ordered, but any single consumer must observe each producer's items
    // in order — a consequence of queue linearizability — loosened here so
    // an item may overtake at most `relaxation` earlier same-producer
    // items.)
    for stream in &all {
        let mut max_seen: std::collections::HashMap<usize, u64> = Default::default();
        for &v in stream {
            let (p, seq) = decode(v);
            if let Some(&prev) = max_seen.get(&p) {
                // `>=` not `>`: distinct items of one producer never share a
                // seq (exactly-once is checked above), so the strict case
                // (relaxation 0) still demands monotonic order.
                assert!(
                    seq.saturating_add(relaxation) >= prev,
                    "consumer observed producer {p} out of order beyond the \
                     relaxation bound {relaxation}: {seq} after {prev}"
                );
            }
            let slot = max_seen.entry(p).or_insert(0);
            *slot = (*slot).max(seq);
        }
    }

    // Queue must now be empty.
    assert_eq!(queue.dequeue(), None, "queue should be drained");
}

/// Multi-producer multi-consumer stress test over the *batch* API.
///
/// Like [`mpmc_stress`], but producers move items with
/// [`enqueue_batch`](ConcurrentQueue::enqueue_batch) in chunks of
/// `batch` and consumers with
/// [`dequeue_batch`](ConcurrentQueue::dequeue_batch). Checks the same
/// properties — exactly-once delivery and per-producer order within each
/// consumer stream — which batch semantics must preserve (a batch is a
/// sequence of individual operations; see the trait docs).
///
/// Panics on any violation.
pub fn mpmc_batch_stress<Q: ConcurrentQueue>(
    queue: &Q,
    producers: usize,
    consumers: usize,
    per_producer: u64,
    batch: usize,
) {
    mpmc_batch_stress_relaxed(queue, producers, consumers, per_producer, batch, 0)
}

/// [`mpmc_batch_stress`] generalized to relaxed queues, with the same
/// `relaxation` parameter as [`mpmc_stress_relaxed`]: within each
/// consumer's stream an item may overtake at most `relaxation` earlier
/// items of the same producer. `relaxation == 0` is the strict check.
///
/// Panics on any violation.
pub fn mpmc_batch_stress_relaxed<Q: ConcurrentQueue>(
    queue: &Q,
    producers: usize,
    consumers: usize,
    per_producer: u64,
    batch: usize,
    relaxation: u64,
) {
    assert!(producers > 0 && consumers > 0 && batch > 0);
    let total = producers as u64 * per_producer;
    let dequeued = AtomicU64::new(0);
    let barrier = Barrier::new(producers + consumers);

    let barrier = &barrier;
    let dequeued = &dequeued;
    let all: Vec<Vec<u64>> = std::thread::scope(|s| {
        let mut consumer_handles = Vec::new();
        for p in 0..producers {
            s.spawn(move || {
                barrier.wait();
                let mut seq = 0u64;
                while seq < per_producer {
                    let n = (batch as u64).min(per_producer - seq);
                    let vals: Vec<u64> = (seq..seq + n).map(|i| encode(p, i)).collect();
                    queue.enqueue_batch(&vals);
                    seq += n;
                }
            });
        }
        for _ in 0..consumers {
            consumer_handles.push(s.spawn(move || {
                barrier.wait();
                let mut got = Vec::new();
                while dequeued.load(Ordering::Relaxed) < total {
                    let taken = queue.dequeue_batch(&mut got, batch);
                    if taken > 0 {
                        dequeued.fetch_add(taken as u64, Ordering::Relaxed);
                    } else {
                        std::thread::yield_now();
                    }
                }
                got
            }));
        }
        consumer_handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });

    // 1. Exactly-once delivery.
    let mut seen: Vec<u64> = all.iter().flatten().copied().collect();
    assert_eq!(seen.len() as u64, total, "lost or duplicated items");
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len() as u64, total, "duplicated items");

    // 2. Per-producer order within each consumer's local stream, up to the
    // allowed relaxation.
    for stream in &all {
        let mut max_seen: std::collections::HashMap<usize, u64> = Default::default();
        for &v in stream {
            let (p, seq) = decode(v);
            if let Some(&prev) = max_seen.get(&p) {
                // `>=` not `>`: see mpmc_stress_relaxed.
                assert!(
                    seq.saturating_add(relaxation) >= prev,
                    "consumer observed producer {p} out of order beyond the \
                     relaxation bound {relaxation}: {seq} after {prev}"
                );
            }
            let slot = max_seen.entry(p).or_insert(0);
            *slot = (*slot).max(seq);
        }
    }

    let mut rest = Vec::new();
    assert_eq!(
        queue.dequeue_batch(&mut rest, 1),
        0,
        "queue should be drained"
    );
}

/// Sequential model check mixing scalar and batch operations against a
/// `VecDeque` model: batch enqueues must append in slice order, batch
/// dequeues must pop in FIFO order and report shortfalls only when the
/// model is also empty.
///
/// `seed` may be overridden with the `LCRQ_TEST_SEED` env var (see
/// [`lcrq_util::rng::test_seed`]); failures print the effective seed.
pub fn batch_model_check<Q: ConcurrentQueue>(queue: &Q, seed: u64) {
    let seed = lcrq_util::rng::test_seed(seed);
    let mut rng = lcrq_util::XorShift64Star::new(seed);
    let mut model: VecDeque<u64> = VecDeque::new();
    let mut next_val = 0u64;
    for step in 0..3_000 {
        match rng.next_below(4) {
            0 => {
                queue.enqueue(next_val);
                model.push_back(next_val);
                next_val += 1;
            }
            1 => {
                let n = rng.next_below(40) as usize;
                let vals: Vec<u64> = (next_val..next_val + n as u64).collect();
                queue.enqueue_batch(&vals);
                model.extend(&vals);
                next_val += n as u64;
            }
            2 => {
                assert_eq!(
                    queue.dequeue(),
                    model.pop_front(),
                    "divergence from model at step {step} \
                     (reproduce with LCRQ_TEST_SEED={seed})"
                );
            }
            _ => {
                let max = rng.next_below(40) as usize;
                let mut out = Vec::new();
                let taken = queue.dequeue_batch(&mut out, max);
                assert_eq!(taken, out.len(), "step {step}: taken != out.len()");
                assert!(taken <= max, "step {step}: over-delivered");
                for (i, v) in out.iter().enumerate() {
                    assert_eq!(
                        Some(*v),
                        model.pop_front(),
                        "divergence from model at step {step}, batch item {i} \
                         (reproduce with LCRQ_TEST_SEED={seed})"
                    );
                }
                if taken < max {
                    assert!(
                        model.is_empty(),
                        "step {step}: short batch but model holds items \
                         (reproduce with LCRQ_TEST_SEED={seed})"
                    );
                }
            }
        }
    }
    while let Some(expect) = model.pop_front() {
        assert_eq!(queue.dequeue(), Some(expect));
    }
    assert_eq!(queue.dequeue(), None);
}

/// Runs a single-threaded randomized operation sequence against the queue
/// and a `VecDeque` model, asserting identical observable behaviour.
///
/// `seed` may be overridden with the `LCRQ_TEST_SEED` env var (see
/// [`lcrq_util::rng::test_seed`]); failures print the effective seed.
pub fn model_check<Q: ConcurrentQueue>(queue: &Q, seed: u64) {
    let seed = lcrq_util::rng::test_seed(seed);
    let mut rng = lcrq_util::XorShift64Star::new(seed);
    let mut model: VecDeque<u64> = VecDeque::new();
    let mut next_val = 0u64;
    for step in 0..10_000 {
        // Bias toward enqueues early, dequeues late, to sweep queue sizes.
        let enq_bias = if step < 5_000 { 60 } else { 40 };
        if rng.chance(enq_bias, 100) {
            queue.enqueue(next_val);
            model.push_back(next_val);
            next_val += 1;
        } else {
            assert_eq!(
                queue.dequeue(),
                model.pop_front(),
                "divergence from model at step {step} \
                 (reproduce with LCRQ_TEST_SEED={seed})"
            );
        }
    }
    while let Some(expect) = model.pop_front() {
        assert_eq!(queue.dequeue(), Some(expect));
    }
    assert_eq!(queue.dequeue(), None);
}

/// Sequential randomized check for *relaxed* queues against a `Vec` model:
/// every dequeued value must be one of the oldest `window + 1` pending
/// elements (rank error ≤ `window`), `None` is only legal when the model
/// is empty, and nothing may be lost, duplicated, or invented.
/// `window == 0` is strict sequential FIFO.
///
/// `seed` may be overridden with the `LCRQ_TEST_SEED` env var (see
/// [`lcrq_util::rng::test_seed`]); failures print the effective seed.
pub fn relaxed_model_check<Q: ConcurrentQueue>(queue: &Q, seed: u64, window: usize) {
    let seed = lcrq_util::rng::test_seed(seed);
    let mut rng = lcrq_util::XorShift64Star::new(seed);
    let mut model: Vec<u64> = Vec::new();
    let mut next_val = 0u64;
    let take = |model: &mut Vec<u64>, got: Option<u64>, step: usize| match got {
        Some(v) => {
            let pos = model.iter().position(|&m| m == v).unwrap_or_else(|| {
                panic!(
                    "step {step}: dequeued {v} which is not pending \
                     (reproduce with LCRQ_TEST_SEED={seed})"
                )
            });
            assert!(
                pos <= window,
                "step {step}: dequeued {v} at rank {pos} > window {window} \
                 (reproduce with LCRQ_TEST_SEED={seed})"
            );
            model.remove(pos);
        }
        None => assert!(
            model.is_empty(),
            "step {step}: reported empty with {} pending \
             (reproduce with LCRQ_TEST_SEED={seed})",
            model.len()
        ),
    };
    for step in 0..10_000 {
        let enq_bias = if step < 5_000 { 60 } else { 40 };
        if rng.chance(enq_bias, 100) {
            queue.enqueue(next_val);
            model.push(next_val);
            next_val += 1;
        } else {
            take(&mut model, queue.dequeue(), step);
        }
    }
    while !model.is_empty() {
        take(&mut model, queue.dequeue(), usize::MAX);
    }
    assert_eq!(queue.dequeue(), None);
}

/// Drains a queue, returning everything left in it, in order.
pub fn drain<Q: ConcurrentQueue>(queue: &Q) -> Vec<u64> {
    let mut out = Vec::new();
    while let Some(v) = queue.dequeue() {
        out.push(v);
    }
    out
}

/// Runs `threads` workers that each perform `pairs` enqueue/dequeue pairs —
/// the paper's benchmark workload shape — and asserts the queue is drained
/// at the end (every enqueue is matched by a successful dequeue eventually).
pub fn pairs_smoke<Q: ConcurrentQueue>(queue: &Q, threads: usize, pairs: u64) {
    let barrier = Barrier::new(threads);
    let barrier = &barrier;
    std::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || {
                barrier.wait();
                let mut missed = 0u64;
                for i in 0..pairs {
                    queue.enqueue(encode(t, i));
                    if queue.dequeue().is_none() {
                        missed += 1;
                    }
                }
                // Make up for empty dequeues so the queue drains.
                while missed > 0 {
                    if queue.dequeue().is_some() {
                        missed -= 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
            });
        }
    });
    assert_eq!(queue.dequeue(), None, "queue should be drained");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        for p in [0usize, 1, 7, 100] {
            for s in [0u64, 1, 1 << 20, (1 << 40) - 1] {
                assert_eq!(decode(encode(p, s)), (p, s));
            }
        }
    }

    /// A deliberately broken queue that drops every 1000th item; the stress
    /// harness must catch it.
    struct LossyQueue {
        inner: std::sync::Mutex<VecDeque<u64>>,
        counter: AtomicU64,
    }
    impl ConcurrentQueue for LossyQueue {
        fn enqueue(&self, value: u64) {
            if self.counter.fetch_add(1, Ordering::Relaxed) % 1000 == 999 {
                return; // drop it
            }
            self.inner.lock().unwrap().push_back(value);
        }
        fn dequeue(&self) -> Option<u64> {
            self.inner.lock().unwrap().pop_front()
        }
        fn name(&self) -> &'static str {
            "lossy"
        }
    }

    #[test]
    fn stress_harness_detects_lost_items() {
        let q = LossyQueue {
            inner: Default::default(),
            counter: AtomicU64::new(0),
        };
        // The harness loops until `total` items are dequeued; with loss it
        // would hang, so test via the model checker instead, which fails fast.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            model_check(&q, 42);
        }));
        assert!(result.is_err(), "harness must detect the lossy queue");
    }

    /// A LIFO "queue" — per-producer order checking must reject it.
    struct StackQueue {
        inner: std::sync::Mutex<Vec<u64>>,
    }
    impl ConcurrentQueue for StackQueue {
        fn enqueue(&self, value: u64) {
            self.inner.lock().unwrap().push(value);
        }
        fn dequeue(&self) -> Option<u64> {
            self.inner.lock().unwrap().pop()
        }
        fn name(&self) -> &'static str {
            "stack"
        }
    }

    #[test]
    fn stress_harness_detects_lifo_order() {
        let q = StackQueue {
            inner: Default::default(),
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            mpmc_stress(&q, 1, 1, 2_000);
        }));
        assert!(result.is_err(), "harness must reject LIFO order");
    }

    #[test]
    fn model_check_accepts_a_correct_queue() {
        struct GoodQueue(std::sync::Mutex<VecDeque<u64>>);
        impl ConcurrentQueue for GoodQueue {
            fn enqueue(&self, v: u64) {
                self.0.lock().unwrap().push_back(v);
            }
            fn dequeue(&self) -> Option<u64> {
                self.0.lock().unwrap().pop_front()
            }
            fn name(&self) -> &'static str {
                "good"
            }
        }
        let q = GoodQueue(Default::default());
        model_check(&q, 7);
        mpmc_stress(&q, 2, 2, 2_000);
    }

    #[test]
    fn batch_harnesses_accept_a_correct_queue() {
        struct GoodQueue(std::sync::Mutex<VecDeque<u64>>);
        impl ConcurrentQueue for GoodQueue {
            fn enqueue(&self, v: u64) {
                self.0.lock().unwrap().push_back(v);
            }
            fn dequeue(&self) -> Option<u64> {
                self.0.lock().unwrap().pop_front()
            }
            fn name(&self) -> &'static str {
                "good"
            }
        }
        let q = GoodQueue(Default::default());
        batch_model_check(&q, 11);
        mpmc_batch_stress(&q, 2, 2, 2_000, 16);
    }

    /// A 1-relaxed queue: alternates between dequeuing the second-oldest
    /// (when two or more are pending) and the oldest, so the head element is
    /// overtaken at most once before it leaves — rank error and per-element
    /// lateness both exactly 1. (A queue that *always* took the second-oldest
    /// would starve the head indefinitely: bounded rank error per dequeue,
    /// unbounded lateness — the relaxed stress harness must reject that.)
    struct AltSkewQueue(std::sync::Mutex<(VecDeque<u64>, bool)>);
    impl ConcurrentQueue for AltSkewQueue {
        fn enqueue(&self, value: u64) {
            self.0.lock().unwrap().0.push_back(value);
        }
        fn dequeue(&self) -> Option<u64> {
            let mut g = self.0.lock().unwrap();
            let (q, skew) = &mut *g;
            let got = if *skew && q.len() >= 2 {
                q.remove(1)
            } else {
                q.pop_front()
            };
            if got.is_some() {
                *skew = !*skew;
            }
            got
        }
        fn name(&self) -> &'static str {
            "alt-skew"
        }
    }

    fn alt_skew() -> AltSkewQueue {
        AltSkewQueue(std::sync::Mutex::new((VecDeque::new(), true)))
    }

    #[test]
    fn relaxed_harnesses_accept_within_bound() {
        relaxed_model_check(&alt_skew(), 21, 1);
        mpmc_stress_relaxed(&alt_skew(), 2, 2, 2_000, 1);
        mpmc_batch_stress_relaxed(&alt_skew(), 2, 2, 2_000, 8, 1);
    }

    #[test]
    fn relaxed_harnesses_reject_beyond_bound() {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            relaxed_model_check(&alt_skew(), 22, 0);
        }));
        assert!(result.is_err(), "rank-1 queue must fail a window-0 check");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            mpmc_stress_relaxed(&alt_skew(), 1, 1, 2_000, 0);
        }));
        assert!(
            result.is_err(),
            "rank-1 queue must fail a strict stress run"
        );
    }

    #[test]
    fn relaxed_model_check_rejects_invented_values() {
        struct InventQueue;
        impl ConcurrentQueue for InventQueue {
            fn enqueue(&self, _: u64) {}
            fn dequeue(&self) -> Option<u64> {
                Some(0xDEAD)
            }
            fn name(&self) -> &'static str {
                "invent"
            }
        }
        let result = std::panic::catch_unwind(|| {
            relaxed_model_check(&InventQueue, 23, 1_000_000);
        });
        assert!(result.is_err(), "must reject values never enqueued");
    }

    #[test]
    fn batch_stress_detects_lifo_order() {
        let q = StackQueue {
            inner: Default::default(),
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            mpmc_batch_stress(&q, 1, 1, 2_000, 8);
        }));
        assert!(result.is_err(), "batch harness must reject LIFO order");
    }
}

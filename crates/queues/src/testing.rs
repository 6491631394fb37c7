//! Shared test harnesses for queue implementations.
//!
//! Used by the unit tests of every queue in this crate, by `lcrq-core`'s and
//! `lcrq-channel`'s tests, and by the workspace integration tests. Not
//! compiled out of tests builds (it is ordinary code) so downstream crates
//! can reuse it.
//!
//! Every concurrent test checks delivery the same way. Producer `p` sends
//! [`encode`]`(p, 0)`, `encode(p, 1)`, … ([`items`] lists them all), each
//! consumer keeps what it got in the order it got it, and
//! [`check_delivery`] holds those streams against what was sent: every item
//! exactly once, and each producer's items in order within every stream.
//! Both follow from a linearizable FIFO (paper §4.2) and scale to any run
//! length; cross-consumer order and honest EMPTY are not checked.

use crate::ConcurrentQueue;
use std::collections::{HashMap, VecDeque};
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

/// Every item `producers` producers send when each sends `per_producer`:
/// `encode(p, seq)` for each `p < producers` and `seq < per_producer`.
pub fn items(producers: usize, per_producer: u64) -> Vec<u64> {
    (0..producers)
        .flat_map(|p| (0..per_producer).map(move |seq| encode(p, seq)))
        .collect()
}

/// Checks what a concurrent run delivered against what it sent.
///
/// `sent` is every accepted item, in any order. `streams` holds each
/// consumer's items in the order that consumer got them; a final drain is
/// one more stream. Items are [`encode`]d. The run fails if an item was
/// lost, delivered twice (within one stream or across two) or never sent,
/// or if a stream saw one producer's sequence numbers go backwards.
///
/// Returns what went wrong instead of panicking, so each caller keeps its
/// own context (label, scenario, `LCRQ_TEST_SEED=` replay line) in its
/// panic message. The error names an item as `producer:seq`.
pub fn check_delivery(sent: &[u64], streams: &[Vec<u64>]) -> Result<(), String> {
    check_delivery_within(sent, streams, 0)
}

/// [`check_delivery`] for the relaxed harnesses: within one stream an item
/// may follow at most `relaxation` later items of its producer.
fn check_delivery_within(
    sent: &[u64],
    streams: &[Vec<u64>],
    relaxation: u64,
) -> Result<(), String> {
    let mut delivered: HashMap<u64, bool> = sent.iter().map(|&v| (v, false)).collect();
    if delivered.len() != sent.len() {
        return Err("`sent` names an item twice".into());
    }
    for (c, stream) in streams.iter().enumerate() {
        let mut newest: HashMap<usize, u64> = HashMap::new();
        for &v in stream {
            let (p, seq) = decode(v);
            match delivered.get_mut(&v) {
                None => return Err(format!("stream {c} got {p}:{seq}, which was never sent")),
                Some(true) => return Err(format!("{p}:{seq} was delivered twice")),
                Some(got) => *got = true,
            }
            let prev = newest.entry(p).or_insert(seq);
            if seq.saturating_add(relaxation) < *prev {
                return Err(format!(
                    "stream {c} got {p}:{seq} after {p}:{prev} (relaxation {relaxation})"
                ));
            }
            *prev = (*prev).max(seq);
        }
    }
    let lost: Vec<(usize, u64)> = delivered
        .into_iter()
        .filter(|&(_, got)| !got)
        .map(|(v, _)| decode(v))
        .collect();
    match lost.iter().min() {
        Some((p, seq)) => Err(format!("{} items were lost, first {p}:{seq}", lost.len())),
        None => Ok(()),
    }
}

/// Multi-producer multi-consumer stress test.
///
/// `producers` threads each enqueue `per_producer` [`encode`]d items while
/// `consumers` threads dequeue until everything is drained; then
/// [`check_delivery`]. Panics on any violation.
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
    stress(queue, producers, consumers, per_producer, None, relaxation)
}

/// [`mpmc_stress`] over the *batch* API: producers move items with
/// [`enqueue_batch`](ConcurrentQueue::enqueue_batch) in chunks of `batch`
/// and consumers with [`dequeue_batch`](ConcurrentQueue::dequeue_batch).
/// A batch is a sequence of individual operations (see the trait docs), so
/// the same check applies. Panics on any violation.
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
/// `relaxation` parameter as [`mpmc_stress_relaxed`].
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
    assert!(batch > 0);
    stress(
        queue,
        producers,
        consumers,
        per_producer,
        Some(batch),
        relaxation,
    )
}

/// The one producer/consumer loop of the stress harnesses: the scalar
/// calls, or with `batch` the batch calls of up to that many items.
fn stress<Q: ConcurrentQueue>(
    queue: &Q,
    producers: usize,
    consumers: usize,
    per_producer: u64,
    batch: Option<usize>,
    relaxation: u64,
) {
    assert!(producers > 0 && consumers > 0);
    let sent = items(producers, per_producer);
    let total = sent.len() as u64;
    let dequeued = AtomicU64::new(0);
    let barrier = Barrier::new(producers + consumers);
    let (dequeued, barrier) = (&dequeued, &barrier);
    let streams: Vec<Vec<u64>> = std::thread::scope(|s| {
        let per = per_producer as usize;
        for p in 0..producers {
            let mine = &sent[p * per..(p + 1) * per];
            s.spawn(move || {
                barrier.wait();
                match batch {
                    Some(max) => mine.chunks(max).for_each(|c| queue.enqueue_batch(c)),
                    None => mine.iter().for_each(|&v| queue.enqueue(v)),
                }
            });
        }
        let consumers: Vec<_> = (0..consumers)
            .map(|_| {
                s.spawn(move || {
                    barrier.wait();
                    let mut got = Vec::new();
                    while dequeued.load(Ordering::Relaxed) < total {
                        let taken = match batch {
                            Some(max) => queue.dequeue_batch(&mut got, max),
                            None => usize::from(queue.dequeue().map(|v| got.push(v)).is_some()),
                        };
                        if taken > 0 {
                            dequeued.fetch_add(taken as u64, Ordering::Relaxed);
                        } else {
                            std::thread::yield_now();
                        }
                    }
                    got
                })
            })
            .collect();
        consumers.into_iter().map(|h| h.join().unwrap()).collect()
    });
    check_delivery_within(&sent, &streams, relaxation)
        .unwrap_or_else(|e| panic!("[{}] {e}", queue.name()));
    let drained = match batch {
        Some(_) => queue.dequeue_batch(&mut Vec::new(), 1) == 0,
        None => queue.dequeue().is_none(),
    };
    assert!(drained, "[{}] queue should be drained", queue.name());
}

/// Runs a single-threaded randomized sequence of scalar and batch
/// operations against the queue and a `VecDeque` model, asserting
/// identical observable behaviour: batch enqueues append in slice order,
/// batch dequeues pop in FIFO order and come up short only when the model
/// is empty too.
///
/// `seed` may be overridden with the `LCRQ_TEST_SEED` env var (see
/// [`lcrq_util::rng::test_seed`]); failures print the effective seed.
pub fn model_check<Q: ConcurrentQueue>(queue: &Q, seed: u64) {
    let seed = lcrq_util::rng::test_seed(seed);
    let replay = format!("(reproduce with LCRQ_TEST_SEED={seed})");
    let mut rng = lcrq_util::XorShift64Star::new(seed);
    let mut model: VecDeque<u64> = VecDeque::new();
    let mut next_val = 0u64;
    for step in 0..10_000 {
        // Bias toward enqueues early, dequeues late, to sweep queue sizes.
        let enq_bias = if step < 5_000 { 60 } else { 40 };
        // One step in four is a batch of 0..40 items.
        let batch = rng.chance(1, 4).then(|| rng.next_below(40) as usize);
        if rng.chance(enq_bias, 100) {
            let vals: Vec<u64> = (next_val..).take(batch.unwrap_or(1)).collect();
            match batch {
                Some(_) => queue.enqueue_batch(&vals),
                None => queue.enqueue(next_val),
            }
            next_val += vals.len() as u64;
            model.extend(vals);
        } else if let Some(max) = batch {
            let mut out = Vec::new();
            let taken = queue.dequeue_batch(&mut out, max);
            assert_eq!(taken, out.len(), "step {step}: taken != out.len() {replay}");
            assert!(taken <= max, "step {step}: over-delivered {replay}");
            let expect: Vec<u64> = (0..taken).map_while(|_| model.pop_front()).collect();
            assert_eq!(out, expect, "divergence from model at step {step} {replay}");
            assert!(
                taken == max || model.is_empty(),
                "step {step}: short batch but model holds items {replay}"
            );
        } else {
            assert_eq!(
                queue.dequeue(),
                model.pop_front(),
                "divergence from model at step {step} {replay}"
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

    #[test]
    fn model_check_accepts_a_correct_queue() {
        let q = GoodQueue(Default::default());
        model_check(&q, 7);
        mpmc_stress(&q, 2, 2, 2_000);
    }

    #[test]
    fn batch_harnesses_accept_a_correct_queue() {
        let q = GoodQueue(Default::default());
        model_check(&q, 11);
        mpmc_batch_stress(&q, 2, 2, 2_000, 16);
    }

    /// Four broken runs of two producers and two consumers, each of which
    /// `check_delivery` must reject.
    #[test]
    fn check_delivery_rejects_planted_bugs() {
        let (a, b) = (|s| encode(0, s), |s| encode(1, s));
        let sent = items(2, 3);
        let good = [vec![a(0), b(0), a(1)], vec![b(1), a(2), b(2)]];
        assert_eq!(check_delivery(&sent, &good), Ok(()));
        // (planted bug, the streams, what the error must name)
        let planted = [
            (
                "a lost item",
                [vec![a(0), b(0), a(1)], vec![b(1), a(2)]],
                "lost",
            ),
            (
                "one item in two streams plus one lost: the count is unchanged",
                [vec![a(0), b(0), a(1)], vec![b(1), a(1), b(2)]],
                "twice",
            ),
            (
                "one producer reordered",
                [vec![a(1), b(0), a(0)], vec![b(1), a(2), b(2)]],
                "after",
            ),
            (
                "an item never sent",
                [vec![a(0), b(0), a(1)], vec![b(1), a(2), b(2), b(3)]],
                "never sent",
            ),
        ];
        for (bug, streams, names) in planted {
            let err = check_delivery(&sent, &streams).expect_err(bug);
            assert!(err.contains(names), "{bug}: {err}");
        }
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

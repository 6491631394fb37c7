//! The paper's enqueue/dequeue-pairs workload (§5, "Methodology"): the one
//! pairs loop every paper bin and the `pairwise` arena run.
//!
//! Numbers are only meaningful if the queue is honest: after the clock
//! stops, [`run_workload`] drains the queue and reconciles the dequeue count
//! *and* a wrapping value checksum against everything enqueued (prefill
//! included). A lossy or duplicating queue panics with the replay seed
//! instead of posting a fast-looking number.

use lcrq_queues::ConcurrentQueue;
use lcrq_util::metrics::{self, Event};
use lcrq_util::rng::{splitmix64, test_seed};
use lcrq_util::spin::spin_for_ns;
use lcrq_util::topology::set_current_cluster;
use lcrq_util::{LatencyHistogram, XorShift64Star};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Parameters of one measured run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Number of worker threads.
    pub threads: usize,
    /// Enqueue/dequeue pairs per thread (the paper uses 10^7; scale down on
    /// small hosts).
    pub pairs: u64,
    /// Items enqueued before the measurement starts (Figure 7a uses 2^16).
    pub prefill: u64,
    /// Inclusive range of the random inter-operation pause in ns (paper:
    /// `(0, 100)`; chaoran's arena: `(50, 150)`; `(0, 0)` disables).
    pub delay_ns: (u64, u64),
    /// Base seed of the pause schedule: thread `t` draws from
    /// `splitmix64(seed ^ splitmix64(t))`, so a failure's printed
    /// `LCRQ_TEST_SEED` replays it.
    pub seed: u64,
    /// Simulated clusters: thread `t` declares cluster `t % clusters`
    /// (matching the paper's round-robin socket pinning). 1 = flat.
    pub clusters: usize,
    /// Record per-operation latency (Figure 8); adds two clock reads per op.
    /// With `batch > 1` the histogram records per-*batch* call latency.
    pub record_latency: bool,
    /// Pin threads round-robin over available CPUs (no-op on 1-CPU hosts).
    pub pin: bool,
    /// Operations per batch call: 1 runs the paper's scalar pairs loop;
    /// `k > 1` moves `k` items per `enqueue_batch`/`dequeue_batch` call,
    /// exercising the multi-slot F&A reservation path (one F&A per k ops on
    /// LCRQ instead of one per op). Totals stay `2 × threads × pairs`.
    pub batch: usize,
}

impl RunConfig {
    /// A small default: 10⁴ pairs, paper-style ≤ 100 ns jitter, seed from
    /// `LCRQ_TEST_SEED` when set.
    pub fn new(threads: usize) -> Self {
        Self {
            threads,
            pairs: 10_000,
            prefill: 0,
            delay_ns: (0, 100),
            seed: test_seed(0x9E37),
            clusters: 1,
            record_latency: false,
            pin: true,
            batch: 1,
        }
    }

    /// Returns `self` with [`batch`](RunConfig::batch) set to `k`.
    pub fn with_batch(mut self, k: usize) -> Self {
        assert!(k > 0, "batch must be at least 1");
        self.batch = k;
        self
    }
}

/// Results of one measured run.
#[derive(Debug)]
pub struct RunResult {
    /// Wall-clock duration of the measured region.
    pub wall: Duration,
    /// Completed operations (2 × threads × pairs).
    pub total_ops: u64,
    /// Throughput in million operations per second.
    pub mops: f64,
    /// Software performance counters accumulated during the run.
    pub counters: metrics::Snapshot,
    /// Merged per-operation latency histogram (if requested).
    pub latency: Option<LatencyHistogram>,
    /// Number of threads the run used (for derived statistics).
    pub threads_used: usize,
}

impl RunResult {
    /// Mean per-operation latency in nanoseconds, measured as wall time ×
    /// threads / ops — the "latency" the paper's tables report (total CPU
    /// time per completed operation).
    pub fn mean_op_latency_ns(&self) -> f64 {
        self.wall.as_nanos() as f64 * self.threads_used as f64 / self.total_ops as f64
    }
}

/// [`ConcurrentQueue::name`] of the arena's F&A upper bound, the one queue
/// whose dequeues fabricate values: [`run_workload`] neither drains nor
/// reconciles it.
pub const SYNTHETIC: &str = "faa";

/// Runs the pairs workload once and collects throughput + counters, then
/// drains the queue and reconciles delivery.
///
/// # Panics
///
/// If the values dequeued during the run plus those drained after it are
/// not exactly the values enqueued (count and wrapping checksum): the queue
/// lost or duplicated an item. The message names the replay seed.
pub fn run_workload<Q: ConcurrentQueue>(queue: &Q, cfg: &RunConfig) -> RunResult {
    let (lo, hi) = cfg.delay_ns;
    assert!(cfg.threads > 0 && cfg.pairs > 0 && lo <= hi);
    let pause = move |rng: &mut XorShift64Star| {
        if hi > 0 {
            spin_for_ns(lo + rng.next_below(hi - lo + 1));
        }
    };
    // Prefill runs on the calling thread, whose counts are never summed, so
    // its atomic operations (including any ring spills) do not pollute the
    // measured per-operation statistics.
    for i in 0..cfg.prefill {
        queue.enqueue(i);
    }

    // `start` releases the workers; `done` stops the clock once all have
    // finished their pairs. Worker 0 then drains, so the drain adds no
    // thread to the queue (P-Sim admits at most 64 per instance).
    let start = Barrier::new(cfg.threads + 1);
    let done = Barrier::new(cfg.threads + 1);
    let (start_ref, done_ref) = (&start, &done);
    let drain = queue.name() != SYNTHETIC;

    let (wall, counters, latency, count, sum) = std::thread::scope(|s| {
        let mut workers = Vec::with_capacity(cfg.threads);
        for t in 0..cfg.threads {
            workers.push(s.spawn(move || {
                if cfg.pin {
                    let _ = lcrq_util::affinity::pin_round_robin(t);
                }
                set_current_cluster(t % cfg.clusters.max(1));
                let mut rng = XorShift64Star::new(splitmix64(cfg.seed ^ splitmix64(t as u64)));
                let mut local_hist = cfg.record_latency.then(LatencyHistogram::new);
                // What this worker dequeued: the reconciler's input.
                let (mut count, mut sum) = (0u64, 0u64);
                start_ref.wait();
                if cfg.batch <= 1 {
                    for i in 0..cfg.pairs {
                        let v = ((t as u64) << 40) | i;
                        if let Some(h) = &mut local_hist {
                            let t0 = Instant::now();
                            queue.enqueue(v);
                            h.record(t0.elapsed().as_nanos() as u64);
                        } else {
                            queue.enqueue(v);
                        }
                        metrics::inc(Event::EnqOp);
                        pause(&mut rng);
                        let got = if let Some(h) = &mut local_hist {
                            let t0 = Instant::now();
                            let got = queue.dequeue();
                            h.record(t0.elapsed().as_nanos() as u64);
                            got
                        } else {
                            queue.dequeue()
                        };
                        if let Some(v) = got {
                            metrics::inc(Event::DeqOp);
                            count += 1;
                            sum = sum.wrapping_add(v);
                        } else {
                            metrics::inc(Event::DeqEmpty);
                        }
                        pause(&mut rng);
                    }
                } else {
                    // Batched pairs: same 2 × pairs operation total, moved
                    // k at a time. A dequeue-batch shortfall counts one
                    // DeqEmpty per unfulfilled slot — the accounting twin
                    // of the scalar loop's empty dequeues.
                    let mut vals = Vec::with_capacity(cfg.batch);
                    let mut got = Vec::with_capacity(cfg.batch);
                    let mut i = 0u64;
                    while i < cfg.pairs {
                        let n = (cfg.batch as u64).min(cfg.pairs - i) as usize;
                        vals.clear();
                        vals.extend((0..n as u64).map(|j| ((t as u64) << 40) | (i + j)));
                        if let Some(h) = &mut local_hist {
                            let t0 = Instant::now();
                            queue.enqueue_batch(&vals);
                            h.record(t0.elapsed().as_nanos() as u64);
                        } else {
                            queue.enqueue_batch(&vals);
                        }
                        metrics::add(Event::EnqOp, n as u64);
                        pause(&mut rng);
                        got.clear();
                        let taken = if let Some(h) = &mut local_hist {
                            let t0 = Instant::now();
                            let taken = queue.dequeue_batch(&mut got, n);
                            h.record(t0.elapsed().as_nanos() as u64);
                            taken
                        } else {
                            queue.dequeue_batch(&mut got, n)
                        };
                        metrics::add(Event::DeqOp, taken as u64);
                        metrics::add(Event::DeqEmpty, (n - taken) as u64);
                        count += taken as u64;
                        sum = got.iter().fold(sum, |s, &v| s.wrapping_add(v));
                        pause(&mut rng);
                        i += n as u64;
                    }
                }
                // A fresh thread: everything it ever counted is this run's.
                let counts = metrics::local_snapshot();
                done_ref.wait();
                if t == 0 && drain {
                    while let Some(v) = queue.dequeue() {
                        count += 1;
                        sum = sum.wrapping_add(v);
                    }
                }
                (counts, local_hist, count, sum)
            }));
        }
        // Start the clock *before* releasing the barrier: on a single-core
        // host a worker may otherwise run to completion before this thread
        // is rescheduled, yielding a near-zero measurement.
        let t0 = Instant::now();
        start_ref.wait();
        done_ref.wait();
        let wall = t0.elapsed();
        let mut counters = metrics::Snapshot::default();
        let mut latency = LatencyHistogram::new();
        let (mut count, mut sum) = (0u64, 0u64);
        for w in workers {
            let (counts, hist, c, s) = w.join().expect("workload worker panicked");
            counters += counts;
            if let Some(h) = hist {
                latency.merge(&h);
            }
            count += c;
            sum = sum.wrapping_add(s);
        }
        let latency = cfg.record_latency.then_some(latency);
        (wall, counters, latency, count, sum)
    });

    if drain {
        reconcile(queue, cfg, count, sum);
    }
    let total_ops = 2 * cfg.threads as u64 * cfg.pairs;
    RunResult {
        wall,
        total_ops,
        mops: total_ops as f64 / wall.as_secs_f64() / 1e6,
        counters,
        latency,
        threads_used: cfg.threads,
    }
}

/// Checks that every enqueued value came out exactly once, given the
/// workers' dequeue `count` and wrapping `sum` (worker 0's drain included).
/// The prefill enqueued `i` for `i < prefill`; worker `t` enqueued
/// `(t << 40) | i` for `i < pairs`, and `i < 2^40` makes that `|` a `+`.
fn reconcile<Q: ConcurrentQueue>(queue: &Q, cfg: &RunConfig, count: u64, sum: u64) {
    // Σ_{i<n} i, wrapping (the u128 product cannot overflow).
    let triangle = |n: u64| (n as u128 * n.saturating_sub(1) as u128 / 2) as u64;
    let expect_count = cfg.prefill + cfg.threads as u64 * cfg.pairs;
    let expect_sum = (0..cfg.threads as u64).fold(triangle(cfg.prefill), |s, t| {
        s.wrapping_add((t << 40).wrapping_mul(cfg.pairs))
            .wrapping_add(triangle(cfg.pairs))
    });
    assert!(
        count == expect_count && sum == expect_sum,
        "{}: delivery violation: {count} of {expect_count} values accounted for \
         (checksum {sum:#x}, expected {expect_sum:#x}) — replay with LCRQ_TEST_SEED={:#x}",
        queue.name(),
        cfg.seed
    );
}

/// Runs the workload `runs` times and returns the run with median
/// throughput plus the mean throughput (the paper averages 10 runs).
pub fn run_averaged<Q: ConcurrentQueue>(
    mk_queue: impl Fn() -> Q,
    cfg: &RunConfig,
    runs: usize,
) -> (RunResult, f64) {
    assert!(runs > 0);
    let mut results: Vec<RunResult> = (0..runs)
        .map(|_| {
            let q = mk_queue();
            run_workload(&q, cfg)
        })
        .collect();
    let mean = results.iter().map(|r| r.mops).sum::<f64>() / runs as f64;
    results.sort_by(|a, b| a.mops.total_cmp(&b.mops));
    let median = results.remove(runs / 2);
    (median, mean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::MutexDeque;
    use lcrq_core::Lcrq;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn workload_completes_and_counts_ops() {
        let q = Lcrq::new();
        let mut cfg = RunConfig::new(2);
        cfg.pairs = 500;
        cfg.delay_ns = (0, 0);
        cfg.pin = false;
        let r = run_workload(&q, &cfg);
        assert_eq!(r.total_ops, 2_000);
        assert!(r.mops > 0.0);
        let enq = r.counters.get(Event::EnqOp);
        assert_eq!(enq, 1_000);
        assert_eq!(
            r.counters.get(Event::DeqOp) + r.counters.get(Event::DeqEmpty),
            1_000
        );
    }

    #[test]
    fn concurrent_runs_count_only_their_own_threads() {
        // Two runs released together, each on its own queue with one worker
        // (so nothing is ever empty and every count is exact): each result
        // must hold its own worker's counts and nothing else — not the other
        // run's, not the calling thread's prefill.
        let start = Barrier::new(2);
        let run = |pairs: u64| {
            let q = Lcrq::new();
            let mut cfg = RunConfig::new(1);
            cfg.pairs = pairs;
            cfg.prefill = 100;
            cfg.delay_ns = (0, 0);
            cfg.pin = false;
            start.wait();
            run_workload(&q, &cfg).counters
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| run(20_000));
            let b = s.spawn(|| run(30_000));
            (a.join().unwrap(), b.join().unwrap())
        });
        for (c, pairs) in [(a, 20_000), (b, 30_000)] {
            assert_eq!(c.get(Event::EnqOp), pairs);
            assert_eq!(c.get(Event::DeqOp) + c.get(Event::DeqEmpty), pairs);
            assert_eq!(c.get(Event::Faa), 2 * pairs, "one F&A per operation");
        }
    }

    #[test]
    fn batched_workload_counts_ops_and_amortizes_faa() {
        let q = Lcrq::new();
        let mut cfg = RunConfig::new(2).with_batch(16);
        cfg.pairs = 512;
        cfg.delay_ns = (0, 0);
        cfg.pin = false;
        let r = run_workload(&q, &cfg);
        assert_eq!(r.total_ops, 2_048);
        assert_eq!(r.counters.get(Event::EnqOp), 1_024);
        assert_eq!(
            r.counters.get(Event::DeqOp) + r.counters.get(Event::DeqEmpty),
            1_024
        );
        // Every enqueued item must come back out (pairs are balanced and
        // dequeue_batch only falls short on a genuinely empty queue).
        assert!(r.counters.get(Event::BatchEnqueue) >= 2 * 512 / 16);
        assert!(r.counters.mean_enqueue_batch() > 1.0);
        // The batch path must spend far fewer F&As than two per pair.
        assert!(
            r.counters.faa_per_op() < 1.0,
            "k=16 batches should amortize F&A below 1/op, got {}",
            r.counters.faa_per_op()
        );
    }

    #[test]
    fn batched_and_scalar_runs_move_the_same_items() {
        for batch in [1usize, 4, 16] {
            let q = Lcrq::new();
            let mut cfg = RunConfig::new(1).with_batch(batch);
            cfg.pairs = 333; // not a multiple of the batch: exercises the tail
            cfg.delay_ns = (0, 0);
            cfg.pin = false;
            let r = run_workload(&q, &cfg);
            assert_eq!(r.counters.get(Event::EnqOp), 333, "batch={batch}");
            // Single-threaded balanced pairs: nothing may remain.
            assert_eq!(q.dequeue(), None, "batch={batch}");
            assert_eq!(r.counters.get(Event::DeqOp), 333, "batch={batch}");
        }
    }

    #[test]
    fn prefill_leaves_items_behind() {
        let q = Lcrq::new();
        let mut cfg = RunConfig::new(1);
        cfg.pairs = 100;
        cfg.prefill = 50;
        cfg.delay_ns = (0, 0);
        cfg.pin = false;
        let r = run_workload(&q, &cfg);
        // Pairs are balanced, so the 50 prefilled items (or equivalents)
        // remain after the run; the reconciler drained them.
        let left = cfg.prefill + r.counters.get(Event::EnqOp) - r.counters.get(Event::DeqOp);
        assert_eq!(left, 50);
        assert_eq!(q.dequeue(), None, "drained after the run");
        assert_eq!(
            r.counters.get(Event::DeqEmpty),
            0,
            "never empty with prefill"
        );
    }

    #[test]
    fn latency_recording_produces_histogram() {
        let q = Lcrq::new();
        let mut cfg = RunConfig::new(1);
        cfg.pairs = 200;
        cfg.record_latency = true;
        cfg.delay_ns = (0, 0);
        cfg.pin = false;
        let r = run_workload(&q, &cfg);
        let h = r.latency.expect("histogram requested");
        assert_eq!(h.count(), 400);
        assert!(h.percentile(99.0) >= h.percentile(50.0));
    }

    #[test]
    fn averaged_runs_return_median() {
        let cfg = {
            let mut c = RunConfig::new(1);
            c.pairs = 100;
            c.delay_ns = (0, 0);
            c.pin = false;
            c
        };
        let (median, mean) = run_averaged(Lcrq::new, &cfg, 3);
        assert!(median.mops > 0.0 && mean > 0.0);
    }

    #[test]
    fn sim_queue_runs_with_its_full_64_threads() {
        // P-Sim admits 64 threads per instance: the drain must reuse a
        // worker, not make the calling thread the 65th.
        let q = lcrq_queues::SimQueue::new();
        let mut cfg = RunConfig::new(64);
        cfg.pairs = 20;
        cfg.delay_ns = (0, 0);
        cfg.pin = false;
        let r = run_workload(&q, &cfg);
        assert_eq!(r.counters.get(Event::EnqOp), 64 * 20);
    }

    /// A deliberately broken queue: drops every 7th dequeued value. The
    /// reconciler must refuse to report a number for it — the meter-mutant
    /// for the workload itself.
    struct Lossy {
        inner: MutexDeque,
        drops: AtomicU64,
    }

    impl ConcurrentQueue for Lossy {
        fn enqueue(&self, value: u64) {
            self.inner.enqueue(value);
        }

        fn dequeue(&self) -> Option<u64> {
            let v = self.inner.dequeue()?;
            if self.drops.fetch_add(1, Ordering::Relaxed) % 7 == 6 {
                return self.inner.dequeue(); // swallow v: lost forever
            }
            Some(v)
        }

        fn name(&self) -> &'static str {
            "lossy"
        }
    }

    #[test]
    fn lossy_adapter_is_rejected_not_measured() {
        // Plain, prefilled and batched: the expected count and checksum
        // must cover the prefill and the batch loop's values too.
        for (prefill, batch) in [(0, 1), (50, 1), (0, 16), (50, 16)] {
            let mut cfg = RunConfig::new(2).with_batch(batch);
            cfg.pairs = 300;
            cfg.prefill = prefill;
            cfg.delay_ns = (0, 10);
            cfg.pin = false;
            cfg.seed = 0x5EED;
            let q = Lossy {
                inner: MutexDeque::default(),
                drops: AtomicU64::new(0),
            };
            let err = std::panic::catch_unwind(AssertUnwindSafe(|| run_workload(&q, &cfg)))
                .expect_err("a lossy queue must not be measured");
            let err = err.downcast_ref::<String>().expect("formatted panic");
            assert!(err.contains("delivery violation"), "{err}");
            assert!(
                err.contains("LCRQ_TEST_SEED=0x5eed"),
                "must print the seed: {err}"
            );
        }
    }
}

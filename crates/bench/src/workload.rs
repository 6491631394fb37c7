//! The paper's enqueue/dequeue-pairs workload (§5, "Methodology").

use lcrq_queues::ConcurrentQueue;
use lcrq_util::metrics::{self, Event};
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
    /// Upper bound of the random inter-operation pause (paper: 100 ns;
    /// 0 disables).
    pub max_delay_ns: u64,
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
    /// A small default: 4 threads, 10⁴ pairs, paper-style 100 ns jitter.
    pub fn new(threads: usize) -> Self {
        Self {
            threads,
            pairs: 10_000,
            prefill: 0,
            max_delay_ns: 100,
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

/// Runs the pairs workload once and collects throughput + counters.
pub fn run_workload<Q: ConcurrentQueue>(queue: &Q, cfg: &RunConfig) -> RunResult {
    assert!(cfg.threads > 0 && cfg.pairs > 0);
    // Prefill runs on the calling thread, whose counts are never summed, so
    // its atomic operations (including any ring spills) do not pollute the
    // measured per-operation statistics.
    for i in 0..cfg.prefill {
        queue.enqueue(i);
    }

    let barrier = Barrier::new(cfg.threads + 1);
    let barrier_ref = &barrier;

    let (wall, counters, latency) = std::thread::scope(|s| {
        let mut workers = Vec::with_capacity(cfg.threads);
        for t in 0..cfg.threads {
            workers.push(s.spawn(move || {
                if cfg.pin {
                    let _ = lcrq_util::affinity::pin_round_robin(t);
                }
                set_current_cluster(t % cfg.clusters.max(1));
                let mut rng = XorShift64Star::new(0x9E37 + t as u64);
                let mut local_hist = cfg.record_latency.then(LatencyHistogram::new);
                barrier_ref.wait();
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
                        if cfg.max_delay_ns > 0 {
                            spin_for_ns(rng.next_below(cfg.max_delay_ns + 1));
                        }
                        let got = if let Some(h) = &mut local_hist {
                            let t0 = Instant::now();
                            let got = queue.dequeue();
                            h.record(t0.elapsed().as_nanos() as u64);
                            got
                        } else {
                            queue.dequeue()
                        };
                        metrics::inc(if got.is_some() {
                            Event::DeqOp
                        } else {
                            Event::DeqEmpty
                        });
                        if cfg.max_delay_ns > 0 {
                            spin_for_ns(rng.next_below(cfg.max_delay_ns + 1));
                        }
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
                        if cfg.max_delay_ns > 0 {
                            spin_for_ns(rng.next_below(cfg.max_delay_ns + 1));
                        }
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
                        if cfg.max_delay_ns > 0 {
                            spin_for_ns(rng.next_below(cfg.max_delay_ns + 1));
                        }
                        i += n as u64;
                    }
                }
                // A fresh thread: everything it ever counted is this run's.
                (metrics::local_snapshot(), local_hist)
            }));
        }
        // Start the clock *before* releasing the barrier: on a single-core
        // host a worker may otherwise run to completion before this thread
        // is rescheduled, yielding a near-zero measurement.
        let start = Instant::now();
        barrier_ref.wait();
        let mut counters = metrics::Snapshot::default();
        let mut latency = LatencyHistogram::new();
        for w in workers {
            let (counts, hist) = w.join().expect("workload worker panicked");
            counters += counts;
            if let Some(h) = hist {
                latency.merge(&h);
            }
        }
        let latency = cfg.record_latency.then_some(latency);
        (start.elapsed(), counters, latency)
    });

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
    use lcrq_core::Lcrq;

    #[test]
    fn workload_completes_and_counts_ops() {
        let q = Lcrq::new();
        let mut cfg = RunConfig::new(2);
        cfg.pairs = 500;
        cfg.max_delay_ns = 0;
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
            cfg.max_delay_ns = 0;
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
        cfg.max_delay_ns = 0;
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
            cfg.max_delay_ns = 0;
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
        cfg.max_delay_ns = 0;
        cfg.pin = false;
        let r = run_workload(&q, &cfg);
        // Pairs are balanced, so the 50 prefilled items (or equivalents)
        // remain.
        let mut left = 0;
        while q.dequeue().is_some() {
            left += 1;
        }
        assert_eq!(left, 50);
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
        cfg.max_delay_ns = 0;
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
            c.max_delay_ns = 0;
            c.pin = false;
            c
        };
        let (median, mean) = run_averaged(Lcrq::new, &cfg, 3);
        assert!(median.mops > 0.0 && mean > 0.0);
    }
}

//! Ring-churn microbenchmark: allocator traffic of spill-heavy workloads
//! with and without the ring recycling pool (DESIGN.md "Ring recycling").
//!
//! Each round, every thread enqueues a batch several rings long into a
//! tiny-ring LCRQ and drains it back, so nearly every batch closes rings
//! and spills into fresh ones. Without the pool each spill allocates a
//! ring; with it, retired rings are scrubbed and reused, so steady-state
//! allocations drop to (near) zero. The table reports throughput and the
//! allocs/op column that `table2_stats`/`table3_stats` also print.
//!
//! Usage: `ring_churn [--threads 2] [--rounds 10000] [--warmup 2000]
//!                    [--ring-order 4] [--pool-caps 0,8] [--smoke]`

use lcrq_bench::cli::Cli;
use lcrq_core::{Lcrq, LcrqConfig};
use lcrq_util::metrics::{self, Event, Snapshot};
use std::sync::Barrier;
use std::time::Instant;

/// One spill-heavy round: enqueue a multi-ring batch, then take the same
/// number of items back (other threads' items count — the queue is shared).
fn churn(q: &Lcrq, vals: &[u64], out: &mut Vec<u64>) {
    q.enqueue_batch(vals);
    metrics::add(Event::EnqOp, vals.len() as u64);
    let mut got = 0;
    while got < vals.len() {
        out.clear();
        let taken = q.dequeue_batch(out, vals.len() - got);
        got += taken;
        if taken == 0 {
            std::thread::yield_now(); // another thread holds the backlog
        }
    }
    metrics::add(Event::DeqOp, got as u64);
}

fn main() {
    let cli = Cli::from_env();
    let threads = cli.get("threads", 2usize);
    let rounds = cli.get_smoke("rounds", 10_000u64, 500);
    let warmup = cli.get_smoke("warmup", 2_000u64, 100);
    let ring_order = cli.get("ring-order", 4u32);
    let pool_caps = cli.get_list("pool-caps", &[0, 8]);
    let batch = 4 * (1usize << ring_order); // ~4 ring closes per round

    println!("## Ring churn — {threads} thread(s), R = 2^{ring_order}, batch = {batch}");
    println!("# {warmup} warmup + {rounds} measured rounds/thread; allocs/op is the steady-state (post-warmup) ring-allocation rate");
    println!("| pool cap | Mops/s | allocs/op | ring reuse | ring scrub | ring alloc |");
    println!("|----------|--------|-----------|------------|------------|------------|");
    for &cap in &pool_caps {
        let q = Lcrq::with_config(
            LcrqConfig::new()
                .with_ring_order(ring_order)
                .with_ring_pool_capacity(cap),
        );
        let warmed = Barrier::new(threads + 1);
        let (secs, d) = std::thread::scope(|s| {
            let q = &q;
            let warmed = &warmed;
            let mut workers = Vec::with_capacity(threads);
            for _ in 0..threads {
                workers.push(s.spawn(move || {
                    let vals: Vec<u64> = (0..batch as u64).collect();
                    let mut out = Vec::with_capacity(batch);
                    for _ in 0..warmup {
                        churn(q, &vals, &mut out);
                    }
                    let before = metrics::local_snapshot();
                    warmed.wait(); // measured region starts together
                    for _ in 0..rounds {
                        churn(q, &vals, &mut out);
                    }
                    metrics::local_snapshot().delta_since(&before)
                }));
            }
            warmed.wait();
            let start = Instant::now();
            let d: Snapshot = workers.into_iter().map(|w| w.join().unwrap()).sum();
            (start.elapsed().as_secs_f64(), d)
        });
        let ops = 2.0 * (threads as u64 * rounds * batch as u64) as f64;
        println!(
            "| {cap} | {:.2} | {:.4} | {} | {} | {} |",
            ops / secs / 1e6,
            d.allocs_per_op(),
            d.get(Event::RingReuse),
            d.get(Event::RingScrub),
            d.get(Event::RingAlloc),
        );
    }
}

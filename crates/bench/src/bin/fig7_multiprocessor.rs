//! Figure 7: throughput on four processors (threads spread round-robin
//! across sockets), initially empty (7b) or prefilled with 2^16 items (7a).
//!
//! Paper's shape: only the hierarchical algorithms (LCRQ+H, H-Queue) scale
//! past ~16 threads; prefilling *helps* LCRQ (≈+5%, dequeuers stop waiting
//! for matching enqueuers) but *hurts* the combining queues (reduced
//! locality: CC-Queue ≈−10%, H-Queue ≈−40%), stretching LCRQ's lead from
//! ≈1.5× to ≈1.8× and LCRQ+H's from 1.5× to 2.5×.
//!
//! Substitution (DESIGN.md P1): this host has one socket (and one hardware
//! thread), so "processors" are 4 *simulated* clusters — thread `t` declares
//! cluster `t % 4`, exercising the identical H-Synch / LCRQ+H cluster code
//! paths without NUMA latency.
//!
//! Usage: `fig7_multiprocessor [--threads 4,8,16,32,80] [--pairs 10000]
//!         [--runs 3] [--ring-order 12] [--clusters 4] [--prefill 65536]
//!         [--preempt-ppm 0] [--smoke]`
//!
//! A non-zero `--preempt-ppm` needs `--features fault-injection` (DESIGN.md P6).

use lcrq_bench::cli::Cli;
use lcrq_bench::{run_averaged, QueueKind, QueueSpec, RunConfig};

fn main() {
    let cli = Cli::from_env();
    let threads = cli.get_list_smoke("threads", &[4, 8, 16, 32, 48, 80], &[2, 4]);
    let pairs: u64 = cli.get_smoke("pairs", 10_000u64, 300);
    let runs: usize = cli.get_smoke("runs", 3usize, 1);
    let ring_order: u32 = cli.get("ring-order", 12u32);
    let clusters: usize = cli.get("clusters", 4usize);
    let prefill: u64 = cli.get("prefill", 0u64);
    // The scheduler adversary, off by default (DESIGN.md P6).
    println!("{}", cli.arm_preemption());
    let specs: Vec<QueueSpec> = [
        QueueKind::LcrqH,
        QueueKind::Lcrq,
        QueueKind::LcrqCas,
        QueueKind::H,
        QueueKind::Cc,
    ]
    .into_iter()
    .map(|k| {
        QueueSpec::backend(k)
            .with_ring_order(ring_order)
            .with_clusters(clusters)
    })
    .collect();

    println!(
        "# Figure 7{}: {} simulated clusters, queue initially {} (Mops/s)",
        if prefill > 0 { "a" } else { "b" },
        clusters,
        if prefill > 0 { "full (2^16)" } else { "empty" },
    );
    println!("# pairs/thread = {pairs}, runs = {runs} (median), ring R = 2^{ring_order}");
    print!("| threads |");
    for s in &specs {
        print!(" {} |", s.family());
    }
    println!();
    print!("|---------|");
    for _ in &specs {
        print!("---|");
    }
    println!();
    for &t in &threads {
        print!("| {t} |");
        for spec in &specs {
            let mut cfg = RunConfig::new(t);
            cfg.pairs = pairs;
            cfg.prefill = prefill;
            cfg.clusters = clusters;
            let (median, _mean) = run_averaged(|| spec.build(), &cfg, runs);
            print!(" {:.3} |", median.mops);
        }
        println!();
    }
}

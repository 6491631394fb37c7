//! Table 3: four-processor average per-operation statistics at 80 threads,
//! queue initially empty and initially full (2^16 items).
//!
//! Same substitutions as `table2_stats` (software counters, simulated
//! clusters — DESIGN.md P1/P3). Paper's shape: prefilling *reduces* LCRQ's
//! instruction count (dequeuers stop spinning for matching enqueuers:
//! 307 → 279 instructions/op) while *inflating* the combining queues' work
//! (CC-Queue 16k → 18k instructions/op); LCRQ/LCRQ+H keep exactly 2 atomic
//! ops per operation in both settings.
//!
//! Usage: `table3_stats [--threads 80] [--pairs 2000] [--ring-order 12]
//!         [--clusters 4] [--preempt-ppm 0] [--smoke]`
//!
//! A non-zero `--preempt-ppm` needs `--features fault-injection` (DESIGN.md P6).

use lcrq_bench::cli::Cli;
use lcrq_bench::{run_workload, QueueKind, QueueSpec, RunConfig};
use lcrq_util::metrics::Event;

fn main() {
    let cli = Cli::from_env();
    let threads: usize = cli.get_smoke("threads", 80usize, 8);
    let pairs: u64 = cli.get_smoke("pairs", 2_000u64, 200);
    let ring_order: u32 = cli.get("ring-order", 12u32);
    let clusters: usize = cli.get("clusters", 4usize);
    // The scheduler adversary, off by default (DESIGN.md P6).
    println!("{}", cli.arm_preemption());
    let kinds = [
        QueueKind::LcrqH,
        QueueKind::Lcrq,
        QueueKind::LcrqCas,
        QueueKind::H,
        QueueKind::Cc,
    ];

    for prefill in [0u64, 1 << 16] {
        println!(
            "## Table 3 — {threads} threads, {clusters} simulated clusters, queue initially {}",
            if prefill > 0 { "full (2^16)" } else { "empty" }
        );
        println!("# pairs/thread = {pairs}, ring R = 2^{ring_order}");
        println!("| queue | latency (µs/op) | atomic ops/op | F&A/op | allocs/op | parks/op | CAS fail | CAS2 fail | spin waits/op | combiner batch |");
        println!("|-------|-----------------|---------------|--------|-----------|----------|----------|-----------|---------------|----------------|");
        for &k in &kinds {
            let mut cfg = RunConfig::new(threads);
            cfg.pairs = pairs;
            cfg.prefill = prefill;
            cfg.clusters = clusters;
            let q = QueueSpec::backend(k)
                .with_ring_order(ring_order)
                .with_clusters(clusters)
                .build();
            let r = run_workload(&q, &cfg);
            let c = &r.counters;
            let rounds = c.get(Event::CombinerRound);
            let batch = if rounds > 0 {
                format!("{:.1}", c.get(Event::OpsCombined) as f64 / rounds as f64)
            } else {
                "-".to_string()
            };
            let spins = c.get(Event::SpinWait) as f64 / c.total_ops().max(1) as f64;
            println!(
                "| {} | {:.2} | {:.2} | {:.2} | {:.4} | {:.3} | {:.1}% | {:.1}% | {spins:.2} | {batch} |",
                k.name(),
                r.mean_op_latency_ns() / 1_000.0,
                c.atomic_ops_per_op(),
                c.faa_per_op(),
                c.allocs_per_op(),
                c.parks_per_op(),
                100.0 * c.cas_failure_rate(),
                100.0 * c.cas2_failure_rate(),
            );
        }
        println!();
    }
}

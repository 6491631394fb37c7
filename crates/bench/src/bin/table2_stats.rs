//! Table 2: single-processor average per-operation statistics at 1 and 20
//! threads (queue initially empty).
//!
//! The paper's columns are relative latency, instructions, atomic
//! operations, and L1/L2 misses from hardware counters. We reproduce the
//! *latency* and *atomic operations* columns exactly and substitute software
//! counters for the rest (DESIGN.md P3): CAS/CAS2 failure rates and ring
//! retries measure the same wasted work the paper's miss counts proxy.
//!
//! Paper's shape at 20 threads: LCRQ ≈ 2 atomic ops/op with near-zero CAS
//! failures; LCRQ-CAS > 3 atomic ops/op with a high failure rate; CC-Queue
//! ≈ 1; FC ≈ 0.21 (amortized through the combiner); MS ≈ 4.3 with heavy
//! failures.
//!
//! Usage: `table2_stats [--threads 1,20] [--pairs 20000] [--ring-order 12]
//!         [--preempt-ppm 0] [--smoke]`
//!
//! A non-zero `--preempt-ppm` needs `--features fault-injection` (DESIGN.md P6).

use lcrq_bench::cli::Cli;
use lcrq_bench::{run_workload, QueueKind, QueueSpec, RunConfig};
use lcrq_util::metrics::Event;

fn main() {
    let cli = Cli::from_env();
    let thread_points = cli.get_list_smoke("threads", &[1, 20], &[1, 2]);
    let pairs: u64 = cli.get_smoke("pairs", 20_000u64, 300);
    let ring_order: u32 = cli.get("ring-order", 12u32);
    // The scheduler adversary, off by default (DESIGN.md P6).
    println!("{}", cli.arm_preemption());
    let kinds = [
        QueueKind::Lcrq,
        QueueKind::LcrqCas,
        QueueKind::Lscq,
        QueueKind::LscqCas,
        QueueKind::Wcq,
        QueueKind::Cc,
        QueueKind::Fc,
        QueueKind::Ms,
    ];

    for &threads in &thread_points {
        println!("## Table 2 — {threads} thread(s), queue initially empty");
        println!("# pairs/thread = {pairs}, ring R = 2^{ring_order}");
        println!("| queue | latency (ns/op) | rel. latency | atomic ops/op | F&A/op | allocs/op | parks/op | CAS fail rate | CAS2 fail rate | combiner batch |");
        println!("|-------|-----------------|--------------|---------------|--------|-----------|----------|---------------|----------------|----------------|");
        let mut base_latency = None;
        for &k in &kinds {
            let mut cfg = RunConfig::new(threads);
            cfg.pairs = pairs;
            let q = QueueSpec::backend(k).with_ring_order(ring_order).build();
            let r = run_workload(&q, &cfg);
            let lat = r.mean_op_latency_ns();
            let rel = base_latency.map_or(1.0, |b: f64| lat / b);
            if base_latency.is_none() {
                base_latency = Some(lat);
            }
            let c = &r.counters;
            let rounds = c.get(Event::CombinerRound);
            let batch = if rounds > 0 {
                format!("{:.1}", c.get(Event::OpsCombined) as f64 / rounds as f64)
            } else {
                "-".to_string()
            };
            println!(
                "| {} | {lat:.0} | {rel:.2}x | {:.2} | {:.2} | {:.4} | {:.3} | {:.1}% | {:.1}% | {batch} |",
                k.name(),
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

//! Figure 8: cumulative distribution of per-operation latency at maximum
//! concurrency.
//!
//! Paper's shape: LCRQ's latency distribution stochastically dominates the
//! combining queues' — e.g. on one processor 42% of LCRQ operations finish
//! in ≤0.24 µs while *no* combining operation does (combining operations
//! either serve everyone else or wait for a combiner). LCRQ+H has a heavy
//! but rare tail from its cluster-gate timeout.
//!
//! Usage: `fig8_latency [--threads 20] [--pairs 5000] [--ring-order 12]
//!         [--clusters 1] [--queues lcrq,cc-queue,fc-queue,ms]
//!         [--preempt-ppm 0] [--smoke]`
//!
//! A non-zero `--preempt-ppm` needs `--features fault-injection` (DESIGN.md P6).

use lcrq_bench::cli::Cli;
use lcrq_bench::{run_workload, QueueKind, QueueSpec, RunConfig};

fn main() {
    let cli = Cli::from_env();
    let threads: usize = cli.get_smoke("threads", 20usize, 4);
    let pairs: u64 = cli.get_smoke("pairs", 5_000u64, 300);
    let ring_order: u32 = cli.get("ring-order", 12u32);
    let clusters: usize = cli.get("clusters", 1usize);
    // The scheduler adversary, off by default (DESIGN.md P6).
    println!("{}", cli.arm_preemption());
    let specs: Vec<QueueSpec> = match cli.get_str("queues") {
        Some(s) => QueueSpec::parse_list(s).unwrap_or_else(|e| panic!("--queues: {e}")),
        None => [QueueKind::Lcrq, QueueKind::Cc, QueueKind::Fc, QueueKind::Ms]
            .into_iter()
            .map(QueueSpec::backend)
            .collect(),
    };
    let specs: Vec<QueueSpec> = specs
        .into_iter()
        .map(|s| s.with_ring_order(ring_order).with_clusters(clusters))
        .collect();

    println!("# Figure 8: operation latency CDF at {threads} threads");
    println!("# pairs/thread = {pairs}, ring R = 2^{ring_order}, clusters = {clusters}");

    // Percentile table (transposed CDF — easier to read in text).
    let percentiles = [10.0, 25.0, 50.0, 75.0, 80.0, 90.0, 95.0, 97.0, 99.0, 99.9];
    print!("| percentile |");
    let mut hists = Vec::new();
    for spec in &specs {
        print!(" {} (ns) |", spec.family());
        let mut cfg = RunConfig::new(threads);
        cfg.pairs = pairs;
        cfg.clusters = clusters;
        cfg.record_latency = true;
        let q = spec.build();
        let r = run_workload(&q, &cfg);
        hists.push(r.latency.expect("latency requested"));
    }
    println!();
    print!("|------------|");
    for _ in &specs {
        print!("---|");
    }
    println!();
    for &p in &percentiles {
        print!("| p{p} |");
        for h in &hists {
            print!(" {} |", h.percentile(p));
        }
        println!();
    }
    println!();
    println!("## CDF points (fraction of ops completing within bound)");
    print!("| bound |");
    for s in &specs {
        print!(" {} |", s.family());
    }
    println!();
    print!("|-------|");
    for _ in &specs {
        print!("---|");
    }
    println!();
    for bound_ns in [
        100u64, 240, 500, 1_000, 2_000, 5_000, 10_000, 100_000, 1_000_000,
    ] {
        print!("| {bound_ns} ns |");
        for h in &hists {
            print!(" {:.1}% |", 100.0 * h.fraction_at_or_below(bound_ns));
        }
        println!();
    }
}

//! Figure 9: impact of the CRQ ring size R on LCRQ throughput (CC-Queue
//! shown for reference, as in the paper).
//!
//! Paper's shape: tiny rings close constantly (every close allocates and
//! links a fresh ring), so throughput climbs with R and saturates once the
//! ring comfortably exceeds the number of running threads — "as long as an
//! individual CRQ has room for all running threads, LCRQ obtains excellent
//! performance" (on one processor R ≥ 32 already beats CC-Queue; on four
//! processors R = 1024 gives the full ≈1.5× advantage).
//!
//! Usage: `fig9_ringsize [--threads 16] [--pairs 10000] [--runs 3]
//!         [--orders 3,5,7,9,11,13,15,17] [--clusters 1] [--preempt-ppm 0]
//!         [--smoke]`
//!
//! A non-zero `--preempt-ppm` needs `--features fault-injection` (DESIGN.md P6).

use lcrq_bench::cli::Cli;
use lcrq_bench::{run_averaged, QueueKind, QueueSpec, RunConfig};

fn main() {
    let cli = Cli::from_env();
    let threads: usize = cli.get_smoke("threads", 16usize, 2);
    let pairs: u64 = cli.get_smoke("pairs", 10_000u64, 300);
    let runs: usize = cli.get_smoke("runs", 3usize, 1);
    let orders = cli.get_list_smoke("orders", &[3, 5, 7, 9, 11, 13, 15, 17], &[3, 7]);
    let clusters: usize = cli.get("clusters", 1usize);
    // The scheduler adversary, off by default (DESIGN.md P6).
    println!("{}", cli.arm_preemption());
    let hierarchical = clusters > 1;

    println!("# Figure 9: ring-size sensitivity at {threads} threads (Mops/s)");
    println!("# pairs/thread = {pairs}, runs = {runs} (median), clusters = {clusters}");

    // Reference line: CC-Queue (or H-Queue in clustered mode) is R-independent.
    let ref_kind = if hierarchical {
        QueueKind::H
    } else {
        QueueKind::Cc
    };
    let mut cfg = RunConfig::new(threads);
    cfg.pairs = pairs;
    cfg.clusters = clusters;
    let ref_spec = QueueSpec::backend(ref_kind).with_clusters(clusters);
    let reference = run_averaged(|| ref_spec.build(), &cfg, runs).0.mops;
    println!(
        "# reference {} throughput: {reference:.3} Mops/s",
        ref_kind.name()
    );

    let kind = if hierarchical {
        QueueKind::LcrqH
    } else {
        QueueKind::Lcrq
    };
    println!(
        "| ring order | R | {} Mops/s | vs {} |",
        kind.name(),
        ref_kind.name()
    );
    println!("|-----------|---|-----------|-------|");
    for &order in &orders {
        let spec = QueueSpec::backend(kind)
            .with_ring_order(order as u32)
            .with_clusters(clusters);
        let median = run_averaged(|| spec.build(), &cfg, runs).0.mops;
        println!(
            "| {order} | {} | {median:.3} | {:.2}x |",
            1u64 << order,
            median / reference
        );
    }
}

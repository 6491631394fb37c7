//! Figure 6: enqueue/dequeue throughput on a single processor.
//!
//! * Part (a): thread sweep at or below the hardware thread count.
//! * Part (b) (`--oversubscribed`): more software threads than hardware
//!   threads. The paper's shape: the lock-based combining queues (FC,
//!   CC-Queue) collapse by 15–40× when a combiner can be preempted while
//!   holding the lock; the nonblocking LCRQ and MS queue hold steady,
//!   putting LCRQ >20× ahead of CC-Queue.
//!
//! NOTE (DESIGN.md P1): this reproduction host has a single hardware
//! thread, so *every* multi-thread point is effectively oversubscribed —
//! the part-(b) effect applies across the whole sweep, which is the regime
//! this machine reproduces most faithfully.
//!
//! Usage: `fig6_throughput [--threads 1,2,4,8,16,20] [--pairs 20000]
//!         [--runs 3] [--ring-order 12] [--oversubscribed]
//!         [--queues lcrq,lcrq-cas,lscq,wcq,cc-queue,fc-queue,ms]
//!         [--preempt-ppm 0] [--smoke]`
//!
//! A non-zero `--preempt-ppm` needs `--features fault-injection` (DESIGN.md
//! P6); run_experiments.sh passes 1000 for part (b).
//!
//! `--queues` takes spec strings (`sharded:shards=8,d=2,inner=lcrq` works;
//! separate parameterized specs with `;`).

use lcrq_bench::cli::Cli;
use lcrq_bench::{run_averaged, QueueKind, QueueSpec, RunConfig};
use lcrq_util::{set_wait_mode, WaitMode};

fn main() {
    let cli = Cli::from_env();
    let over = cli.has("oversubscribed");
    // Part (b) reproduces the paper's *spinning* waiters (its C baselines
    // never yield), which is what makes a preempted combiner catastrophic.
    // Part (a) uses spin-then-yield, approximating a non-oversubscribed
    // multicore where a waiter's spinning never starves the combiner.
    // Override with --wait-mode spin|yield.
    let mode = match cli.get_str("wait-mode") {
        Some("spin") => WaitMode::Spin,
        Some("yield") => WaitMode::SpinThenYield,
        _ if over => WaitMode::Spin,
        _ => WaitMode::SpinThenYield,
    };
    set_wait_mode(mode);
    // Part (b) also wants the scheduler adversary, `--preempt-ppm 1000`
    // (DESIGN.md P6): natural preemption never hits a ~100 ns window.
    println!("{}", cli.arm_preemption());
    let default_threads: &[usize] = if over {
        &[4, 8, 16, 32, 64, 128]
    } else {
        &[1, 2, 4, 8, 12, 16, 20]
    };
    let threads = cli.get_list_smoke("threads", default_threads, &[1, 2]);
    let pairs: u64 = cli.get_smoke("pairs", if over { 5_000 } else { 20_000 }, 300);
    let runs: usize = cli.get_smoke("runs", 3usize, 1);
    let ring_order: u32 = cli.get("ring-order", 12u32);
    let specs: Vec<QueueSpec> = match cli.get_str("queues") {
        Some(s) => QueueSpec::parse_list(s).unwrap_or_else(|e| panic!("--queues: {e}")),
        None => [
            QueueKind::Lcrq,
            QueueKind::LcrqCas,
            QueueKind::Lscq,
            QueueKind::Wcq,
            QueueKind::Cc,
            QueueKind::Fc,
            QueueKind::Ms,
        ]
        .into_iter()
        .map(QueueSpec::backend)
        .collect(),
    };
    // An explicit --ring-order overrides every spec; otherwise each spec's
    // own ring= (or the default) stands.
    let specs: Vec<QueueSpec> = if cli.get_str("ring-order").is_some() {
        specs
            .into_iter()
            .map(|s| s.with_ring_order(ring_order))
            .collect()
    } else {
        specs
    };

    println!(
        "# Figure 6{}: single-processor throughput (Mops/s){}",
        if over { "b" } else { "a" },
        if over { ", oversubscribed" } else { "" }
    );
    println!("# pairs/thread = {pairs}, runs = {runs} (median), ring R = 2^{ring_order}");
    print!("| threads |");
    for s in &specs {
        print!(" {s} |");
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
            let (median, _mean) = run_averaged(|| spec.build(), &cfg, runs);
            print!(" {:.3} |", median.mops);
        }
        println!();
    }
}

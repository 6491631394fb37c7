//! Demonstration of §4's livelock argument: why the CRQ must be able to
//! *close*.
//!
//! The idealized infinite-array queue (Figure 2) is linearizable but
//! livelock-prone: a dequeuer can keep swapping ⊤ into exactly the cell the
//! matching enqueuer is about to use, poisoning it and forcing the enqueuer
//! to retry forever. LCRQ resolves this by letting a starving enqueuer
//! close the ring and move on.
//!
//! This binary runs an enqueuer against a pack of empty-hammering dequeuers
//! on both queues (with the scheduler adversary, `--preempt-ppm`, making
//! the interleavings a parallel machine would produce) and reports, per
//! completed enqueue, how many *placement attempts* were burned — F&As for
//! the infinite queue, ring-node visits for LCRQ — plus LCRQ's
//! escape-hatch usage (rings closed).
//!
//! Usage: `fig2_livelock [--dequeuers 3] [--enqueues 20000] [--preempt-ppm 0]
//!         [--smoke]`
//!
//! A non-zero `--preempt-ppm` needs `--features fault-injection` (DESIGN.md
//! P6); run_experiments.sh passes 2000.

use lcrq_bench::cli::Cli;
use lcrq_core::infinite::InfiniteArrayQueue;
use lcrq_core::{Lcrq, LcrqConfig, Lscq};
use lcrq_queues::ConcurrentQueue;
use lcrq_util::metrics::{self, Event};
use std::sync::atomic::{AtomicBool, Ordering};

struct Outcome {
    attempts_per_enqueue: f64,
    rings_closed: u64,
}

fn hammer<Q: ConcurrentQueue>(
    queue: &Q,
    dequeuers: usize,
    enqueues: u64,
    attempt_event: Event,
) -> Outcome {
    let before = metrics::local_snapshot();
    let stop = AtomicBool::new(false);
    let stop = &stop;
    std::thread::scope(|s| {
        for _ in 0..dequeuers {
            s.spawn(move || {
                let mut drained = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    if queue.dequeue().is_some() {
                        drained += 1;
                    }
                }
                // The dequeuers' counts are deliberately not summed: the
                // measurement isolates the *enqueuer's* wasted work (the
                // livelock victim), and the enqueuer is this thread.
                drained
            });
        }
        for i in 0..enqueues {
            queue.enqueue(i);
        }
        stop.store(true, Ordering::Relaxed);
    });
    let d = metrics::local_snapshot().delta_since(&before);
    Outcome {
        attempts_per_enqueue: d.get(attempt_event) as f64 / enqueues as f64,
        rings_closed: d.get(Event::CrqClosed),
    }
}

fn main() {
    let cli = Cli::from_env();
    let dequeuers: usize = cli.get_smoke("dequeuers", 3usize, 2);
    let enqueues: u64 = cli.get_smoke("enqueues", 20_000u64, 1_000);
    println!("{}", cli.arm_preemption());
    println!("# Figure 2 / §4: dequeuer-poisoning pressure on an enqueuer");
    println!("# {dequeuers} empty-hammering dequeuers vs 1 enqueuer, {enqueues} enqueues");
    println!();

    // The infinite-array queue burns one F&A (and one SWAP) per placement
    // attempt; poisoned cells force retries.
    let inf: InfiniteArrayQueue = InfiniteArrayQueue::new();
    let o = hammer(&inf, dequeuers, enqueues, Event::Faa);
    println!("infinite-array queue (enqueuer-thread events only):");
    println!(
        "  tail F&As per completed enqueue: {:.3}",
        o.attempts_per_enqueue
    );
    println!("  (>1.0 means dequeuers poisoned the cells this enqueuer was");
    println!("   assigned; there is no bound — this is the §4 livelock)");
    println!();

    // LCRQ: ring-node visits per enqueue, and how often the starving-escape
    // (ring close) fired.
    let q = Lcrq::with_config(
        LcrqConfig::new()
            .with_ring_order(8)
            .with_starvation_limit(64),
    );
    let o = hammer(&q, dequeuers, enqueues, Event::NodeVisit);
    println!("lcrq, starvation limit 64 (enqueuer-thread events only):");
    println!(
        "  ring-node visits per enqueue: {:.3}",
        o.attempts_per_enqueue
    );
    println!(
        "  rings closed (starving-enqueuer escape hatch): {}",
        o.rings_closed
    );
    println!();
    println!("LCRQ's attempts stay bounded because a starving enqueuer closes the");
    println!("ring and appends a fresh one seeded with its item (§4.2) — the");
    println!("infinite-array queue has no such escape and can livelock.");
    println!();

    // LSCQ: the portable sibling. Its dequeuers carry a threshold counter
    // (Nikolaev, arXiv:1908.04511) that exhausts on an empty ring, so the
    // storm stops issuing F&As entirely between enqueues; the enqueuer's
    // placement attempts stay bounded the same way LCRQ's do.
    let q = Lscq::with_config(LcrqConfig::new().with_ring_order(8));
    let o = hammer(&q, dequeuers, enqueues, Event::NodeVisit);
    println!("lscq (enqueuer-thread events only):");
    println!(
        "  ring-entry visits per enqueue: {:.3}",
        o.attempts_per_enqueue
    );
    println!(
        "  rings closed (full-ring tantrum escape hatch): {}",
        o.rings_closed
    );
    println!();
    println!("LSCQ needs no double-width CAS for this bound: cycle-tagged 64-bit");
    println!("entries plus the threshold counter give the same livelock freedom");
    println!("with single-word primitives.");
}

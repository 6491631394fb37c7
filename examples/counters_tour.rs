//! A tour of the software performance counters — the instrumentation behind
//! Tables 2 and 3 of the paper.
//!
//! Every atomic primitive in the repository records an event (F&A, SWAP,
//! T&S, CAS/CAS2 attempt and failure), and the algorithms record
//! higher-level events (ring-node visits, empty/unsafe transitions, ring
//! closes, combiner rounds). This example runs the same tiny workload over
//! three queues and prints each one's per-operation profile, reproducing
//! the paper's signature numbers: **LCRQ costs exactly 2 atomic operations
//! per queue operation** (one F&A + one CAS2) while CC-Queue costs 1 (its
//! SWAP, amortizing everything else through the combiner) and the MS queue
//! averages 1.5+ (and melts under contention as its CASes start failing).
//!
//! Counts live in the thread that counted and `local_snapshot()` is the only
//! read. `profile` works on one long-lived thread, so it brackets its region
//! with two reads and takes the difference; a multi-threaded harness has
//! each worker return its `Snapshot` through `join` and sums them.
//!
//! Run with: `cargo run --release --example counters_tour`

use lcrq::util::metrics::{self, Event};
use lcrq::{CcQueue, ConcurrentQueue, Lcrq, MsQueue};

fn profile<Q: ConcurrentQueue>(queue: &Q, ops_label: &str) {
    const PAIRS: u64 = 50_000;
    let before = metrics::local_snapshot();
    for i in 0..PAIRS {
        queue.enqueue(i);
        let got = queue.dequeue();
        debug_assert_eq!(got, Some(i));
    }
    let d = metrics::local_snapshot().delta_since(&before);
    let ops = 2 * PAIRS;

    println!("── {} ({ops_label}) ──", queue.name());
    println!(
        "  atomic ops/op : {:.3}",
        d.atomic_ops() as f64 / ops as f64
    );
    for (name, event) in [
        ("F&A (LOCK XADD)", Event::Faa),
        ("SWAP (XCHG)", Event::Swap),
        ("T&S (LOCK BTS)", Event::Tas),
        ("CAS attempts", Event::CasAttempt),
        ("CAS failures", Event::CasFailure),
        ("CAS2 attempts", Event::Cas2Attempt),
        ("CAS2 failures", Event::Cas2Failure),
        ("ring node visits", Event::NodeVisit),
        ("empty transitions", Event::EmptyTransition),
        ("rings closed", Event::CrqClosed),
        ("combiner rounds", Event::CombinerRound),
        ("ops combined", Event::OpsCombined),
    ] {
        let count = d.get(event);
        if count > 0 {
            println!("  {name:<18}: {:.3}/op", count as f64 / ops as f64);
        }
    }
    println!();
}

fn main() {
    println!("per-operation atomic-instruction profile (cf. paper Tables 2/3)\n");
    profile(
        &Lcrq::new(),
        "F&A spreads threads; CAS2 never contended solo",
    );
    profile(&CcQueue::new(), "one SWAP per op; combiner does the rest");
    profile(&MsQueue::new(), "CAS on head/tail; 1.5 RMW/op uncontended");

    // The same counters are how the benchmark harness regenerates the
    // paper's Table 2/3 rows: see `cargo run -p lcrq-bench --bin table2_stats`.
}

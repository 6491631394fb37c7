//! Robustness under oversubscription: nonblocking vs lock-based combining.
//!
//! The paper's Figure 6b scenario: a service whose worker pool is larger
//! than the machine (think a thread-per-request server under load). With a
//! lock-based combining queue, a descheduled combiner wedges every other
//! thread; with the nonblocking LCRQ nobody waits on anybody. This example
//! runs the same job queue workload over both and prints the throughput
//! ratio.
//!
//! Run with: `cargo run --release --example oversubscribed_service`

use lcrq::util::fault::{self, FaultAction, Scenario, Site};
use lcrq::util::rng::test_seed;
use lcrq::util::{set_wait_mode, WaitMode};
use lcrq::{CcQueue, ConcurrentQueue, Lcrq};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Each worker enqueues a "request", dequeues one, and does a little
/// simulated work (the paper's pairs workload with jitter).
fn serve<Q: ConcurrentQueue>(queue: &Q, workers: usize, requests_per_worker: u64) -> Duration {
    let barrier = Barrier::new(workers + 1);
    let served = AtomicU64::new(0);
    let (barrier, served) = (&barrier, &served);
    let start = std::thread::scope(|s| {
        for w in 0..workers {
            s.spawn(move || {
                barrier.wait();
                for i in 0..requests_per_worker {
                    queue.enqueue((w as u64) << 32 | i);
                    if queue.dequeue().is_some() {
                        served.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        let start = Instant::now();
        barrier.wait();
        start
    });
    start.elapsed()
}

fn main() {
    let workers = 48; // far beyond this machine's core count
    let requests = 2_000u64;

    // Emulate the paper's oversubscribed regime (see DESIGN.md P1): waiters
    // spin as the paper's C implementations do, and the scheduler adversary
    // (`Site::Preempt`; the root package's dev-dependencies compile it in)
    // preempts threads inside critical windows at a realistic rate.
    set_wait_mode(WaitMode::Spin);
    Scenario::new(test_seed(0x853C_49E6_748F_EA9B))
        .with(Site::Preempt, 1_000, FaultAction::Yield)
        .arm();

    println!("oversubscribed service: {workers} workers, {requests} requests each\n");

    let lcrq = Lcrq::new();
    let t_lcrq = serve(&lcrq, workers, requests);
    let tput_lcrq = (workers as u64 * requests) as f64 / t_lcrq.as_secs_f64() / 1e6;
    println!("  lcrq      (nonblocking): {t_lcrq:>10.2?}  ({tput_lcrq:.2} Mreq/s)");

    let cc = CcQueue::new();
    let t_cc = serve(&cc, workers, requests);
    let tput_cc = (workers as u64 * requests) as f64 / t_cc.as_secs_f64() / 1e6;
    println!("  cc-queue  (lock-based) : {t_cc:>10.2?}  ({tput_cc:.2} Mreq/s)");

    fault::disarm();
    set_wait_mode(WaitMode::SpinThenYield);

    println!(
        "\nLCRQ sustained {:.1}x the throughput of the combining queue",
        tput_lcrq / tput_cc
    );
    println!("(the paper reports >20x at 64 oversubscribed threads — Figure 6b)");
    assert!(
        tput_lcrq > tput_cc,
        "nonblocking queue should win under oversubscription"
    );
}

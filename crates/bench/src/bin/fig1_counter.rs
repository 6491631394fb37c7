//! Figure 1: time to increment a contended counter — hardware F&A vs a CAS
//! loop — plus the number of CAS attempts per increment (right axis of the
//! paper's figure).
//!
//! Paper's shape: F&A stays flat-ish and cheap; the CAS loop's per-increment
//! cost grows with concurrency because a growing fraction of CAS attempts
//! fail and must retry (4–6× slower at high thread counts on the paper's
//! machine).
//!
//! Usage: `fig1_counter [--threads 1,2,4,8,16] [--increments 200000] [--runs 3]
//!         [--smoke]`

use lcrq_atomic::{ops, CasLoopFaa, FaaPolicy, HardwareFaa};
use lcrq_bench::cli::Cli;
use lcrq_util::metrics::{self, Event, Snapshot};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

/// Adversarial-schedule variants (DESIGN.md substitution P1): this host has
/// one hardware thread, so software threads are only preempted every few
/// milliseconds and essentially never inside the ~10 ns read→CAS window —
/// the CAS failure rate collapses to zero and Figure 1's effect vanishes.
/// These variants insert a scheduler yield *inside* the window (between the
/// read and the CAS), emulating the mid-window interleaving that true
/// parallel cores produce constantly. Crucially, F&A has no such window —
/// there is nothing to interleave with — which is precisely the paper's
/// point; its yield happens outside the atomic so both variants pay the
/// same scheduling overhead.
struct YieldingCasLoopFaa;

impl FaaPolicy for YieldingCasLoopFaa {
    fn fetch_add(a: &AtomicU64, v: u64) -> u64 {
        loop {
            let cur = a.load(Ordering::Acquire);
            std::thread::yield_now(); // adversary strikes mid-window
            if ops::cas(a, cur, cur.wrapping_add(v)).is_ok() {
                return cur;
            }
        }
    }
    fn name() -> &'static str {
        "cas-loop+yield"
    }
}

struct YieldingFaa;

impl FaaPolicy for YieldingFaa {
    fn fetch_add(a: &AtomicU64, v: u64) -> u64 {
        std::thread::yield_now(); // same scheduling cost, but no window
        HardwareFaa::fetch_add(a, v)
    }
    fn name() -> &'static str {
        "faa+yield"
    }
}

fn run<P: FaaPolicy>(threads: usize, increments: u64) -> (f64, f64) {
    let counter = AtomicU64::new(0);
    let barrier = Barrier::new(threads + 1);
    let (counter, barrier) = (&counter, &barrier);
    let (wall, d) = std::thread::scope(|s| {
        let mut workers = Vec::with_capacity(threads);
        for t in 0..threads {
            workers.push(s.spawn(move || {
                let _ = lcrq_util::affinity::pin_round_robin(t);
                barrier.wait();
                for _ in 0..increments {
                    P::fetch_add(counter, 1);
                }
                metrics::local_snapshot()
            }));
        }
        // Clock starts before the barrier releases the workers (single-core
        // hosts may not reschedule this thread until workers finish).
        let start = Instant::now();
        barrier.wait();
        let d: Snapshot = workers.into_iter().map(|w| w.join().unwrap()).sum();
        (start.elapsed(), d)
    });
    let total = threads as u64 * increments;
    assert_eq!(counter.load(std::sync::atomic::Ordering::SeqCst), total);
    let ns_per_inc = wall.as_nanos() as f64 * threads as f64 / total as f64;
    let cas_per_inc = d.get(Event::CasAttempt) as f64 / total as f64;
    (ns_per_inc, cas_per_inc)
}

fn sweep<F: FaaPolicy, C: FaaPolicy>(threads: &[usize], increments: u64, runs: usize) {
    println!(
        "| threads | {} ns/inc | {} ns/inc | CAS/inc | slowdown |",
        F::name(),
        C::name()
    );
    println!("|---------|-----------|-----------|---------|----------|");
    for &t in threads {
        let (mut faa_ns, mut cas_ns, mut cas_per) = (f64::MAX, f64::MAX, 0.0);
        for _ in 0..runs {
            let (ns, _) = run::<F>(t, increments);
            faa_ns = faa_ns.min(ns);
            let (ns, cp) = run::<C>(t, increments);
            if ns < cas_ns {
                cas_ns = ns;
                cas_per = cp;
            }
        }
        println!(
            "| {t} | {faa_ns:.1} | {cas_ns:.1} | {cas_per:.2} | {:.2}x |",
            cas_ns / faa_ns
        );
    }
}

fn main() {
    let cli = Cli::from_env();
    let threads = cli.get_list_smoke("threads", &[1, 2, 4, 8, 16], &[1, 2]);
    let increments: u64 = cli.get_smoke("increments", 200_000u64, 5_000);
    let runs: usize = cli.get_smoke("runs", 3usize, 1);

    println!("# Figure 1: contended counter increment, F&A vs CAS loop");
    println!("# increments/thread = {increments}, runs = {runs} (best shown)");
    if cli.has("adversarial") {
        println!("# adversarial schedule: yield injected inside the read->CAS window");
        println!("# (emulates parallel-core interleaving on this 1-core host; see P1)");
        sweep::<YieldingFaa, YieldingCasLoopFaa>(&threads, increments, runs);
    } else {
        sweep::<HardwareFaa, CasLoopFaa>(&threads, increments, runs);
    }
}

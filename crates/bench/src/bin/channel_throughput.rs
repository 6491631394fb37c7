//! Channel throughput: the blocking LCRQ channel vs `std::sync::mpsc` vs a
//! raw spin-polling `TypedLcrq`, under a producers/consumers workload
//! (extension beyond the paper — ISSUE 2's channel layer).
//!
//! Each producer sends `--pairs` items, then the senders drop (closing the
//! channel); consumers receive until `Disconnected`. Throughput counts both
//! sides (sends + recvs), like the paper's pairs workloads. The parks/op
//! column shows how often the adaptive wait ladder actually reached the
//! parking phase; the trailing idle-consumer check demonstrates the
//! acceptance criterion that a parked consumer performs zero F&A.
//!
//! `std::sync::mpsc` is single-consumer: multiple consumers share the
//! receiver behind a mutex, which is the standard (and deliberately
//! costly) workaround and part of the comparison's point.
//!
//! Output: a markdown table plus one `BENCH_channel.json`-compatible JSON
//! line (`{"bench":"channel", "results":[...]}`) on stdout.
//!
//! Usage: `channel_throughput [--producers 8] [--consumers 8]
//!         [--pairs 10000] [--capacity 1024] [--smoke]`

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Barrier, Mutex};
use std::time::{Duration, Instant};

use lcrq_bench::cli::Cli;
use lcrq_core::TypedLcrq;
use lcrq_util::metrics::{self, Event, Snapshot};

struct Row {
    system: &'static str,
    mops: f64,
    secs: f64,
    parks_per_op: f64,
    faa_per_op: f64,
}

/// Times a run and turns it into a row. The closure returns the sum of the
/// counts its worker threads returned.
fn measured(system: &'static str, total_ops: u64, run: impl FnOnce() -> Snapshot) -> Row {
    let start = Instant::now();
    let d = run();
    let secs = start.elapsed().as_secs_f64();
    Row {
        system,
        mops: total_ops as f64 / secs / 1e6,
        secs,
        parks_per_op: d.parks_per_op(),
        faa_per_op: d.faa_per_op(),
    }
}

fn bench_channel(capacity: Option<usize>, producers: usize, consumers: usize, per: u64) -> Row {
    let system = if capacity.is_some() {
        "channel-bounded"
    } else {
        "channel"
    };
    let received = AtomicU64::new(0);
    let row = measured(system, 2 * producers as u64 * per, || {
        let (tx, rx) = match capacity {
            Some(cap) => lcrq_channel::bounded::<u64>(cap),
            None => lcrq_channel::channel::<u64>(),
        };
        let barrier = Barrier::new(producers + consumers);
        let received = &received;
        std::thread::scope(|s| {
            let barrier = &barrier;
            let mut workers = Vec::new();
            for _ in 0..producers {
                let tx = tx.clone();
                workers.push(s.spawn(move || {
                    barrier.wait();
                    for v in 0..per {
                        tx.send(v).unwrap();
                    }
                    metrics::add(Event::EnqOp, per);
                    metrics::local_snapshot()
                }));
            }
            for _ in 0..consumers {
                let rx = rx.clone();
                workers.push(s.spawn(move || {
                    barrier.wait();
                    let mut n = 0u64;
                    while rx.recv().is_ok() {
                        n += 1;
                    }
                    received.fetch_add(n, Ordering::SeqCst);
                    metrics::add(Event::DeqOp, n);
                    metrics::local_snapshot()
                }));
            }
            drop(tx); // producers' clones keep the channel open until done
            drop(rx);
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        })
    });
    assert_eq!(
        received.load(Ordering::SeqCst),
        producers as u64 * per,
        "{system}: lost items"
    );
    row
}

fn bench_std_mpsc(producers: usize, consumers: usize, per: u64) -> Row {
    let received = AtomicU64::new(0);
    let row = measured("std-mpsc", 2 * producers as u64 * per, || {
        let (tx, rx) = mpsc::channel::<u64>();
        let rx = Mutex::new(rx);
        let barrier = Barrier::new(producers + consumers);
        let (rx, barrier, received) = (&rx, &barrier, &received);
        std::thread::scope(|s| {
            let mut workers = Vec::new();
            for _ in 0..producers {
                let tx = tx.clone();
                workers.push(s.spawn(move || {
                    barrier.wait();
                    for v in 0..per {
                        tx.send(v).unwrap();
                    }
                    metrics::add(Event::EnqOp, per);
                    metrics::local_snapshot()
                }));
            }
            for _ in 0..consumers {
                workers.push(s.spawn(move || {
                    barrier.wait();
                    let mut n = 0u64;
                    loop {
                        let item = rx.lock().unwrap().recv();
                        if item.is_err() {
                            break;
                        }
                        n += 1;
                    }
                    received.fetch_add(n, Ordering::SeqCst);
                    metrics::add(Event::DeqOp, n);
                    metrics::local_snapshot()
                }));
            }
            drop(tx);
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        })
    });
    assert_eq!(
        received.load(Ordering::SeqCst),
        producers as u64 * per,
        "std-mpsc: lost items"
    );
    row
}

fn bench_spin_lcrq(producers: usize, consumers: usize, per: u64) -> Row {
    let total = producers as u64 * per;
    let received = AtomicU64::new(0);
    let row = measured("spin-lcrq", 2 * total, || {
        let q = TypedLcrq::<u64>::new();
        let barrier = Barrier::new(producers + consumers);
        let (q, barrier, received) = (&q, &barrier, &received);
        std::thread::scope(|s| {
            let mut workers = Vec::new();
            for _ in 0..producers {
                workers.push(s.spawn(move || {
                    barrier.wait();
                    for v in 0..per {
                        q.enqueue(v);
                    }
                    metrics::add(Event::EnqOp, per);
                    metrics::local_snapshot()
                }));
            }
            for _ in 0..consumers {
                workers.push(s.spawn(move || {
                    barrier.wait();
                    let mut n = 0u64;
                    loop {
                        match q.dequeue() {
                            Some(_) => {
                                received.fetch_add(1, Ordering::SeqCst);
                                n += 1;
                            }
                            None => {
                                if received.load(Ordering::SeqCst) >= total {
                                    break;
                                }
                                std::thread::yield_now();
                            }
                        }
                    }
                    metrics::add(Event::DeqOp, n);
                    metrics::local_snapshot()
                }));
            }
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        })
    });
    assert_eq!(received.load(Ordering::SeqCst), total, "spin: lost items");
    row
}

/// Demonstrates the idle-consumer acceptance criterion: a receiver on an
/// empty channel escalates to parking and performs no F&A while parked.
/// Returns `(faa_count, park_count, elapsed)` measured inside the consumer
/// thread (thread-local counters: immune to the rest of the process).
fn idle_consumer_check() -> (u64, u64, Duration) {
    let (tx, rx) = lcrq_channel::channel::<u64>();
    let h = std::thread::spawn(move || {
        let before = metrics::local_snapshot();
        let start = Instant::now();
        let r = rx.recv_timeout(Duration::from_millis(250));
        let elapsed = start.elapsed();
        assert!(r.is_err(), "nothing was sent");
        let d = metrics::local_snapshot().delta_since(&before);
        (d.get(Event::Faa), d.get(Event::Park), elapsed)
    });
    let out = h.join().unwrap();
    drop(tx);
    out
}

fn main() {
    let cli = Cli::from_env();
    let producers: usize = cli.get_smoke("producers", 8usize, 2);
    let consumers: usize = cli.get_smoke("consumers", 8usize, 2);
    let per: u64 = cli.get_smoke("pairs", 10_000u64, 400);
    let capacity: usize = cli.get("capacity", 1024usize);

    println!(
        "# Channel throughput — {producers} producers / {consumers} consumers, \
         {per} items/producer"
    );
    println!("| system | Mops/s | wall (s) | parks/op | F&A/op |");
    println!("|--------|--------|----------|----------|--------|");
    let rows = [
        bench_channel(None, producers, consumers, per),
        bench_channel(Some(capacity), producers, consumers, per),
        bench_std_mpsc(producers, consumers, per),
        bench_spin_lcrq(producers, consumers, per),
    ];
    for r in &rows {
        println!(
            "| {} | {:.3} | {:.3} | {:.3} | {:.2} |",
            r.system, r.mops, r.secs, r.parks_per_op, r.faa_per_op
        );
    }

    let channel_mops = rows[0].mops;
    let spin_mops = rows[3].mops;
    println!();
    println!(
        "blocking channel vs raw spin-LCRQ: {:.2}x (acceptance: within 2x)",
        spin_mops / channel_mops
    );

    let (faa, parks, elapsed) = idle_consumer_check();
    println!(
        "idle consumer: {faa} F&A, {parks} park(s) over {:.0} ms \
         (acceptance: zero F&A while parked — count stays O(poll ladder), \
         not O(duration))",
        elapsed.as_secs_f64() * 1e3
    );

    // Machine-readable summary (BENCH_channel.json-compatible).
    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"system\":\"{}\",\"mops\":{:.4},\"secs\":{:.4},\
                 \"parks_per_op\":{:.4},\"faa_per_op\":{:.4}}}",
                r.system, r.mops, r.secs, r.parks_per_op, r.faa_per_op
            )
        })
        .collect();
    println!(
        "{{\"bench\":\"channel\",\"producers\":{producers},\"consumers\":{consumers},\
         \"pairs\":{per},\"capacity\":{capacity},\"idle_faa\":{faa},\"idle_parks\":{parks},\
         \"results\":[{}]}}",
        json_rows.join(",")
    );
}

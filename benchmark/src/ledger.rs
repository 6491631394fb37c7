//! The layer ledger: the `solo_pairs` and `duo_pairs` call patterns re-run
//! against each layer's public type, one row per layer, in nanoseconds per
//! call. A layer's self cost is its row minus the row of the layer below:
//! the outside-the-program stand-in for span self time.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::adapter::{
    Cas2Cell, ChannelTryTarget, CrqTarget, FaaCell, LcrqTarget, LscqTarget, ShardedTarget, Target,
    TypedTarget, WcqTarget,
};
use crate::pin::Cpus;
use crate::{clock, stats, Rng};

const REPS: usize = 3;
const ROWS: u32 = 18;
const CHUNK: u64 = 1024;
const WARM_PAIRS: u64 = 1 << 14;

/// The think-time-only row: what `duo` costs with no queue at all.
#[derive(Clone)]
struct NoQueue;

impl Target for NoQueue {
    #[inline]
    fn put(&self, v: u64) {
        black_box(v);
    }
    #[inline]
    fn take(&self) -> Option<u64> {
        black_box(None)
    }
}

/// Calls `turns(CHUNK)` until `window` has passed; nanoseconds per turn.
fn ns_per_turn(window: Duration, mut turns: impl FnMut(u64)) -> f64 {
    let start = Instant::now();
    let mut done = 0;
    while start.elapsed() < window {
        turns(CHUNK);
        done += CHUNK;
    }
    start.elapsed().as_nanos() as f64 / done as f64
}

/// Runs `body` on a fresh thread pinned to the CPU of `slot`.
fn on_cpu<R: Send>(cpus: &Cpus, slot: usize, body: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|s| {
        s.spawn(|| {
            cpus.pin_worker(slot);
            body()
        })
        .join()
        .expect("a ledger worker panicked")
    })
}

/// Nanoseconds per call of put/take pairs by one thread, no think time.
fn solo<T: Target>(cpus: &Cpus, window: Duration, make: impl Fn() -> T + Sync) -> f64 {
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            on_cpu(cpus, 0, || {
                let t = make();
                let mut seq = 0u64;
                let mut run = |pairs: u64| {
                    for _ in 0..pairs {
                        t.put(black_box(seq));
                        black_box(t.take());
                        seq += 1;
                    }
                };
                run(WARM_PAIRS);
                ns_per_turn(window, run) / 2.0
            })
        })
        .collect();
    stats::median(&reps)
}

/// Nanoseconds per `take` that finds the layer empty.
fn solo_empty<T: Target>(cpus: &Cpus, window: Duration, make: impl Fn() -> T + Sync) -> f64 {
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            on_cpu(cpus, 0, || {
                let t = make();
                // One item through first, so the ring is initialised and used.
                t.put(1);
                black_box(t.take());
                ns_per_turn(window, |calls| {
                    for _ in 0..calls {
                        black_box(t.take());
                    }
                })
            })
        })
        .collect();
    stats::median(&reps)
}

/// Nanoseconds per call, think time included, of two threads doing put,
/// think, take, think on one shared object.
fn duo<T: Target>(cpus: &Cpus, window: Duration, seed: u64, make: impl Fn() -> T) -> f64 {
    let reps: Vec<f64> = (0..REPS)
        .map(|rep| {
            let t = make();
            let handles = [t.clone(), t];
            let per_thread: Vec<f64> = std::thread::scope(|s| {
                let joins: Vec<_> = handles
                    .into_iter()
                    .enumerate()
                    .map(|(i, t)| {
                        s.spawn(move || {
                            cpus.pin_worker(i);
                            let mut rng = Rng::new(seed ^ (rep as u64) << 32, i as u64);
                            let mut seq = (i as u64) << 30;
                            let mut run = |pairs: u64| {
                                for _ in 0..pairs {
                                    t.put(black_box(seq));
                                    clock::spin(rng.think_iters());
                                    black_box(t.take());
                                    clock::spin(rng.think_iters());
                                    seq += 1;
                                }
                            };
                            run(WARM_PAIRS);
                            ns_per_turn(window, run) / 2.0
                        })
                    })
                    .collect();
                joins
                    .into_iter()
                    .map(|j| j.join().expect("a ledger worker panicked"))
                    .collect()
            });
            per_thread.iter().sum::<f64>() / per_thread.len() as f64
        })
        .collect();
    stats::median(&reps)
}

/// Measures every row, spending about `budget` in total. Returns metric
/// names with their values in nanoseconds per call.
pub fn measure(cpus: &Cpus, budget: Duration, seed: u64) -> Vec<(&'static str, f64)> {
    let w = budget / (ROWS * REPS as u32);
    let faa = solo(cpus, w, FaaCell::new);
    let cas2 = solo(cpus, w, Cas2Cell::new);
    let crq = solo(cpus, w, CrqTarget::new);
    let lcrq = solo(cpus, w, LcrqTarget::new);
    let lscq = solo(cpus, w, LscqTarget::new);
    let wcq = solo(cpus, w, WcqTarget::new);
    let typed = solo(cpus, w, TypedTarget::new);
    let chan = solo(cpus, w, ChannelTryTarget::new);
    let sharded = solo(cpus, w, ShardedTarget::new);
    let lcrq_empty = solo_empty(cpus, w, LcrqTarget::new);
    let chan_empty = solo_empty(cpus, w, ChannelTryTarget::new);

    let delay = duo(cpus, w, seed, || NoQueue);
    let net = |gross: f64| gross - delay;
    let faa_duo = net(duo(cpus, w, seed, FaaCell::new));
    let crq_duo = net(duo(cpus, w, seed, CrqTarget::new));
    let lcrq_duo = net(duo(cpus, w, seed, LcrqTarget::new));
    let typed_duo = net(duo(cpus, w, seed, TypedTarget::new));
    let chan_duo = net(duo(cpus, w, seed, ChannelTryTarget::new));
    let sharded_duo = net(duo(cpus, w, seed, ShardedTarget::new));

    vec![
        ("atomic.faa_ns", faa),
        ("atomic.cas2_ns", cas2),
        ("core.crq.op_ns", crq),
        ("core.lcrq.op_ns", lcrq),
        ("core.lcrq.self_ns", lcrq - crq),
        ("core.lscq.op_ns", lscq),
        ("core.wcq.op_ns", wcq),
        ("core.typed.op_ns", typed),
        ("core.typed.self_ns", typed - lcrq),
        ("channel.try_op_ns", chan),
        ("channel.self_ns", chan - typed),
        ("core.sharded.op_ns", sharded),
        ("core.sharded.self_ns", sharded - lcrq),
        ("core.lcrq.empty_deq_ns", lcrq_empty),
        ("channel.empty_try_recv_ns", chan_empty),
        ("bench.delay_ns", delay),
        ("atomic.faa_duo_ns", faa_duo),
        ("core.crq.duo_ns", crq_duo),
        ("core.lcrq.duo_ns", lcrq_duo),
        ("core.typed.duo_ns", typed_duo),
        ("channel.duo_ns", chan_duo),
        ("core.sharded.duo_ns", sharded_duo),
    ]
}

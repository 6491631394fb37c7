//! Fault-injection robustness suite (tentpole of the robustness PR).
//!
//! Compiled only with `--features fault-injection`; the default build gets
//! an empty test binary. Everything here drives the `lcrq_util::fault`
//! registry: deterministic seeds (honoring `LCRQ_TEST_SEED`), per-site
//! probabilities, and the stall gate that simulates crashed threads.
//!
//! The registry is process-global, so every test holds `common::registry`,
//! which also disarms it if the test panics.

#![cfg(feature = "fault-injection")]

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use common::registry;
use lcrq::core::LcrqConfig;
use lcrq::hazard::{Domain, SLOTS_PER_THREAD};
use lcrq::queues::testing::{check_delivery, encode, items, mpmc_stress, mpmc_stress_relaxed};
use lcrq::util::fault::{self, FaultAction, Scenario, Site};
use lcrq::util::metrics::{self, Event};
use lcrq::util::rng::test_seed;
use lcrq::{
    rank_error_bound_for, ConcurrentQueue, Crq, Lcrq, Lscq, LscqCas, Ring, RingList, ShardedConfig,
    ShardedQueue, Wcq,
};

fn tiny() -> LcrqConfig {
    LcrqConfig::new().with_ring_order(4) // R = 16: frequent ring turnover
}

/// Crash-tolerance harness: stall `STALLS` of `WORKERS` threads at their
/// most dangerous sites (hazard publish→revalidate, pre-F&A) and require
/// the survivors to finish a fixed op budget anyway — the operational
/// reading of the paper's nonblocking progress claim. While the stalled
/// threads hold published hazards, the retired-ring backlog of every live
/// thread must stay within the hazard-pointer reclamation bound. After
/// release, exactly-once delivery must hold across *all* threads.
fn crash_tolerant<Q, D>(label: &str, q: &Q, domain_of: D)
where
    Q: ConcurrentQueue,
    D: Fn(&Q) -> &Domain + Sync,
{
    const WORKERS: usize = 8;
    const STALLS: usize = 2;
    const BUDGET: u64 = 2_000;
    let seed = test_seed(0x57A1_1ED5_EED0_0001);
    let scenario = Scenario::new(seed)
        .with(Site::HazardProtect, 400_000, FaultAction::Stall)
        .with(Site::Faa, 400_000, FaultAction::Stall)
        .max_stalls(STALLS as u64);
    let stext = scenario.to_string();
    scenario.arm();

    let done = AtomicUsize::new(0);
    // 0 = no violation; otherwise the offending retired-list length. The
    // workers report instead of asserting so a violation cannot strand the
    // scope join behind still-stalled threads.
    let bound_violation = AtomicUsize::new(0);
    let (done, bound_violation, domain_of) = (&done, &bound_violation, &domain_of);

    let mut streams: Vec<Vec<u64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|t| {
                s.spawn(move || {
                    let mut got = Vec::new();
                    for i in 0..BUDGET {
                        q.enqueue(encode(t, i));
                        if let Some(v) = q.dequeue() {
                            got.push(v);
                        }
                        if i % 256 == 0 {
                            let d = domain_of(q);
                            let retired = d.retired_count();
                            let bound = 2 * (2 * d.record_count() * SLOTS_PER_THREAD + 16);
                            if retired > bound {
                                bound_violation.store(retired, Ordering::SeqCst);
                            }
                        }
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                    got
                })
            })
            .collect();

        // Survivors must complete their budget while the stalled threads
        // stay parked; a deadline turns a progress failure into a report
        // instead of a hang (disarm first so the scope can still join).
        let deadline = Instant::now() + Duration::from_secs(120);
        while done.load(Ordering::SeqCst) < WORKERS - STALLS {
            if Instant::now() >= deadline {
                fault::disarm();
                panic!(
                    "[{label}] survivors starved with {STALLS} peers stalled \
                     under [{stext}] (replay with LCRQ_TEST_SEED={seed:#x})"
                );
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let stalled = fault::stalled_count();
        fault::disarm(); // release the "crashed" threads so they can join
        assert_eq!(
            stalled, STALLS,
            "[{label}] expected exactly {STALLS} stalled threads under [{stext}] \
             (replay with LCRQ_TEST_SEED={seed:#x})"
        );
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let violation = bound_violation.load(Ordering::SeqCst);
    assert_eq!(
        violation, 0,
        "[{label}] retired-ring backlog {violation} exceeded the hazard bound \
         while peers were stalled under [{stext}] (replay with LCRQ_TEST_SEED={seed:#x})"
    );

    // Exactly-once, per-producer-ordered delivery across survivors,
    // released threads, and the final drain.
    streams.push(std::iter::from_fn(|| q.dequeue()).collect());
    if let Err(e) = check_delivery(&items(WORKERS, BUDGET), &streams) {
        panic!("[{label}] {e} under [{stext}] (replay with LCRQ_TEST_SEED={seed:#x})");
    }
    assert_eq!(q.dequeue(), None, "[{label}] queue should be drained");
}

#[test]
fn survivors_outlive_stalled_peers_lcrq() {
    let _registry = registry();
    let q = Lcrq::with_config(tiny());
    crash_tolerant("lcrq", &q, |q: &Lcrq| q.hazard_domain());
}

#[test]
fn survivors_outlive_stalled_peers_lscq() {
    let _registry = registry();
    let q = Lscq::with_config(tiny());
    crash_tolerant("lscq", &q, |q: &Lscq| q.hazard_domain());
}

#[test]
fn survivors_outlive_stalled_peers_lscq_cas() {
    let _registry = registry();
    let q = LscqCas::with_config(tiny());
    crash_tolerant("lscq-cas", &q, |q: &LscqCas| q.hazard_domain());
}

#[test]
fn survivors_outlive_stalled_peers_wcq() {
    let _registry = registry();
    let q = Wcq::with_config(tiny());
    crash_tolerant("wcq", &q, |q: &Wcq| q.hazard_domain());
}

/// Same seed ⇒ byte-identical hit log, end to end through the real queue
/// (the unit tests in `lcrq-util` check the registry in isolation).
#[test]
fn same_seed_replays_an_identical_hit_log() {
    let _registry = registry();

    fn run(seed: u64) -> Vec<fault::SiteHit> {
        let scenario = Scenario::new(seed)
            .recording(true)
            .with(Site::Cas2, 50_000, FaultAction::Fail)
            .with(Site::CrqEnqueue, 5_000, FaultAction::Fail)
            .with(Site::CrqDequeue, 50_000, FaultAction::Yield);
        scenario.arm();
        let q = Lcrq::with_config(LcrqConfig::new().with_ring_order(3));
        for i in 0..2_000 {
            q.enqueue(i);
        }
        while q.dequeue().is_some() {}
        fault::disarm();
        fault::take_hit_log()
    }

    let a = run(0xD1CE);
    let b = run(0xD1CE);
    assert!(!a.is_empty(), "the scenario must actually fire");
    assert_eq!(a, b, "same seed must replay the exact same fault schedule");
    let c = run(0xBEEF);
    assert_ne!(a, c, "distinct seeds must produce distinct schedules");
}

/// A refused ring allocation is retried inside the enqueue, not reported:
/// with the first `REFUSALS` allocations refused,
/// every `try_enqueue` / `try_enqueue_batch` still returns `Ok`, the queue
/// never reports closed, and the drain is exactly FIFO. The calling
/// thread's `FaultInjected` count shows the refusals really fired.
#[test]
fn refused_ring_allocation_is_retried_not_reported() {
    let _registry = registry();
    // R = 8: a spill every few items, and every spill allocates.
    let r8 = || LcrqConfig::new().with_ring_order(3);
    for batch in [false, true] {
        retries_refused_allocations("lcrq", &Lcrq::with_config(r8()), batch);
        retries_refused_allocations("lscq", &Lscq::with_config(r8()), batch);
    }
}

fn retries_refused_allocations<R: Ring>(label: &str, q: &RingList<R>, batch: bool) {
    const REFUSALS: u64 = 16;
    let seed = test_seed(0xA110_C000_0000_0001);
    let values: Vec<u64> = (0..400).collect();
    let before = metrics::local_snapshot();
    Scenario::new(seed)
        .with_limited(Site::RingAlloc, 1_000_000, FaultAction::Fail, REFUSALS)
        .arm();
    // Batches of 50 close a ring mid-batch, so the batch leg refuses the
    // remainder's seeded ring.
    let refused = if batch {
        values
            .chunks(50)
            .position(|c| q.try_enqueue_batch(c).is_err() || q.is_closed())
    } else {
        values
            .iter()
            .position(|&v| q.try_enqueue(v).is_err() || q.is_closed())
    };
    fault::disarm();
    let fired = metrics::local_snapshot()
        .delta_since(&before)
        .get(Event::FaultInjected);
    let leg = format!("[{label} batch={batch}] (replay with LCRQ_TEST_SEED={seed:#x})");
    assert_eq!(refused, None, "{leg} an enqueue failed or closed the queue");
    assert!(
        fired >= REFUSALS,
        "{leg} only {fired} of {REFUSALS} refusals fired"
    );
    assert_eq!(
        q.drain().collect::<Vec<_>>(),
        values,
        "{leg} drain is not FIFO"
    );
}

/// Panic-safety: a producer that dies between its F&A reservation and the
/// CAS2 placement wastes its slot but corrupts nothing — dequeuers skip
/// the hole and every other item is delivered exactly once, in order.
#[test]
fn producer_panic_between_faa_and_placement_leaves_the_ring_consistent() {
    let _registry = registry();
    let seed = test_seed(0x9A21_C000_0000_0001);
    let q = Lcrq::with_config(LcrqConfig::new().with_ring_order(3));
    for i in 0..5 {
        q.enqueue(i);
    }
    Scenario::new(seed)
        .with_limited(Site::CrqEnqueue, 1_000_000, FaultAction::Panic, 1)
        .arm();
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| q.enqueue(777)));
    fault::disarm();
    let payload = r.expect_err("the armed panic must fire");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(
        msg.contains("crq-enqueue"),
        "panic payload must name the site: {msg}"
    );
    // The crashed enqueue's item was never placed; the queue remains fully
    // usable and FIFO for everything else.
    for i in 5..10 {
        q.enqueue(i);
    }
    let drained: Vec<u64> = q.drain().collect();
    assert_eq!(drained, (0..10).collect::<Vec<_>>());
}

/// Figure 3d's rule for a lost CAS2, on both of the CRQ's enqueue paths:
/// the index is given up and the value moves on to the next index. One
/// spurious CAS2 failure costs the scalar enqueue one extra F&A, and costs
/// a 3-item batch one of its three reserved indices. The drain shows the
/// skipped index was empty-transitioned, not lost or filled.
#[test]
fn a_lost_cas2_gives_up_its_index_on_both_paths() {
    let _registry = registry();
    let seed = test_seed(0xCA52_0000_0000_0001);
    let config = LcrqConfig::new().with_ring_order(3);
    let lose_one_cas2 = || {
        Scenario::new(seed)
            .with_limited(Site::Cas2, 1_000_000, FaultAction::Fail, 1)
            .arm()
    };

    let scalar: Crq = Crq::new(&config);
    lose_one_cas2();
    let enqueued = scalar.enqueue(7);
    fault::disarm();
    let replay = format!("(replay with LCRQ_TEST_SEED={seed:#x})");
    assert_eq!(enqueued, Ok(()), "{replay}");
    assert_eq!(scalar.tail_index(), 2, "scalar: a second F&A {replay}");

    let batch: Crq = Crq::new(&config);
    lose_one_cas2();
    let placed = batch.enqueue_batch(&[1, 2, 3]);
    fault::disarm();
    assert_eq!(placed, 2, "batch: index 0 given up {replay}");
    assert_eq!(batch.tail_index(), 3, "batch: one reservation {replay}");
    let drained: Vec<Option<u64>> = (0..3).map(|_| batch.dequeue()).collect();
    assert_eq!(drained, [Some(1), Some(2), None], "{replay}");
}

/// A receiver permanently stalled inside the park window must not keep
/// `close()` from settling, and the wakeup it missed while stalled must
/// still be delivered once it is released (the mandatory re-poll).
#[test]
fn channel_close_settles_with_a_receiver_stalled_at_park() {
    let _registry = registry();
    let seed = test_seed(0xC105_E000_0000_0001);
    let (tx, rx) = lcrq::channel::channel::<u64>();
    Scenario::new(seed)
        .with(Site::ChannelPark, 1_000_000, FaultAction::Stall)
        .max_stalls(1)
        .arm();
    std::thread::scope(|s| {
        let h = s.spawn(|| {
            let first = rx.recv();
            let second = rx.recv();
            (first, second)
        });
        let deadline = Instant::now() + Duration::from_secs(60);
        while fault::stalled_count() < 1 {
            if Instant::now() >= deadline {
                fault::disarm();
                panic!("receiver never reached the park site (LCRQ_TEST_SEED={seed:#x})");
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        // The stalled receiver must not block the sender-side lifecycle.
        tx.send(7).unwrap();
        assert!(tx.close());
        assert!(tx.is_closed());
        fault::disarm();
        let (first, second) = h.join().unwrap();
        assert_eq!(first.ok(), Some(7), "released receiver must see the send");
        assert!(second.is_err(), "closed and drained must be terminal");
    });
}

/// Seeded stress sweep: a mixed mild scenario over every injected layer,
/// under the full MPMC exactly-once/FIFO harness. Any failure reports the
/// exact scenario and seed to replay (the CI gate runs this across a sweep
/// of `LCRQ_TEST_SEED` values).
#[test]
fn stress_sweep() {
    let _registry = registry();
    let seed = test_seed(0xFA17_5EED_0000_0001);
    let scenario = Scenario::new(seed)
        .with(Site::Cas2, 3_000, FaultAction::Fail)
        .with(Site::Faa, 1_500, FaultAction::Fail)
        .with(Site::ScqEnqueue, 3_000, FaultAction::Fail)
        .with(Site::ScqDequeue, 3_000, FaultAction::Fail)
        .with(Site::CrqEnqueue, 300, FaultAction::Fail)
        .with(Site::CloseRace, 2_000, FaultAction::Yield)
        .with(Site::RingAlloc, 20_000, FaultAction::Fail)
        .with(Site::HazardScan, 2_000, FaultAction::Yield)
        .with(Site::WcqEnqueue, 3_000, FaultAction::Fail)
        .with(Site::WcqDequeue, 3_000, FaultAction::Fail)
        .with(Site::WcqHelp, 2_000, FaultAction::Yield)
        .with(Site::CrqDequeue, 1_000, FaultAction::SpinDelay(64));
    let stext = scenario.to_string();
    scenario.arm();
    let result = std::panic::catch_unwind(|| {
        let q = Lcrq::with_config(tiny());
        mpmc_stress(&q, 3, 3, 4_000);
        let q = Lscq::with_config(tiny());
        mpmc_stress(&q, 3, 3, 4_000);
        let q = LscqCas::with_config(tiny());
        mpmc_stress(&q, 2, 2, 2_000);
        let q = Wcq::with_config(tiny());
        mpmc_stress(&q, 3, 3, 4_000);
    });
    fault::disarm();
    if let Err(e) = result {
        eprintln!("fault scenario in effect: [{stext}]");
        eprintln!("replay with LCRQ_TEST_SEED={seed:#x}");
        std::panic::resume_unwind(e);
    }
}

/// Crash tolerance through the sharded front-end: stall threads *inside
/// the d-choice sampling window* (holding arbitrarily stale estimates)
/// and require the survivors to keep completing against the remaining
/// shards. A stalled sampler parks only its own thread — shard selection
/// is thread-local, so no shard, counter, or peer is wedged — and after
/// release every element is delivered exactly once.
#[test]
fn survivors_outlive_peers_stalled_in_the_sampling_window() {
    let _registry = registry();
    const WORKERS: usize = 8;
    const STALLS: usize = 2;
    const BUDGET: u64 = 2_000;
    let seed = test_seed(0x57A1_1ED5_EED0_0002);
    let scenario = Scenario::new(seed)
        .with(Site::ShardSample, 400_000, FaultAction::Stall)
        .max_stalls(STALLS as u64);
    let stext = scenario.to_string();
    scenario.arm();

    let q = ShardedQueue::from_factory(&ShardedConfig::new().with_shards(4).with_d(2), |_| {
        Lcrq::with_config(tiny())
    });
    let done = AtomicUsize::new(0);
    let (q, done) = (&q, &done);
    let all: Vec<Vec<u64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|t| {
                s.spawn(move || {
                    let mut got = Vec::new();
                    for i in 0..BUDGET {
                        q.enqueue(encode(t, i));
                        if let Some(v) = q.dequeue() {
                            got.push(v);
                        }
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                    got
                })
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(120);
        while done.load(Ordering::SeqCst) < WORKERS - STALLS {
            if Instant::now() >= deadline {
                fault::disarm();
                panic!(
                    "[sharded] survivors starved with {STALLS} peers stalled \
                     under [{stext}] (replay with LCRQ_TEST_SEED={seed:#x})"
                );
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let stalled = fault::stalled_count();
        fault::disarm(); // release the "crashed" samplers so they can join
        assert_eq!(
            stalled, STALLS,
            "[sharded] expected exactly {STALLS} stalled threads under [{stext}] \
             (replay with LCRQ_TEST_SEED={seed:#x})"
        );
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut seen: Vec<u64> = all.into_iter().flatten().collect();
    while let Some(v) = q.dequeue() {
        seen.push(v);
    }
    let total = WORKERS as u64 * BUDGET;
    assert_eq!(
        seen.len() as u64,
        total,
        "[sharded] lost items under [{stext}] (replay with LCRQ_TEST_SEED={seed:#x})"
    );
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(
        seen.len() as u64,
        total,
        "[sharded] duplicated items under [{stext}] (replay with LCRQ_TEST_SEED={seed:#x})"
    );
    assert_eq!(q.dequeue(), None, "[sharded] queue should be drained");
}

/// `Fail` at the sampling site degrades an operation to a single uniform
/// sample — the stale-estimate worst case, equivalent to d = 1. Delivery
/// must stay exactly-once and the relaxation must stay inside the d = 1
/// envelope (the widest this front-end can produce at this geometry).
#[test]
fn failed_sampling_degrades_to_uniform_choice_not_lost_elements() {
    let _registry = registry();
    let seed = test_seed(0x57A1_1ED5_EED0_0003);
    let scenario = Scenario::new(seed).with(Site::ShardSample, 500_000, FaultAction::Fail);
    let stext = scenario.to_string();
    scenario.arm();
    let result = std::panic::catch_unwind(|| {
        let q = ShardedQueue::from_factory(&ShardedConfig::new().with_shards(4).with_d(2), |_| {
            Lcrq::with_config(tiny())
        });
        // Half the picks lose their extra samples, so judge against the
        // d = 1 envelope rather than the configured d = 2 one.
        let bound = rank_error_bound_for(4, 1, 6);
        mpmc_stress_relaxed(&q, 3, 3, 4_000, bound);
    });
    fault::disarm();
    if let Err(e) = result {
        eprintln!("fault scenario in effect: [{stext}]");
        eprintln!("replay with LCRQ_TEST_SEED={seed:#x}");
        std::panic::resume_unwind(e);
    }
}

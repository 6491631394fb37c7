//! Progress-property tests: op-wise nonblocking behaviour (paper §4.2.1),
//! robustness to adversarial scheduling, and — the wait-free upgrade — an
//! *empirical step bound*: wCQ operations must complete within a declared
//! number of the caller's own atomic steps even when peer threads stall or
//! every optimistic attempt is made to fail, a bound the lock-free
//! backends demonstrably cannot meet (see the `step_bound` module).

use lcrq::queues::ConcurrentQueue;
use lcrq::util::adversary;
use lcrq::util::metrics::{self, Event, Snapshot};
use lcrq::{Lcrq, LcrqConfig, Lscq, Wcq};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// The step meter: progress bounds counted in the operation's own steps.
// ---------------------------------------------------------------------------

/// The per-op step ceiling `wcq` declares: no completed queue operation may
/// issue more atomic steps than this, under any schedule the suite can
/// produce (stalled peers, 100 % spurious-failure injection, tiny rings).
///
/// The bound is generous against the structural worst case — ring spill
/// plus a full helping round over all 64 request records — and far below
/// what one retry loop burns when its exit condition is withheld (the
/// planted-mutant and lock-free discriminator tests drive five figures).
/// Empirical worst observed on this suite, stalls + failure storm armed:
/// ≈60 steps.
const WCQ_STEP_CEILING: u64 = 3_000;

/// Atomic steps in a metrics delta: every hardware atomic the operation
/// issued (F&A, SWAP, T&S, single- and double-width CAS attempts) plus
/// ring-entry inspections (`NodeVisit`, ≥1 per attempt loop iteration).
/// Retries add more of both, so this is the operational currency a
/// progress bound is stated in — wall-clock plays no part.
fn steps_in(d: &Snapshot) -> u64 {
    d.get(Event::Faa)
        + d.get(Event::Swap)
        + d.get(Event::Tas)
        + d.get(Event::CasAttempt)
        + d.get(Event::Cas2Attempt)
        + d.get(Event::NodeVisit)
}

/// Runs `workers` threads, each completing `budget` enqueue+dequeue pairs
/// against `q`, metering every completed operation's steps through the
/// thread-local counters; returns the worst single-op step count seen.
fn worst_steps_per_op<Q: ConcurrentQueue>(q: &Q, workers: usize, budget: u64) -> u64 {
    let max_steps = AtomicU64::new(0);
    let max_steps = &max_steps;
    std::thread::scope(|s| {
        for t in 0..workers {
            s.spawn(move || {
                let mut worst = 0u64;
                for i in 0..budget {
                    let before = metrics::local_snapshot();
                    q.enqueue(lcrq::queues::testing::encode(t, i));
                    let d = metrics::local_snapshot().delta_since(&before);
                    worst = worst.max(steps_in(&d));
                    let before = metrics::local_snapshot();
                    let _ = q.dequeue();
                    let d = metrics::local_snapshot().delta_since(&before);
                    worst = worst.max(steps_in(&d));
                }
                max_steps.fetch_max(worst, Ordering::SeqCst);
            });
        }
    });
    while q.dequeue().is_some() {}
    max_steps.load(Ordering::SeqCst)
}

/// The wait-free backend meets its declared ceiling under plain MPMC
/// contention (no injection; the adversarial variants live in
/// `step_bound`). This is the baseline the discriminator tests sharpen.
#[test]
fn wcq_per_op_steps_stay_bounded_under_contention() {
    let q = Wcq::with_config(LcrqConfig::new().with_ring_order(4));
    let worst = worst_steps_per_op(&q, 6, 2_000);
    assert!(
        worst <= WCQ_STEP_CEILING,
        "wcq op took {worst} steps, over the declared ceiling {WCQ_STEP_CEILING}"
    );
}

/// Mutation check for the harness itself: a backend with a planted retry
/// loop (a CAS whose success is withheld) must be *flagged* by the step
/// meter. If this test fails, the meter has gone blind and the wait-free
/// assertions above prove nothing.
#[test]
fn step_meter_flags_a_planted_retry_loop_backend() {
    /// An `Lscq` with a known mutation: every dequeue first runs a
    /// compare-and-swap retry loop whose exit condition never comes (the
    /// gate word stays 0, the CAS wants 1→2). This is the shape of bug —
    /// an unbounded optimistic retry — the step bound exists to catch.
    struct RetryLoopQueue {
        inner: Lscq,
        gate: AtomicU64,
    }
    impl ConcurrentQueue for RetryLoopQueue {
        fn enqueue(&self, value: u64) {
            self.inner.enqueue(value);
        }
        fn dequeue(&self) -> Option<u64> {
            for _ in 0..50_000 {
                if lcrq::atomic::ops::cas(&self.gate, 1, 2).is_ok() {
                    break;
                }
            }
            self.inner.dequeue()
        }
        fn name(&self) -> &'static str {
            "retry-loop-mutant"
        }
    }
    let q = RetryLoopQueue {
        inner: Lscq::with_config(LcrqConfig::new().with_ring_order(4)),
        gate: AtomicU64::new(0),
    };
    let worst = worst_steps_per_op(&q, 2, 20);
    assert!(
        worst > WCQ_STEP_CEILING,
        "planted retry loop went undetected: worst op was {worst} steps, \
         ceiling {WCQ_STEP_CEILING} — the step meter is blind"
    );
}

// ---------------------------------------------------------------------------
// Op-wise nonblocking behaviour (paper §4.2.1) across the backend family.
// ---------------------------------------------------------------------------

/// Enqueues complete while dequeuers continuously hammer an empty queue —
/// the infinite-array queue's livelock scenario, which LCRQ's close-and-
/// move-on design resolves (§4).
#[test]
fn enqueues_are_not_livelocked_by_empty_dequeuers() {
    let q = Lcrq::with_config(LcrqConfig::new().with_ring_order(4));
    let stop = AtomicBool::new(false);
    let (q, stop) = (&q, &stop);
    let enqueued = std::thread::scope(|s| {
        for _ in 0..3 {
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let _ = q.dequeue();
                }
            });
        }
        let deadline = Instant::now() + Duration::from_millis(500);
        let mut n = 0u64;
        while Instant::now() < deadline {
            q.enqueue(n);
            n += 1;
        }
        stop.store(true, Ordering::Relaxed);
        n
    });
    assert!(
        enqueued > 1_000,
        "enqueuer should make steady progress, got {enqueued}"
    );
}

/// Dequeues complete while enqueuers continuously push — dequeuers must
/// never be starved into returning only EMPTY.
#[test]
fn dequeues_make_progress_under_enqueue_pressure() {
    let q = Lcrq::with_config(LcrqConfig::new().with_ring_order(4));
    let stop = AtomicBool::new(false);
    let (q, stop) = (&q, &stop);
    let got = std::thread::scope(|s| {
        for t in 0..2u64 {
            s.spawn(move || {
                let mut i = 0;
                while !stop.load(Ordering::Relaxed) {
                    q.enqueue(t << 40 | i);
                    i += 1;
                }
            });
        }
        let deadline = Instant::now() + Duration::from_millis(500);
        let mut got = 0u64;
        while Instant::now() < deadline {
            if q.dequeue().is_some() {
                got += 1;
            }
        }
        stop.store(true, Ordering::Relaxed);
        got
    });
    assert!(
        got > 1_000,
        "dequeuer should make steady progress, got {got}"
    );
}

/// Under heavy injected preemption, the nonblocking queues must still
/// complete a fixed workload promptly (nobody waits on a preempted thread).
#[test]
fn lcrq_completes_under_adversarial_preemption() {
    adversary::set_preempt_ppm(5_000);
    let q = Lcrq::with_config(LcrqConfig::new().with_ring_order(5));
    let total = AtomicU64::new(0);
    let (q, total) = (&q, &total);
    std::thread::scope(|s| {
        for t in 0..6u64 {
            s.spawn(move || {
                for i in 0..2_000u64 {
                    q.enqueue(t << 40 | i);
                    if q.dequeue().is_some() {
                        total.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    adversary::set_preempt_ppm(0);
    // Drain the imbalance.
    let mut leftover = 0;
    while q.dequeue().is_some() {
        leftover += 1;
    }
    assert_eq!(total.load(Ordering::Relaxed) + leftover, 12_000);
}

/// A CRQ whose enqueuers starve closes rather than spinning forever: with a
/// ring of 2 and many threads, the LCRQ must keep absorbing items by
/// appending fresh rings (bounded only by memory), never deadlocking.
#[test]
fn tiny_rings_never_wedge_the_queue() {
    let q = Lcrq::with_config(
        LcrqConfig::new()
            .with_ring_order(1)
            .with_starvation_limit(4),
    );
    let q = &q;
    std::thread::scope(|s| {
        for t in 0..4u64 {
            s.spawn(move || {
                for i in 0..2_500u64 {
                    q.enqueue(t << 40 | i);
                }
            });
        }
        s.spawn(move || {
            // Every item must eventually come out (a hang here fails the
            // test run); R=2 with starvation limit 4 forces constant ring
            // replacement, the path most prone to wedging.
            let mut got = 0u64;
            while got < 10_000 {
                if q.dequeue().is_some() {
                    got += 1;
                } else {
                    std::thread::yield_now();
                }
            }
        });
    });
    assert_eq!(q.dequeue(), None);
}

/// LSCQ's livelock defence is structural, like LCRQ's: a starved ring
/// closes and the list moves on. Enqueuers must make steady progress
/// against an empty-dequeue storm.
#[test]
fn lscq_enqueues_are_not_livelocked_by_empty_dequeuers() {
    let q = Lscq::with_config(LcrqConfig::new().with_ring_order(4));
    let stop = AtomicBool::new(false);
    let (q, stop) = (&q, &stop);
    let enqueued = std::thread::scope(|s| {
        for _ in 0..3 {
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let _ = q.dequeue();
                }
            });
        }
        let deadline = Instant::now() + Duration::from_millis(500);
        let mut n = 0u64;
        while Instant::now() < deadline {
            let _ = q.try_enqueue(n);
            n += 1;
        }
        stop.store(true, Ordering::Relaxed);
        n
    });
    assert!(
        enqueued > 1_000,
        "LSCQ enqueuer should make steady progress, got {enqueued}"
    );
}

/// LSCQ under heavy injected preemption: same fixed workload as the LCRQ
/// adversary test, exercising the `preempt_point` hooks inside the SCQ
/// entry loops.
#[test]
fn lscq_completes_under_adversarial_preemption() {
    adversary::set_preempt_ppm(5_000);
    let q = Lscq::with_config(LcrqConfig::new().with_ring_order(5));
    let total = AtomicU64::new(0);
    let (q, total) = (&q, &total);
    std::thread::scope(|s| {
        for t in 0..6u64 {
            s.spawn(move || {
                for i in 0..2_000u64 {
                    q.enqueue(t << 40 | i);
                    if q.dequeue().is_some() {
                        total.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    adversary::set_preempt_ppm(0);
    let mut leftover = 0;
    while q.dequeue().is_some() {
        leftover += 1;
    }
    assert_eq!(total.load(Ordering::Relaxed) + leftover, 12_000);
}

/// Tiny SCQ rings under multi-producer pressure: the list must keep
/// absorbing items by appending fresh rings, never wedging.
#[test]
fn lscq_tiny_rings_never_wedge_the_queue() {
    let q = Lscq::with_config(LcrqConfig::new().with_ring_order(1));
    let q = &q;
    std::thread::scope(|s| {
        for t in 0..4u64 {
            s.spawn(move || {
                for i in 0..2_500u64 {
                    q.enqueue(t << 40 | i);
                }
            });
        }
        s.spawn(move || {
            let mut got = 0u64;
            while got < 10_000 {
                if q.dequeue().is_some() {
                    got += 1;
                } else {
                    std::thread::yield_now();
                }
            }
        });
    });
    assert_eq!(q.dequeue(), None);
}

/// wCQ shares the structural livelock defence (tantrum close + fresh ring)
/// and adds the helping layer on top; an empty-dequeue storm must not slow
/// enqueuers below steady progress.
#[test]
fn wcq_enqueues_are_not_livelocked_by_empty_dequeuers() {
    let q = Wcq::with_config(LcrqConfig::new().with_ring_order(4));
    let stop = AtomicBool::new(false);
    let (q, stop) = (&q, &stop);
    let enqueued = std::thread::scope(|s| {
        for _ in 0..3 {
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let _ = q.dequeue();
                }
            });
        }
        let deadline = Instant::now() + Duration::from_millis(500);
        let mut n = 0u64;
        while Instant::now() < deadline {
            let _ = q.try_enqueue(n);
            n += 1;
        }
        stop.store(true, Ordering::Relaxed);
        n
    });
    assert!(
        enqueued > 1_000,
        "wCQ enqueuer should make steady progress, got {enqueued}"
    );
}

/// wCQ under heavy injected preemption: the fixed workload must complete
/// with every item accounted for, driving the preempt hooks inside both
/// the fast path and the helping steps.
#[test]
fn wcq_completes_under_adversarial_preemption() {
    adversary::set_preempt_ppm(5_000);
    let q = Wcq::with_config(LcrqConfig::new().with_ring_order(5));
    let total = AtomicU64::new(0);
    let (q, total) = (&q, &total);
    std::thread::scope(|s| {
        for t in 0..6u64 {
            s.spawn(move || {
                for i in 0..2_000u64 {
                    q.enqueue(t << 40 | i);
                    if q.dequeue().is_some() {
                        total.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    adversary::set_preempt_ppm(0);
    let mut leftover = 0;
    while q.dequeue().is_some() {
        leftover += 1;
    }
    assert_eq!(total.load(Ordering::Relaxed) + leftover, 12_000);
}

/// Tiny wCQ rings under multi-producer pressure: constant ring turnover
/// with helped requests spanning ring replacement, never wedging.
#[test]
fn wcq_tiny_rings_never_wedge_the_queue() {
    let q = Wcq::with_config(LcrqConfig::new().with_ring_order(1));
    let q = &q;
    std::thread::scope(|s| {
        for t in 0..4u64 {
            s.spawn(move || {
                for i in 0..2_500u64 {
                    q.enqueue(t << 40 | i);
                }
            });
        }
        s.spawn(move || {
            let mut got = 0u64;
            while got < 10_000 {
                if q.dequeue().is_some() {
                    got += 1;
                } else {
                    std::thread::yield_now();
                }
            }
        });
    });
    assert_eq!(q.dequeue(), None);
}

/// The SCQ threshold-counter regression: a dequeue-on-empty storm must
/// decay the threshold and then stop touching `head` entirely. If the
/// `threshold.fetch_sub(1)` decrement were removed, the counter would sit
/// at its maximum forever and every empty dequeue would keep issuing F&A
/// on `head` — the Figure-2 livelock ingredient SCQ exists to rule out —
/// and the F&A-freeze assertion below would fail.
#[test]
fn scq_threshold_decays_and_freezes_empty_dequeues() {
    // Ring capacity n = 16. A fresh ring starts exhausted; one enqueue
    // re-arms the threshold to its maximum (3n - 1 = 47) and the dequeue
    // drains the ring again.
    let q = Lscq::with_config(LcrqConfig::new().with_ring_order(4));
    q.enqueue(1);
    assert_eq!(q.dequeue(), Some(1));
    // Decay: each empty dequeue decrements the threshold exactly once, so
    // 4n + 16 storm iterations push it below zero with slack to spare.
    for _ in 0..(4 * 16 + 16) {
        assert_eq!(q.dequeue(), None);
    }
    // Frozen: every further empty dequeue must exit straight off the
    // exhausted counter — zero fetch-and-add of any kind.
    let before = metrics::local_snapshot();
    for _ in 0..1_000 {
        assert_eq!(q.dequeue(), None);
    }
    let d = metrics::local_snapshot().delta_since(&before);
    assert_eq!(
        d.get(Event::Faa),
        0,
        "exhausted-threshold dequeues must not touch head/tail"
    );
    assert!(
        d.get(Event::ThresholdExhausted) >= 1_000,
        "each empty dequeue should report the threshold fast-exit, got {}",
        d.get(Event::ThresholdExhausted)
    );
    // And the queue still works afterwards: an enqueue re-arms it.
    q.enqueue(7);
    assert_eq!(q.dequeue(), Some(7));
}

/// Fig-2-style concurrent storm: dequeuers hammer an (almost always)
/// empty LSCQ while a producer trickles items. Termination of this test
/// *is* the livelock-freedom assertion — an SCQ without the threshold
/// bound can spin dequeuers forever behind a racing enqueuer's F&A.
#[test]
fn scq_dequeue_storm_on_empty_queue_terminates() {
    let q = Lscq::with_config(LcrqConfig::new().with_ring_order(3));
    let q = &q;
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(move || {
                let mut got = 0u64;
                // 50k empty-heavy dequeues each; must complete promptly.
                for _ in 0..50_000 {
                    if q.dequeue().is_some() {
                        got += 1;
                    }
                }
                got
            });
        }
        s.spawn(move || {
            for i in 0..1_000u64 {
                q.enqueue(i);
            }
        });
    });
    while q.dequeue().is_some() {}
}

/// The lock-based combining queues *do* lose progress when their combiner
/// is preempted — the contrast the paper's Figure 6b quantifies. This test
/// only asserts they still *complete* (blocking, not deadlocking).
#[test]
fn combining_queues_complete_under_adversarial_preemption() {
    adversary::set_preempt_ppm(2_000);
    let q = lcrq::CcQueue::new();
    let q = &q;
    std::thread::scope(|s| {
        for t in 0..4u64 {
            s.spawn(move || {
                for i in 0..500u64 {
                    q.enqueue(t << 40 | i);
                    let _ = q.dequeue();
                }
            });
        }
    });
    adversary::set_preempt_ppm(0);
    while q.dequeue().is_some() {}
}

// ---------------------------------------------------------------------------
// The step-bound discriminator (the PR's headline artifact).
//
// One harness, one adversary shape, two verdicts:
//
// * stall 2 of 8 threads permanently at their hazard-publish / F&A windows
//   (`FaultAction::Stall` — a simulated crash), and
// * make every optimistic attempt at the backend's own entry sites
//   spuriously fail (`FaultAction::Fail` at 100 %, finite hit budget —
//   a simulated contention storm),
//
// then require the surviving threads to complete their entire op budget
// with **every completed operation under the declared per-op step
// ceiling**. The wait-free wCQ passes: a failed attempt costs one bounded
// round before the operation escapes to the helping slow path, so the
// storm's cost per op is capped by construction. The lock-free LSCQ runs
// the *same* harness and blows the ceiling (`#[should_panic]`): its entry
// loop retries on every spurious failure with no escape hatch, so one
// unlucky operation absorbs the storm's whole hit budget. Completion-wise
// both families survive (the crash-tolerance suite proves that); the step
// bound is exactly where lock-free and wait-free part ways.
// ---------------------------------------------------------------------------

#[cfg(feature = "fault-injection")]
mod step_bound {
    use super::{steps_in, WCQ_STEP_CEILING};
    use lcrq::queues::testing::encode;
    use lcrq::queues::ConcurrentQueue;
    use lcrq::util::fault::{self, FaultAction, Scenario, Site};
    use lcrq::util::metrics;
    use lcrq::util::rng::test_seed;
    use lcrq::{LcrqConfig, Lscq, Wcq};
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::Mutex;
    use std::time::{Duration, Instant};

    /// Serializes the module's tests: the fail-point registry is global.
    static LOCK: Mutex<()> = Mutex::new(());
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    const WORKERS: usize = 8;
    const STALLS: usize = 2;
    const BUDGET: u64 = 1_000;
    /// Hits granted to each 100 %-probability `Fail` site: enough that a
    /// retry loop with no escape burns five figures of steps in one op,
    /// small enough that the storm ends and the run terminates.
    const FAIL_HITS: u64 = 30_000;

    /// Builds the shared adversary over the given backend-specific entry
    /// sites: 2-of-8 permanent stalls at the substrate windows plus a
    /// total spurious-failure storm at the backend's own retry points.
    fn adversary(seed: u64, enq_site: Site, deq_site: Site) -> Scenario {
        Scenario::new(seed)
            .with(Site::HazardProtect, 400_000, FaultAction::Stall)
            .with(Site::Faa, 400_000, FaultAction::Stall)
            .max_stalls(STALLS as u64)
            .with_limited(enq_site, 1_000_000, FaultAction::Fail, FAIL_HITS)
            .with_limited(deq_site, 1_000_000, FaultAction::Fail, FAIL_HITS)
    }

    /// The step-bound harness. Stalled threads park mid-operation and are
    /// released only after the survivors finish, so their unfinished ops
    /// are never metered — the bound speaks about *completed* operations,
    /// exactly as a wait-freedom claim does. Panics with "per-op step
    /// bound exceeded" when a completed op overran `ceiling`.
    fn assert_step_bound<Q: ConcurrentQueue>(label: &str, q: &Q, scenario: Scenario, ceiling: u64) {
        let seed = scenario.seed();
        let stext = scenario.to_string();
        scenario.arm();

        let done = AtomicUsize::new(0);
        let max_steps = AtomicU64::new(0);
        let (done, max_steps) = (&done, &max_steps);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..WORKERS)
                .map(|t| {
                    s.spawn(move || {
                        let mut worst = 0u64;
                        for i in 0..BUDGET {
                            let before = metrics::local_snapshot();
                            q.enqueue(encode(t, i));
                            let d = metrics::local_snapshot().delta_since(&before);
                            worst = worst.max(steps_in(&d));
                            let before = metrics::local_snapshot();
                            let _ = q.dequeue();
                            let d = metrics::local_snapshot().delta_since(&before);
                            worst = worst.max(steps_in(&d));
                        }
                        max_steps.fetch_max(worst, Ordering::SeqCst);
                        done.fetch_add(1, Ordering::SeqCst);
                    })
                })
                .collect();

            // Survivors must finish their full budget while the stalled
            // threads stay parked; the deadline converts a progress failure
            // into a report instead of a hang.
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
                "[{label}] expected exactly {STALLS} stalled threads under \
                 [{stext}] (replay with LCRQ_TEST_SEED={seed:#x})"
            );
            for h in handles {
                h.join().unwrap();
            }
        });
        while q.dequeue().is_some() {}

        let worst = max_steps.load(Ordering::SeqCst);
        assert!(
            worst <= ceiling,
            "[{label}] per-op step bound exceeded: worst completed op took \
             {worst} steps, ceiling {ceiling}, under [{stext}] \
             (replay with LCRQ_TEST_SEED={seed:#x})"
        );
    }

    /// The wait-free claim must rest on a path the suite actually runs:
    /// with every fast-path placement window spuriously failing, every
    /// enqueue escapes to the announced slow path, and each announced
    /// request must reach a terminal phase (the helping machinery engages
    /// and finishes what it starts).
    #[test]
    fn wcq_helping_machinery_engages_and_finalizes() {
        let _g = guard();
        let seed = test_seed(0x57E9_B0D5_EED0_0003);
        let scenario = Scenario::new(seed).with(Site::WcqEnqueue, 1_000_000, FaultAction::Fail);
        scenario.arm();
        let q = Wcq::with_config(LcrqConfig::new().with_ring_order(4));
        let announced = AtomicU64::new(0);
        let finalized = AtomicU64::new(0);
        let (q, announced, finalized) = (&q, &announced, &finalized);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                s.spawn(move || {
                    let before = metrics::local_snapshot();
                    for i in 0..1_000u64 {
                        q.enqueue(t << 40 | i);
                        let _ = q.dequeue();
                    }
                    let d = metrics::local_snapshot().delta_since(&before);
                    announced.fetch_add(d.get(metrics::Event::HelpAnnounce), Ordering::SeqCst);
                    finalized.fetch_add(d.get(metrics::Event::HelpFinalized), Ordering::SeqCst);
                });
            }
        });
        fault::disarm();
        while q.dequeue().is_some() {}
        let (a, f) = (
            announced.load(Ordering::SeqCst),
            finalized.load(Ordering::SeqCst),
        );
        assert!(
            a >= 1_000,
            "a total placement-failure storm must drive enqueues through the \
             slow path, got only {a} announcements \
             (replay with LCRQ_TEST_SEED={seed:#x})"
        );
        assert!(
            f >= a,
            "announced requests must reach a terminal phase: {a} announced, \
             {f} finalized (replay with LCRQ_TEST_SEED={seed:#x})"
        );
    }

    /// The wait-free verdict: with 2 of 8 threads crashed and every fast-
    /// path attempt failing, each surviving wcq operation still completes
    /// within the declared ceiling — failures cost one bounded round each
    /// before the op escapes to the helping slow path, which finalizes
    /// through at most one claim/CAS chain per position.
    #[test]
    fn wcq_survivors_hold_the_step_bound_with_stalled_peers() {
        let _g = guard();
        let seed = test_seed(0x57E9_B0D5_EED0_0001);
        let q = Wcq::with_config(LcrqConfig::new().with_ring_order(6));
        assert_step_bound(
            "wcq",
            &q,
            adversary(seed, Site::WcqEnqueue, Site::WcqDequeue),
            WCQ_STEP_CEILING,
        );
    }

    /// The lock-free contrast, same harness, same adversary shape: LSCQ's
    /// entry loops retry on every spurious failure with no bounded escape,
    /// so one operation absorbs the storm's whole hit budget and blows the
    /// ceiling by an order of magnitude. This is the honest statement of
    /// what `wcq` buys: not survival (both survive) but a per-op bound.
    #[test]
    #[should_panic(expected = "per-op step bound exceeded")]
    fn lscq_blows_the_step_bound_under_the_same_adversary() {
        let _g = guard();
        let seed = test_seed(0x57E9_B0D5_EED0_0002);
        let q = Lscq::with_config(LcrqConfig::new().with_ring_order(6));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            assert_step_bound(
                "lscq",
                &q,
                adversary(seed, Site::ScqEnqueue, Site::ScqDequeue),
                WCQ_STEP_CEILING,
            );
        }));
        fault::disarm(); // never leave stalled threads behind on panic
        if let Err(e) = result {
            std::panic::resume_unwind(e);
        }
    }
}

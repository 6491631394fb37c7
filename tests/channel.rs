//! Channel-layer integration tests (ISSUE 2 satellite): linearizability-style
//! MPMC stress with parking in the loop, no-lost-wakeup stress, timeout
//! precision, backpressure, batch ordering, and the async API driven by the
//! crate's own `block_on`.
//!
//! Thread counts stay small, but every test funnels through the full wait
//! ladder — attempt, watch, park — because the consumers outrun the
//! producers; a consumer that keeps finding nothing stops watching and parks
//! from its second wait on, so the park path runs on most messages.

use std::future::Future;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

use lcrq::channel::{self, block_on, RecvError, RecvTimeoutError, TryRecvError, TrySendError};
use lcrq::queues::testing;
use lcrq::util::metrics::{self, Event};

#[test]
fn mpmc_stress_no_loss_no_dup_per_sender_fifo() {
    const PRODUCERS: usize = 4;
    const CONSUMERS: usize = 4;
    const PER: u64 = 5_000;

    let (tx, rx) = channel::channel::<u64>();
    let barrier = Barrier::new(PRODUCERS + CONSUMERS);
    let barrier = &barrier;
    let sent = testing::items(PRODUCERS, PER);

    let consumed: Vec<Vec<u64>> = std::thread::scope(|s| {
        for mine in sent.chunks(PER as usize) {
            let tx = tx.clone();
            s.spawn(move || {
                barrier.wait();
                for &v in mine {
                    tx.send(v).unwrap();
                }
            });
        }
        drop(tx); // producers hold the remaining clones

        let handles: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                let rx = rx.clone();
                s.spawn(move || {
                    barrier.wait();
                    let mut got = Vec::new();
                    while let Ok(v) = rx.recv() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Exactly once, and each sender's items in order within each consumer's
    // stream: the channel inherits the LCRQ's FIFO order.
    testing::check_delivery(&sent, &consumed).unwrap();
}

/// The classic lost-wakeup shape, looped: one item in flight at a time, with
/// the consumer's final-poll-then-park window raced against the producer's
/// enqueue-then-notify. Any lost wakeup deadlocks the iteration (caught by
/// the recv_timeout + panic below rather than hanging the suite).
#[test]
fn no_lost_wakeup_one_item_ping() {
    const ROUNDS: u64 = 2_000;
    let (tx, rx) = channel::channel::<u64>();
    std::thread::scope(|s| {
        s.spawn(move || {
            for i in 0..ROUNDS {
                tx.send(i).unwrap();
                // Stagger occasionally so the consumer reaches the parked
                // state (not just the spin phase) in some iterations.
                if i % 64 == 0 {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        });
        for i in 0..ROUNDS {
            match rx.recv_timeout(Duration::from_secs(10)) {
                Ok(v) => assert_eq!(v, i),
                Err(e) => panic!("round {i}: wakeup lost ({e})"),
            }
        }
    });
}

#[test]
fn recv_timeout_times_out_within_tolerance() {
    let (tx, rx) = channel::channel::<u64>();
    let start = Instant::now();
    let r = rx.recv_timeout(Duration::from_millis(80));
    let elapsed = start.elapsed();
    assert_eq!(r, Err(RecvTimeoutError::Timeout));
    assert!(
        elapsed >= Duration::from_millis(80),
        "woke early: {elapsed:?}"
    );
    // Generous upper bound: CI schedulers are noisy, but a parked waiter must
    // not overshoot by an order of magnitude.
    assert!(
        elapsed < Duration::from_millis(800),
        "overshot: {elapsed:?}"
    );
    drop(tx);
}

#[test]
fn recv_timeout_returns_item_sent_mid_wait() {
    let (tx, rx) = channel::channel::<u64>();
    std::thread::scope(|s| {
        s.spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            tx.send(99).unwrap();
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(99));
    });
}

#[test]
fn bounded_backpressure_blocks_and_unblocks() {
    let (tx, rx) = channel::bounded::<u64>(2);
    tx.send(0).unwrap();
    tx.send(1).unwrap();
    match tx.try_send(2) {
        Err(TrySendError::Full(v)) => assert_eq!(v, 2),
        other => panic!("expected Full, got {other:?}"),
    }

    // A blocking send on the full channel must park, then complete once the
    // receiver frees a slot.
    let unblocked = AtomicU64::new(0);
    std::thread::scope(|s| {
        let (tx2, unblocked) = (tx.clone(), &unblocked);
        s.spawn(move || {
            tx2.send(2).unwrap();
            unblocked.store(1, Ordering::SeqCst);
        });
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(unblocked.load(Ordering::SeqCst), 0, "send ignored capacity");
        assert_eq!(rx.recv(), Ok(0));
    });
    assert_eq!(unblocked.load(Ordering::SeqCst), 1);
    assert_eq!(rx.recv(), Ok(1));
    assert_eq!(rx.recv(), Ok(2));
    assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
}

#[test]
fn bounded_mpmc_stress_respects_capacity_and_delivers_all() {
    const PER: u64 = 3_000;
    let (tx, rx) = channel::bounded::<u64>(16);
    let sent = testing::items(3, PER);
    let consumed: Vec<Vec<u64>> = std::thread::scope(|s| {
        for mine in sent.chunks(PER as usize) {
            let tx = tx.clone();
            s.spawn(move || mine.iter().for_each(|&v| tx.send(v).unwrap()));
        }
        drop(tx);
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let rx = rx.clone();
                s.spawn(move || std::iter::from_fn(|| rx.recv().ok()).collect())
            })
            .collect();
        consumers.into_iter().map(|h| h.join().unwrap()).collect()
    });
    testing::check_delivery(&sent, &consumed).unwrap();
}

/// The capacity gate under contention, with nobody receiving: room only
/// shrinks, so the first `Full` anyone sees is a full channel, and exactly
/// `cap` of all the attempts get in. Afterwards, from one thread, each item
/// taken out admits exactly one more.
#[test]
fn bounded_admits_exactly_capacity() {
    const THREADS: usize = 4;
    const ATTEMPTS: usize = 200;
    for cap in [1, 3, 64] {
        let (tx, rx) = channel::bounded::<u64>(cap);
        let barrier = &Barrier::new(THREADS);
        let admitted: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let tx = tx.clone();
                    s.spawn(move || {
                        barrier.wait();
                        let sent = |_: &usize| match tx.try_send(7) {
                            Ok(()) => true,
                            Err(TrySendError::Full(7)) => false,
                            Err(other) => panic!("neither sent nor full: {other:?}"),
                        };
                        (0..ATTEMPTS).filter(sent).count()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(admitted, cap, "capacity {cap}");
        for _ in 0..2 * cap {
            assert!(matches!(tx.try_send(8), Err(TrySendError::Full(8))));
            assert!(rx.recv().is_ok());
            assert_eq!(tx.try_send(8), Ok(()), "a receive made room for one");
        }
        assert!(matches!(tx.try_send(9), Err(TrySendError::Full(9))));
    }
}

/// Capacity 1 is the gate with no slack at all: every send but the first
/// waits for the receive before it, so a wakeup lost between two senders
/// and the receiver stops the test (the timeout turns that into a failure).
#[test]
fn bounded_one_hands_off_in_order() {
    const PER: u64 = 5_000;
    let (tx, rx) = channel::bounded::<u64>(1);
    let sent = testing::items(2, PER);
    let got: Vec<u64> = std::thread::scope(|s| {
        for mine in sent.chunks(PER as usize) {
            let tx = tx.clone();
            s.spawn(move || mine.iter().for_each(|&v| tx.send(v).unwrap()));
        }
        drop(tx);
        let got = (0..2 * PER)
            .map(|_| rx.recv_timeout(Duration::from_secs(10)).expect("handoff"))
            .collect();
        assert_eq!(rx.recv(), Err(RecvError::Disconnected));
        got
    });
    testing::check_delivery(&sent, &[got]).unwrap();
}

/// A bounded channel's rings hold its capacity (rounded up to a power of
/// two), and the gate never lets more items in, so a sender that keeps the
/// channel full never finds a ring full. The one close allowed is the
/// first ring's spill, which only a capacity above its 256 slots reaches.
/// The seal that the sender's drop makes closes the last ring too; it is
/// not counted.
#[test]
fn a_bounded_channel_at_capacity_closes_at_most_one_ring() {
    const MESSAGES: u64 = 100_000;
    let closes_in = |f: &mut dyn FnMut()| {
        let before = metrics::local_snapshot();
        f();
        let delta = metrics::local_snapshot().delta_since(&before);
        delta.get(Event::CrqClosed)
    };
    for capacity in [1, 3, 300, 1024] {
        let (tx, rx) = channel::bounded::<u64>(capacity);
        let sender = std::thread::spawn(move || {
            let closes = closes_in(&mut || (0..MESSAGES).for_each(|i| tx.send(i).unwrap()));
            drop(tx);
            closes
        });
        let received = closes_in(&mut || {
            (0..MESSAGES).for_each(|i| assert_eq!(rx.recv(), Ok(i)));
        });
        let closes = received + sender.join().unwrap();
        assert!(
            closes <= 1,
            "bounded({capacity}) closed {closes} rings over {MESSAGES} messages"
        );
    }
}

/// `send_batch` asks the gate for its whole batch at once, ten times what
/// fits, and must be granted what fits: a receiver that takes everything
/// there is never finds more than `CAP` items. (A call that had to block
/// for its first item frees that item's slot before it drains the rest, so
/// it alone may come back with one more.)
#[test]
fn batch_overdraft_never_exceeds_capacity() {
    const CAP: usize = 16;
    const ROUNDS: usize = 50;
    let (tx, rx) = channel::bounded::<u64>(CAP);
    std::thread::scope(|s| {
        s.spawn(move || {
            for round in 0..ROUNDS {
                let from = (round * 10 * CAP) as u64;
                tx.send_batch((from..from + 10 * CAP as u64).collect())
                    .unwrap();
            }
        });
        let mut got = Vec::new();
        while let Ok(n) = rx.recv_batch(&mut got, usize::MAX) {
            assert!(n <= CAP + 1, "{n} items in a channel of {CAP}");
        }
        assert_eq!(got, (0..(ROUNDS * 10 * CAP) as u64).collect::<Vec<_>>());
    });
}

#[test]
fn batch_send_recv_preserves_order_and_count() {
    let (tx, rx) = channel::channel::<u64>();
    tx.send_batch((0..100).collect()).unwrap();
    let mut out = Vec::new();
    let n = rx.recv_batch(&mut out, 64).unwrap();
    assert_eq!(n, 64);
    let n2 = rx.recv_batch(&mut out, 64).unwrap();
    assert_eq!(n + n2, 100);
    assert_eq!(out, (0..100).collect::<Vec<_>>());
}

#[test]
fn async_roundtrip_across_threads() {
    let (tx, rx) = channel::channel::<u64>();
    std::thread::scope(|s| {
        s.spawn(move || {
            for i in 0..500 {
                block_on(tx.send_async(i)).unwrap();
            }
        });
        for i in 0..500 {
            assert_eq!(block_on(rx.recv_async()), Ok(i));
        }
    });
    assert_eq!(block_on(rx.recv_async()), Err(RecvError::Disconnected));
}

/// A waker that only counts how often it was woken.
#[derive(Default)]
struct CountingWake(AtomicU64);

impl Wake for CountingWake {
    fn wake(self: Arc<Self>) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// Two futures pend on one condition, `event` makes it true once — which
/// wakes the older (wakes go oldest first) — and the older is dropped
/// without being polled again: the wake it was sent must move on to the
/// younger, or that one sleeps beside the very thing it waits for. Returns
/// what the younger then resolves to.
fn cancel_the_woken_one_of_two<F: Future>(older: F, younger: F, event: impl FnOnce()) -> F::Output {
    let wakes = [0, 1].map(|_| Arc::new(CountingWake::default()));
    let counts = || [0, 1].map(|i| wakes[i].0.load(Ordering::SeqCst));
    let [older_waker, younger_waker] = wakes.clone().map(Waker::from);
    let (mut older, mut younger) = (Box::pin(older), Box::pin(younger));
    let mut younger_cx = Context::from_waker(&younger_waker);
    assert!(older
        .as_mut()
        .poll(&mut Context::from_waker(&older_waker))
        .is_pending());
    assert!(younger.as_mut().poll(&mut younger_cx).is_pending());

    event();
    assert_eq!(counts(), [1, 0]);
    drop(older);
    assert_eq!(counts(), [1, 1], "the wake died with its future");
    match younger.as_mut().poll(&mut younger_cx) {
        Poll::Ready(out) => out,
        Poll::Pending => panic!("woken, yet still pending"),
    }
}

#[test]
fn cancelled_woken_recv_future_passes_the_wake_on() {
    let (tx, rx) = channel::channel::<u64>();
    let send = || tx.send(7).unwrap();
    let got = cancel_the_woken_one_of_two(rx.recv_async(), rx.recv_async(), send);
    assert_eq!(got, Ok(7));
}

/// The same shape on the other condition: two sends pend on a full
/// channel, one `recv` frees one slot.
#[test]
fn cancelled_woken_send_future_passes_the_wake_on() {
    let (tx, rx) = channel::bounded::<u64>(1);
    tx.send(0).unwrap();
    let recv = || assert_eq!(rx.recv(), Ok(0));
    let sent = cancel_the_woken_one_of_two(tx.send_async(1), tx.send_async(2), recv);
    assert_eq!(sent, Ok(()));
    assert_eq!(rx.recv(), Ok(2));
}

#[test]
fn iterator_drains_until_disconnect() {
    let (tx, rx) = channel::channel::<u64>();
    std::thread::scope(|s| {
        s.spawn(move || {
            for i in 0..200 {
                tx.send(i).unwrap();
            }
        });
        let got: Vec<u64> = rx.iter().collect();
        assert_eq!(got, (0..200).collect::<Vec<_>>());
    });
}

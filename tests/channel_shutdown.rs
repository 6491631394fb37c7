//! Channel shutdown semantics (ISSUE 2 acceptance): every item accepted
//! before close is delivered exactly once, receivers observe `Disconnected`
//! only after the drain, rejected values come back to the caller, and
//! heap-owned items are dropped exactly once no matter where shutdown
//! catches them (in the queue, in a rejected send, or unreceived at drop).

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use lcrq::channel::{self, RecvError, TryRecvError, TrySendError};
use lcrq::LcrqConfig;

/// Producers race `close()`: every `send` that returned `Ok` must be
/// delivered exactly once, every `Err(SendError)` must return the value, and
/// no item may be both.
#[test]
fn close_mid_stream_delivers_accepted_items_exactly_once() {
    const PRODUCERS: u64 = 4;
    const PER: u64 = 10_000;

    for round in 0..8 {
        let (tx, rx) = channel::channel::<u64>();
        let barrier = Barrier::new(PRODUCERS as usize + 1);
        let barrier = &barrier;

        let (accepted, received) = std::thread::scope(|s| {
            let producers: Vec<_> = (0..PRODUCERS)
                .map(|p| {
                    let tx = tx.clone();
                    s.spawn(move || {
                        barrier.wait();
                        let mut ok = Vec::new();
                        for seq in 0..PER {
                            let v = (p << 32) | seq;
                            match tx.send(v) {
                                Ok(()) => ok.push(v),
                                Err(e) => {
                                    // The rejected value comes back intact;
                                    // once closed, it stays closed.
                                    assert_eq!(e.0, v);
                                    break;
                                }
                            }
                        }
                        ok
                    })
                })
                .collect();

            barrier.wait();
            // Let an arbitrary prefix through, varying per round.
            std::thread::sleep(Duration::from_micros(200 * round));
            tx.close();

            let mut received = Vec::new();
            while let Ok(v) = rx.recv() {
                received.push(v);
            }
            let accepted: Vec<u64> = producers
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect();
            (accepted, received)
        });

        let accepted: HashSet<u64> = accepted.into_iter().collect();
        let mut seen = HashSet::new();
        for v in &received {
            assert!(seen.insert(*v), "round {round}: item {v} delivered twice");
            assert!(accepted.contains(v), "round {round}: phantom item {v}");
        }
        assert_eq!(
            seen.len(),
            accepted.len(),
            "round {round}: accepted items lost"
        );
    }
}

/// The precise acceptance shape: k pre-close items drain in order, then the
/// receiver observes `Disconnected` — never `Disconnected` early, never an
/// item after it.
#[test]
fn pre_close_items_then_disconnected() {
    let (tx, rx) = channel::channel::<u64>();
    for i in 0..1_000 {
        tx.send(i).unwrap();
    }
    tx.close();
    assert!(tx.send(9999).is_err(), "send accepted after close");
    for i in 0..1_000 {
        assert_eq!(rx.recv(), Ok(i));
    }
    assert_eq!(rx.recv(), Err(RecvError::Disconnected));
    assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
}

/// A receiver already parked on an empty channel must be woken by `close()`
/// and report `Disconnected` (not hang, not time out).
#[test]
fn close_wakes_parked_receiver() {
    let (tx, rx) = channel::channel::<u64>();
    std::thread::scope(|s| {
        let h = s.spawn(move || rx.recv());
        std::thread::sleep(Duration::from_millis(50)); // let it park
        tx.close();
        assert_eq!(h.join().unwrap(), Err(RecvError::Disconnected));
    });
}

/// Same for a sender parked on a full bounded channel.
#[test]
fn close_wakes_parked_bounded_sender() {
    let (tx, rx) = channel::bounded::<u64>(1);
    tx.send(0).unwrap();
    std::thread::scope(|s| {
        let tx2 = tx.clone();
        let h = s.spawn(move || tx2.send(1));
        std::thread::sleep(Duration::from_millis(50)); // let it park
        rx.close();
        let err = h.join().unwrap().unwrap_err();
        assert_eq!(err.0, 1, "rejected value must come back");
    });
    // The pre-close item remains drainable.
    assert_eq!(rx.recv(), Ok(0));
    assert_eq!(rx.recv(), Err(RecvError::Disconnected));
}

#[test]
fn dropping_last_sender_closes() {
    let (tx, rx) = channel::channel::<u64>();
    let tx2 = tx.clone();
    tx.send(1).unwrap();
    drop(tx);
    assert!(!rx.is_closed(), "clone still alive");
    tx2.send(2).unwrap();
    drop(tx2);
    assert_eq!(rx.recv(), Ok(1));
    assert_eq!(rx.recv(), Ok(2));
    assert_eq!(rx.recv(), Err(RecvError::Disconnected));
}

#[test]
fn dropping_last_receiver_closes() {
    let (tx, rx) = channel::channel::<u64>();
    drop(rx);
    match tx.try_send(5) {
        Err(TrySendError::Closed(v)) => assert_eq!(v, 5),
        other => panic!("expected Closed, got {other:?}"),
    }
    assert!(tx.send(6).is_err());
}

/// Heap-owned payloads: every construction is balanced by exactly one drop,
/// whether the item was received, rejected by a closed channel, or still
/// queued when the endpoints dropped.
#[test]
fn drop_exactly_once_across_shutdown() {
    static LIVE: AtomicU64 = AtomicU64::new(0);
    struct Tracked(#[allow(dead_code)] u64);
    impl Tracked {
        fn new(v: u64) -> Self {
            LIVE.fetch_add(1, Ordering::SeqCst);
            Tracked(v)
        }
    }
    impl Drop for Tracked {
        fn drop(&mut self) {
            let prev = LIVE.fetch_sub(1, Ordering::SeqCst);
            assert!(prev > 0, "double drop");
        }
    }

    let (tx, rx) = channel::channel::<Tracked>();
    for i in 0..500 {
        tx.send(Tracked::new(i)).unwrap();
    }
    // Receive some...
    for _ in 0..200 {
        drop(rx.recv().unwrap());
    }
    tx.close();
    // ...reject one (the value comes back and drops here)...
    drop(tx.send(Tracked::new(9999)).unwrap_err().0);
    // ...drain a few more post-close...
    for _ in 0..100 {
        drop(rx.recv().unwrap());
    }
    // ...and abandon the rest in the queue.
    drop(rx);
    drop(tx);
    assert_eq!(LIVE.load(Ordering::SeqCst), 0, "leaked or double-dropped");
}

/// close() is idempotent and reports whether this call performed it.
#[test]
fn close_is_idempotent() {
    let (tx, rx) = channel::channel::<u64>();
    assert!(tx.close());
    assert!(!tx.close());
    assert!(!rx.close());
    assert!(tx.is_closed() && rx.is_closed());
}

/// A sender and a receiver close the same channel at the same instant:
/// however the two calls interleave, exactly one of them placed the seal
/// and exactly one reports it. The closers are two long-lived threads that
/// meet at a spin barrier before every round — a blocking barrier releases
/// its waiters one after the other, which hides the race.
#[test]
fn concurrent_closers_see_exactly_one_transition() {
    const CLOSERS: usize = 2;
    const ROUNDS: usize = 200;
    // Tiny rings: there is one channel, and so one ring, per round.
    let tiny = LcrqConfig::new().with_ring_order(2);
    let channels: Vec<_> = (0..ROUNDS)
        .map(|_| channel::channel_with_config::<u64>(tiny.clone()))
        .collect();
    let arrived = AtomicU64::new(0);
    let transitions: Vec<AtomicU64> = (0..ROUNDS).map(|_| AtomicU64::new(0)).collect();
    std::thread::scope(|s| {
        for closer in 0..CLOSERS {
            let (channels, arrived, transitions) = (&channels, &arrived, &transitions);
            s.spawn(move || {
                for (round, (tx, rx)) in channels.iter().enumerate() {
                    arrived.fetch_add(1, Ordering::SeqCst);
                    while arrived.load(Ordering::SeqCst) < ((round + 1) * CLOSERS) as u64 {
                        std::hint::spin_loop();
                    }
                    let first = if closer == 0 { tx.close() } else { rx.close() };
                    transitions[round].fetch_add(u64::from(first), Ordering::SeqCst);
                }
            });
        }
    });
    for (round, reported) in transitions.iter().enumerate() {
        assert_eq!(reported.load(Ordering::SeqCst), 1, "round {round}");
    }
}

/// Many receivers blocked in `recv()` when the channel closes: all of them
/// must wake and return, splitting the remaining items exactly once.
#[test]
fn close_wakes_all_parked_receivers() {
    const RECEIVERS: usize = 4;
    const ITEMS: u64 = 100;
    let (tx, rx) = channel::channel::<u64>();
    let got = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        for _ in 0..RECEIVERS {
            let (rx, got) = (rx.clone(), Arc::clone(&got));
            s.spawn(move || {
                while rx.recv().is_ok() {
                    got.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        std::thread::sleep(Duration::from_millis(50)); // all parked
        for i in 0..ITEMS {
            tx.send(i).unwrap();
        }
        tx.close();
    });
    assert_eq!(got.load(Ordering::SeqCst), ITEMS);
}

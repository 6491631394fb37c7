//! Model-checked interleavings of the channel's own protocols, run by the
//! ci.sh loom gate:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p lcrq-channel --test loom -q
//! ```
//!
//! **The wait protocol in both its shapes** over the one FIFO waker
//! registry: a future (`WaitQueue::poll_until` / `release`) and a blocked
//! thread (`block_until`, which registers a waker that unparks it, makes
//! its final attempt, and parks on the model's park token). The condition
//! is a facade `AtomicBool` standing in for "the queue has an item". A
//! lost wakeup is a future left `Pending` whose waker nobody woke, or a
//! thread parked with nobody left to unpark it, which the checker reports
//! as a deadlock.
//!
//! **The bounded channel's capacity gate** (`Credit`: `sent` and a copy of
//! `received` on the senders' line, `received` on the receivers'). A
//! one-slot channel cut down to the gate, its two `WaitQueue`s and a count
//! of items in flight: two senders wait for room through `block_until`,
//! one receiver makes it. The gate must never admit an item beside one
//! still in flight, and nobody may be left asleep — which stands on the
//! sender's last attempt before a park reloading `received` itself, where
//! every earlier attempt may answer from the copy. A second model has a
//! `try_send` refused by the full channel race that: its F&A stands in
//! `sent` until it is subtracted again, a sender that parks in that moment
//! saw no room, and the refused caller — the one attempt nobody retries —
//! has to look back for room and wake it.
//!
//! Each property is checked twice: the real protocol must hold it on every
//! schedule, and a planted-bug twin must be caught breaking it.
#![cfg(loom)]

use lcrq_channel::{Credit, Registration, WaitQueue};
use lcrq_util::model::{thread, Builder, Report};
use lcrq_util::sync::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Context, Wake, Waker};

/// A waker that counts its wakes.
#[derive(Default)]
struct CountingWake(AtomicUsize);

impl Wake for CountingWake {
    fn wake(self: Arc<Self>) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

fn counting_waker() -> (Arc<CountingWake>, Waker) {
    let wakes = Arc::new(CountingWake::default());
    (Arc::clone(&wakes), Waker::from(Arc::clone(&wakes)))
}

type Release = fn(&WaitQueue, &mut Option<Registration>);

/// The readiness every model polls for: the flag is up.
fn raised(flag: &AtomicBool) -> Option<()> {
    flag.load(Ordering::SeqCst).then_some(())
}

/// One poll races "raise the flag; `notify_one`". With `reattempt` off the
/// poll is the planted bug: its attempt after `register` sees nothing.
fn poll_model(reattempt: bool) -> Report {
    Builder::new().check(move || {
        let wq = Arc::new(WaitQueue::default());
        let flag = Arc::new(AtomicBool::new(false));
        let (wakes, waker) = counting_waker();
        let (wq2, flag2) = (Arc::clone(&wq), Arc::clone(&flag));
        let poller = thread::spawn(move || {
            let (mut reg, mut attempts) = (None, 0);
            let poll = wq2.poll_until(&mut reg, &mut Context::from_waker(&waker), || {
                attempts += 1;
                raised(&flag2).filter(|()| reattempt || attempts == 1)
            });
            (poll.is_ready(), reg)
        });
        flag.store(true, Ordering::SeqCst);
        wq.notify_one();
        let (ready, mut reg) = poller.join().unwrap();
        assert!(
            ready || wakes.0.load(Ordering::SeqCst) > 0,
            "lost wakeup: Pending beside a raised flag, and never woken"
        );
        wq.release(&mut reg);
    })
}

/// A `block_until` waiter races "raise the flag; `notify_one`". With
/// `late` set the waiter is the planted bug: its watch never attempts and
/// its attempt after `register` (its second) is blind, so it parks on what
/// it saw before it registered. A spurious wake would end the bug's hang,
/// so its twin runs without one.
fn block_model(late: bool) -> Report {
    Builder {
        spurious_wakes: if late { 0 } else { 1 },
        ..Builder::new()
    }
    .check(move || {
        let wq = Arc::new(WaitQueue::default());
        let flag = Arc::new(AtomicBool::new(false));
        let (wq2, flag2) = (Arc::clone(&wq), Arc::clone(&flag));
        let waiter = thread::spawn(move || {
            let mut attempts = 0;
            let ready = || !late && raised(&flag2).is_some();
            let attempt = || {
                attempts += 1;
                raised(&flag2).filter(|()| !(late && attempts == 2))
            };
            wq2.block_until(None, ready, attempt)
        });
        flag.store(true, Ordering::SeqCst);
        wq.notify_one();
        assert_eq!(waiter.join().unwrap(), Some(()));
    })
}

/// Two threads block on the flag; `notify_all` after raising it must
/// release both.
fn notify_all_model() -> Report {
    Builder::new().check(|| {
        let wq = Arc::new(WaitQueue::default());
        let flag = Arc::new(AtomicBool::new(false));
        let waiters = [0, 1].map(|_| {
            let (wq, flag) = (Arc::clone(&wq), Arc::clone(&flag));
            thread::spawn(move || {
                wq.block_until(None, || raised(&flag).is_some(), || raised(&flag))
            })
        });
        flag.store(true, Ordering::SeqCst);
        wq.notify_all();
        for w in waiters {
            assert_eq!(w.join().unwrap(), Some(()));
        }
    })
}

/// Two futures are `Pending`; one notify races the cancellation of the
/// older (which `wake_one` picks first).
fn cancel_model(release: Release) -> Report {
    Builder::new().check(move || {
        let wq = Arc::new(WaitQueue::default());
        let flag = Arc::new(AtomicBool::new(false));
        let (_older_wakes, older_waker) = counting_waker();
        let (survivor_wakes, survivor_waker) = counting_waker();
        let (mut older, mut survivor) = (None, None);
        for (reg, waker) in [(&mut older, &older_waker), (&mut survivor, &survivor_waker)] {
            let pending = wq.poll_until(reg, &mut Context::from_waker(waker), || raised(&flag));
            assert!(pending.is_pending());
        }
        let (wq2, flag2) = (Arc::clone(&wq), Arc::clone(&flag));
        let notifier = thread::spawn(move || {
            flag2.store(true, Ordering::SeqCst);
            wq2.notify_one();
        });
        let wq3 = Arc::clone(&wq);
        let canceller = thread::spawn(move || release(&wq3, &mut older));
        notifier.join().unwrap();
        canceller.join().unwrap();
        assert!(
            survivor_wakes.0.load(Ordering::SeqCst) > 0,
            "lost wakeup: the only wake went to the cancelled future"
        );
        wq.release(&mut survivor);
    })
}

/// A `bounded(1)` channel without its queue: what `Shared` holds beside it,
/// and a count of items where the queue would be.
struct OneSlot {
    credit: Credit,
    not_full: WaitQueue,
    not_empty: WaitQueue,
    /// Items admitted and not yet taken out.
    in_flight: AtomicUsize,
}

type Acquire = fn(&Credit, u64) -> u64;

impl OneSlot {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            credit: Credit::new(1),
            not_full: WaitQueue::default(),
            not_empty: WaitQueue::default(),
            in_flight: AtomicUsize::new(0),
        })
    }

    /// `Shared::try_send_inner`: one attempt. `look_back` is a refused
    /// attempt's look for room on its way out.
    fn attempt(&self, acquire: Acquire, look_back: bool) -> Option<()> {
        if acquire(&self.credit, 1) == 1 {
            assert_eq!(
                self.in_flight.fetch_add(1, Ordering::SeqCst),
                0,
                "over capacity: admitted beside an item still in flight"
            );
            self.not_empty.notify_one();
            return Some(());
        }
        if look_back && self.credit.has_room() {
            self.not_full.notify_one();
        }
        None
    }

    /// `Sender::send`.
    fn send(&self, acquire: Acquire, look_back: bool) {
        self.not_full.block_until(
            None,
            || self.credit.has_room(),
            || self.attempt(acquire, look_back),
        );
    }

    /// `Sender::try_send`. Returns whether the item went in.
    fn try_send(&self, look_back: bool) -> bool {
        self.attempt(Credit::acquire, look_back).is_some()
    }

    /// `Receiver::recv`.
    fn recv(&self) {
        let ready = || self.in_flight.load(Ordering::SeqCst) > 0;
        self.not_empty
            .block_until(None, ready, || ready().then_some(()));
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
        self.credit.on_received(1);
        self.not_full.notify_one();
    }
}

/// A waiting sender makes an attempt of up to five counter accesses, a
/// watch of two `has_room` looks (the model's watch is two steps long),
/// and a second attempt before it parks: the gate models run to 7,508,
/// 8,614 and 16,011 schedules at the preemption bound.
fn gate_builder() -> Builder {
    Builder {
        max_executions: 40_000,
        ..Builder::new()
    }
}

/// Two senders push one item each through the gate; the main thread takes
/// both out. The senders do not look back after a refusal: with two items
/// no overdraft can hide room from a waiter, so the reload in `acquire` is
/// all that keeps a sender from parking beside room, and its twin that
/// trusts the copy is caught.
fn gate_model(acquire: Acquire) -> Report {
    gate_builder().check(move || {
        let ch = OneSlot::new();
        let senders = [0, 1].map(|_| {
            let ch = Arc::clone(&ch);
            thread::spawn(move || ch.send(acquire, false))
        });
        ch.recv();
        ch.recv();
        for s in senders {
            s.join().unwrap();
        }
    })
}

/// The channel is full; a refused attempt races a blocked `send` and the
/// receive that makes room for it. While the refused attempt's F&A stands,
/// `sent` is one too high, and an attempt that falls into that moment is
/// refused beside room it could not see. A `send` whose attempt after
/// registering is refused, or whose attempt after the receive's wake is,
/// parks with nobody left to notify it — unless the refused caller looks
/// back. The refused caller is a `try_send` (`blocking` false) or a second
/// blocked `send`, which the receive's `notify_one` may pass over because
/// it registered later.
fn refusal_model(look_back: bool, blocking: bool) -> Report {
    gate_builder().check(move || {
        let ch = OneSlot::new();
        assert!(ch.try_send(look_back));
        let (trier, sender) = (Arc::clone(&ch), Arc::clone(&ch));
        let trier = thread::spawn(move || {
            if blocking {
                trier.send(Credit::acquire, look_back);
                true
            } else {
                trier.try_send(look_back)
            }
        });
        let sender = thread::spawn(move || sender.send(Credit::acquire, look_back));
        ch.recv();
        ch.recv();
        if trier.join().unwrap() {
            ch.recv();
        }
        sender.join().unwrap();
    })
}

/// Runs a planted-bug model and returns the failure the checker reports.
fn rejection(model: impl FnOnce() -> Report + std::panic::UnwindSafe) -> String {
    let payload =
        std::panic::catch_unwind(model).expect_err("the checker must reject the planted twin");
    let msg = payload.downcast_ref::<String>();
    msg.expect("model failures carry a String").clone()
}

#[test]
fn poll_until_racing_a_notify_is_ready_or_woken() {
    let report = poll_model(true);
    assert!(
        report.executions > 1,
        "must explore >1 interleaving: {report:?}"
    );
    assert!(report.complete, "bounded space not exhausted: {report:?}");
}

#[test]
fn poll_without_reattempt_is_caught_losing_the_wakeup() {
    let msg = rejection(|| poll_model(false));
    assert!(msg.contains("lost wakeup"), "wrong failure: {msg}");
}

#[test]
fn block_until_racing_a_notify_returns() {
    let report = block_model(false);
    assert!(
        report.executions > 1,
        "must explore >1 interleaving: {report:?}"
    );
    assert!(report.complete, "bounded space not exhausted: {report:?}");
}

#[test]
fn block_until_registering_after_its_final_attempt_is_caught_deadlocking() {
    let msg = rejection(|| block_model(true));
    assert!(msg.contains("deadlock"), "wrong failure: {msg}");
}

#[test]
fn notify_all_releases_two_blocked_waiters() {
    let report = notify_all_model();
    assert!(
        report.executions > 1,
        "must explore >1 interleaving: {report:?}"
    );
    assert!(report.complete, "bounded space not exhausted: {report:?}");
}

#[test]
fn cancelling_a_woken_future_passes_the_wake_to_the_survivor() {
    let report = cancel_model(WaitQueue::release);
    assert!(
        report.executions > 1,
        "must explore >1 interleaving: {report:?}"
    );
    assert!(report.complete, "bounded space not exhausted: {report:?}");
}

#[test]
fn release_without_pass_on_is_caught_losing_the_wakeup() {
    let msg = rejection(|| cancel_model(WaitQueue::release_without_pass_on));
    assert!(msg.contains("lost wakeup"), "wrong failure: {msg}");
}

#[test]
fn capacity_one_admits_one_at_a_time_and_strands_nobody() {
    let report = gate_model(Credit::acquire);
    assert!(
        report.executions > 1,
        "must explore >1 interleaving: {report:?}"
    );
    assert!(report.complete, "bounded space not exhausted: {report:?}");
}

#[test]
fn refused_try_send_leaves_no_sender_asleep_beside_room() {
    let report = refusal_model(true, false);
    assert!(
        report.executions > 1,
        "must explore >1 interleaving: {report:?}"
    );
    assert!(report.complete, "bounded space not exhausted: {report:?}");
}

#[test]
fn refusal_that_does_not_look_back_is_caught_stranding_a_sender() {
    let msg = rejection(|| refusal_model(false, false));
    assert!(msg.contains("deadlock"), "wrong failure: {msg}");
}

#[test]
fn two_blocked_senders_racing_a_receive_strand_nobody() {
    let report = refusal_model(true, true);
    assert!(
        report.executions > 1,
        "must explore >1 interleaving: {report:?}"
    );
    assert!(report.complete, "bounded space not exhausted: {report:?}");
}

#[test]
fn blocked_refusal_that_does_not_look_back_is_caught_stranding_a_sender() {
    let msg = rejection(|| refusal_model(false, true));
    assert!(msg.contains("deadlock"), "wrong failure: {msg}");
}

#[test]
fn gate_trusting_the_hint_is_caught_stranding_a_sender() {
    let msg = rejection(|| gate_model(Credit::acquire_trusting_the_hint));
    assert!(msg.contains("deadlock"), "wrong failure: {msg}");
}

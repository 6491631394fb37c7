//! Model-checked interleavings of the channel's own protocols, run by the
//! ci.sh loom gate:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p lcrq-channel --test loom -q
//! ```
//!
//! **The async half of the wait protocol** (`WaitQueue::poll_until` /
//! `release` over the FIFO waker registry). The blocking half
//! (`block_until`) is the `EventCount` protocol, which `lcrq-util`'s loom
//! suite checks, behind a read-only watch, which the gate models below run
//! whole. Here the condition is a facade `AtomicBool` standing in for
//! "the queue has an item", and a lost wakeup is a future left `Pending`
//! whose waker nobody woke.
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

    /// `Shared::try_send_inner` once room was granted.
    fn put(&self) {
        assert_eq!(
            self.in_flight.fetch_add(1, Ordering::SeqCst),
            0,
            "over capacity: admitted beside an item still in flight"
        );
        self.not_empty.notify_one();
    }

    /// `Sender::send`.
    fn send(&self, acquire: Acquire) {
        let room = || (acquire(&self.credit, 1) == 1).then_some(());
        self.not_full
            .block_until(None, || self.credit.has_room(), room);
        self.put();
    }

    /// `Sender::try_send`; `wake` is its look for room on the way out of a
    /// refusal. Returns whether the item went in.
    fn try_send(&self, wake: bool) -> bool {
        let granted = self.credit.acquire(1) == 1;
        if granted {
            self.put();
        } else if wake && self.credit.has_room() {
            self.not_full.notify_one();
        }
        granted
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
/// and a second attempt before it parks: the gate models run to ≈ 12 k
/// schedules each at the preemption bound (12,492 and 11,362).
fn gate_builder() -> Builder {
    Builder {
        max_executions: 40_000,
        ..Builder::new()
    }
}

/// Two senders push one item each through the gate; the main thread takes
/// both out.
fn gate_model(acquire: Acquire) -> Report {
    gate_builder().check(move || {
        let ch = OneSlot::new();
        let senders = [0, 1].map(|_| {
            let ch = Arc::clone(&ch);
            thread::spawn(move || ch.send(acquire))
        });
        ch.recv();
        ch.recv();
        for s in senders {
            s.join().unwrap();
        }
    })
}

/// The channel is full; a `try_send` that will be refused races a `send`
/// and the receive that makes room for it. While the refused attempt's
/// F&A stands, `sent` is one too high, and a sender whose last attempt
/// falls into that moment parks beside an empty channel: nobody is left to
/// notify it, unless the refused caller looks back (`wake`).
fn refusal_model(wake: bool) -> Report {
    gate_builder().check(move || {
        let ch = OneSlot::new();
        assert!(ch.try_send(wake));
        let (trier, sender) = (Arc::clone(&ch), Arc::clone(&ch));
        let trier = thread::spawn(move || trier.try_send(wake));
        let sender = thread::spawn(move || sender.send(Credit::acquire));
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
    let report = refusal_model(true);
    assert!(
        report.executions > 1,
        "must explore >1 interleaving: {report:?}"
    );
    assert!(report.complete, "bounded space not exhausted: {report:?}");
}

#[test]
fn refusal_that_does_not_look_back_is_caught_stranding_a_sender() {
    let msg = rejection(|| refusal_model(false));
    assert!(msg.contains("deadlock"), "wrong failure: {msg}");
}

#[test]
fn gate_trusting_the_hint_is_caught_stranding_a_sender() {
    let msg = rejection(|| gate_model(Credit::acquire_trusting_the_hint));
    assert!(msg.contains("deadlock"), "wrong failure: {msg}");
}

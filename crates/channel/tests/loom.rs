//! Model-checked interleavings of the async half of the channel's wait
//! protocol (`WaitQueue::poll_until` / `release` over the FIFO waker
//! registry), run by the ci.sh loom gate:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p lcrq-channel --test loom -q
//! ```
//!
//! The blocking half (`block_until`) is the `EventCount` protocol, which
//! `lcrq-util`'s loom suite checks. Here the condition is a facade
//! `AtomicBool` standing in for "the queue has an item", and a lost wakeup
//! is a future left `Pending` whose waker nobody woke. Each property is
//! checked twice: the real protocol must hold it on every schedule, and a
//! planted-bug twin must be caught breaking it.
#![cfg(loom)]

use lcrq_channel::{Registration, WaitQueue};
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

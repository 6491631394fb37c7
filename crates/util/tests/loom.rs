//! Model-checked interleavings of `parker::EventCount`,
//! run by the ci.sh loom gate:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p lcrq-util --test loom -q
//! ```
//!
//! The suite proves the wait protocol loses no wakeups under *every*
//! explored schedule (a lost wakeup surfaces as a model deadlock), that it
//! tolerates scheduler-injected spurious wakes, and — via a deliberately
//! broken variant — that the checker actually catches protocol misuse.
#![cfg(loom)]

use lcrq_util::model::{thread, Builder};
use lcrq_util::sync::{AtomicBool, Ordering};
use lcrq_util::EventCount;
use std::sync::Arc;

#[test]
fn eventcount_prepare_before_poll_never_loses_a_wakeup() {
    let report = Builder::new().check(|| {
        let ec = Arc::new(EventCount::new());
        let flag = Arc::new(AtomicBool::new(false));
        let (ec2, f2) = (Arc::clone(&ec), Arc::clone(&flag));
        let consumer = thread::spawn(move || loop {
            // The documented protocol: register, then take the final poll.
            let t = ec2.prepare();
            if f2.load(Ordering::SeqCst) {
                ec2.cancel(t);
                return;
            }
            ec2.wait(t);
        });
        flag.store(true, Ordering::SeqCst);
        ec.notify_one();
        consumer.join().unwrap();
        assert_eq!(ec.waiter_count(), 0);
    });
    assert!(
        report.executions > 1,
        "must explore >1 interleaving: {report:?}"
    );
}

#[test]
fn eventcount_poll_before_prepare_is_caught_as_a_lost_wakeup() {
    // The anti-protocol: poll first, register second. The notifier's
    // waiters==0 fast path then skips the epoch bump, the late prepare
    // snapshots the unmoved epoch, and the waiter sleeps forever. The
    // model must find that schedule and report it as a deadlock — this is
    // the test that proves the checker can see lost wakeups at all.
    let r = std::panic::catch_unwind(|| {
        Builder {
            spurious_wakes: 0, // a spurious wake would paper over the hang
            ..Builder::new()
        }
        .check(|| {
            let ec = Arc::new(EventCount::new());
            let flag = Arc::new(AtomicBool::new(false));
            let (ec2, f2) = (Arc::clone(&ec), Arc::clone(&flag));
            let consumer = thread::spawn(move || loop {
                if f2.load(Ordering::SeqCst) {
                    return;
                }
                let t = ec2.prepare(); // BUG: registered after the poll
                ec2.wait(t);
            });
            flag.store(true, Ordering::SeqCst);
            ec.notify_one();
            consumer.join().unwrap();
        });
    });
    let msg = match r {
        Err(p) => match p.downcast_ref::<String>() {
            Some(s) => s.clone(),
            None => String::new(),
        },
        Ok(_) => panic!("model failed to find the lost wakeup"),
    };
    assert!(msg.contains("deadlock"), "unexpected failure: {msg}");
}

#[test]
fn eventcount_survives_spurious_wakes() {
    // Same protocol, but the scheduler may wake the sleeper without a
    // notify (Builder::spurious_wakes defaults to 1). wait() must re-check
    // the epoch and go back to sleep rather than spuriously returning.
    let report = Builder::new().check(|| {
        let ec = Arc::new(EventCount::new());
        let flag = Arc::new(AtomicBool::new(false));
        let (ec2, f2) = (Arc::clone(&ec), Arc::clone(&flag));
        let consumer = thread::spawn(move || {
            let mut rounds = 0u32;
            loop {
                let t = ec2.prepare();
                if f2.load(Ordering::SeqCst) {
                    ec2.cancel(t);
                    return rounds;
                }
                ec2.wait(t);
                rounds += 1;
            }
        });
        flag.store(true, Ordering::SeqCst);
        ec.notify_one();
        let rounds = consumer.join().unwrap();
        // A spuriously woken waiter re-loops; it must never spin forever.
        assert!(rounds <= 3, "waiter looped {rounds} times");
    });
    assert!(report.executions > 1);
}

#[test]
fn eventcount_notify_all_releases_two_waiters() {
    let report = Builder {
        max_executions: 4_000,
        ..Builder::new()
    }
    .check(|| {
        let ec = Arc::new(EventCount::new());
        let flag = Arc::new(AtomicBool::new(false));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let (ec, flag) = (Arc::clone(&ec), Arc::clone(&flag));
                thread::spawn(move || loop {
                    let t = ec.prepare();
                    if flag.load(Ordering::SeqCst) {
                        ec.cancel(t);
                        return;
                    }
                    ec.wait(t);
                })
            })
            .collect();
        flag.store(true, Ordering::SeqCst);
        ec.notify_all();
        for h in handles {
            h.join().unwrap();
        }
    });
    assert!(report.executions > 1);
}

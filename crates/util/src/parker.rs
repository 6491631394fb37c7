//! The channel layer's thread parking primitive: a multi-waiter
//! [`EventCount`] with a lost-wakeup-free listen/poll/park protocol.
//!
//! The LCRQ itself never blocks — an empty dequeue returns immediately —
//! so any consumer that *waits* for an item must either spin (burning a
//! fetch-and-add per poll) or park. Parking is only correct if a producer
//! that enqueues concurrently with the consumer's "last look" is guaranteed
//! to wake it: the classic lost-wakeup race. [`EventCount`] solves it the
//! seqlock way — waiters register *before* their final poll and snapshot an
//! epoch; producers bump the epoch *after* publishing their item and only
//! then wake sleepers — so the final poll and the epoch check bracket the
//! race window (see DESIGN.md "Channel layer" for the full argument).

// Primitives come from the crate's sync facade so the model checker can
// explore this module's interleavings under `--cfg loom` (tests/loom.rs).
use crate::sync::{AtomicU32, AtomicU64, Condvar, Mutex, MutexGuard, Ordering};
use std::time::{Duration, Instant};

use crate::metrics::{self, Event};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A ticket returned by [`EventCount::prepare`]; consume it with
/// [`EventCount::wait`]/[`wait_timeout`](EventCount::wait_timeout) or
/// discard it with [`EventCount::cancel`].
#[derive(Debug, Clone, Copy)]
#[must_use = "a prepared wait must be waited on or cancelled"]
pub struct Ticket {
    epoch: u64,
}

/// A multi-waiter event count: the blocking analogue of a condition
/// variable whose predicate is "the world changed since my ticket".
///
/// Protocol (waiter):
///
/// 1. [`prepare`](EventCount::prepare) — announce intent to sleep and
///    snapshot the epoch;
/// 2. poll the real condition one final time (e.g. try a dequeue) — if it
///    now holds, [`cancel`](EventCount::cancel);
/// 3. [`wait`](EventCount::wait) — sleeps **unless** the epoch moved after
///    the snapshot.
///
/// Protocol (notifier): make the condition true (e.g. enqueue), then call
/// [`notify_one`](EventCount::notify_one)/[`notify_all`](EventCount::notify_all).
///
/// No lost wakeup: the waiter registers (SeqCst) before its final poll and
/// the notifier publishes before loading the waiter count, so either the
/// final poll sees the item or the notifier sees the waiter (see the module
/// docs and DESIGN.md "Channel layer" for the interleaving argument).
#[derive(Debug, Default)]
pub struct EventCount {
    /// Bumped by every notify; waiters sleep only while it matches their
    /// ticket.
    epoch: AtomicU64,
    /// Threads between [`prepare`](Self::prepare) and the end of their wait.
    /// Notifiers skip all locking while this is zero (the common case).
    waiters: AtomicU32,
    /// Threads currently inside the condvar (⊆ `waiters`).
    sleepers: Mutex<u32>,
    cv: Condvar,
}

impl EventCount {
    /// Creates an event count with no waiters.
    pub const fn new() -> Self {
        Self {
            epoch: AtomicU64::new(0),
            waiters: AtomicU32::new(0),
            sleepers: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    /// Step 1 of the wait protocol: registers the caller as a waiter and
    /// snapshots the epoch. Must be balanced by [`wait`](Self::wait),
    /// [`wait_timeout`](Self::wait_timeout), or [`cancel`](Self::cancel).
    pub fn prepare(&self) -> Ticket {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        Ticket {
            epoch: self.epoch.load(Ordering::SeqCst),
        }
    }

    /// Abandons a prepared wait (the final poll found the condition true).
    pub fn cancel(&self, _ticket: Ticket) {
        self.waiters.fetch_sub(1, Ordering::SeqCst);
    }

    /// Step 3: parks until a notify arrives after `ticket` was issued.
    /// Returns immediately — without a syscall — if one already has.
    pub fn wait(&self, ticket: Ticket) {
        self.wait_until(ticket, None);
    }

    /// Like [`wait`](Self::wait) with a timeout. Returns `true` if woken by
    /// a notify (or the epoch had already moved), `false` on timeout.
    pub fn wait_timeout(&self, ticket: Ticket, timeout: Duration) -> bool {
        self.wait_until(ticket, Some(Instant::now() + timeout))
    }

    /// The one sleeping body behind [`wait`](Self::wait) and
    /// [`wait_timeout`](Self::wait_timeout): parks until the epoch moves
    /// past `ticket` (`true`) or `deadline` is reached with the epoch
    /// unmoved (`false`). The epoch is always checked before the clock, and
    /// without a deadline the clock is never read.
    pub fn wait_until(&self, ticket: Ticket, deadline: Option<Instant>) -> bool {
        // Fail point inside the poll→sleep window: the spot where a crashed
        // waiter (or a lost wakeup, if the protocol were wrong) would hang.
        let _ = crate::fault::inject(crate::fault::Site::ChannelPark);
        let mut sleepers = lock(&self.sleepers);
        // Nobody sees the count before the condvar releases the lock.
        *sleepers += 1;
        let mut slept = false;
        let notified = loop {
            if self.epoch.load(Ordering::SeqCst) != ticket.epoch {
                break true;
            }
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if left.is_some_and(|left| left.is_zero()) {
                break false;
            }
            // Back from the condvar with neither the epoch nor the clock
            // saying why: that, and not going to sleep, is a spurious wake.
            let event = if slept {
                Event::WakeSpurious
            } else {
                Event::Park
            };
            metrics::inc(event);
            slept = true;
            sleepers = match left {
                None => self.cv.wait(sleepers).unwrap_or_else(|e| e.into_inner()),
                Some(left) => {
                    let woken = self.cv.wait_timeout(sleepers, left);
                    woken.unwrap_or_else(|e| e.into_inner()).0
                }
            };
        };
        *sleepers -= 1;
        drop(sleepers);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        notified
    }

    /// Wakes one waiter (one token: a single parked thread resumes). A call
    /// with no registered waiters is a single atomic load.
    pub fn notify_one(&self) {
        if self.waiters.load(Ordering::SeqCst) == 0 {
            return;
        }
        self.epoch.fetch_add(1, Ordering::SeqCst);
        let sleepers = lock(&self.sleepers);
        if *sleepers > 0 {
            metrics::inc(Event::Unpark);
            self.cv.notify_one();
        }
    }

    /// Wakes every current waiter (used at shutdown).
    pub fn notify_all(&self) {
        if self.waiters.load(Ordering::SeqCst) == 0 {
            return;
        }
        self.epoch.fetch_add(1, Ordering::SeqCst);
        let sleepers = lock(&self.sleepers);
        if *sleepers > 0 {
            metrics::add(Event::Unpark, u64::from(*sleepers));
            self.cv.notify_all();
        }
    }

    /// Current epoch (diagnostic).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Number of registered waiters (diagnostic; racy).
    pub fn waiter_count(&self) -> u32 {
        self.waiters.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn eventcount_cancel_balances_waiters() {
        let e = EventCount::new();
        let t = e.prepare();
        assert_eq!(e.waiter_count(), 1);
        e.cancel(t);
        assert_eq!(e.waiter_count(), 0);
    }

    #[test]
    fn eventcount_notify_after_prepare_prevents_sleep() {
        let e = EventCount::new();
        let t = e.prepare();
        e.notify_one(); // bumps the epoch: wait must return immediately
        let start = Instant::now();
        e.wait(t);
        assert!(start.elapsed() < Duration::from_millis(100));
        assert_eq!(e.waiter_count(), 0);
    }

    #[test]
    fn eventcount_notify_with_no_waiters_is_cheap_and_harmless() {
        let e = EventCount::new();
        let before = e.epoch();
        e.notify_one();
        e.notify_all();
        assert_eq!(e.epoch(), before, "no waiters: epoch must not move");
    }

    #[test]
    fn eventcount_wakes_parked_thread() {
        let e = Arc::new(EventCount::new());
        let flag = Arc::new(AtomicBool::new(false));
        let (e2, flag2) = (Arc::clone(&e), Arc::clone(&flag));
        let h = std::thread::spawn(move || loop {
            let t = e2.prepare();
            if flag2.load(Ordering::SeqCst) {
                e2.cancel(t);
                return;
            }
            e2.wait(t);
        });
        std::thread::sleep(Duration::from_millis(20));
        flag.store(true, Ordering::SeqCst);
        e.notify_one();
        h.join().unwrap();
    }

    #[test]
    fn eventcount_notified_park_counts_no_spurious_wake() {
        let e = Arc::new(EventCount::new());
        let e2 = Arc::clone(&e);
        let waiter = std::thread::spawn(move || {
            let before = metrics::local_snapshot();
            let t = e2.prepare();
            e2.wait(t);
            metrics::local_snapshot().delta_since(&before)
        });
        // `sleepers` only rises under the lock the condvar releases, so
        // seeing 1 means the waiter is inside `cv.wait`.
        while *lock(&e.sleepers) == 0 {
            std::thread::yield_now();
        }
        e.notify_one();
        let d = waiter.join().unwrap();
        assert_eq!(d.get(Event::Park), 1);
        assert_eq!(d.get(Event::WakeSpurious), 0, "the first sleep is no wake");
    }

    #[test]
    #[cfg_attr(miri, ignore = "wall-clock timing assertion")]
    fn eventcount_timeout_expires_without_notify() {
        let e = EventCount::new();
        let t = e.prepare();
        let start = Instant::now();
        assert!(!e.wait_timeout(t, Duration::from_millis(30)));
        assert!(start.elapsed() >= Duration::from_millis(25));
        assert_eq!(e.waiter_count(), 0);
    }

    #[test]
    fn eventcount_notify_all_wakes_every_waiter() {
        let e = Arc::new(EventCount::new());
        let flag = Arc::new(AtomicBool::new(false));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let (e, flag) = (Arc::clone(&e), Arc::clone(&flag));
                std::thread::spawn(move || loop {
                    let t = e.prepare();
                    if flag.load(Ordering::SeqCst) {
                        e.cancel(t);
                        return;
                    }
                    e.wait(t);
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        flag.store(true, Ordering::SeqCst);
        e.notify_all();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(e.waiter_count(), 0);
    }

    #[test]
    #[cfg_attr(miri, ignore = "200-round thread-spawn stress is minutes under Miri")]
    fn eventcount_no_lost_wakeup_stress() {
        // Producer flips a flag then notifies; consumer uses the full
        // prepare → poll → wait protocol. A lost wakeup shows up as a
        // wait_timeout expiry.
        let e = Arc::new(EventCount::new());
        let flag = Arc::new(AtomicBool::new(false));
        for _ in 0..200 {
            flag.store(false, Ordering::SeqCst);
            let (e2, flag2) = (Arc::clone(&e), Arc::clone(&flag));
            let consumer = std::thread::spawn(move || loop {
                let t = e2.prepare();
                if flag2.load(Ordering::SeqCst) {
                    e2.cancel(t);
                    return true;
                }
                if !e2.wait_timeout(t, Duration::from_secs(10)) && !flag2.load(Ordering::SeqCst) {
                    return false; // lost wakeup!
                }
            });
            flag.store(true, Ordering::SeqCst);
            e.notify_one();
            assert!(consumer.join().unwrap(), "lost wakeup detected");
        }
    }
}

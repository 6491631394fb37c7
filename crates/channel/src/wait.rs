//! The channel's one wait protocol, in its two shapes: a thread that blocks
//! ([`WaitQueue::block_until`]) and a future that pends
//! ([`WaitQueue::poll_until`]). Every waiting operation of the crate is one
//! of these two calls around a closure that makes a single nonblocking
//! attempt.
//!
//! A [`WaitQueue`] holds the waiters of one condition ("not empty" / "not
//! full"): threads parked on an [`EventCount`] and futures parked in a
//! [`WakerRegistry`], notified together. A producer cannot know whether the
//! consumer it is about to unblock is a thread or a future, so each notify
//! fans out to both sides. A spurious notification to the wrong side is
//! harmless — both protocols re-attempt the real condition on wakeup —
//! while a missed one would hang a consumer, so the fan-out errs on the
//! side of waking.
//!
//! Both shapes close the lost-wakeup window the same way: the waiter makes
//! itself visible (`prepare` / `register`) *before* its last attempt, and
//! the notifier makes the condition true *before* it looks for waiters.
//! Either the last attempt sees the condition or the notifier sees the
//! waiter (DESIGN.md "Channel layer" has the interleaving argument;
//! `tests/loom.rs` and `lcrq-util`'s loom suite model-check it).
//!
//! Before a thread parks it *watches*: it spins on a read-only readiness
//! check and makes a real attempt only when the check says one could
//! succeed. An attempt on an empty queue is not free — the paper's dequeue
//! takes a head ticket with F&A, burns the node and repairs `tail` — and a
//! watch costs none of that. The watch is an optimisation only: whatever it
//! sees, the prepare → attempt → park phase after it decides, so a wrong
//! hint makes a wait slower, never stranded. A queue whose waits keep
//! ending in a park skips the watch (every `PROBE_EVERY`th such wait
//! watches again, to notice when spinning pays once more).

use core::hint::spin_loop;
use core::task::{Context, Poll};
use std::time::Instant;

use lcrq_util::parker::EventCount;
use lcrq_util::sync::{AtomicU32, Ordering};

use crate::waker::{Registration, WakerRegistry};

/// Steps of the watch, one PAUSE and one readiness check each: about 2 µs
/// on a 2-hardware-thread x86 host, the span of the backoff ladder the
/// watch replaced (127 PAUSEs and 8 attempts). Two under loom: the model
/// checker explores every step, and two place a check on each side of a
/// concurrent change.
const WATCH_STEPS: u32 = if cfg!(loom) { 2 } else { 48 };

/// The watch looks at the clock once every this many steps.
const CLOCK_EVERY: u32 = 16;

/// While waits keep ending in a park, every this-many'th one watches
/// anyway, as a probe.
const PROBE_EVERY: u32 = 16;

/// Waiters for one condition of the channel ("not empty" / "not full").
#[derive(Default)]
pub struct WaitQueue {
    /// Blocking-side waiters (`send`/`recv`/`recv_timeout`).
    evc: EventCount,
    /// Async-side waiters (`send_async`/`recv_async`/`poll_recv`).
    wakers: WakerRegistry,
    /// How many waits in a row parked: 0 after a wait that obtained its
    /// value inside the watch, +1 for each wait that reached the park. A
    /// hint, so `Relaxed`; written only on those two events, so a waiter
    /// that keeps up leaves the line the notifiers read alone.
    parked_in_a_row: AtomicU32,
}

impl WaitQueue {
    /// Wakes one waiter on each side (one item's worth of wake tokens).
    pub fn notify_one(&self) {
        self.evc.notify_one();
        self.wakers.wake_one();
    }

    /// Wakes every waiter on both sides (shutdown, batch production).
    pub fn notify_all(&self) {
        self.evc.notify_all();
        self.wakers.wake_all();
    }

    /// The wait ladder: calls `attempt` until it yields a value — at once,
    /// then during the watch whenever `ready` says it could, then after
    /// `prepare`, then after each notify that ends a park on the event
    /// count — and returns `None` once `deadline` has passed (never, without
    /// one; the clock is then never read). A parked thread makes no
    /// attempt, so it touches nothing of the caller's.
    ///
    /// `ready` must not write shared memory (no F&A, no CAS; publishing the
    /// caller's own hazard slot is fine): it is the cheap look the watch
    /// spins on. It may be wrong either way — the park phase decides.
    ///
    /// Inlined for the first attempt, made before any waiting state exists:
    /// a channel that is keeping up leaves there.
    #[inline]
    pub fn block_until<V>(
        &self,
        deadline: Option<Instant>,
        mut ready: impl FnMut() -> bool,
        mut attempt: impl FnMut() -> Option<V>,
    ) -> Option<V> {
        if let Some(v) = attempt() {
            return Some(v);
        }
        // Watch, unless the waits before this one parked anyway.
        if self
            .parked_in_a_row
            .load(Ordering::Relaxed)
            .is_multiple_of(PROBE_EVERY)
        {
            for step in 0..WATCH_STEPS {
                if step > 0
                    && step.is_multiple_of(CLOCK_EVERY)
                    && deadline.is_some_and(|d| Instant::now() >= d)
                {
                    return None;
                }
                spin_loop();
                if ready() {
                    if let Some(v) = attempt() {
                        if self.parked_in_a_row.load(Ordering::Relaxed) != 0 {
                            self.parked_in_a_row.store(0, Ordering::Relaxed);
                        }
                        return Some(v);
                    }
                }
            }
        }
        let mut parked = false;
        loop {
            // Prepare before the final attempt (see the module docs). A
            // woken waiter comes back here and attempts before the clock is
            // looked at: the wake may be the only one sent for an item, and
            // a waiter that let its timeout win would swallow it.
            let ticket = self.evc.prepare();
            if let Some(v) = attempt() {
                self.evc.cancel(ticket);
                return Some(v);
            }
            if !parked {
                parked = true;
                self.parked_in_a_row.fetch_add(1, Ordering::Relaxed);
            }
            if !self.evc.wait_until(ticket, deadline) {
                return None;
            }
        }
    }

    /// The async twin of [`block_until`](Self::block_until): one poll of a
    /// future whose readiness is `attempt`. `reg` is the future's standing
    /// registration, `None` whenever it is not `Pending`.
    pub fn poll_until<V>(
        &self,
        reg: &mut Option<Registration>,
        cx: &mut Context<'_>,
        mut attempt: impl FnMut() -> Option<V>,
    ) -> Poll<V> {
        // The standing registration holds the previous poll's waker, and
        // this poll is the re-attempt any wake sent to it asked for.
        if let Some(stale) = reg.take() {
            self.wakers.deregister(stale);
        }
        if let Some(v) = attempt() {
            return Poll::Ready(v);
        }
        *reg = Some(self.wakers.register(cx.waker()));
        // Register before the final attempt (see the module docs).
        match attempt() {
            Some(v) => {
                self.release(reg);
                Poll::Ready(v)
            }
            None => Poll::Pending,
        }
    }

    /// Gives up `reg` (a future completed or was dropped). If a `wake_one`
    /// already consumed the registration, the wake is passed on: it was one
    /// item's only token on the async side, and this future will not act on
    /// it — or, completing on the attempt that raced the registration, may
    /// have taken an earlier item than the one the token was sent for. The
    /// next waiter finding nothing is harmless; finding nobody awake beside
    /// a queued item is not.
    pub fn release(&self, reg: &mut Option<Registration>) {
        if let Some(reg) = reg.take() {
            if !self.wakers.deregister(reg) {
                self.notify_one();
            }
        }
    }
}

/// The planted-bug twin of [`release`](WaitQueue::release), reachable only
/// by the model checker (`tests/loom.rs` asserts it is caught): without the
/// pass-on, a cancelled future that was already woken takes the wake with
/// it.
#[cfg(loom)]
#[doc(hidden)]
impl WaitQueue {
    pub fn release_without_pass_on(&self, reg: &mut Option<Registration>) {
        if let Some(reg) = reg.take() {
            self.wakers.deregister(reg);
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::time::Duration;

    fn soon() -> Option<Instant> {
        Some(Instant::now() + Duration::from_millis(1))
    }

    /// One wait on `wq` that only its 1 ms deadline ends; returns how many
    /// readiness checks it made. A watch the clock cut short (the thread was
    /// descheduled past the deadline mid-watch) neither parked nor obtained
    /// a value, so it left the count alone, and the wait is taken again.
    fn checks_of_a_parked_wait(wq: &WaitQueue) -> u32 {
        loop {
            let mut checks = 0;
            let ready = || {
                checks += 1;
                false
            };
            assert_eq!(wq.block_until(soon(), ready, || None::<()>), None);
            if checks == 0 || checks == WATCH_STEPS {
                return checks;
            }
        }
    }

    #[test]
    fn waits_that_park_skip_the_watch_except_probes() {
        let wq = WaitQueue::default();
        assert_eq!(checks_of_a_parked_wait(&wq), WATCH_STEPS, "fresh queue");
        for parks in 1..PROBE_EVERY {
            assert_eq!(checks_of_a_parked_wait(&wq), 0, "after {parks} parks");
        }
        assert_eq!(
            checks_of_a_parked_wait(&wq),
            WATCH_STEPS,
            "after {PROBE_EVERY} parks in a row a wait probes"
        );
        for parks in PROBE_EVERY + 1..2 * PROBE_EVERY {
            assert_eq!(checks_of_a_parked_wait(&wq), 0, "after {parks} parks");
        }
        // The next probe obtains its value inside the watch (the first
        // attempt, before the watch, still finds nothing).
        let mut attempts = 0;
        let got = wq.block_until(
            soon(),
            || true,
            || {
                attempts += 1;
                (attempts == 2).then_some(7)
            },
        );
        assert_eq!(got, Some(7));
        assert_eq!(
            checks_of_a_parked_wait(&wq),
            WATCH_STEPS,
            "a value obtained inside the watch restores watching"
        );
    }
}

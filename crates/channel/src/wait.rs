//! The channel's one wait protocol, in its two shapes: a thread that blocks
//! ([`WaitQueue::block_until`]) and a future that pends
//! ([`WaitQueue::poll_until`]). Every waiting operation of the crate is one
//! of these two calls around a closure that makes a single nonblocking
//! attempt.
//!
//! A [`WaitQueue`] holds the waiters of one condition ("not empty" / "not
//! full") in one [`WakerRegistry`]. A blocked thread waits there the way a
//! pending future does, with a waker that unparks it, so a notify is one
//! wake of one list, made after the registry's lock is released.
//!
//! The lost-wakeup window is closed once, for both shapes: the waiter
//! registers *before* its final attempt, and the notifier makes the
//! condition true *before* it looks for waiters. Either the final attempt
//! sees the condition or the notifier sees the registration (DESIGN.md
//! "Channel layer" has the interleaving argument; `tests/loom.rs`
//! model-checks it). A woken waiter attempts again; one that gives up
//! instead ([`WaitQueue::release`]) passes on a wake it was already sent.
//!
//! Before a thread parks it *watches*: it spins on a read-only readiness
//! check and makes a real attempt only when the check says one could
//! succeed. An attempt on an empty queue is not free — the paper's dequeue
//! takes a head ticket with F&A, burns the node and repairs `tail` — and a
//! watch costs none of that. The watch is an optimisation only: whatever it
//! sees, the register → attempt → park phase after it decides, so a wrong
//! hint makes a wait slower, never stranded. A queue whose waits keep
//! ending in a park skips the watch (every `PROBE_EVERY`th such wait
//! watches again, to notice when spinning pays once more).

use core::hint::spin_loop;
use core::task::{Context, Poll, Waker};
use std::sync::Arc;
use std::time::Instant;

use lcrq_util::fault::{self, Site};
use lcrq_util::metrics::{self, Event};
use lcrq_util::sync::{AtomicU32, Ordering};

use crate::waker::{Registration, ThreadWaker, WakerRegistry};

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
    /// Every waiter: blocked threads and pending futures alike.
    wakers: WakerRegistry,
    /// How many waits in a row parked: 0 after a wait that obtained its
    /// value inside the watch, +1 for each wait that reached the park. A
    /// hint, so `Relaxed`; written only on those two events, so a waiter
    /// that keeps up leaves the line the notifiers read alone.
    parked_in_a_row: AtomicU32,
}

impl WaitQueue {
    /// Wakes one waiter (one item's worth of wake token).
    pub fn notify_one(&self) {
        self.wakers.wake_one();
    }

    /// Wakes every waiter (shutdown, batch production).
    pub fn notify_all(&self) {
        self.wakers.wake_all();
    }

    /// The wait ladder: calls `attempt` until it yields a value — at once,
    /// then during the watch whenever `ready` says it could, then after
    /// registering, then after each park — and returns `None` once
    /// `deadline` has passed (never, without one; the clock is then never
    /// read). A parked thread makes no attempt, so it touches nothing of
    /// the caller's.
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
        // Park: the async shape, with this thread as the waker.
        let thread = ThreadWaker::current();
        let waker = Waker::from(Arc::clone(&thread));
        let mut reg = None;
        let mut parked = false;
        loop {
            if let Some(v) = self.register_then_attempt(&mut reg, &waker, &mut attempt) {
                return Some(v);
            }
            if !parked {
                parked = true;
                self.parked_in_a_row.fetch_add(1, Ordering::Relaxed);
            }
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if left.is_some_and(|left| left.is_zero()) {
                self.release(&mut reg);
                return None;
            }
            // Fail point in the register → park window: a delay here is a
            // waiter whose wake lands before it sleeps.
            let _ = fault::inject(Site::ChannelPark);
            let woken = thread.park(left);
            if !woken && deadline.is_none_or(|d| Instant::now() < d) {
                metrics::inc(Event::WakeSpurious);
            }
            // Re-poll, as `poll_until` does. The attempt comes before the
            // clock is looked at: the wake may be the only one sent for an
            // item, and a waiter that let its timeout win would swallow it.
            if let Some(r) = reg.take() {
                self.wakers.deregister(r);
            }
            if let Some(v) = attempt() {
                return Some(v);
            }
        }
    }

    /// Registers `waker` in `reg`, then makes the final attempt (see the
    /// module docs); gives the registration up again if it succeeds.
    fn register_then_attempt<V>(
        &self,
        reg: &mut Option<Registration>,
        waker: &Waker,
        attempt: &mut impl FnMut() -> Option<V>,
    ) -> Option<V> {
        *reg = Some(self.wakers.register(waker));
        let v = attempt()?;
        self.release(reg);
        Some(v)
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
        match self.register_then_attempt(reg, cx.waker(), &mut attempt) {
            Some(v) => Poll::Ready(v),
            None => Poll::Pending,
        }
    }

    /// Gives up `reg` (a waiter completed, timed out, or was dropped). If a
    /// `wake_one` already consumed the registration, the wake is passed on:
    /// it was one item's only token, and this waiter will not act on it —
    /// or, completing on the attempt that raced the registration, may have
    /// taken an earlier item than the one the token was sent for. The next
    /// waiter finding nothing is harmless; finding nobody awake beside a
    /// queued item is not.
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

    #[test]
    fn a_notified_park_counts_no_spurious_wake() {
        // `send` wakes the receiver through `notify_one`, `send_batch`
        // through `notify_all`, which leaves its registration queued.
        for batch in [false, true] {
            notified_park_round(batch);
        }
    }

    fn notified_park_round(batch: bool) {
        // A send that lands before the park ends the wait without one, so
        // such a round (Park == 0) says nothing; the sleep makes them rare.
        for _ in 0..20 {
            let (tx, rx) = crate::channel::<u64>();
            let not_empty = &tx.shared.not_empty.wakers;
            let receiver = std::thread::spawn(move || {
                let before = metrics::local_snapshot();
                assert_eq!(rx.recv(), Ok(7));
                metrics::local_snapshot().delta_since(&before)
            });
            while not_empty.registered_count() == 0 {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_millis(10));
            let before = metrics::local_snapshot();
            if batch {
                tx.send_batch(vec![7]).unwrap();
            } else {
                tx.send(7).unwrap();
            }
            let sent = metrics::local_snapshot().delta_since(&before);
            let d = receiver.join().unwrap();
            if d.get(Event::Park) == 1 {
                assert_eq!(d.get(Event::WakeSpurious), 0, "batch {batch}: a wake");
                assert_eq!(
                    sent.get(Event::Unpark),
                    1,
                    "batch {batch}: one waiter woken"
                );
                return;
            }
        }
        panic!("batch {batch}: the receiver never parked ahead of the send");
    }

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

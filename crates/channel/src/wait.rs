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

use core::task::{Context, Poll};
use std::time::Instant;

use lcrq_util::backoff::Backoff;
use lcrq_util::parker::EventCount;

use crate::waker::{Registration, WakerRegistry};

/// Waiters for one condition of the channel ("not empty" / "not full").
#[derive(Default)]
pub struct WaitQueue {
    /// Blocking-side waiters (`send`/`recv`/`recv_timeout`).
    evc: EventCount,
    /// Async-side waiters (`send_async`/`recv_async`/`poll_recv`).
    wakers: WakerRegistry,
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
    /// then after each [`Backoff`] snooze, then after each notify that ends
    /// a park on the event count — and returns `None` once `deadline` has
    /// passed (never, without one; the clock is then never read). A parked
    /// thread makes no attempt, so it touches nothing of the caller's.
    ///
    /// Inlined for the first attempt, made before any waiting state exists:
    /// a channel that is keeping up leaves there.
    #[inline]
    pub fn block_until<V>(
        &self,
        deadline: Option<Instant>,
        mut attempt: impl FnMut() -> Option<V>,
    ) -> Option<V> {
        if let Some(v) = attempt() {
            return Some(v);
        }
        let backoff = Backoff::new();
        while !backoff.is_completed() {
            backoff.snooze();
            if let Some(v) = attempt() {
                return Some(v);
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return None;
            }
        }
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

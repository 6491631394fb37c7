//! Blocking & async MPMC channels over the LCRQ nonblocking core.
//!
//! The paper's LCRQ ([`lcrq_core::TypedLcrq`]) delivers raw
//! fetch-and-add-based MPMC throughput but never *waits*: an empty dequeue
//! returns immediately, so a consumer must spin. This crate grows the
//! missing channel layer on top,
//! in three pieces:
//!
//! 1. **Sync blocking layer** — [`Sender::send`] / [`Receiver::recv`] (plus
//!    `try_*` and [`Receiver::recv_timeout`]), each one call of the crate's
//!    single wait ladder (`wait.rs`, `WaitQueue::block_until`): attempt →
//!    watch, or skip it after parked waits → register → attempt → park.
//!    The watch spins on a read-only readiness check (for `recv`, the
//!    queue's emptiness hint) and attempts only when that says an attempt
//!    could succeed; it never yields the CPU. A parked consumer costs
//!    **zero** F&A — it touches no queue state until woken — and
//!    registering before the final attempt makes the park race-free
//!    against concurrent sends (no lost wakeup; see DESIGN.md "Channel
//!    layer").
//! 2. **Executor-agnostic async layer** — [`Sender::send_async`] /
//!    [`Receiver::recv_async`] futures and the `Stream`-shaped
//!    [`Receiver::poll_recv`], each one call of the ladder's async twin
//!    (`WaitQueue::poll_until`). A blocked thread and a pending future wait
//!    in the same FIFO waker registry, the thread with a waker that unparks
//!    it. No runtime dependency; any executor (or the bundled [`block_on`])
//!    drives them.
//! 3. **Lifecycle** — `close()`/drop-based shutdown on the ring list's seal
//!    ([`RingList::close`](lcrq_core::RingList::close)): every send accepted
//!    before it is received exactly once, and none is accepted after it,
//!    with typed [`SendError`]/[`RecvError::Disconnected`], plus an
//!    optional [`bounded`] variant whose backpressure is two F&A counters,
//!    one written by senders and one by receivers (`credit.rs`; no CAS
//!    loop, and no cache line both sides write).
//!
//! A message that is a primitive scalar (`u64`, `i32`, `f64`, `bool`, …)
//! travels as the queue word itself and is never allocated; anything else
//! is boxed by the sender and freed by the receiver (see
//! [`lcrq_core::typed`]). Send an index or a `Box<T>` for anything bigger.
//!
//! Batch APIs ([`Sender::send_batch`], [`Receiver::recv_batch`]) ride the
//! core's multi-slot reservations, preserving the F&A-per-op win.
//!
//! ```
//! let (tx, rx) = lcrq_channel::channel::<String>();
//! std::thread::spawn(move || {
//!     tx.send("ping".to_string()).unwrap();
//! });
//! assert_eq!(rx.recv().unwrap(), "ping"); // parks if the send is slow
//! assert!(rx.recv().is_err()); // sender dropped: Disconnected
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod credit;
mod error;
mod future;
mod wait;
mod waker;

pub use error::{RecvError, RecvTimeoutError, SendError, TryRecvError, TrySendError};
pub use future::{block_on, RecvFuture, SendFuture};
/// The wait protocol and the capacity gate, exported to the model checker
/// only (`tests/loom.rs`).
#[cfg(loom)]
#[doc(hidden)]
pub use {credit::Credit, wait::WaitQueue, waker::Registration};

use core::sync::atomic::{AtomicUsize, Ordering};
use core::task::{Context, Poll};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lcrq_core::{Crq, LcrqConfig, Ring, Typed};
use lcrq_util::metrics::{self, Event};

/// State shared by all handles of one channel.
struct Shared<T: Send, R: Ring> {
    queue: Typed<T, R>,
    /// `None` for unbounded channels (the capacity gate is then unused and
    /// the send and receive paths perform no extra atomics). Lives here,
    /// among fields nobody writes while the channel runs, because both
    /// sides read it on every call.
    capacity: Option<u64>,
    /// The capacity gate of a bounded channel.
    credit: credit::Credit,
    not_empty: wait::WaitQueue,
    not_full: wait::WaitQueue,
    senders: AtomicUsize,
    receivers: AtomicUsize,
}

impl<T: Send, R: Ring> Shared<T, R> {
    /// One nonblocking receive attempt with the shutdown settle protocol:
    /// dequeue; on empty check closed; if closed, dequeue once more (items
    /// may have linked between the empty observation and the flag read)
    /// before declaring the terminal `Disconnected`. `is_closed()` is true
    /// only once the queue is sealed, and a sealed queue accepts nothing
    /// more, so the second `None` — an EMPTY observed *after* the seal — is
    /// final: every accepted item was delivered before it.
    fn try_recv_inner(&self) -> Result<T, TryRecvError> {
        if let Some(v) = self.queue.dequeue() {
            self.on_dequeued(1);
            return Ok(v);
        }
        if self.queue.is_closed() {
            if let Some(v) = self.queue.dequeue() {
                self.on_dequeued(1);
                return Ok(v);
            }
            return Err(TryRecvError::Disconnected);
        }
        Err(TryRecvError::Empty)
    }

    /// What a waiting receiver watches: whether a receive attempt made now
    /// could end the wait. Reads only (the hint publishes this thread's
    /// hazard slot, nothing shared).
    fn recv_ready(&self) -> bool {
        !self.queue.is_empty_hint() || self.queue.is_closed()
    }

    /// [`try_recv_inner`](Self::try_recv_inner) as a wait-protocol attempt:
    /// `None` means "empty, keep waiting".
    fn recv_attempt(&self) -> Option<Result<T, RecvError>> {
        match self.try_recv_inner() {
            Ok(v) => Some(Ok(v)),
            Err(TryRecvError::Disconnected) => Some(Err(RecvError::Disconnected)),
            Err(TryRecvError::Empty) => None,
        }
    }

    /// Post-dequeue bookkeeping: make room and unblock senders.
    fn on_dequeued(&self, n: u64) {
        if self.capacity.is_some() {
            self.credit.on_received(n);
            if n == 1 {
                self.not_full.notify_one();
            } else {
                self.not_full.notify_all();
            }
        }
    }

    /// One nonblocking send attempt: acquire room (bounded only), then
    /// enqueue, then wake one consumer. Failures hand the value back.
    fn try_send_inner(&self, value: T) -> Result<(), TrySendError<T>> {
        if self.capacity.is_some() && self.credit.acquire(1) == 0 {
            if self.queue.is_closed() {
                return Err(TrySendError::Closed(value));
            }
            // A refused attempt overdraws the gate for a moment, and an
            // attempt that falls into that moment is refused beside room
            // it could not see. If that was a waiter's attempt after
            // registering, or the one a receiver's wake was for, nobody is
            // left to wake it. So a refusal looks back: room now means one
            // waiting sender is woken (perhaps this caller) to take it.
            if self.credit.has_room() {
                self.not_full.notify_one();
            }
            return Err(TrySendError::Full(value));
        }
        match self.queue.try_enqueue(value) {
            Ok(()) => {
                self.not_empty.notify_one();
                Ok(())
            }
            Err(v) => {
                if self.capacity.is_some() {
                    self.credit.give_back(1);
                }
                Err(TrySendError::Closed(v))
            }
        }
    }

    /// [`try_send_inner`](Self::try_send_inner) as a wait-protocol attempt
    /// on the value in `slot`: `None` means "full, keep waiting", and the
    /// value is back in `slot` for the next attempt.
    fn send_attempt(&self, slot: &mut Option<T>) -> Option<Result<(), SendError<T>>> {
        let value = slot.take().expect("send attempted after it completed");
        match self.try_send_inner(value) {
            Ok(()) => Some(Ok(())),
            Err(TrySendError::Closed(v)) => Some(Err(SendError(v))),
            Err(TrySendError::Full(v)) => {
                *slot = Some(v);
                None
            }
        }
    }

    /// Fences producers (sealing the list of rings, see [`Typed::close`])
    /// and wakes every waiter on both conditions so blocked/pending
    /// operations observe the shutdown. Returns `true` to the one call that
    /// placed the seal.
    fn close(&self) -> bool {
        let sealed = self.queue.close();
        if sealed {
            metrics::inc(Event::ChannelClosed);
        }
        self.not_empty.notify_all();
        self.not_full.notify_all();
        sealed
    }
}

/// Creates an unbounded channel: sends never block (the LCRQ grows by
/// linking rings) and consumers park when empty.
pub fn channel<T: Send>() -> (Sender<T>, Receiver<T>) {
    channel_with_config(LcrqConfig::default())
}

/// [`channel`] with an explicit LCRQ configuration (ring size etc.).
pub fn channel_with_config<T: Send>(config: LcrqConfig) -> (Sender<T>, Receiver<T>) {
    channel_with_backend(config)
}

/// [`channel`] over the list of rings of type `R` instead of the default
/// [`Crq`]. All rings share the seal-based shutdown the channel's settle
/// protocol relies on; they differ in progress class — pick
/// [`WcqRing`](lcrq_core::WcqRing) for a channel whose queue operations
/// are wait-free (each completes in a bounded number of the caller's own
/// steps even when peer threads stall, at some throughput cost; the
/// *channel* layer still blocks, that is its job).
///
/// ```
/// use lcrq_channel::{channel_with_backend, Receiver, Sender};
/// use lcrq_core::{LcrqConfig, WcqRing};
/// let (tx, rx): (Sender<u8, WcqRing>, Receiver<u8, WcqRing>) =
///     channel_with_backend(LcrqConfig::default());
/// tx.send(7).unwrap();
/// assert_eq!(rx.recv(), Ok(7));
/// ```
pub fn channel_with_backend<T: Send, R: Ring>(
    config: LcrqConfig,
) -> (Sender<T, R>, Receiver<T, R>) {
    with_queue(Typed::with_config(config), None)
}

/// Creates a bounded channel holding at most `capacity` items: sends block
/// (or report `Full`) while that many are in flight. The backpressure costs
/// one F&A a send and one a receive, each on its own side's cache line, and
/// no CAS loop.
///
/// The queue's rings hold `capacity` rounded up to a power of two (at least
/// 2, at most the default `2^12`): the gate never lets more items in, so a
/// larger ring would only be memory. Once its backlog outgrows the 256-slot
/// first ring, `bounded::<u64>(1024)` runs on a 16 KiB ring, not a 64 KiB
/// one.
///
/// # Panics
///
/// Panics if `capacity` is zero (rendezvous channels are not supported:
/// the LCRQ has no zero-capacity handoff).
pub fn bounded<T: Send>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    bounded_with_config(capacity, LcrqConfig::default())
}

/// [`bounded`] with an explicit LCRQ configuration. Its
/// [`ring_order`](LcrqConfig::ring_order) stays a cap: the rings hold
/// `min(2^ring_order, capacity rounded up to a power of two)` items.
pub fn bounded_with_config<T: Send>(
    capacity: usize,
    config: LcrqConfig,
) -> (Sender<T>, Receiver<T>) {
    bounded_with_backend(capacity, config)
}

/// [`bounded`] over the list of rings of type `R` (see
/// [`channel_with_backend`]). Every ring type holds `2^order` items, so the
/// rings are sized as [`bounded_with_config`] says for each of them.
///
/// # Panics
///
/// Panics if `capacity` is zero, as [`bounded`] does.
pub fn bounded_with_backend<T: Send, R: Ring>(
    capacity: usize,
    config: LcrqConfig,
) -> (Sender<T, R>, Receiver<T, R>) {
    assert!(capacity > 0, "bounded channel capacity must be at least 1");
    let config = capacity_sized(capacity, config);
    with_queue(Typed::with_config(config), Some(capacity as u64))
}

/// `config` with its `ring_order` lowered to ⌈log2 `capacity`⌉ (clamped to
/// at least 1, as [`LcrqConfig::with_ring_order`] clamps). The credit gate
/// counts an item from before its enqueue until after its dequeue, so no
/// more than `capacity` items ever sit in the queue, and a ring that holds
/// them all never fills from the channel's own traffic (DESIGN.md "A ring
/// the size of the capacity").
fn capacity_sized(capacity: usize, config: LcrqConfig) -> LcrqConfig {
    // No `next_power_of_two`: it overflows for a capacity above 2^63.
    let order = usize::BITS - (capacity - 1).leading_zeros();
    let cap = config.ring_order;
    config.with_ring_order(order.min(cap))
}

fn with_queue<T: Send, R: Ring>(
    queue: Typed<T, R>,
    capacity: Option<u64>,
) -> (Sender<T, R>, Receiver<T, R>) {
    let shared = Arc::new(Shared {
        queue,
        capacity,
        credit: credit::Credit::new(capacity.unwrap_or(0)),
        not_empty: Default::default(),
        not_full: Default::default(),
        senders: AtomicUsize::new(1),
        receivers: AtomicUsize::new(1),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver {
            shared,
            poll_reg: None,
        },
    )
}

/// The sending half of a channel. Clonable: the channel closes when the
/// last `Sender` drops (receivers then drain and see
/// [`RecvError::Disconnected`]). `R` is the ring type of the queue
/// underneath (see [`channel_with_backend`]).
pub struct Sender<T: Send, R: Ring = Crq> {
    shared: Arc<Shared<T, R>>,
}

impl<T: Send, R: Ring> Sender<T, R> {
    /// Sends `value`, blocking while a bounded channel is full (unbounded
    /// sends never block). Fails only when the channel is closed, handing
    /// the value back.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut value = Some(value);
        let shared = &*self.shared;
        // Watched while full: could an attempt made now end the wait?
        let ready = || shared.credit.has_room() || shared.queue.is_closed();
        shared
            .not_full
            .block_until(None, ready, || shared.send_attempt(&mut value))
            .expect("a wait without a deadline cannot time out")
    }

    /// Nonblocking send: fails with [`TrySendError::Full`] instead of
    /// waiting when a bounded channel is at capacity.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        self.shared.try_send_inner(value)
    }

    /// Sends every value of `values` through the core's multi-slot batch
    /// reservations (one F&A per reservation instead of one per item; see
    /// [`Typed::extend`]). On a bounded channel, room for the whole batch
    /// is acquired with bulk F&As, blocking as needed.
    ///
    /// If the channel closes partway, `Err` returns the **unsent suffix**
    /// in order; the sent prefix will be delivered to receivers normally.
    pub fn send_batch(&self, values: Vec<T>) -> Result<(), SendError<Vec<T>>> {
        if values.is_empty() {
            return Ok(());
        }
        if self.shared.capacity.is_none() {
            return match self.shared.queue.try_extend(values) {
                Ok(()) => {
                    self.shared.not_empty.notify_all();
                    Ok(())
                }
                Err(rest) => {
                    // A prefix may have been placed before the close was
                    // observed: wake consumers for it.
                    self.shared.not_empty.notify_all();
                    Err(SendError(rest))
                }
            };
        }
        // Bounded: acquire room in bulk (clamped to what is available),
        // send that many, park for the rest.
        let credit = &self.shared.credit;
        let mut rest = values;
        loop {
            let granted = credit.acquire(rest.len() as u64) as usize;
            if granted > 0 {
                let chunk: Vec<T> = rest.drain(..granted).collect();
                match self.shared.queue.try_extend(chunk) {
                    Ok(()) => self.shared.not_empty.notify_all(),
                    Err(mut rejected) => {
                        credit.give_back(rejected.len() as u64);
                        self.shared.not_empty.notify_all();
                        rejected.append(&mut rest);
                        return Err(SendError(rejected));
                    }
                }
            }
            if rest.is_empty() {
                return Ok(());
            }
            // Wait until the channel closes (`Some(true)`) or room comes
            // back (`Some(false)`). The attempt only reads, so the watch
            // may make it at every step.
            let closed = self.shared.not_full.block_until(
                None,
                || true,
                || {
                    if self.shared.queue.is_closed() {
                        Some(true)
                    } else {
                        credit.has_room().then_some(false)
                    }
                },
            );
            if closed.expect("a wait without a deadline cannot time out") {
                return Err(SendError(rest));
            }
        }
    }

    /// Async send: resolves immediately on an unbounded channel, pends on a
    /// full bounded channel until a receiver frees capacity. Executor-
    /// agnostic — drive it with any runtime or [`block_on`].
    pub fn send_async(&self, value: T) -> SendFuture<'_, T, R> {
        SendFuture::new(self, value)
    }

    /// Closes the channel explicitly (before all senders drop): producers
    /// are fenced, receivers drain the remaining items then see
    /// [`RecvError::Disconnected`]. Returns `true` on the transition.
    pub fn close(&self) -> bool {
        self.shared.close()
    }

    /// Whether the channel is closed.
    pub fn is_closed(&self) -> bool {
        self.shared.queue.is_closed()
    }

    /// Capacity of a bounded channel, `None` if unbounded.
    pub fn capacity(&self) -> Option<usize> {
        self.shared.capacity.map(|c| c as usize)
    }
}

impl<T: Send, R: Ring> Clone for Sender<T, R> {
    fn clone(&self) -> Self {
        self.shared.senders.fetch_add(1, Ordering::SeqCst);
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T: Send, R: Ring> Drop for Sender<T, R> {
    fn drop(&mut self) {
        if self.shared.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.shared.close();
        }
    }
}

impl<T: Send, R: Ring> core::fmt::Debug for Sender<T, R> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Sender")
            .field("closed", &self.is_closed())
            .field("capacity", &self.capacity())
            .finish()
    }
}

/// The receiving half of a channel. Clonable (MPMC: each item goes to
/// exactly one receiver). When the last `Receiver` drops the channel
/// closes, so senders fail fast instead of filling an unwatched queue.
pub struct Receiver<T: Send, R: Ring = Crq> {
    shared: Arc<Shared<T, R>>,
    /// Standing waker registration used by [`poll_recv`](Self::poll_recv)
    /// between `Pending` polls.
    poll_reg: Option<waker::Registration>,
}

impl<T: Send, R: Ring> Receiver<T, R> {
    /// Receives the next item, blocking while the channel is empty. The
    /// wait ladder escalates attempt → watch (skipped after parked waits) →
    /// register → attempt → park; the watch spins on a read-only emptiness
    /// check, and a parked receiver performs no queue operations (zero F&A)
    /// until a sender wakes it. Fails only when the channel is closed
    /// **and** drained.
    pub fn recv(&self) -> Result<T, RecvError> {
        let shared = &*self.shared;
        shared
            .not_empty
            .block_until(None, || shared.recv_ready(), || shared.recv_attempt())
            .expect("a wait without a deadline cannot time out")
    }

    /// Nonblocking receive.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        self.shared.try_recv_inner()
    }

    /// [`recv`](Self::recv) with a deadline: waits at most `timeout` for an
    /// item. The parked phase wakes exactly at the deadline (a timed park),
    /// so an idle wait performs a bounded number of queue polls —
    /// independent of the timeout length — and zero F&A while parked.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let shared = &*self.shared;
        let (ready, attempt) = (|| shared.recv_ready(), || shared.recv_attempt());
        match shared.not_empty.block_until(Some(deadline), ready, attempt) {
            Some(Ok(v)) => Ok(v),
            Some(Err(RecvError::Disconnected)) => Err(RecvTimeoutError::Disconnected),
            None => Err(RecvTimeoutError::Timeout),
        }
    }

    /// Receives up to `max` items into `out` through the core's bulk-F&A
    /// drain ([`Typed::drain_into`]). Blocks (like [`recv`](Self::recv))
    /// only when the channel is empty; otherwise returns immediately with
    /// whatever is available (at least one item). Returns how many items
    /// were appended, or `Disconnected` after the final drain.
    pub fn recv_batch(&self, out: &mut Vec<T>, max: usize) -> Result<usize, RecvError> {
        if max == 0 {
            return Ok(0);
        }
        let n = self.shared.queue.drain_into(out, max);
        if n > 0 {
            self.shared.on_dequeued(n as u64);
            return Ok(n);
        }
        // Empty: block for the first item, then drain opportunistically.
        let first = self.recv()?;
        out.push(first);
        let m = self.shared.queue.drain_into(out, max - 1);
        if m > 0 {
            self.shared.on_dequeued(m as u64);
        }
        Ok(1 + m)
    }

    /// Async receive. Executor-agnostic — drive it with any runtime or
    /// [`block_on`].
    pub fn recv_async(&self) -> RecvFuture<'_, T, R> {
        RecvFuture::new(self)
    }

    /// `Stream`-shaped poll: `Ready(Some(item))`, `Ready(None)` once the
    /// channel is closed and drained, or `Pending` with the waker parked in
    /// the registry. A `futures::Stream` adapter is one `poll_next` =
    /// `poll_recv` away; the repo stays dependency-free.
    pub fn poll_recv(&mut self, cx: &mut Context<'_>) -> Poll<Option<T>> {
        self.shared
            .not_empty
            .poll_until(&mut self.poll_reg, cx, || self.shared.recv_attempt())
            .map(Result::ok)
    }

    /// A blocking iterator over received items; ends when the channel is
    /// closed and drained.
    pub fn iter(&self) -> Iter<'_, T, R> {
        Iter { rx: self }
    }

    /// Closes the channel from the receiving side: producers are fenced
    /// immediately (fail-fast instead of queueing unwatched items) while
    /// remaining items stay receivable. Returns `true` on the transition.
    pub fn close(&self) -> bool {
        self.shared.close()
    }

    /// Whether the channel is closed (items may remain receivable).
    pub fn is_closed(&self) -> bool {
        self.shared.queue.is_closed()
    }

    /// Whether the channel appears empty (racy hint; [`recv`](Self::recv)
    /// and [`try_recv`](Self::try_recv) are the linearizable observations).
    pub fn is_empty(&self) -> bool {
        self.shared.queue.is_empty_hint()
    }
}

impl<T: Send, R: Ring> Clone for Receiver<T, R> {
    fn clone(&self) -> Self {
        self.shared.receivers.fetch_add(1, Ordering::SeqCst);
        Self {
            shared: Arc::clone(&self.shared),
            poll_reg: None, // registrations are per-handle
        }
    }
}

impl<T: Send, R: Ring> Drop for Receiver<T, R> {
    fn drop(&mut self) {
        self.shared.not_empty.release(&mut self.poll_reg);
        if self.shared.receivers.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.shared.close();
        }
    }
}

impl<T: Send, R: Ring> core::fmt::Debug for Receiver<T, R> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Receiver")
            .field("closed", &self.is_closed())
            .finish()
    }
}

/// Blocking iterator returned by [`Receiver::iter`].
pub struct Iter<'a, T: Send, R: Ring = Crq> {
    rx: &'a Receiver<T, R>,
}

impl<T: Send, R: Ring> Iterator for Iter<'_, T, R> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.rx.recv().ok()
    }
}

impl<'a, T: Send, R: Ring> IntoIterator for &'a Receiver<T, R> {
    type Item = T;
    type IntoIter = Iter<'a, T, R>;
    fn into_iter(self) -> Iter<'a, T, R> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcrq_core::WcqRing;
    use lcrq_queues::testing;

    #[test]
    fn a_bounded_channel_sizes_its_rings_to_its_capacity() {
        let order = |capacity| capacity_sized(capacity, LcrqConfig::default()).ring_order;
        let caps = [1, 2, 3, 256, 257, 1024, 1025, 4096, 1 << 20, usize::MAX];
        let orders = caps.map(order);
        assert_eq!(orders, [1, 1, 2, 8, 9, 10, 11, 12, 12, 12]);
        // An explicit order stays a cap.
        let six = LcrqConfig::new().with_ring_order(6);
        assert_eq!(capacity_sized(1024, six.clone()).ring_order, 6);
        assert_eq!(capacity_sized(usize::MAX, six).ring_order, 6);
    }

    #[test]
    fn sequential_round_trip() {
        let (tx, rx) = channel::<String>();
        tx.send("a".to_string()).unwrap();
        tx.send("b".to_string()).unwrap();
        assert_eq!(rx.recv().unwrap(), "a");
        assert_eq!(rx.try_recv().unwrap(), "b");
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        assert_eq!(rx.recv(), Err(RecvError::Disconnected));
    }

    #[test]
    fn recv_parks_until_send() {
        let (tx, rx) = channel::<u32>();
        let h = std::thread::spawn(move || rx.recv());
        std::thread::sleep(Duration::from_millis(50)); // let it park
        tx.send(42).unwrap();
        assert_eq!(h.join().unwrap(), Ok(42));
    }

    #[test]
    fn sender_drop_disconnects_blocked_receiver() {
        let (tx, rx) = channel::<u32>();
        let h = std::thread::spawn(move || rx.recv());
        std::thread::sleep(Duration::from_millis(50));
        drop(tx);
        assert_eq!(h.join().unwrap(), Err(RecvError::Disconnected));
    }

    #[test]
    fn explicit_close_fences_sends_but_drains() {
        let (tx, rx) = channel::<u32>();
        tx.send(1).unwrap();
        assert!(tx.close());
        assert!(!tx.close(), "second close is a no-op");
        assert!(tx.is_closed() && rx.is_closed());
        assert_eq!(tx.send(2), Err(SendError(2)));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Err(RecvError::Disconnected));
    }

    #[test]
    fn receiver_drop_fails_senders_fast() {
        let (tx, rx) = channel::<u32>();
        drop(rx);
        assert_eq!(tx.send(7), Err(SendError(7)));
        assert!(matches!(tx.try_send(8), Err(TrySendError::Closed(8))));
    }

    #[test]
    fn clones_share_one_channel() {
        let (tx, rx) = channel::<u32>();
        let tx2 = tx.clone();
        let rx2 = rx.clone();
        tx.send(1).unwrap();
        tx2.send(2).unwrap();
        drop(tx);
        assert!(!rx.is_closed(), "one sender still alive");
        drop(tx2);
        let (a, b) = (rx.recv().unwrap(), rx2.recv().unwrap());
        assert_eq!(
            {
                let mut v = [a, b];
                v.sort_unstable();
                v
            },
            [1, 2]
        );
        assert_eq!(rx.recv(), Err(RecvError::Disconnected));
        assert_eq!(rx2.recv(), Err(RecvError::Disconnected));
    }

    #[test]
    fn bounded_try_send_reports_full_then_recovers() {
        let (tx, rx) = bounded::<u32>(2);
        assert_eq!(tx.capacity(), Some(2));
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert!(matches!(tx.try_send(3), Err(TrySendError::Full(3))));
        assert_eq!(rx.recv(), Ok(1));
        tx.try_send(3).unwrap();
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Ok(3));
    }

    #[test]
    fn bounded_send_blocks_until_capacity_frees() {
        let (tx, rx) = bounded::<u32>(1);
        tx.send(1).unwrap();
        let h = std::thread::spawn(move || {
            tx.send(2).unwrap(); // must block until the recv below
            tx
        });
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(rx.recv(), Ok(1));
        let tx = h.join().unwrap();
        assert_eq!(rx.recv(), Ok(2));
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError::Disconnected));
    }

    #[test]
    fn bounded_blocked_sender_unblocks_on_close() {
        let (tx, rx) = bounded::<u32>(1);
        tx.send(1).unwrap();
        let h = std::thread::spawn(move || tx.send(2));
        std::thread::sleep(Duration::from_millis(50));
        assert!(rx.close());
        assert_eq!(h.join().unwrap(), Err(SendError(2)));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Err(RecvError::Disconnected));
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        let (tx, rx) = channel::<u32>();
        let start = Instant::now();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(40)),
            Err(RecvTimeoutError::Timeout)
        );
        assert!(start.elapsed() >= Duration::from_millis(40));
        tx.send(5).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(40)), Ok(5));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(40)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn batch_send_and_recv_round_trip() {
        let (tx, rx) = channel::<u64>();
        tx.send_batch((0..100).collect()).unwrap();
        let mut out = Vec::new();
        let n = rx.recv_batch(&mut out, 64).unwrap();
        assert_eq!(n, 64);
        while out.len() < 100 {
            rx.recv_batch(&mut out, 64).unwrap();
        }
        assert_eq!(out, (0..100).collect::<Vec<u64>>());
        drop(tx);
        assert_eq!(rx.recv_batch(&mut out, 4), Err(RecvError::Disconnected));
        assert_eq!(rx.recv_batch(&mut out, 0), Ok(0));
    }

    #[test]
    fn bounded_batch_send_respects_capacity() {
        let (tx, rx) = bounded::<u64>(8);
        let consumer = std::thread::spawn(move || {
            let mut got = Vec::new();
            while got.len() < 100 {
                match rx.recv_batch(&mut got, 16) {
                    Ok(_) => {}
                    Err(RecvError::Disconnected) => break,
                }
            }
            got
        });
        tx.send_batch((0..100).collect()).unwrap(); // blocks for room
        drop(tx);
        assert_eq!(consumer.join().unwrap(), (0..100).collect::<Vec<u64>>());
    }

    #[test]
    fn batch_send_on_closed_returns_everything() {
        let (tx, rx) = channel::<u64>();
        rx.close();
        let err = tx.send_batch(vec![1, 2, 3]).unwrap_err();
        assert_eq!(err.0, vec![1, 2, 3]);
        let err = tx.send_batch(vec![]).map(|_| ()); // empty batch: Ok even closed
        assert_eq!(err, Ok(()));
    }

    #[test]
    fn async_round_trip_with_block_on() {
        let (tx, rx) = channel::<String>();
        block_on(tx.send_async("hi".to_string())).unwrap();
        assert_eq!(block_on(rx.recv_async()).unwrap(), "hi");
        drop(tx);
        assert_eq!(block_on(rx.recv_async()), Err(RecvError::Disconnected));
    }

    #[test]
    fn recv_future_parks_until_cross_thread_send() {
        let (tx, rx) = channel::<u32>();
        let h = std::thread::spawn(move || block_on(rx.recv_async()));
        std::thread::sleep(Duration::from_millis(50)); // future is Pending
        tx.send(9).unwrap();
        assert_eq!(h.join().unwrap(), Ok(9));
    }

    #[test]
    fn send_future_pends_on_full_bounded_channel() {
        let (tx, rx) = bounded::<u32>(1);
        tx.send(1).unwrap();
        let h = std::thread::spawn(move || {
            block_on(tx.send_async(2)).unwrap();
        });
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(rx.recv(), Ok(1));
        h.join().unwrap();
        assert_eq!(rx.recv(), Ok(2));
    }

    #[test]
    fn poll_recv_is_stream_shaped() {
        use core::task::{Context, Poll, Waker};
        let (tx, mut rx) = channel::<u32>();
        let waker = Waker::noop();
        let mut cx = Context::from_waker(waker);
        assert!(rx.poll_recv(&mut cx).is_pending());
        tx.send(3).unwrap();
        assert_eq!(rx.poll_recv(&mut cx), Poll::Ready(Some(3)));
        assert!(rx.poll_recv(&mut cx).is_pending());
        drop(tx);
        assert_eq!(rx.poll_recv(&mut cx), Poll::Ready(None));
    }

    #[test]
    fn cancelled_recv_future_leaves_no_registration() {
        let (tx, rx) = channel::<u32>();
        {
            use core::future::Future as _;
            use core::task::{Context, Waker};
            let waker = Waker::noop();
            let mut cx = Context::from_waker(waker);
            let mut fut = core::pin::pin!(rx.recv_async());
            assert!(fut.as_mut().poll(&mut cx).is_pending());
            // fut dropped here: its waker registration must go with it.
        }
        tx.send(1).unwrap(); // wake_one on an empty registry: no-op
        assert_eq!(rx.recv(), Ok(1));
    }

    #[test]
    fn iterator_drains_until_disconnected() {
        let (tx, rx) = channel::<u32>();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let got: Vec<u32> = rx.iter().collect();
        assert_eq!(got, (0..10).collect::<Vec<u32>>());
        let got2: Vec<u32> = (&rx).into_iter().collect();
        assert!(got2.is_empty());
    }

    #[test]
    fn tiny_ring_config_churns_rings_under_channel_traffic() {
        let (tx, rx) = channel_with_config::<u64>(LcrqConfig::new().with_ring_order(3));
        let producer = std::thread::spawn(move || {
            for i in 0..5_000u64 {
                tx.send(i).unwrap();
            }
        });
        for i in 0..5_000u64 {
            assert_eq!(rx.recv(), Ok(i));
        }
        producer.join().unwrap();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn shutdown_with_recycled_rings_drops_in_flight_items_exactly_once() {
        // Tiny rings: traffic churns through many rings, each allocated by
        // a spill and freed once drained, then the channel is torn down with
        // a backlog in flight. Every undelivered value must drop exactly
        // once (a churned-ring reclamation bug would double-drop or leak).
        struct Tally(std::sync::Arc<std::sync::atomic::AtomicUsize>);
        impl Drop for Tally {
            fn drop(&mut self) {
                self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }
        }
        let drops = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let (tx, rx) = channel_with_config::<Tally>(LcrqConfig::new().with_ring_order(2));
        let total = 2_000usize;
        // Churn: deliver (and drop) the first half, leave the rest queued
        // across several rings, behind many churned ones.
        for _ in 0..total {
            tx.send(Tally(std::sync::Arc::clone(&drops))).unwrap();
        }
        for _ in 0..total / 2 {
            drop(rx.recv().unwrap());
        }
        assert_eq!(drops.load(std::sync::atomic::Ordering::SeqCst), total / 2);
        // Teardown mid-backlog: sender first, then the receiver with the
        // undelivered half still in the queue.
        drop(tx);
        drop(rx);
        assert_eq!(
            drops.load(std::sync::atomic::Ordering::SeqCst),
            total,
            "every in-flight value drops exactly once on shutdown"
        );
    }

    #[test]
    fn wcq_backend_round_trip_and_shutdown() {
        let (tx, rx) = channel_with_backend::<String, WcqRing>(LcrqConfig::default());
        tx.send("a".to_string()).unwrap();
        tx.send("b".to_string()).unwrap();
        assert_eq!(rx.recv().unwrap(), "a");
        assert_eq!(rx.try_recv().unwrap(), "b");
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError::Disconnected));
    }

    #[test]
    fn wcq_backend_bounded_blocks_and_recovers() {
        let (tx, rx) = bounded_with_backend::<u32, WcqRing>(1, LcrqConfig::default());
        tx.send(1).unwrap();
        assert!(matches!(tx.try_send(2), Err(TrySendError::Full(2))));
        let h = std::thread::spawn(move || {
            tx.send(2).unwrap();
            tx
        });
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(rx.recv(), Ok(1));
        let tx = h.join().unwrap();
        assert_eq!(rx.recv(), Ok(2));
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError::Disconnected));
    }

    #[test]
    fn wcq_backend_batch_and_tiny_rings() {
        let (tx, rx) = channel_with_backend::<u64, WcqRing>(LcrqConfig::new().with_ring_order(3));
        tx.send_batch((0..500).collect()).unwrap();
        let mut out = Vec::new();
        while out.len() < 500 {
            rx.recv_batch(&mut out, 64).unwrap();
        }
        assert_eq!(out, (0..500).collect::<Vec<u64>>());
        drop(tx);
        assert_eq!(rx.recv_batch(&mut out, 4), Err(RecvError::Disconnected));
    }

    /// 3 producers × 3 consumers over any ring: each item delivered exactly
    /// once and in its producer's order, `Disconnected` only after the last.
    fn mpmc_stress<R: Ring>((tx, rx): (Sender<u64, R>, Receiver<u64, R>)) {
        let sent = testing::items(3, 2_000);
        let mut handles = Vec::new();
        for mine in sent.chunks(2_000) {
            let (tx, mine) = (tx.clone(), mine.to_vec());
            handles.push(std::thread::spawn(move || {
                mine.into_iter().for_each(|v| tx.send(v).unwrap())
            }));
        }
        drop(tx);
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Ok(v) = rx.recv() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        drop(rx);
        for h in handles {
            h.join().unwrap();
        }
        let streams: Vec<Vec<u64>> = consumers.into_iter().map(|h| h.join().unwrap()).collect();
        testing::check_delivery(&sent, &streams).unwrap();
    }

    #[test]
    fn wcq_backend_mpmc_stress() {
        mpmc_stress(channel_with_backend::<u64, WcqRing>(
            LcrqConfig::new().with_ring_order(4),
        ));
    }

    #[test]
    fn mpmc_channel_stress() {
        mpmc_stress(channel::<u64>());
    }

    /// F&As a `recv()` performs on its own thread when it finds the channel
    /// empty, climbs the whole ladder, parks once, and is then sent one
    /// item: the inline attempt takes the paper's path (the head ticket and
    /// `fixState`'s two reads, 3), the attempt after registering follows that
    /// EMPTY on the same ring and proves it read-only (0), and the one after
    /// the wake takes the item (1). The watch between them reads the
    /// emptiness hint and attempts nothing: 3 + 0 + 1. This is the ladder's
    /// attempt budget, which the `openloop_*` benchmark workloads pay per
    /// message; change it only with their numbers in hand.
    const FAA_PER_PARKED_RECV: u64 = 3 + 1;

    #[test]
    fn recv_that_parks_once_performs_a_fixed_number_of_faa() {
        // A send that lands before the park cuts the ladder short, so such
        // a round (Park == 0) says nothing; the sleep makes them rare.
        for _ in 0..20 {
            let (tx, rx) = channel::<u64>();
            let receiver = std::thread::spawn(move || {
                let before = metrics::local_snapshot();
                assert_eq!(rx.recv(), Ok(7));
                metrics::local_snapshot().delta_since(&before)
            });
            std::thread::sleep(Duration::from_millis(50));
            tx.send(7).unwrap();
            let d = receiver.join().unwrap();
            if d.get(Event::Park) == 1 {
                assert_eq!(d.get(Event::Faa), FAA_PER_PARKED_RECV);
                return;
            }
        }
        panic!("the receiver never parked ahead of the send");
    }

    #[test]
    fn parked_receiver_performs_zero_faa() {
        // Acceptance criterion: an idle (empty-queue) consumer performs
        // zero F&A while parked. The poll ladder before the park costs a
        // bounded number of F&As; during the parked phase — the bulk of the
        // 200 ms window — it must perform none, so the total stays far
        // below what 200 ms of spinning would produce (millions).
        let (tx, rx) = channel::<u64>();
        let before = metrics::local_snapshot();
        let start = Instant::now();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(200)),
            Err(RecvTimeoutError::Timeout)
        );
        let elapsed = start.elapsed();
        let d = metrics::local_snapshot().delta_since(&before);
        assert!(elapsed >= Duration::from_millis(200));
        assert!(d.get(Event::Park) >= 1, "receiver never parked");
        assert!(
            d.get(Event::Faa) < 100,
            "parked receiver performed {} F&As",
            d.get(Event::Faa)
        );
        drop(tx);
    }
}

//! Executor-agnostic send/receive futures and a minimal [`block_on`].
//!
//! Both futures follow the same lost-wakeup-free protocol as the blocking
//! side, with the waker registry standing in for the event count:
//! fast-path poll → register the task's waker → **re-poll** → `Pending`.
//! A producer that races the registration either completes before it (and
//! the re-poll sees the result) or after it (and `wake_one` finds the
//! registration). Dropping a future deregisters its waker, so cancelled
//! operations leave no trace.

use core::future::Future;
use core::pin::Pin;
use core::task::{Context, Poll, Waker};
use std::sync::Arc;
use std::task::Wake;

use lcrq_core::{Crq, Ring};
use lcrq_util::parker::Parker;

use crate::error::{RecvError, SendError, TryRecvError, TrySendError};
use crate::waker::Registration;
use crate::{Receiver, Sender};

/// Future returned by [`Receiver::recv_async`]. Resolves to the next item,
/// or [`RecvError::Disconnected`] once the channel is closed and drained.
#[must_use = "futures do nothing unless polled"]
pub struct RecvFuture<'a, T: Send, R: Ring = Crq> {
    rx: &'a Receiver<T, R>,
    reg: Option<Registration>,
}

impl<'a, T: Send, R: Ring> RecvFuture<'a, T, R> {
    pub(crate) fn new(rx: &'a Receiver<T, R>) -> Self {
        Self { rx, reg: None }
    }
}

impl<T: Send, R: Ring> Future for RecvFuture<'_, T, R> {
    type Output = Result<T, RecvError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let shared = &*this.rx.shared;
        if let Some(reg) = this.reg.take() {
            shared.not_empty.wakers.deregister(reg);
        }
        match shared.try_recv_inner() {
            Ok(v) => return Poll::Ready(Ok(v)),
            Err(TryRecvError::Disconnected) => return Poll::Ready(Err(RecvError::Disconnected)),
            Err(TryRecvError::Empty) => {}
        }
        let reg = shared.not_empty.wakers.register(cx.waker());
        match shared.try_recv_inner() {
            Ok(v) => {
                shared.not_empty.wakers.deregister(reg);
                Poll::Ready(Ok(v))
            }
            Err(TryRecvError::Disconnected) => {
                shared.not_empty.wakers.deregister(reg);
                Poll::Ready(Err(RecvError::Disconnected))
            }
            Err(TryRecvError::Empty) => {
                this.reg = Some(reg);
                Poll::Pending
            }
        }
    }
}

impl<T: Send, R: Ring> Drop for RecvFuture<'_, T, R> {
    fn drop(&mut self) {
        if let Some(reg) = self.reg.take() {
            self.rx.shared.not_empty.wakers.deregister(reg);
        }
    }
}

/// Future returned by [`Sender::send_async`]. Resolves once the value is
/// enqueued — immediately on an unbounded channel, after capacity frees up
/// on a bounded one — or to [`SendError`] (value returned) on a closed
/// channel.
#[must_use = "futures do nothing unless polled"]
pub struct SendFuture<'a, T: Send, R: Ring = Crq> {
    tx: &'a Sender<T, R>,
    value: Option<T>,
    reg: Option<Registration>,
}

impl<'a, T: Send, R: Ring> SendFuture<'a, T, R> {
    pub(crate) fn new(tx: &'a Sender<T, R>, value: T) -> Self {
        Self {
            tx,
            value: Some(value),
            reg: None,
        }
    }
}

// The value is stored by ownership, never pinned structurally, so the
// future is freely movable regardless of T.
impl<T: Send, R: Ring> Unpin for SendFuture<'_, T, R> {}

impl<T: Send, R: Ring> Future for SendFuture<'_, T, R> {
    type Output = Result<(), SendError<T>>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let shared = &*this.tx.shared;
        if let Some(reg) = this.reg.take() {
            shared.not_full.wakers.deregister(reg);
        }
        let value = this
            .value
            .take()
            .expect("SendFuture polled after completion");
        let value = match shared.try_send_inner(value) {
            Ok(()) => return Poll::Ready(Ok(())),
            Err(TrySendError::Closed(v)) => return Poll::Ready(Err(SendError(v))),
            Err(TrySendError::Full(v)) => v,
        };
        let reg = shared.not_full.wakers.register(cx.waker());
        match shared.try_send_inner(value) {
            Ok(()) => {
                shared.not_full.wakers.deregister(reg);
                Poll::Ready(Ok(()))
            }
            Err(TrySendError::Closed(v)) => {
                shared.not_full.wakers.deregister(reg);
                Poll::Ready(Err(SendError(v)))
            }
            Err(TrySendError::Full(v)) => {
                this.value = Some(v);
                this.reg = Some(reg);
                Poll::Pending
            }
        }
    }
}

impl<T: Send, R: Ring> Drop for SendFuture<'_, T, R> {
    fn drop(&mut self) {
        if let Some(reg) = self.reg.take() {
            self.tx.shared.not_full.wakers.deregister(reg);
        }
    }
}

struct ThreadWaker(Parker);

impl Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
    fn wake_by_ref(self: &Arc<Self>) {
        self.0.unpark();
    }
}

/// Drives one future to completion on the current thread, parking between
/// polls on a [`Parker`] (exactly-one-token: a wake delivered between poll
/// and park is not lost).
///
/// This is the minimal executor that makes the async API usable without a
/// runtime dependency — suitable for tests, benches, and simple tools; a
/// real application would hand the futures to its executor instead.
pub fn block_on<F: Future>(future: F) -> F::Output {
    let thread_waker = Arc::new(ThreadWaker(Parker::new()));
    let waker = Waker::from(Arc::clone(&thread_waker));
    let mut cx = Context::from_waker(&waker);
    let mut future = core::pin::pin!(future);
    loop {
        match future.as_mut().poll(&mut cx) {
            Poll::Ready(out) => return out,
            Poll::Pending => thread_waker.0.park(),
        }
    }
}

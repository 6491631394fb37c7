//! Executor-agnostic send/receive futures and a minimal [`block_on`].
//!
//! Each future is one `WaitQueue::poll_until` around the same nonblocking
//! attempt its blocking counterpart hands to `block_until` (see `wait.rs`
//! for the protocol). Dropping a pending future releases its registration,
//! passing on a wake it had already been sent, so a cancelled operation
//! neither leaves a trace nor swallows a wake meant for a live one.

use core::future::Future;
use core::pin::Pin;
use core::task::{Context, Poll, Waker};
use std::sync::Arc;

use lcrq_core::{Crq, Ring};

use crate::error::{RecvError, SendError};
use crate::waker::{Registration, ThreadWaker};
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
        shared
            .not_empty
            .poll_until(&mut this.reg, cx, || shared.recv_attempt())
    }
}

impl<T: Send, R: Ring> Drop for RecvFuture<'_, T, R> {
    fn drop(&mut self) {
        self.rx.shared.not_empty.release(&mut self.reg);
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
        shared
            .not_full
            .poll_until(&mut this.reg, cx, || shared.send_attempt(&mut this.value))
    }
}

impl<T: Send, R: Ring> Drop for SendFuture<'_, T, R> {
    fn drop(&mut self) {
        self.tx.shared.not_full.release(&mut self.reg);
    }
}

/// Drives one future to completion on the current thread, parking between
/// polls as a blocked `recv` does: the park token keeps a wake delivered
/// between poll and park, and a spurious return only costs one more poll.
///
/// This is the minimal executor that makes the async API usable without a
/// runtime dependency — suitable for tests, benches, and simple tools; a
/// real application would hand the futures to its executor instead.
pub fn block_on<F: Future>(future: F) -> F::Output {
    let thread = ThreadWaker::current();
    let waker = Waker::from(Arc::clone(&thread));
    let mut cx = Context::from_waker(&waker);
    let mut future = core::pin::pin!(future);
    loop {
        match future.as_mut().poll(&mut cx) {
            Poll::Ready(out) => return out,
            Poll::Pending => {
                thread.park(None);
            }
        }
    }
}

//! The waker registry: the channel's one list of waiters.
//!
//! Every waiter parks a clone of its [`Waker`] here, in a FIFO behind one
//! mutex: a pending future its task's waker, a blocked thread a
//! [`ThreadWaker`] that unparks it. Producers wake the oldest entry
//! ([`wake_one`], which consumes it) or all of them ([`wake_all`], which
//! leaves them in place); a waiter that completes, gives up or is dropped
//! removes its own entry by id.
//!
//! The lock is taken only while someone waits: with nobody registered,
//! `registered` is zero and every `wake_*` a producer issues is that one
//! load. The rules that keep the lock harmless: no waker is woken or
//! dropped while it is held (a waker may poll its task inline and re-enter
//! [`register`]), `registered` is republished before every unlock, so
//! whoever takes the lock next finds it equal to the FIFO's length, and a
//! registry with one waiter or none holds no heap: the oldest entry sits
//! outside the deque, and an emptied deque gives its buffer back.
//!
//! [`register`]: WakerRegistry::register
//! [`wake_one`]: WakerRegistry::wake_one
//! [`wake_all`]: WakerRegistry::wake_all

use core::sync::atomic::AtomicBool;
use core::task::Waker;
use std::collections::VecDeque;
use std::sync::Arc;
use std::task::Wake;
use std::time::Duration;

use lcrq_util::metrics::{self, Event};
use lcrq_util::sync::thread::{self, Thread};
use lcrq_util::sync::{AtomicUsize, Mutex, Ordering};

/// A waker that unparks the thread that made it.
pub(crate) struct ThreadWaker {
    thread: Thread,
    /// Set by every wake; [`park`](Self::park) clears it to tell a wake
    /// from a timeout or a spurious return. Only the `WakeSpurious` count
    /// reads it, so it is a plain atomic the model checker does not
    /// schedule.
    woken: AtomicBool,
}

impl Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }
    fn wake_by_ref(self: &Arc<Self>) {
        self.woken.store(true, Ordering::Relaxed);
        self.thread.unpark();
    }
}

impl ThreadWaker {
    /// A waker for the calling thread (`Waker::from` it to register it).
    pub(crate) fn current() -> Arc<Self> {
        Arc::new(ThreadWaker {
            thread: thread::current(),
            woken: AtomicBool::new(false),
        })
    }

    /// Parks the calling thread, which made `self`, until it is woken,
    /// `timeout` passes, or spuriously; returns whether a wake came. The
    /// park token keeps a wake delivered before the park: the park then
    /// returns at once.
    pub(crate) fn park(&self, timeout: Option<Duration>) -> bool {
        metrics::inc(Event::Park);
        match timeout {
            None => thread::park(),
            Some(timeout) => thread::park_timeout(timeout),
        }
        self.woken.swap(false, Ordering::Relaxed)
    }
}

/// A handle to a registered waker: its id in the registry it came from.
/// Redeemed by [`WakerRegistry::deregister`]; dropping it instead leaves
/// the entry behind until a `wake_one` consumes it (safe, but wasteful).
#[derive(Debug)]
pub struct Registration(u64);

/// The registered wakers, oldest first; ids ascend because they are handed
/// out under the lock. The oldest sits outside the deque, so one waiter — a
/// blocked consumer, the common case — costs the registry no heap.
#[derive(Default)]
struct Fifo {
    oldest: Option<(u64, Waker)>,
    /// The rest; empty whenever `oldest` is.
    younger: VecDeque<(u64, Waker)>,
    next_id: u64,
}

impl Fifo {
    fn len(&self) -> usize {
        usize::from(self.oldest.is_some()) + self.younger.len()
    }

    fn push(&mut self, entry: (u64, Waker)) {
        match self.oldest {
            None => self.oldest = Some(entry),
            Some(_) => self.younger.push_back(entry),
        }
    }

    fn pop(&mut self) -> Option<(u64, Waker)> {
        let oldest = self.oldest.take();
        self.oldest = self.younger.pop_front();
        oldest
    }

    fn remove(&mut self, id: u64) -> Option<(u64, Waker)> {
        if self.oldest.as_ref().is_some_and(|e| e.0 == id) {
            return self.pop();
        }
        let at = self.younger.iter().position(|e| e.0 == id)?;
        self.younger.remove(at)
    }

    fn iter(&self) -> impl Iterator<Item = &(u64, Waker)> {
        self.oldest.iter().chain(&self.younger)
    }
}

/// Registry of wakers for futures pending on one condition ("not empty" or
/// "not full").
#[derive(Default)]
pub(crate) struct WakerRegistry {
    fifo: Mutex<Fifo>,
    /// `fifo.len()`, readable without the lock: `wake_*` with zero
    /// registered is a single load — the producer fast path.
    registered: AtomicUsize,
}

impl WakerRegistry {
    /// Runs `f` on the locked FIFO, frees an emptied deque's buffer, and
    /// republishes the FIFO's length before unlocking. Every caller makes at
    /// most one push or remove, so a poisoned lock still guards a
    /// consistent FIFO.
    fn locked<V>(&self, f: impl FnOnce(&mut Fifo) -> V) -> V {
        let mut fifo = self.fifo.lock().unwrap_or_else(|e| e.into_inner());
        let out = f(&mut fifo);
        if fifo.younger.is_empty() {
            fifo.younger = VecDeque::new();
        }
        self.registered.store(fifo.len(), Ordering::SeqCst);
        out
    }

    /// Registers a clone of `waker`. The caller must attempt its condition
    /// *after* this returns: the registration makes it visible to
    /// notifiers, and the attempt after it closes the lost-wakeup window.
    pub(crate) fn register(&self, waker: &Waker) -> Registration {
        // Fail point in the poll→register window: a delay here widens the
        // lost-wakeup race the mandatory re-poll exists to close.
        let _ = lcrq_util::fault::inject(lcrq_util::fault::Site::WakerRegister);
        let waker = waker.clone();
        self.locked(|fifo| {
            let id = fifo.next_id;
            fifo.next_id += 1;
            fifo.push((id, waker));
            Registration(id)
        })
    }

    /// Removes a registration. Returns whether it was still there: `false`
    /// means a `wake_one` already consumed it — this future was sent a wake.
    pub(crate) fn deregister(&self, reg: Registration) -> bool {
        self.locked(|fifo| fifo.remove(reg.0)).is_some()
    }

    /// Consumes and wakes the oldest registered waker, if any. One call per
    /// item produced: each wake token lets one waiter re-poll.
    pub(crate) fn wake_one(&self) {
        if self.registered.load(Ordering::SeqCst) == 0 {
            return;
        }
        if let Some((_, waker)) = self.locked(Fifo::pop) {
            metrics::inc(Event::Unpark);
            waker.wake();
        }
    }

    /// Wakes every registered waker **without consuming registrations**:
    /// used at shutdown and after a batch, when every waiter must re-poll.
    /// Waiters deregister themselves when they re-poll or give up.
    pub(crate) fn wake_all(&self) {
        if self.registered.load(Ordering::SeqCst) == 0 {
            return;
        }
        // Cloned under the lock, woken after it is released.
        let wakers: Vec<Waker> = self.locked(|fifo| fifo.iter().map(|(_, w)| w.clone()).collect());
        metrics::add(Event::Unpark, wakers.len() as u64);
        for waker in wakers {
            waker.wake();
        }
    }

    /// Number of live registrations (diagnostic; racy).
    #[cfg(test)]
    pub(crate) fn registered_count(&self) -> usize {
        self.registered.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize as StdAtomicUsize;
    use std::sync::Arc;
    use std::task::Wake;

    struct CountingWake(StdAtomicUsize);

    impl Wake for CountingWake {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
        fn wake_by_ref(self: &Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn counting_waker() -> (Arc<CountingWake>, Waker) {
        let w = Arc::new(CountingWake(StdAtomicUsize::new(0)));
        (Arc::clone(&w), Waker::from(Arc::clone(&w)))
    }

    #[test]
    fn wake_one_consumes_a_registration() {
        let reg = WakerRegistry::default();
        let (counter, waker) = counting_waker();
        let r = reg.register(&waker);
        assert_eq!(reg.registered_count(), 1);
        reg.wake_one();
        assert_eq!(counter.0.load(Ordering::SeqCst), 1);
        assert_eq!(reg.registered_count(), 0);
        reg.wake_one(); // nothing left: no-op
        assert_eq!(counter.0.load(Ordering::SeqCst), 1);
        assert!(
            !reg.deregister(r),
            "already consumed: reported, not removed"
        );
    }

    #[test]
    fn deregister_prevents_wake() {
        let reg = WakerRegistry::default();
        let (counter, waker) = counting_waker();
        let r = reg.register(&waker);
        assert!(reg.deregister(r));
        assert_eq!(reg.registered_count(), 0);
        reg.wake_one();
        assert_eq!(counter.0.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn wake_all_leaves_registrations_in_place() {
        let reg = WakerRegistry::default();
        let (c1, w1) = counting_waker();
        let (c2, w2) = counting_waker();
        let r1 = reg.register(&w1);
        let r2 = reg.register(&w2);
        reg.wake_all();
        assert_eq!(c1.0.load(Ordering::SeqCst), 1);
        assert_eq!(c2.0.load(Ordering::SeqCst), 1);
        assert_eq!(reg.registered_count(), 2, "wake_all must not consume");
        reg.wake_all();
        assert_eq!(c1.0.load(Ordering::SeqCst), 2);
        reg.deregister(r1);
        reg.deregister(r2);
        assert_eq!(reg.registered_count(), 0);
    }

    #[test]
    fn overflow_spill_and_all_paths_work_past_32_registrations() {
        let reg = WakerRegistry::default();
        let wakers: Vec<_> = (0..40).map(|_| counting_waker()).collect();
        let regs: Vec<_> = wakers.iter().map(|(_, w)| reg.register(w)).collect();
        assert_eq!(reg.registered_count(), 40);
        reg.wake_all();
        let woken: usize = wakers.iter().map(|(c, _)| c.0.load(Ordering::SeqCst)).sum();
        assert_eq!(woken, 40);
        for _ in 0..40 {
            reg.wake_one();
        }
        assert_eq!(reg.registered_count(), 0);
        // Deregistering consumed registrations is a no-op.
        for r in regs {
            reg.deregister(r);
        }
    }

    #[test]
    fn dropping_registry_with_live_registrations_is_clean() {
        let reg = WakerRegistry::default();
        let (counter, waker) = counting_waker();
        let _r1 = reg.register(&waker);
        let _r2 = reg.register(&waker);
        drop(waker);
        drop(reg); // must release the two clones it holds
        assert_eq!(Arc::strong_count(&counter), 1);
    }

    #[test]
    fn concurrent_register_wake_deregister_stress() {
        let reg = Arc::new(WakerRegistry::default());
        let total_wakes = Arc::new(StdAtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..3 {
                let reg = Arc::clone(&reg);
                let total = Arc::clone(&total_wakes);
                s.spawn(move || {
                    for i in 0..2_000 {
                        let w = Arc::new(CountingWake(StdAtomicUsize::new(0)));
                        let waker = Waker::from(Arc::clone(&w));
                        let r = reg.register(&waker);
                        if i % 2 == 0 {
                            reg.deregister(r);
                        } else {
                            reg.wake_one();
                            reg.deregister(r);
                        }
                        total.fetch_add(w.0.load(Ordering::SeqCst), Ordering::SeqCst);
                    }
                });
            }
            let reg2 = Arc::clone(&reg);
            s.spawn(move || {
                for _ in 0..1_000 {
                    reg2.wake_all();
                    std::hint::spin_loop();
                }
            });
        });
        // All registrations were deregistered or consumed; none leak.
        assert_eq!(reg.registered_count(), 0);
    }
}

//! The waker registry: the async analogue of the event count.
//!
//! Each pending future parks a clone of its [`Waker`] here, in a FIFO
//! behind one mutex. Producers wake the oldest entry ([`wake_one`], which
//! consumes it) or all of them ([`wake_all`], which leaves them in place);
//! a future that completes or is dropped removes its own entry by id.
//!
//! A mutex is enough because only futures ever take it: a channel used
//! through the blocking API never registers, so `registered` stays zero and
//! every `wake_*` a producer issues is that one load. The two rules that
//! keep the lock harmless when futures *are* in play: no waker is woken or
//! dropped while it is held (a waker may poll its task inline and re-enter
//! [`register`]), and `registered` is republished before every unlock, so
//! whoever takes the lock next finds it equal to the FIFO's length.
//!
//! [`register`]: WakerRegistry::register
//! [`wake_one`]: WakerRegistry::wake_one
//! [`wake_all`]: WakerRegistry::wake_all

use core::task::Waker;
use std::collections::VecDeque;

use lcrq_util::sync::{AtomicUsize, Mutex, Ordering};

/// A handle to a registered waker: its id in the registry it came from.
/// Redeemed by [`WakerRegistry::deregister`]; dropping it instead leaves
/// the entry behind until a `wake_one` consumes it (safe, but wasteful).
#[derive(Debug)]
pub struct Registration(u64);

#[derive(Default)]
struct Fifo {
    /// Oldest first; ids ascend because they are handed out under the lock.
    entries: VecDeque<(u64, Waker)>,
    next_id: u64,
}

/// Registry of wakers for futures pending on one condition ("not empty" or
/// "not full").
#[derive(Default)]
pub(crate) struct WakerRegistry {
    fifo: Mutex<Fifo>,
    /// `fifo.entries.len()`, readable without the lock: `wake_*` with zero
    /// registered is a single load — the producer fast path.
    registered: AtomicUsize,
}

impl WakerRegistry {
    /// Runs `f` on the locked FIFO and republishes its length before
    /// unlocking. Every caller makes at most one push or remove, so a
    /// poisoned lock still guards a consistent FIFO.
    fn locked<V>(&self, f: impl FnOnce(&mut Fifo) -> V) -> V {
        let mut fifo = self.fifo.lock().unwrap_or_else(|e| e.into_inner());
        let out = f(&mut fifo);
        self.registered.store(fifo.entries.len(), Ordering::SeqCst);
        out
    }

    /// Registers a clone of `waker`. The caller must re-poll its condition
    /// *after* this returns (the registration is the async analogue of
    /// `EventCount::prepare`; the re-poll closes the lost-wakeup window).
    pub(crate) fn register(&self, waker: &Waker) -> Registration {
        // Fail point in the poll→register window: a delay here widens the
        // lost-wakeup race the mandatory re-poll exists to close.
        let _ = lcrq_util::fault::inject(lcrq_util::fault::Site::WakerRegister);
        let waker = waker.clone();
        self.locked(|fifo| {
            let id = fifo.next_id;
            fifo.next_id += 1;
            fifo.entries.push_back((id, waker));
            Registration(id)
        })
    }

    /// Removes a registration. Returns whether it was still there: `false`
    /// means a `wake_one` already consumed it — this future was sent a wake.
    pub(crate) fn deregister(&self, reg: Registration) -> bool {
        let removed = self.locked(|fifo| {
            let at = fifo.entries.iter().position(|(id, _)| *id == reg.0)?;
            fifo.entries.remove(at)
        });
        removed.is_some()
    }

    /// Consumes and wakes the oldest registered waker, if any. One call per
    /// item produced: each wake token lets one future re-poll.
    pub(crate) fn wake_one(&self) {
        if self.registered.load(Ordering::SeqCst) == 0 {
            return;
        }
        if let Some((_, waker)) = self.locked(|fifo| fifo.entries.pop_front()) {
            waker.wake();
        }
    }

    /// Wakes every registered waker **without consuming registrations**:
    /// used at shutdown, when every pending future must re-poll and observe
    /// the closed channel. Futures deregister themselves on completion.
    pub(crate) fn wake_all(&self) {
        if self.registered.load(Ordering::SeqCst) == 0 {
            return;
        }
        // Cloned under the lock, woken after it is released.
        let wakers: Vec<Waker> =
            self.locked(|fifo| fifo.entries.iter().map(|(_, w)| w.clone()).collect());
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

//! A test-and-test-and-set spin lock.
//!
//! Used as H-Synch's global lock (synchronizing per-cluster combiners) and
//! by the two-lock MS queue baseline. Deliberately a *spin* lock — the
//! paper's C baselines spin too, and the oversubscription study (Figure 6b)
//! depends on lock holders being preemptable while waiters burn/yield.

use core::sync::atomic::{AtomicBool, Ordering};
use lcrq_util::metrics::{self, Event};
use lcrq_util::Backoff;

/// A test-and-test-and-set lock with exponential backoff that eventually
/// yields to the OS (so oversubscribed runs make progress at all).
#[derive(Debug, Default)]
pub struct TasLock {
    locked: AtomicBool,
}

/// RAII guard unlocking on drop.
#[must_use = "the lock is released when the guard is dropped"]
#[derive(Debug)]
pub struct TasGuard<'a> {
    lock: &'a TasLock,
}

impl TasLock {
    /// Creates an unlocked lock.
    pub const fn new() -> Self {
        Self {
            locked: AtomicBool::new(false),
        }
    }

    /// Acquires the lock, spinning (then yielding) until available.
    pub fn lock(&self) -> TasGuard<'_> {
        let backoff = Backoff::new();
        loop {
            if let Some(g) = self.try_lock() {
                return g;
            }
            // Test before the next test-and-set to avoid hammering the line.
            while self.locked.load(Ordering::Relaxed) {
                backoff.snooze();
            }
        }
    }

    /// Attempts to acquire without waiting.
    pub fn try_lock(&self) -> Option<TasGuard<'_>> {
        metrics::inc(Event::Tas);
        if self.locked.swap(true, Ordering::Acquire) {
            None
        } else {
            // Most damaging preemption point: lock held, work not yet done.
            let _ = lcrq_util::fault::inject(lcrq_util::fault::Site::Preempt);
            Some(TasGuard { lock: self })
        }
    }

    /// Whether the lock is currently held (racy; for assertions/heuristics).
    pub fn is_locked(&self) -> bool {
        self.locked.load(Ordering::Relaxed)
    }
}

impl Drop for TasGuard<'_> {
    fn drop(&mut self) {
        self.lock.locked.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_unlock_cycle() {
        let l = TasLock::new();
        assert!(!l.is_locked());
        {
            let _g = l.lock();
            assert!(l.is_locked());
            assert!(l.try_lock().is_none());
        }
        assert!(!l.is_locked());
        assert!(l.try_lock().is_some());
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        let l = Arc::new(TasLock::new());
        struct RacyCell(std::cell::UnsafeCell<u64>);
        // SAFETY (test): all access is under the lock being tested.
        unsafe impl Send for RacyCell {}
        unsafe impl Sync for RacyCell {}
        let counter = Arc::new(RacyCell(std::cell::UnsafeCell::new(0u64)));
        struct Shared(Arc<RacyCell>);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let l = Arc::clone(&l);
                let c = Shared(Arc::clone(&counter));
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        let _g = l.lock();
                        // SAFETY: we hold the lock.
                        unsafe { *c.0 .0.get() += 1 };
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(unsafe { *counter.0.get() }, 40_000);
    }
}

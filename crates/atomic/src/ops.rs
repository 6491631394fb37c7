//! Counted single-word atomic operations (SWAP, T&S, CAS).
//!
//! Thin wrappers over `std::sync::atomic` that record software events so the
//! harness can reproduce the per-operation atomic-instruction counts of
//! Tables 2 and 3. All RMWs use `SeqCst`, which on x86 compiles to the same
//! lock-prefixed instruction as any weaker RMW ordering.

use core::sync::atomic::{AtomicU64, Ordering};
use lcrq_util::metrics::{self, Event};

/// Atomic swap (`XCHG`): stores `v` and returns the previous value.
#[inline]
pub fn swap(a: &AtomicU64, v: u64) -> u64 {
    metrics::inc(Event::Swap);
    a.swap(v, Ordering::SeqCst)
}

/// Test-and-set of bit `bit` (`LOCK BTS`): sets the bit, returning whether it
/// was already set. The CRQ uses this to close a queue (Figure 3d line 99).
#[inline]
pub fn tas_bit(a: &AtomicU64, bit: u32) -> bool {
    metrics::inc(Event::Tas);
    let mask = 1u64 << bit;
    a.fetch_or(mask, Ordering::SeqCst) & mask != 0
}

/// Atomic fetch-OR (`LOCK OR`-family RMW): ORs `mask` into `*a`, returning
/// the previous value. The SCQ dequeue transition uses this to consume an
/// entry (setting the index field to ⊥) with a single unconditional RMW —
/// counted in the T&S family, like [`tas_bit`].
#[inline]
pub fn or_bits(a: &AtomicU64, mask: u64) -> u64 {
    // Fail point before the RMW: the fetch-OR itself is unconditional, so
    // `Fail` has no spurious-failure reading here (yield/stall/panic widen
    // the consume window instead; SCQ's dequeue window arms `ScqDequeue`
    // for a retryable spurious consume failure).
    let _ = lcrq_util::fault::inject(lcrq_util::fault::Site::OrBits);
    metrics::inc(Event::Tas);
    a.fetch_or(mask, Ordering::SeqCst)
}

/// Counted single-word CAS: returns `Ok(())` or the observed value.
#[inline]
pub fn cas(a: &AtomicU64, old: u64, new: u64) -> Result<(), u64> {
    metrics::inc(Event::CasAttempt);
    match a.compare_exchange(old, new, Ordering::SeqCst, Ordering::Acquire) {
        Ok(_) => Ok(()),
        Err(cur) => {
            metrics::inc(Event::CasFailure);
            Err(cur)
        }
    }
}

/// Counted pointer-sized CAS over a `AtomicPtr`-shaped `AtomicU64` is not
/// provided; list queues use [`cas_ptr`](ptr::cas_ptr) on `AtomicPtr`
/// directly.
pub mod ptr {
    use core::sync::atomic::{AtomicPtr, Ordering};
    use lcrq_util::metrics::{self, Event};
    use lcrq_util::sync::PtrCell;

    /// Counted CAS on an `AtomicPtr` (or its `--cfg loom` shim).
    #[inline]
    pub fn cas_ptr<T>(a: &impl PtrCell<T>, old: *mut T, new: *mut T) -> Result<(), *mut T> {
        metrics::inc(Event::CasAttempt);
        match a.compare_exchange(old, new, Ordering::SeqCst, Ordering::Acquire) {
            Ok(_) => Ok(()),
            Err(cur) => {
                metrics::inc(Event::CasFailure);
                Err(cur)
            }
        }
    }

    /// Counted SWAP on an `AtomicPtr`.
    #[inline]
    pub fn swap_ptr<T>(a: &AtomicPtr<T>, new: *mut T) -> *mut T {
        metrics::inc(Event::Swap);
        a.swap(new, Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::sync::atomic::AtomicPtr;

    #[test]
    fn swap_returns_previous() {
        let a = AtomicU64::new(3);
        assert_eq!(swap(&a, 9), 3);
        assert_eq!(a.load(Ordering::SeqCst), 9);
    }

    #[test]
    fn tas_bit_sets_and_reports() {
        let a = AtomicU64::new(0);
        assert!(!tas_bit(&a, 63));
        assert!(tas_bit(&a, 63));
        assert_eq!(a.load(Ordering::SeqCst), 1 << 63);
        // Other bits untouched.
        assert!(!tas_bit(&a, 0));
        assert_eq!(a.load(Ordering::SeqCst), (1 << 63) | 1);
    }

    #[test]
    fn cas_success_and_failure() {
        let a = AtomicU64::new(5);
        assert_eq!(cas(&a, 5, 6), Ok(()));
        assert_eq!(cas(&a, 5, 7), Err(6));
        assert_eq!(a.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn ptr_cas_and_swap() {
        let mut x = 1;
        let mut y = 2;
        let a = AtomicPtr::new(&mut x as *mut i32);
        assert!(ptr::cas_ptr(&a, &mut x, &mut y).is_ok());
        assert_eq!(ptr::cas_ptr(&a, &mut x, &mut y), Err(&mut y as *mut i32));
        assert_eq!(ptr::swap_ptr(&a, core::ptr::null_mut()), &mut y as *mut i32);
    }

    #[test]
    fn events_recorded() {
        use lcrq_util::metrics::{self, Event};
        let before = metrics::local_snapshot();
        let a = AtomicU64::new(0);
        swap(&a, 1);
        tas_bit(&a, 2);
        let _ = cas(&a, 0, 1); // fails: a == 1|4
        let d = metrics::local_snapshot().delta_since(&before);
        assert_eq!(d.get(Event::Swap), 1);
        assert_eq!(d.get(Event::Tas), 1);
        assert_eq!(d.get(Event::CasAttempt), 1);
        assert_eq!(d.get(Event::CasFailure), 1);
    }
}

//! Fetch-and-add policies: hardware `LOCK XADD` vs a CAS loop.
//!
//! The paper's central experiment (Figure 1) and the LCRQ-CAS variant hinge
//! on this distinction: hardware F&A always succeeds, so a contended counter
//! costs one cache-line transfer per increment; a CAS loop additionally
//! wastes the work of every failed attempt, and the failure rate grows with
//! concurrency. [`FaaPolicy`] abstracts the choice so a single generic queue
//! implementation yields both LCRQ and LCRQ-CAS.

use core::sync::atomic::{AtomicU64, Ordering};
use lcrq_util::metrics::{self, Event};

/// How to perform a 64-bit fetch-and-add.
///
/// Implementations are zero-sized marker types used as generic parameters;
/// see [`HardwareFaa`] and [`CasLoopFaa`].
pub trait FaaPolicy: Send + Sync + 'static {
    /// Atomically adds `v` to `*a`, returning the previous value
    /// (sequentially consistent, like all lock-prefixed x86 RMWs).
    fn fetch_add(a: &AtomicU64, v: u64) -> u64;

    /// Atomically adds `k` to `*a` as one *multi-slot reservation*,
    /// returning the previous value: the caller owns indices
    /// `prev..prev + k`. Semantically identical to [`fetch_add`]
    /// (x86 `XADD` takes an arbitrary addend), but kept as a separate
    /// entry point so the batched queue paths remain visible to the
    /// ablation: each policy pays its reservation the same way it pays a
    /// scalar F&A — one `LOCK XADD` for hardware, one CAS loop for the
    /// emulation — so batching amortizes *both* variants identically and
    /// the LCRQ vs LCRQ-CAS comparison still isolates the primitive.
    ///
    /// [`fetch_add`]: FaaPolicy::fetch_add
    #[inline]
    fn fetch_add_k(a: &AtomicU64, k: u64) -> u64 {
        Self::fetch_add(a, k)
    }

    /// Human-readable policy name for harness output.
    fn name() -> &'static str;
}

/// Hardware fetch-and-add (`LOCK XADD`): always succeeds in one instruction.
#[derive(Debug, Default, Clone, Copy)]
pub struct HardwareFaa;

impl FaaPolicy for HardwareFaa {
    #[inline]
    fn fetch_add(a: &AtomicU64, v: u64) -> u64 {
        // Fail point before the XADD: hardware F&A cannot spuriously fail
        // (`Fail` is ignored), but a stall/yield here models a thread
        // crashed right at its index reservation.
        let _ = lcrq_util::fault::inject(lcrq_util::fault::Site::Faa);
        metrics::inc(Event::Faa);
        a.fetch_add(v, Ordering::SeqCst)
    }

    fn name() -> &'static str {
        "faa"
    }
}

/// Fetch-and-add emulated with a CAS loop, the construction the paper warns
/// against: under contention most attempts fail and their work is wasted.
#[derive(Debug, Default, Clone, Copy)]
pub struct CasLoopFaa;

impl FaaPolicy for CasLoopFaa {
    #[inline]
    fn fetch_add(a: &AtomicU64, v: u64) -> u64 {
        let mut cur = a.load(Ordering::Acquire);
        loop {
            // The read→CAS window that hardware F&A does not have: a
            // preemption landing here wastes the whole attempt (the
            // scheduler adversary's `Site::Preempt`; inert by default).
            let _ = lcrq_util::fault::inject(lcrq_util::fault::Site::Preempt);
            if lcrq_util::fault::inject(lcrq_util::fault::Site::Faa) {
                // Injected spurious CAS failure: waste this attempt exactly
                // as a contending increment would.
                metrics::inc(Event::CasAttempt);
                metrics::inc(Event::CasFailure);
                cur = a.load(Ordering::Acquire);
                continue;
            }
            metrics::inc(Event::CasAttempt);
            match a.compare_exchange(
                cur,
                cur.wrapping_add(v),
                Ordering::SeqCst,
                Ordering::Acquire,
            ) {
                Ok(prev) => return prev,
                Err(observed) => {
                    metrics::inc(Event::CasFailure);
                    cur = observed;
                }
            }
        }
    }

    fn name() -> &'static str {
        "cas-loop"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn hammer<P: FaaPolicy>() -> u64 {
        let counter = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&counter);
                std::thread::spawn(move || {
                    for _ in 0..25_000 {
                        P::fetch_add(&c, 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        counter.load(Ordering::SeqCst)
    }

    #[test]
    fn hardware_faa_is_exact_under_contention() {
        assert_eq!(hammer::<HardwareFaa>(), 100_000);
    }

    #[test]
    fn cas_loop_faa_is_exact_under_contention() {
        assert_eq!(hammer::<CasLoopFaa>(), 100_000);
    }

    #[test]
    fn both_policies_return_previous_value() {
        let a = AtomicU64::new(10);
        assert_eq!(HardwareFaa::fetch_add(&a, 5), 10);
        assert_eq!(CasLoopFaa::fetch_add(&a, 5), 15);
        assert_eq!(a.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn fetch_add_zero_is_a_linearized_read() {
        // The CRQ's fixState uses F&A(x, 0) as a flushing read (Figure 3c).
        let a = AtomicU64::new(42);
        assert_eq!(HardwareFaa::fetch_add(&a, 0), 42);
        assert_eq!(CasLoopFaa::fetch_add(&a, 0), 42);
        assert_eq!(a.load(Ordering::SeqCst), 42);
    }

    #[test]
    fn wrapping_add_semantics() {
        let a = AtomicU64::new(u64::MAX);
        assert_eq!(CasLoopFaa::fetch_add(&a, 1), u64::MAX);
        assert_eq!(a.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn policies_record_their_events() {
        use lcrq_util::metrics::{self, Event};
        let before = metrics::local_snapshot();
        let a = AtomicU64::new(0);
        HardwareFaa::fetch_add(&a, 1);
        CasLoopFaa::fetch_add(&a, 1); // uncontended: 1 attempt, 0 failures
        let d = metrics::local_snapshot().delta_since(&before);
        assert_eq!(d.get(Event::Faa), 1);
        assert_eq!(d.get(Event::CasAttempt), 1);
        assert_eq!(d.get(Event::CasFailure), 0);
    }

    #[test]
    fn names_differ() {
        assert_ne!(HardwareFaa::name(), CasLoopFaa::name());
    }

    #[test]
    fn fetch_add_k_reserves_a_contiguous_range() {
        let a = AtomicU64::new(100);
        assert_eq!(HardwareFaa::fetch_add_k(&a, 16), 100);
        assert_eq!(CasLoopFaa::fetch_add_k(&a, 8), 116);
        assert_eq!(a.load(Ordering::SeqCst), 124);
    }

    #[test]
    fn fetch_add_k_costs_one_primitive_per_reservation() {
        use lcrq_util::metrics::{self, Event};
        let before = metrics::local_snapshot();
        let a = AtomicU64::new(0);
        HardwareFaa::fetch_add_k(&a, 16);
        CasLoopFaa::fetch_add_k(&a, 16); // uncontended: 1 attempt
        let d = metrics::local_snapshot().delta_since(&before);
        assert_eq!(d.get(Event::Faa), 1, "one XADD regardless of k");
        assert_eq!(d.get(Event::CasAttempt), 1, "one CAS regardless of k");
    }

    #[test]
    fn fetch_add_k_exact_under_contention() {
        let counter = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&counter);
                std::thread::spawn(move || {
                    let mut ranges = Vec::with_capacity(10_000);
                    for _ in 0..10_000 {
                        ranges.push(CasLoopFaa::fetch_add_k(&c, 3));
                    }
                    ranges
                })
            })
            .collect();
        let mut starts: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        // Reservations are disjoint, stride-3 ranges covering [0, 120000).
        starts.sort_unstable();
        assert_eq!(starts.len(), 40_000);
        for (i, s) in starts.iter().enumerate() {
            assert_eq!(*s, 3 * i as u64, "ranges must tile without overlap");
        }
        assert_eq!(counter.load(Ordering::SeqCst), 120_000);
    }
}

//! Bounded recycling pool for retired rings (in practice CRQs: the one
//! [`Ring`] that can [`scrub`](Ring::scrub)).
//!
//! LCRQ's spill path allocates a fresh ring every time a CRQ closes, and the
//! hazard domain frees every retired ring — so a tantrum-heavy workload
//! churns the global allocator once per ring close and has unbounded
//! transient memory. The [`RingPool`] replaces *retire-means-free* with
//! *retire-means-recycle*: a drained ring is [scrubbed](Ring::scrub)
//! (its indices re-based onto a fresh reuse epoch so recycled
//! `(safe, idx, val)` tuples can never alias live ones) and parked in the
//! pool; the spill paths pop from the pool before falling back to
//! allocation. Steady-state spills then allocate nothing, and idle memory
//! beyond the live ring chain is bounded by `capacity × R × 16` bytes.
//!
//! The pool is `capacity` pointer slots. [`push`](RingPool::push) CASes
//! `null → ring` into the first vacant slot; [`pop`](RingPool::pop) swaps
//! the first occupied slot to null. Whoever's swap returns the pointer owns
//! the ring, so one slot holds the whole claim: a pooled ring is never
//! dereferenced, there is no link between pooled rings to go stale (no ABA
//! to version), and `len ≤ capacity` holds because there is nowhere else
//! to put a ring. A queue reaches the pool about once per ring's worth of
//! operations, so a walk over `capacity` slots is not worth avoiding.
//!
//! Rings enter by `Box` (exclusive ownership — the ring is unreachable from
//! any queue and hazard-quiescent) and leave by `Box`; a ring `push` hands
//! back is still exclusively the caller's and may simply be dropped.

// Atomics come from the sync facade: every slot access is a scheduler
// decision point under `--cfg loom` (tests/loom.rs).
use lcrq_util::sync::{AtomicPtr, Ordering};
use std::sync::{Arc, OnceLock, Weak};

use lcrq_util::metrics::{self, Event};

use crate::crq::Crq;
use crate::ring::Ring;

/// A bounded lock-free pool of scrubbed, ready-to-reseed rings. See the
/// [module docs](self) for the design and ownership protocol.
pub struct RingPool<R: Ring = Crq> {
    /// Per slot, one parked ring (from `Box::into_raw`) or null.
    slots: Box<[AtomicPtr<R>]>,
}

impl<R: Ring> RingPool<R> {
    /// Creates a pool holding at most `capacity` rings (0 disables pooling:
    /// every `push` bounces and every `pop` misses).
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(Self {
            slots: (0..capacity)
                .map(|_| AtomicPtr::new(core::ptr::null_mut()))
                .collect(),
        })
    }

    /// Maximum number of rings the pool will hold.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Rings currently pooled (racy snapshot; never exceeds
    /// [`capacity`](Self::capacity)).
    pub fn len(&self) -> usize {
        // Relaxed: a count, nothing is read through the pointers.
        self.slots
            .iter()
            .filter(|s| !s.load(Ordering::Relaxed).is_null())
            .count()
    }

    /// Whether the pool currently holds no rings (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the pool is at capacity (racy snapshot).
    pub fn is_full(&self) -> bool {
        self.len() >= self.capacity()
    }

    /// Scrubs `ring` and parks it for reuse. Hands the ring back unscrubbed
    /// when the pool is full (or disabled), *scrub-refused* when its index
    /// space is nearly exhausted, and scrubbed when a racing `push` took
    /// the last vacancy first — in every case it is still exclusively the
    /// caller's, to drop.
    ///
    /// Taking the ring by `Box` is what makes scrubbing sound: exclusive
    /// ownership proves no in-flight protocol operation can observe the
    /// reset.
    pub fn push(&self, ring: Box<R>) -> Result<(), Box<R>> {
        // Full check *before* the scrub: a scrub rewrites all R nodes, and a
        // drain retires rings far faster than spills take them back. Racy;
        // losing the race below costs one wasted scrub.
        if self.is_full() {
            return Err(ring);
        }
        // Fail point around the scrub: the ring is exclusively owned here, so
        // a stall/panic leaks at most this one ring, never corrupts the pool.
        let _ = lcrq_util::fault::inject(lcrq_util::fault::Site::PoolScrub);
        if !ring.scrub() {
            return Err(ring); // index space nearly exhausted: die, not recycle
        }
        let raw = Box::into_raw(ring);
        for slot in self.slots.iter() {
            // Release pairs with the Acquire swap in `pop`: the popper sees
            // the scrubbed contents.
            if slot
                .compare_exchange(
                    core::ptr::null_mut(),
                    raw,
                    Ordering::Release,
                    Ordering::Relaxed,
                )
                .is_ok()
            {
                return Ok(());
            }
        }
        // SAFETY: `raw` came from `Box::into_raw` above and no CAS published
        // it, so it is still exclusively ours.
        Err(unsafe { Box::from_raw(raw) })
    }

    /// Pops a scrubbed ring, ready to [`reseed`](Ring::reseed).
    pub fn pop(&self) -> Option<Box<R>> {
        for slot in self.slots.iter() {
            // The load only skips the RMW on a vacant slot; the swap is the
            // claim (Acquire, pairing with the Release CAS in `push`).
            if slot.load(Ordering::Relaxed).is_null() {
                continue;
            }
            let p = slot.swap(core::ptr::null_mut(), Ordering::Acquire);
            if !p.is_null() {
                metrics::inc(Event::RingReuse);
                // SAFETY: `p` came from `Box::into_raw` in `push`, and the
                // swap that returned it left null behind for everyone else.
                return Some(unsafe { Box::from_raw(p) });
            }
        }
        None
    }

    /// The planted-bug twin of [`pop`](Self::pop), reachable only by the
    /// model checker: the claim is a load followed by a `store(null)`, so
    /// two poppers can both load the same ring before either clears the
    /// slot. `tests/loom.rs` asserts the checker finds the double hand-off.
    #[cfg(loom)]
    #[doc(hidden)]
    pub fn pop_load_then_store(&self) -> Option<Box<R>> {
        for slot in self.slots.iter() {
            let p = slot.load(Ordering::Acquire);
            if !p.is_null() {
                slot.store(core::ptr::null_mut(), Ordering::Relaxed);
                // SAFETY: none — that is the planted bug. The model compares
                // addresses and never dereferences or frees a ring twice.
                return Some(unsafe { Box::from_raw(p) });
            }
        }
        None
    }
}

impl<R: Ring> Drop for RingPool<R> {
    fn drop(&mut self) {
        for slot in self.slots.iter_mut() {
            let p = *slot.get_mut();
            if !p.is_null() {
                // SAFETY: pooled rings are exclusively owned by the pool,
                // and `&mut self` means no push or pop is in flight.
                drop(unsafe { Box::from_raw(p) });
            }
        }
    }
}

impl<R: Ring> core::fmt::Debug for RingPool<R> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RingPool")
            .field("len", &self.len())
            .field("capacity", &self.capacity())
            .finish()
    }
}

/// Reclamation callback for the hazard domain's `retire_with`: once it
/// proves no thread still protects the ring, return it to its owning pool
/// (scrubbed, on a fresh reuse epoch) — or free it when the pool is gone,
/// full, or refuses the scrub.
///
/// # Safety
///
/// `p` must be a `Box::into_raw`-produced `*mut R` being reclaimed by
/// the hazard domain (sole ownership, no live references).
pub(crate) unsafe fn recycle_ring<R: Ring>(p: *mut ()) {
    // SAFETY: per this function's contract, forwarded from retire_with.
    let ring = unsafe { Box::from_raw(p as *mut R) };
    let pool = ring.pool_slot().and_then(OnceLock::get);
    match pool.and_then(Weak::upgrade) {
        // On Err the ring is still exclusively ours: dropped.
        Some(pool) => drop(pool.push(ring)),
        // No pool: a ring type that is not recycled, or the queue is gone.
        None => drop(ring),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LcrqConfig;
    use lcrq_util::metrics::{self, Event};

    fn ring(order: u32) -> Box<Crq> {
        Box::new(Crq::new(&LcrqConfig::new().with_ring_order(order)))
    }

    #[test]
    fn push_pop_round_trips_scrubbed_rings() {
        let pool = RingPool::<Crq>::new(4);
        let r = ring(3);
        r.enqueue(7).unwrap();
        r.close();
        assert!(pool.push(r).is_ok());
        assert_eq!(pool.len(), 1);
        let r = pool.pop().expect("pooled ring");
        assert_eq!(pool.len(), 0);
        // Scrubbed: open, empty, on a fresh epoch. (Checked via indices:
        // an actual dequeue would advance head past the scrub base, and
        // reseed requires a freshly scrubbed ring.)
        assert!(!r.is_closed());
        assert_eq!(r.reuse_epoch(), 1);
        assert!(r.base_index() > 0);
        assert_eq!(r.head_index(), r.tail_index());
        r.reseed(&[5]);
        assert_eq!(r.dequeue(), Some(5));
        assert_eq!(r.dequeue(), None);
    }

    #[test]
    fn capacity_bound_is_never_exceeded() {
        let pool = RingPool::<Crq>::new(2);
        assert!(pool.push(ring(2)).is_ok());
        assert!(pool.push(ring(2)).is_ok());
        assert_eq!(pool.len(), 2);
        assert!(pool.is_full());
        // Third ring bounces back, unscrubbed.
        let r = ring(2);
        r.enqueue(9).unwrap();
        let r = pool.push(r).expect_err("pool is full");
        assert_eq!(r.dequeue(), Some(9), "bounced ring is untouched");
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn zero_capacity_disables_pooling() {
        let pool = RingPool::<Crq>::new(0);
        assert!(pool.push(ring(2)).is_err());
        assert!(pool.pop().is_none());
        assert_eq!(pool.capacity(), 0);
        assert!(pool.is_empty());
    }

    #[test]
    fn drop_frees_all_pooled_rings() {
        let pool = RingPool::<Crq>::new(16);
        for _ in 0..16 {
            assert!(pool.push(ring(2)).is_ok());
        }
        assert_eq!(pool.len(), 16);
        drop(pool); // LSan/ASan (ci.sh nightly job) verifies no leak
    }

    #[test]
    fn pop_finds_rings_parked_by_other_threads() {
        let pool = RingPool::<Crq>::new(8);
        for _ in 0..3 {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                assert!(pool.push(ring(2)).is_ok());
            })
            .join()
            .unwrap();
        }
        assert_eq!(pool.len(), 3);
        for _ in 0..3 {
            assert!(pool.pop().is_some());
        }
        assert!(pool.pop().is_none());
    }

    #[test]
    fn reuse_metric_counts_pool_hits() {
        let pool = RingPool::<Crq>::new(2);
        let before = metrics::local_snapshot();
        assert!(pool.push(ring(2)).is_ok());
        let r = pool.pop().unwrap();
        drop(r);
        let d = metrics::local_snapshot().delta_since(&before);
        assert_eq!(d.get(Event::RingScrub), 1);
        assert_eq!(d.get(Event::RingReuse), 1);
    }

    #[test]
    fn concurrent_push_pop_stress_keeps_the_bound_and_every_ring() {
        let pool = RingPool::<Crq>::new(4);
        let threads = 4;
        let rounds = 500;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    for i in 0..rounds {
                        assert!(pool.len() <= pool.capacity(), "bound violated");
                        if i % 3 == 0 {
                            // A bounced ring is still ours: drop it.
                            drop(pool.push(ring(2)));
                        } else if let Some(r) = pool.pop() {
                            r.reseed(&[i as u64 + 1]);
                            assert_eq!(r.dequeue(), Some(i as u64 + 1));
                            drop(pool.push(r));
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(pool.len() <= pool.capacity());
    }
}

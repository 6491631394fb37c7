//! Bounded recycling pool for retired rings (in practice CRQs: the one
//! [`Ring`] that can [`scrub`](Ring::scrub)).
//!
//! LCRQ's spill path allocates a fresh ring every time a CRQ closes, and the
//! hazard domain frees every retired ring — so a tantrum-heavy workload
//! churns the global allocator once per ring close and has unbounded
//! transient memory. The [`RingPool`] replaces *retire-means-free* with
//! *retire-means-recycle*: a drained ring is [scrubbed](Ring::scrub)
//! (its indices re-based onto a fresh reuse epoch so recycled
//! `(safe, idx, val)` tuples can never alias live ones) and parked on a
//! bounded lock-free freelist; the spill paths pop from the pool before
//! falling back to allocation. Steady-state spills then allocate nothing,
//! and idle memory beyond the live ring chain is bounded by
//! `capacity × R × 128` bytes.
//!
//! # Structure
//!
//! * a striped array of single-ring **shard slots**, indexed by thread, give
//!   an uncontended `XCHG`-only fast path;
//! * a **Treiber stack** overflow list whose top carries a version counter
//!   updated with CAS2, so a ring that is popped and re-pushed while a slow
//!   popper naps (the classic ABA interleaving) makes that popper's CAS fail
//!   instead of corrupting the list;
//! * a CAS-maintained length that never exceeds `capacity`, even
//!   transiently — `push` hands the ring back rather than over-filling.
//!
//! # Ownership protocol
//!
//! Rings enter by `Box` (exclusive ownership — the ring is unreachable from
//! any queue and hazard-quiescent) and leave by `Box`. The only shared-access
//! subtlety is *inside* `pop`: reading `top->next` races with a faster popper
//! that takes the ring, loses its reuse race, and retires it — so poppers
//! protect the candidate with a hazard slot before dereferencing, and every
//! free of a ring that was ever pool-visible goes through [`Domain::retire`].

// Atomics come from the sync facade so the pool's shard and length
// operations are scheduler decision points under `--cfg loom`
// (tests/loom.rs models the versioned Treiber pop's ABA window).
use lcrq_util::sync::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};

use lcrq_atomic::AtomicPair;
use lcrq_hazard::Domain;
use lcrq_util::metrics::{self, Event};

use crate::crq::Crq;
use crate::ring::Ring;

/// Upper bound on the number of shard slots (they hold rings, so they are
/// counted against `capacity`; more shards than that would be dead weight).
const MAX_SHARDS: usize = 8;

static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);
thread_local! {
    static THREAD_SLOT: core::cell::Cell<usize> = const { core::cell::Cell::new(usize::MAX) };
}

/// Small dense thread index for shard striping (assigned on first use).
/// Inside a model execution the model's own thread id is used instead: the
/// global counter's value depends on how many executions ran before this
/// one, which would make shard choice differ between a schedule's first
/// run and its replay.
fn thread_slot() -> usize {
    #[cfg(loom)]
    if let Some(id) = lcrq_util::model::current_thread_id() {
        return id;
    }
    THREAD_SLOT.with(|c| {
        let mut v = c.get();
        if v == usize::MAX {
            v = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            c.set(v);
        }
        v
    })
}

/// A bounded lock-free pool of scrubbed, ready-to-reseed rings. See the
/// [module docs](self) for the design and ownership protocol.
pub struct RingPool<R: Ring = Crq> {
    /// Treiber-stack top as `(version, ring ptr)`: the version advances on
    /// every successful push/pop, defusing ABA on the pointer.
    top: AtomicPair,
    /// Per-thread single-ring cache slots (XCHG in and out, never
    /// dereferenced while shared).
    shards: Box<[AtomicPtr<R>]>,
    /// Rings currently in the pool. Maintained with CAS reservation so it
    /// never exceeds `capacity`, even transiently.
    len: AtomicUsize,
    capacity: usize,
}

// SAFETY: rings are transferred whole (Box in, Box out) through atomics;
// while pooled they are touched only via their atomic fields.
unsafe impl<R: Ring> Send for RingPool<R> {}
unsafe impl<R: Ring> Sync for RingPool<R> {}

impl<R: Ring> RingPool<R> {
    /// Creates a pool holding at most `capacity` rings (0 disables pooling:
    /// every `push` bounces and every `pop` misses).
    pub fn new(capacity: usize) -> Arc<Self> {
        let shards = if capacity == 0 {
            0
        } else {
            capacity.min(MAX_SHARDS)
        };
        Arc::new(Self {
            top: AtomicPair::new(0, 0),
            shards: (0..shards)
                .map(|_| AtomicPtr::new(core::ptr::null_mut()))
                .collect(),
            len: AtomicUsize::new(0),
            capacity,
        })
    }

    /// Maximum number of rings the pool will hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Rings currently pooled (racy snapshot; never exceeds
    /// [`capacity`](Self::capacity)).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::SeqCst)
    }

    /// Whether the pool currently holds no rings (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the pool is at capacity (racy snapshot).
    pub fn is_full(&self) -> bool {
        self.len() >= self.capacity
    }

    /// Scrubs `ring` and parks it for reuse. Hands the ring back unscrubbed
    /// when the pool is full (or disabled), and hands it back *scrub-refused*
    /// when its index space is nearly exhausted — either way the caller must
    /// dispose of it (see the module docs: if the ring was ever pool-visible
    /// that disposal must go through [`Domain::retire`], because a
    /// concurrent [`pop`](Self::pop) may still hold a hazard-protected
    /// pointer to it from a lost race).
    ///
    /// Taking the ring by `Box` is what makes scrubbing sound: exclusive
    /// ownership proves no in-flight protocol operation can observe the
    /// reset.
    pub fn push(&self, ring: Box<R>) -> Result<(), Box<R>> {
        // Reserve a slot first; CAS (not F&A) so `len <= capacity` is a hard
        // invariant rather than a transiently-violated one.
        let mut len = self.len.load(Ordering::SeqCst);
        loop {
            if len >= self.capacity {
                return Err(ring);
            }
            match self
                .len
                .compare_exchange(len, len + 1, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => break,
                Err(cur) => len = cur,
            }
        }
        // Fail point around the scrub: the ring is exclusively owned here, so
        // a stall/panic leaks at most this one ring, never corrupts the pool.
        let _ = lcrq_util::fault::inject(lcrq_util::fault::Site::PoolScrub);
        if !ring.scrub() {
            // Scrub refused (index space nearly exhausted): die, not recycle.
            self.len.fetch_sub(1, Ordering::SeqCst);
            return Err(ring);
        }
        let raw = Box::into_raw(ring);
        // Fast path: the calling thread's shard slot, if free.
        if !self.shards.is_empty() {
            let shard = &self.shards[thread_slot() % self.shards.len()];
            if shard
                .compare_exchange(
                    core::ptr::null_mut(),
                    raw,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                )
                .is_ok()
            {
                return Ok(());
            }
        }
        // Overflow: Treiber stack, version bumped so in-flight pops of the
        // old top fail instead of acting on a recycled pointer.
        loop {
            let (version, top) = self.top.load();
            // SAFETY: `raw` is exclusively ours until the CAS below publishes
            // it. `next` doubles as the freelist link while pooled (scrub
            // nulled it; a pop re-nulls it before handing the ring out).
            unsafe { (*raw).next().store(top as *mut R, Ordering::Release) };
            if self
                .top
                .compare_exchange((version, top), (version + 1, raw as u64))
                .is_ok()
            {
                return Ok(());
            }
        }
    }

    /// Pops a scrubbed ring, ready to [`reseed`](Ring::reseed).
    ///
    /// `domain`/`slot` name a hazard slot of the calling thread, used to
    /// protect the stack-pop candidate while its `next` link is read: a
    /// faster popper may take that ring, lose its reuse race, and retire it,
    /// and only the hazard keeps the retirement from freeing it under us.
    /// The slot is left clear on return.
    ///
    /// Every concurrent user of one pool must therefore pass slots of the
    /// **same** shared `Domain` (a queue passes its own), and any free of a
    /// ring that was ever pool-visible must go through that domain's
    /// [`retire`](Domain::retire) — a hazard in a domain the freeing thread
    /// never consults protects nothing.
    pub fn pop(&self, domain: &Domain, slot: usize) -> Option<Box<R>> {
        if self.capacity == 0 {
            return None;
        }
        let shards = self.shards.len();
        let s = if shards == 0 {
            0
        } else {
            thread_slot() % shards
        };
        // Own shard first: XCHG only, nothing is dereferenced while shared.
        if shards > 0 {
            let p = self.shards[s].swap(core::ptr::null_mut(), Ordering::AcqRel);
            if !p.is_null() {
                return Some(self.take(p));
            }
        }
        // Treiber stack.
        loop {
            let (version, raw) = self.top.load();
            let p = raw as *mut R;
            if p.is_null() {
                break;
            }
            // Publish the hazard, then re-validate the top: if it moved, `p`
            // may already be popped (and even retired/freed) — retry without
            // dereferencing it.
            domain.protect_raw(slot, p as *mut ());
            // Fail point inside the protect→revalidate window: a delay here
            // maximizes the chance a racing popper retires `p` while our
            // hazard is the only thing keeping it alive.
            let _ = lcrq_util::fault::inject(lcrq_util::fault::Site::PoolPop);
            if self.top.load() != (version, raw) {
                continue;
            }
            // SAFETY: `p` was the stack top after our hazard was published,
            // so any retirement of `p` from here on must observe the hazard
            // and defer its reclamation.
            let next = unsafe { (*p).next().load(Ordering::Acquire) };
            if self
                .top
                .compare_exchange((version, raw), (version + 1, next as u64))
                .is_ok()
            {
                domain.clear(slot);
                return Some(self.take(p));
            }
        }
        domain.clear(slot);
        // Last resort: raid the other threads' shard slots (still pure XCHG).
        for i in 1..shards {
            let p = self.shards[(s + i) % shards].swap(core::ptr::null_mut(), Ordering::AcqRel);
            if !p.is_null() {
                return Some(self.take(p));
            }
        }
        None
    }

    /// Converts an exclusively-claimed raw ring back into a `Box`.
    fn take(&self, p: *mut R) -> Box<R> {
        self.len.fetch_sub(1, Ordering::SeqCst);
        metrics::inc(Event::RingReuse);
        // SAFETY: `p` came from `Box::into_raw` in `push` and the caller
        // holds the unique claim (XCHG of a shard slot or a successful
        // version-CAS pop).
        let ring = unsafe { Box::from_raw(p) };
        // While pooled, `next` served as the freelist link; the ring leaves
        // the pool unlinked.
        ring.next().store(core::ptr::null_mut(), Ordering::Relaxed);
        ring
    }
}

impl<R: Ring> Drop for RingPool<R> {
    fn drop(&mut self) {
        // Exclusive access: pop everything and free it. Entries are walked
        // through their freelist links — which, by the push/pop protocol,
        // never point into any queue's live chain (scrub nulls the link and
        // push only ever aims it at another pooled ring), so this cannot
        // double-free a chain-reachable ring.
        for shard in self.shards.iter() {
            let p = shard.swap(core::ptr::null_mut(), Ordering::AcqRel);
            if !p.is_null() {
                // SAFETY: pooled rings are exclusively owned by the pool.
                drop(unsafe { Box::from_raw(p) });
            }
        }
        let (_, mut raw) = self.top.load();
        while raw != 0 {
            let p = raw as *mut R;
            // SAFETY: as above; the freelist is ours alone now.
            let ring = unsafe { Box::from_raw(p) };
            raw = ring.next().load(Ordering::Acquire) as u64;
            drop(ring);
        }
    }
}

impl<R: Ring> core::fmt::Debug for RingPool<R> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RingPool")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .field("shards", &self.shards.len())
            .finish()
    }
}

/// Reclamation callback for [`Domain::retire_with`]: once the hazard domain
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
        // `push` scrubs; on Err the ring was never made pool-visible *this
        // retirement* and no reference to it survives (we are its reclaimer),
        // so dropping it directly is sound.
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
        let domain = Domain::new();
        let r = ring(3);
        r.enqueue(7).unwrap();
        r.close();
        assert!(pool.push(r).is_ok());
        assert_eq!(pool.len(), 1);
        let r = pool.pop(&domain, 0).expect("pooled ring");
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
        let domain = Domain::new();
        assert!(pool.push(ring(2)).is_err());
        assert!(pool.pop(&domain, 0).is_none());
        assert_eq!(pool.capacity(), 0);
        assert!(pool.is_empty());
    }

    #[test]
    fn drop_frees_all_pooled_rings() {
        // More rings than shard slots, so both the shards and the Treiber
        // stack hold entries at drop time.
        let pool = RingPool::<Crq>::new(16);
        for _ in 0..16 {
            assert!(pool.push(ring(2)).is_ok());
        }
        assert_eq!(pool.len(), 16);
        drop(pool); // LSan/ASan (ci.sh nightly job) verifies no leak
    }

    #[test]
    fn pop_scans_other_threads_shards() {
        let pool = RingPool::<Crq>::new(8);
        let domain = Domain::new();
        // Fill from other threads so the rings land in foreign shard slots.
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
            assert!(pool.pop(&domain, 0).is_some());
        }
        assert!(pool.pop(&domain, 0).is_none());
    }

    #[test]
    fn reuse_metric_counts_pool_hits() {
        let pool = RingPool::<Crq>::new(2);
        let domain = Domain::new();
        let before = metrics::local_snapshot();
        assert!(pool.push(ring(2)).is_ok());
        let r = pool.pop(&domain, 0).unwrap();
        drop(r);
        let d = metrics::local_snapshot().delta_since(&before);
        assert_eq!(d.get(Event::RingScrub), 1);
        assert_eq!(d.get(Event::RingReuse), 1);
    }

    #[test]
    fn concurrent_push_pop_stress_keeps_the_bound_and_every_ring() {
        let pool = RingPool::<Crq>::new(4);
        // One domain shared by every pool user, exactly as a queue shares
        // its own domain: pop's hazard protection is only meaningful if the
        // thread that frees a pool-visible ring retires it where that hazard
        // is visible.
        let domain = Arc::new(Domain::new());
        let threads = 4;
        let rounds = 500;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let domain = Arc::clone(&domain);
                std::thread::spawn(move || {
                    for i in 0..rounds {
                        assert!(pool.len() <= pool.capacity(), "bound violated");
                        if i % 3 == 0 {
                            if let Err(r) = pool.push(ring(2)) {
                                // Never pool-visible: direct drop is fine.
                                drop(r);
                            }
                        } else if let Some(r) = pool.pop(&domain, 0) {
                            r.reseed(&[i as u64 + 1]);
                            assert_eq!(r.dequeue(), Some(i as u64 + 1));
                            if let Err(r) = pool.push(r) {
                                // Was pool-visible: a concurrent popper may
                                // still hold a hazard on it, so free through
                                // the shared domain.
                                unsafe { domain.retire(Box::into_raw(r)) };
                            }
                        }
                    }
                    domain.eager_reclaim();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(pool.len() <= pool.capacity());
        domain.eager_reclaim();
    }
}

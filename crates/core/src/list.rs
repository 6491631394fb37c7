//! The list of rings (paper §4.2, Figure 5): one Michael–Scott list,
//! generic over the [`Ring`] it links. [`Lcrq`] is this list over
//! [`Crq`]s, [`Lscq`] over [`ScqD`]s, [`Wcq`] over [`WcqRing`]s — the SCQ
//! and wCQ papers define their unbounded queues as exactly that.
//!
//! Dequeuers work in the head ring, enqueuers in the tail ring. An enqueue
//! that finds the tail ring closed allocates a fresh ring *pre-seeded with
//! its item* and races to link it; the winner is done, losers move into the
//! new ring. A dequeue that finds the head ring empty tries once more
//! (the December-2013 erratum: without the second attempt an item enqueued
//! between the first dequeue and the `next` check can be lost) and then
//! swings `head` to the next ring, retiring the old one through hazard
//! pointers, which free it once no thread's hazard slot names it — every
//! list, whatever its ring type, allocates, retires and frees rings on
//! this one path.
//!
//! A dequeue that follows this thread's EMPTY on the same head ring first
//! asks the ring to prove, read-only, that it is still empty
//! ([`Ring::proves_empty`]); if it is, and `next` is still null, the answer
//! is EMPTY without a ticket. A poller on an empty [`Lcrq`] then stops
//! writing the `tail` word and the nodes the next enqueuer needs.
//!
//! # Ring sizes: a small first ring, then full-size rings
//!
//! The list chooses each ring's size. The first ring has `2^FIRST_ORDER`
//! = 256 slots (or `2^ring_order`, if that is smaller), and every spill
//! links a full-size ring of `2^`[`ring_order`](LcrqConfig::ring_order).
//! So a queue that never holds more than 256 items carries a 4 KiB ring,
//! not a 64 KiB one, and a queue that once overflowed its first ring runs
//! on full-size rings, as if it had started with them. Two sizes, not a
//! ladder: a ring that grew with every spill would end at the size the
//! queue's largest backlog needed, so the footprint of a busy queue would
//! follow the worst scheduling stall it ever met; with two sizes it
//! depends only on whether the queue ever held more than 256 items.
//! Nothing else depends on a ring's size: the seal, the erratum
//! double-check and hazard publication never read it.
//!
//! # Shutdown: the seal
//!
//! [`close`](RingList::close) linearizes **on the list itself**: it closes
//! the last ring and then CASes a `SEALED` sentinel into that ring's `next`
//! (`null → SEALED`). A ring's `next` leaves null exactly once, so the seal
//! and a spilling enqueuer's link CAS exclude each other: either the link
//! wins (close moves on to the new last ring and seals that) or the seal
//! wins (the enqueuer gets its value back as `Err`). Once the seal is in
//! place every ring of the chain is closed and no `next` can change, so *no
//! enqueue can succeed any more*: every `Ok` item is linked in front of the
//! seal, where dequeuers reach it first. A dequeue that sees the seal
//! re-arms and re-checks the last ring, so its `None` means the queue is
//! empty for good, and [`is_closed`](RingList::is_closed) turns true only
//! after the seal. An operation that does not race a close pays one pointer
//! compare on a `next` it had already loaded — no counter, no extra RMW.
//! `tests/loom.rs` model-checks this against a consumer's settle poll, next
//! to a flag-then-walk twin that loses an item. DESIGN.md "List of rings"
//! has the full argument.
//!
//! Progress: op-wise nonblocking (§4.2.1) — some enqueue always completes
//! in a finite number of enqueuer steps (closing + linking always succeeds
//! for someone), and likewise for dequeues.

use core::cell::Cell;
use core::sync::atomic::Ordering;

use lcrq_atomic::{ops, CasLoopFaa, HardwareFaa};
use lcrq_hazard::Domain;
use lcrq_util::backoff::Backoff;
use lcrq_util::spin::SpinDeadline;
// Atomics come from the sync facade so every step of the list protocol is
// a scheduler decision point under `--cfg loom` (tests/loom.rs models
// enqueue × close × the consumer's settle poll).
use lcrq_util::sync::{AtomicBool, AtomicPtr};
use lcrq_util::topology::current_cluster;
use lcrq_util::CachePadded;

use crate::config::LcrqConfig;
use crate::crq::Crq;
use crate::ring::Ring;
use crate::scq::ScqD;
use crate::wcq::WcqRing;
use crate::BOTTOM;

/// The LCRQ with hardware fetch-and-add — the paper's headline algorithm.
pub type Lcrq = RingList<Crq<HardwareFaa>>;
/// LCRQ-CAS: the identical algorithm with F&A emulated by a CAS loop; used
/// to isolate the contribution of always-succeeding F&A (paper §5).
pub type LcrqCas = RingList<Crq<CasLoopFaa>>;
/// The LCRQ over an arbitrary fetch-and-add policy.
pub type LcrqGeneric<P> = RingList<Crq<P>>;

/// LSCQ: the list over [`ScqD`] rings — single-word CAS only, so the one
/// unbounded queue here that would run on non-x86 targets unchanged.
pub type Lscq = RingList<ScqD<HardwareFaa>>;
/// LSCQ-CAS, mirroring [`LcrqCas`] for the ablation.
pub type LscqCas = RingList<ScqD<CasLoopFaa>>;
/// The LSCQ over an arbitrary fetch-and-add policy.
pub type LscqGeneric<P> = RingList<ScqD<P>>;

/// wCQ: the list over wait-free [`WcqRing`]s. Per-operation work inside a
/// ring is bounded, so a stalled peer cannot starve survivors.
pub type Wcq = RingList<WcqRing<HardwareFaa>>;
/// The wCQ list over an arbitrary fetch-and-add policy.
pub type WcqGeneric<P = HardwareFaa> = RingList<WcqRing<P>>;

/// An unbounded, linearizable, op-wise nonblocking MPMC FIFO queue of `u64`
/// values (`< BOTTOM`): rings of type `R` on a Michael–Scott list.
///
/// ```
/// use lcrq_core::{Lcrq, Lscq, Wcq};
/// let q = Lcrq::new();
/// q.enqueue(10);
/// assert_eq!(q.dequeue(), Some(10));
/// assert_eq!(q.dequeue(), None);
/// // Same list, other rings.
/// let (s, w) = (Lscq::new(), Wcq::new());
/// s.enqueue(1);
/// w.enqueue(2);
/// assert_eq!((s.dequeue(), w.dequeue()), (Some(1), Some(2)));
/// ```
pub struct RingList<R: Ring> {
    head: CachePadded<AtomicPtr<R>>,
    tail: CachePadded<AtomicPtr<R>>,
    domain: Domain,
    config: LcrqConfig,
    /// Set once the seal is in place, so [`is_closed`](Self::is_closed) is
    /// one load. The seal, not this flag, is what fences enqueuers.
    closed: AtomicBool,
}

/// Hazard slot for the head ring (`dequeue`, `dequeue_batch`,
/// `is_empty_hint`, and where `ring_count` starts).
///
/// The list keeps its slots published between calls: a ring changes once
/// per `R` operations, and [`Domain::protect`] publishes nothing while the
/// slot already names the ring `head`/`tail` names — so an operation on an
/// unchanged ring is the ring's F&A and CAS2 and no third locked
/// instruction. A slot is cleared exactly where its thread learns the ring
/// is no longer the one to use: a dequeue that answers EMPTY, an enqueue
/// that finds the ring closed (spill, refused allocation, seal), and the
/// head swing. So an idle thread pins at most the ring it last enqueued
/// into and the ring it last dequeued from, and one that saw EMPTY, spilled
/// or exited pins nothing.
const HP_HEAD: usize = 0;
/// Hazard slot for the tail ring ([`RingList::last_ring`]); its own slot, so
/// a thread alternating enqueue and dequeue on a queue deeper than one ring
/// does not evict itself.
const HP_TAIL: usize = 1;
/// The moving hazard slot of [`RingList::ring_count`]'s walk.
const HP_WALK: usize = 2;

/// log2 of the first ring's size (capped at `ring_order`). 256 slots hold
/// a 12 ms consumer stall at 20 000 msg/s; 64 overflowed in a third of the
/// 0.7 s `openloop_sparse` repetitions on a 2-CPU host (EXPERIMENTS.md "A
/// queue that starts small"). 1 under the model checker, so a model with
/// `ring_order` 2 crosses the spill from the small ring to a full one.
const FIRST_ORDER: u32 = if cfg!(loom) { 1 } else { 8 };

thread_local! {
    /// The address of the head ring on which this thread's last
    /// [`RingList::dequeue`] answered EMPTY, or 0. A hint, not a proof: the
    /// next dequeue on that ring first asks [`Ring::proves_empty`], and a
    /// stale address (another queue's ring, or a ring freed and allocated
    /// again at the same address) costs one proof attempt.
    static EMPTY_ON: Cell<usize> = const { Cell::new(0) };
}

impl<R: Ring> RingList<R> {
    /// What [`close`](Self::close) stores in the last ring's `next`: not
    /// null, not a ring (rings are aligned far above 1), never dereferenced.
    /// Every walk of the chain stops at it.
    const SEALED: *mut R = core::ptr::without_provenance_mut(1);

    /// Creates an empty queue with the default [`LcrqConfig`].
    pub fn new() -> Self {
        Self::with_config(LcrqConfig::default())
    }

    /// Creates an empty queue with an explicit configuration
    /// (`ring_order` caps the per-ring capacity, see the [module
    /// docs](self); knobs a ring type has no use for — hierarchy, bounded
    /// wait outside the CRQ — are ignored by it).
    pub fn with_config(config: LcrqConfig) -> Self {
        let order = FIRST_ORDER.min(config.ring_order);
        let first = Box::into_raw(Box::new(R::new(&config, order)));
        Self {
            head: CachePadded::new(AtomicPtr::new(first)),
            tail: CachePadded::new(AtomicPtr::new(first)),
            domain: Domain::new(),
            config,
            closed: AtomicBool::new(false),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &LcrqConfig {
        &self.config
    }

    /// The queue's hazard-pointer domain (diagnostic: lets tests count the
    /// calling thread's retired rings). The list scans at every ring it
    /// retires; a ring outlives its retirement only while a hazard slot
    /// names it, so the backlog stays bounded even while other participants
    /// are stalled holding published hazards.
    pub fn hazard_domain(&self) -> &Domain {
        &self.domain
    }

    /// Allocates a fresh full-size open ring seeded with `seed`.
    ///
    /// Returns `None` only when the allocation was refused — today that
    /// refusal exists only as the `ring-alloc` fail point.
    /// [`spill`](Self::spill) backs off and retries it; nothing reports it.
    fn try_alloc_ring(&self, seed: &[u64]) -> Option<*mut R> {
        if lcrq_util::fault::inject(lcrq_util::fault::Site::RingAlloc) {
            return None;
        }
        let ring = R::with_seed(&self.config, self.config.ring_order, seed);
        Some(Box::into_raw(Box::new(ring)))
    }

    /// LCRQ+H cluster gate (§4.1.1): wait briefly for the ring's cluster to
    /// become ours, then seize it and enter regardless — so the optimization
    /// batches same-cluster operations without ever blocking.
    #[inline]
    fn cluster_gate(&self, ring: &R) {
        let (Some(h), Some(cluster)) = (&self.config.hierarchical, ring.cluster()) else {
            return;
        };
        let mine = current_cluster() as u64;
        if cluster.load(Ordering::Relaxed) == mine {
            return;
        }
        let deadline = SpinDeadline::new(h.timeout);
        loop {
            if cluster.load(Ordering::Relaxed) == mine {
                return;
            }
            if deadline.expired() {
                let seen = cluster.load(Ordering::Relaxed);
                let _ = ops::cas(cluster, seen, mine);
                return; // enter even if the CAS failed
            }
            deadline.pause();
        }
    }

    /// Appends `value` (must be `< BOTTOM`). Figure 5c.
    ///
    /// # Panics
    ///
    /// Panics if the queue has been [`close`](Self::close)d; use
    /// [`try_enqueue`](Self::try_enqueue) when shutdown is possible.
    pub fn enqueue(&self, value: u64) {
        if self.try_enqueue(value).is_err() {
            panic!(
                "enqueue on a closed {} (use try_enqueue to handle shutdown)",
                self.name()
            );
        }
    }

    /// Appends `value` (must be `< BOTTOM`) unless the queue has been
    /// [`close`](Self::close)d, in which case the value is handed back as
    /// `Err(value)`. `Ok` means the item is in the queue and a dequeue will
    /// return it — also when the enqueue raced the close (see the
    /// [module docs](self) on the seal).
    pub fn try_enqueue(&self, value: u64) -> Result<(), u64> {
        assert!(value != BOTTOM, "BOTTOM (u64::MAX) is reserved");
        let mut backoff: Option<Backoff> = None;
        loop {
            let Some(ring) = self.last_ring() else {
                return Err(value);
            };
            self.cluster_gate(ring);
            if ring.enqueue(value).is_ok() {
                return Ok(());
            }
            let linked = self.spill(ring, core::slice::from_ref(&value), &mut backoff);
            if linked.ok_or(value)? {
                return Ok(());
            }
        }
    }

    /// The spill step of both enqueues, taken once `last` is found closed —
    /// by a tantrum or by `close()`; they look the same here and need not
    /// be told apart: the link CAS decides. Races to link a fresh ring
    /// pre-seeded with `seed` after `last`, and clears [`HP_TAIL`] whatever
    /// happens.
    ///
    /// `Some(true)`: linked, `seed` is in the queue. `None`: the seal won,
    /// the queue is closed. `Some(false)`: back off and start again from
    /// [`last_ring`](Self::last_ring) — either another ring won the link
    /// race (it has room, but under heavy churn repeated losses waste an
    /// allocation each round, and the jitter de-synchronizes the
    /// contenders) or the allocation was refused, which is transient (an
    /// injected refusal is probabilistic).
    #[cold]
    fn spill(&self, last: &R, seed: &[u64], backoff: &mut Option<Backoff>) -> Option<bool> {
        let linked = self.try_alloc_ring(seed).map(|r| self.try_link(last, r));
        match linked {
            Some(Ok(())) => return Some(true),
            Some(Err(found)) if found == Self::SEALED => return None,
            Some(Err(_)) => {}
            None => self.domain.clear(HP_TAIL),
        }
        backoff.get_or_insert_with(Backoff::jittered).spin();
        Some(false)
    }

    /// Protects (in [`HP_TAIL`]) and returns the last ring of the chain,
    /// helping a half-finished append on the way: `tail` must point at the
    /// last ring. `None`, with the slot cleared, once the list is sealed.
    #[inline]
    fn last_ring(&self) -> Option<&R> {
        loop {
            let ring = self.domain.protect(HP_TAIL, &self.tail);
            // SAFETY: `ring` is hazard-protected, so it cannot be reclaimed
            // until the slot is cleared or re-used; callers drop the
            // reference before either.
            let ring_ref = unsafe { &*ring };
            let next = ring_ref.next().load(Ordering::SeqCst);
            if next.is_null() {
                return Some(ring_ref);
            }
            if next == Self::SEALED {
                self.domain.clear(HP_TAIL);
                return None;
            }
            let _ = ops::ptr::cas_ptr(&self.tail, ring, next);
        }
    }

    /// Races to link `newring` (unpublished, uniquely owned) after `last`,
    /// which the caller found closed; clears [`HP_TAIL`] either way. On a
    /// loss the ring is freed and the winner — another ring, or the seal —
    /// is returned.
    fn try_link(&self, last: &R, newring: *mut R) -> Result<(), *mut R> {
        // Fail point in the close-race window: between observing the closed
        // ring and racing to link a replacement.
        let _ = lcrq_util::fault::inject(lcrq_util::fault::Site::CloseRace);
        let linked = ops::ptr::cas_ptr(last.next(), core::ptr::null_mut(), newring);
        match linked {
            Ok(()) => {
                let _ = ops::ptr::cas_ptr(&self.tail, last as *const R as *mut R, newring);
            }
            // SAFETY: the CAS failed, so newring is still unpublished and
            // uniquely owned: no hazard can name it.
            Err(_) => drop(unsafe { Box::from_raw(newring) }),
        }
        self.domain.clear(HP_TAIL);
        linked
    }

    /// Closes the queue for further enqueues: every subsequent
    /// [`try_enqueue`](Self::try_enqueue) fails and [`enqueue`](Self::enqueue)
    /// panics, while dequeues continue to drain what was already placed.
    /// Returns `true` if this call placed the seal, `false` if the queue
    /// was already closed.
    ///
    /// The seal invariant (see the [module docs](self)): the last ring is
    /// closed *before* `SEALED` is CASed into its `next`, and a `next`
    /// leaves null only once — so there is no window in which an accepted
    /// item can appear after a consumer has seen "closed and empty".
    pub fn close(&self) -> bool {
        let mut sealed_here = false;
        while let Some(ring) = self.last_ring() {
            ring.close();
            // Losing this CAS means a link or a concurrent seal got there
            // first: look for the last ring again.
            sealed_here =
                ops::ptr::cas_ptr(ring.next(), core::ptr::null_mut(), Self::SEALED).is_ok();
        }
        // Raised by every closer, not only the one that sealed: no close()
        // returns before is_closed() is true.
        self.closed.store(true, Ordering::SeqCst);
        sealed_here
    }

    /// Whether the queue is closed. Never `true` before the seal is in
    /// place: a dequeue that starts after observing `true` finds the chain
    /// frozen, so its `None` is final.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// Removes the oldest value, or `None` when the queue is empty.
    /// Figure 5b (December-2013 corrected version).
    pub fn dequeue(&self) -> Option<u64> {
        loop {
            let ring = self.domain.protect(HP_HEAD, &self.head);
            // SAFETY: hazard-protected.
            let ring_ref = unsafe { &*ring };
            self.cluster_gate(ring_ref);
            if R::PROVES_EMPTY && EMPTY_ON.get() == ring as usize {
                // An EMPTY after an EMPTY: the ring was empty at the proof's
                // instant, and a null `next` read after it says it was the
                // last ring then too, so the queue was empty at that instant.
                if ring_ref.proves_empty() && ring_ref.next().load(Ordering::SeqCst).is_null() {
                    self.domain.clear(HP_HEAD);
                    return None;
                }
                EMPTY_ON.set(0);
            }
            if let Some(v) = ring_ref.dequeue() {
                return Some(v);
            }
            let next = ring_ref.next().load(Ordering::SeqCst);
            if next.is_null() {
                self.domain.clear(HP_HEAD);
                if R::PROVES_EMPTY {
                    EMPTY_ON.set(ring as usize);
                }
                return None;
            }
            // Linked or sealed, so this ring is closed for good. An enqueue
            // may have slipped into it between our failed dequeue and the
            // `next` read (the ring closes *after* accepting its last
            // items). Re-check before giving up on the ring — the erratum
            // fix (Figure 5b lines 146-147) — and first re-arm it, so a
            // ring with an EMPTY shortcut (SCQ's threshold: the racing
            // enqueue may have published its entry without yet resetting
            // the counter) really scans. The ring is closed, so its tail is
            // frozen and the scan terminates.
            ring_ref.rearm();
            if let Some(v) = ring_ref.dequeue() {
                return Some(v);
            }
            if next == Self::SEALED {
                // Last ring of a closed queue, and empty after the seal:
                // nothing can be enqueued any more, this EMPTY is final.
                self.domain.clear(HP_HEAD);
                return None;
            }
            if ops::ptr::cas_ptr(&self.head, ring, next).is_ok() {
                // Drop our own protection first — the tail slot's too, if
                // this is the ring we last enqueued into — so the scan
                // below can free `ring` immediately (we are done touching
                // it).
                self.domain.clear(HP_HEAD);
                if self.domain.protected(HP_TAIL) == ring as *mut () {
                    self.domain.clear(HP_TAIL);
                }
                // SAFETY: every ring comes from `Box::into_raw`, and only
                // the winner of this swing retires `ring`, once. It is now
                // unreachable from the queue (head moved past it and
                // enqueuers long since moved to `next` or later); hazard
                // retirement defers the free until no operation still holds
                // it protected.
                unsafe { self.domain.retire(ring) };
                // One scan per retired ring, not the domain's threshold: a
                // ring serves 2^ring_order operations, so the scan is cheap
                // beside them, and a drained ring leaves the heap now unless
                // another thread's slot still names it.
                self.domain.scan();
            }
            // Swing lost: someone else retires `ring`, and the next round's
            // `protect` moves HP_HEAD to the new head ring.
        }
    }

    /// Appends every value in `values` (all must be `< BOTTOM`) through the
    /// ring's batch path — on a CRQ one `FAA(tail, k)` claims up to `k`
    /// consecutive indices of the tail ring, which are then filled with the
    /// ordinary per-slot CAS2 protocol (see [`Ring::enqueue_batch`]); rings
    /// without a reservation path place the items one by one.
    ///
    /// **Linearizability**: this is *not* an atomic multi-enqueue. It
    /// linearizes as `values.len()` individual enqueues in slice order;
    /// items covered by one reservation additionally occupy contiguous
    /// queue positions. When the tail ring closes mid-batch (tantrum), the
    /// unplaced remainder spills into the fresh ring this thread races to
    /// append — pre-seeded via [`Ring::with_seed`] so the spill costs
    /// no further F&As — and a concurrent enqueuer may slip between the two
    /// reservations. See DESIGN.md "Batched operations".
    ///
    /// # Panics
    ///
    /// Panics if the queue has been [`close`](Self::close)d; use
    /// [`try_enqueue_batch`](Self::try_enqueue_batch) when shutdown is
    /// possible (a close racing mid-batch can leave a prefix placed — the
    /// panic reports nothing was rolled back).
    pub fn enqueue_batch(&self, values: &[u64]) {
        if let Err(placed) = self.try_enqueue_batch(values) {
            panic!(
                "enqueue_batch on a closed {} ({placed}/{} items placed; \
                 use try_enqueue_batch to handle shutdown)",
                self.name(),
                values.len()
            );
        }
    }

    /// Batch counterpart of [`try_enqueue`](Self::try_enqueue): appends
    /// every value unless the queue is [`close`](Self::close)d. On shutdown
    /// `Err(placed)` reports how many leading items of `values` made it into
    /// the queue before the seal (they will be drained by receivers like
    /// any other items); the remainder `values[placed..]` was not enqueued
    /// and stays owned by the caller.
    pub fn try_enqueue_batch(&self, values: &[u64]) -> Result<(), usize> {
        for &v in values {
            assert!(v != BOTTOM, "BOTTOM (u64::MAX) is reserved");
        }
        let mut rest = values;
        let mut placed_total = 0usize;
        let mut backoff: Option<Backoff> = None;
        while !rest.is_empty() {
            let Some(ring) = self.last_ring() else {
                return Err(placed_total);
            };
            self.cluster_gate(ring);
            let placed = ring.enqueue_batch(rest);
            placed_total += placed;
            rest = &rest[placed..];
            if rest.is_empty() {
                break;
            }
            if !ring.is_closed() {
                // The reservation ran out of usable slots but the ring is
                // still open: take a fresh reservation for the remainder.
                continue;
            }
            // Ring closed mid-batch: spill the remainder, up to one ring's
            // worth, exactly like the scalar path's seeded ring.
            let seed_len = (rest.len() as u64).min(self.config.ring_size()) as usize;
            let linked = self.spill(ring, &rest[..seed_len], &mut backoff);
            if linked.ok_or(placed_total)? {
                placed_total += seed_len;
                rest = &rest[seed_len..];
            }
        }
        Ok(())
    }

    /// Removes up to `max` of the oldest values, appending them to `out` in
    /// queue order; returns how many were removed. A return `< max` is a
    /// linearizable EMPTY observation, exactly like a scalar
    /// [`dequeue`](Self::dequeue) returning `None`.
    ///
    /// On a CRQ this reserves head indices in bulk — one `FAA(head, k)` for
    /// up to `k` items, bounded by the observed backlog (see
    /// [`Ring::dequeue_batch`]). When the ring's batch path finds nothing it
    /// falls back to one scalar dequeue, which performs the December-2013
    /// erratum double-check and the head-ring switch, then resumes on the
    /// new ring. Each removed item linearizes as an individual dequeue;
    /// items of one reservation are consecutive in queue order.
    pub fn dequeue_batch(&self, out: &mut Vec<u64>, max: usize) -> usize {
        let mut taken = 0usize;
        while taken < max {
            let ring = self.domain.protect(HP_HEAD, &self.head);
            // SAFETY: hazard-protected.
            let ring_ref = unsafe { &*ring };
            self.cluster_gate(ring_ref);
            let got = ring_ref.dequeue_batch(out, max - taken);
            taken += got;
            if got > 0 {
                continue;
            }
            // The ring's batch path found nothing: one scalar dequeue
            // settles emptiness (erratum double-check) and switches rings.
            match self.dequeue() {
                Some(v) => {
                    out.push(v);
                    taken += 1;
                }
                // Linearizable EMPTY; `dequeue` cleared HP_HEAD on it, the
                // only way out of this loop with `taken < max`.
                None => break,
            }
        }
        taken
    }

    /// Whether the queue appears empty (racy snapshot; `dequeue` is the
    /// linearizable way to observe emptiness).
    pub fn is_empty_hint(&self) -> bool {
        let ring = self.domain.protect(HP_HEAD, &self.head);
        // SAFETY: hazard-protected.
        let ring_ref = unsafe { &*ring };
        let next = ring_ref.next().load(Ordering::SeqCst);
        let empty = ring_ref.head_index() >= ring_ref.tail_index()
            && (next.is_null() || next == Self::SEALED);
        if empty {
            self.domain.clear(HP_HEAD);
        }
        empty
    }

    /// Number of rings currently linked (diagnostic; a racy snapshot, but
    /// safe to take while other threads enqueue, dequeue and retire rings).
    pub fn ring_count(&self) -> usize {
        let count = 'walk: loop {
            // `start` stays pinned for the whole walk, so it cannot be
            // freed and reallocated, and `head == start` below cannot be an
            // ABA.
            let start = self.domain.protect(HP_HEAD, &self.head);
            let (mut cur, mut count) = (start, 1);
            loop {
                // SAFETY: `cur` is `start`, or was published in HP_WALK
                // while `head` was still `start` (below). `cur` is finished
                // with once its `next` is read, so one moving slot suffices.
                let next = unsafe { (*cur).next().load(Ordering::SeqCst) };
                if next.is_null() || next == Self::SEALED {
                    break 'walk count;
                }
                self.domain.protect_raw(HP_WALK, next as *mut ());
                // Rings are retired in list order as `head` passes them:
                // while `head` is `start`, no ring at or after it has been
                // retired, so the publication above came in time.
                if self.head.load(Ordering::SeqCst) != start {
                    continue 'walk;
                }
                cur = next;
                count += 1;
            }
        };
        self.domain.clear(HP_HEAD);
        self.domain.clear(HP_WALK);
        count
    }

    /// Returns an iterator that dequeues until the queue reports empty.
    /// Safe to use concurrently with other operations (it is just repeated
    /// `dequeue`); it ends at the first linearizable EMPTY it observes.
    pub fn drain(&self) -> impl Iterator<Item = u64> + '_ {
        core::iter::from_fn(move || self.dequeue())
    }

    /// The registry name of this queue (`"lcrq"`, `"lcrq+h"`, `"lscq"`, …).
    pub fn name(&self) -> &'static str {
        R::name(self.config.hierarchical.is_some())
    }
}

/// The planted-bug twins, reachable only by the model checker.
///
/// The twin of the seal: `tests/loom.rs` runs it against the same consumer
/// settle poll and asserts the checker finds the lost item. Shutdown here
/// is a flag that enqueuers check (on entry, and again on finding their
/// ring closed) and that `close` raises before walking the chain closing
/// rings — so nothing stops an enqueuer already past its last check from
/// linking a fresh ring after the walk has passed.
#[cfg(loom)]
#[doc(hidden)]
impl<R: Ring> RingList<R> {
    pub fn try_enqueue_flag_checked(&self, value: u64) -> Result<(), u64> {
        loop {
            if self.closed.load(Ordering::SeqCst) {
                return Err(value);
            }
            let ring = self.last_ring().expect("the twin never seals");
            if ring.enqueue(value).is_ok() {
                return Ok(());
            }
            if self.closed.load(Ordering::SeqCst) {
                self.domain.clear(HP_TAIL);
                return Err(value);
            }
            let newring = self.try_alloc_ring(&[value]).expect("no fail points");
            if self.try_link(ring, newring).is_ok() {
                return Ok(());
            }
        }
    }

    pub fn close_flag_then_walk(&self) -> bool {
        if self.closed.swap(true, Ordering::SeqCst) {
            return false;
        }
        // `last_ring` helps `tail` forward; closing the last ring ends the
        // walk, whether or not someone links behind it a moment later.
        self.last_ring().expect("the twin never seals").close();
        self.domain.clear(HP_TAIL);
        true
    }

    /// The planted-bug twin of the EMPTY after an EMPTY: it trusts the
    /// ring's proof without reading `next`, so a ring that was drained,
    /// closed and given a successor holding an item still answers `None`.
    pub fn dequeue_trusting_the_proof(&self) -> Option<u64> {
        let ring = self.domain.protect(HP_HEAD, &self.head);
        // SAFETY: hazard-protected.
        if EMPTY_ON.get() == ring as usize && unsafe { &*ring }.proves_empty() {
            self.domain.clear(HP_HEAD);
            return None;
        }
        self.dequeue()
    }
}

impl<R: Ring> Default for RingList<R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<R: Ring> core::fmt::Debug for RingList<R> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RingList")
            .field("kind", &self.name())
            .field("ring_order", &self.config.ring_order)
            .field("rings", &self.ring_count())
            .field("closed", &self.is_closed())
            .finish()
    }
}

impl<R: Ring> FromIterator<u64> for RingList<R> {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut q = Self::new();
        q.extend(iter);
        q
    }
}

impl<R: Ring> Extend<u64> for RingList<R> {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, iter: I) {
        let values: Vec<u64> = iter.into_iter().collect();
        self.enqueue_batch(&values);
    }
}

impl<R: Ring> Drop for RingList<R> {
    fn drop(&mut self) {
        // Exclusive access: free the whole ring chain, up to its null or
        // sealed end. Chain rings are by definition not yet retired, so
        // this walk and the domain cannot double-free; rings retired
        // earlier but not yet reclaimed are freed when `domain` drops.
        let mut cur = *self.head.get_mut();
        while !cur.is_null() && cur != Self::SEALED {
            // SAFETY: exclusive access in drop.
            let ring = unsafe { Box::from_raw(cur) };
            cur = ring.next().load(Ordering::Relaxed);
        }
    }
}

// SAFETY: the queue transfers plain u64 values; `head`/`tail` and every
// ring's `next` are atomics, rings are `Send + Sync` by the `Ring` bound,
// and ring lifetime is managed by the hazard domain.
unsafe impl<R: Ring> Send for RingList<R> {}
unsafe impl<R: Ring> Sync for RingList<R> {}

impl<R: Ring> lcrq_queues::ConcurrentQueue for RingList<R> {
    fn enqueue(&self, value: u64) {
        RingList::enqueue(self, value)
    }
    fn dequeue(&self) -> Option<u64> {
        RingList::dequeue(self)
    }
    // Native overrides: the ring's batch path (one F&A per reservation on a
    // CRQ) instead of the default scalar loop's one list operation per item.
    fn enqueue_batch(&self, values: &[u64]) {
        RingList::enqueue_batch(self, values)
    }
    fn dequeue_batch(&self, out: &mut Vec<u64>, max: usize) -> usize {
        RingList::dequeue_batch(self, out, max)
    }
    fn name(&self) -> &'static str {
        RingList::name(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HierarchicalConfig;
    use lcrq_queues::testing;
    use lcrq_util::metrics::{self, Event};

    fn tiny() -> LcrqConfig {
        LcrqConfig::new().with_ring_order(3) // R = 8: force frequent closes
    }

    /// The order of every ring on the chain, head to tail.
    fn chain_orders<R: Ring>(q: &mut RingList<R>) -> Vec<u32> {
        let mut orders = Vec::new();
        let mut cur = *q.head.get_mut();
        while !cur.is_null() && cur != RingList::<R>::SEALED {
            // SAFETY: `&mut` excludes every other operation, so no ring of
            // the chain can be retired under the walk.
            let ring = unsafe { &*cur };
            orders.push(ring.order());
            cur = ring.next().load(Ordering::Relaxed);
        }
        orders
    }

    /// Sequential model check over random configurations: ring order,
    /// starvation limit and bounded wait are drawn per round, then scalar,
    /// batch and close steps run against a `VecDeque` plus a closed flag.
    /// Tiny rings
    /// and starvation limits make the sequence churn through many ring
    /// incarnations; after the close, enqueues refuse and the backlog
    /// drains FIFO. `LCRQ_TEST_SEED` replays a failure.
    fn config_and_close_model_check<R: Ring>(seed: u64) {
        use std::collections::VecDeque;
        let seed = lcrq_util::rng::test_seed(seed);
        let mut rng = lcrq_util::XorShift64Star::new(seed);
        for round in 0..20 {
            let q = RingList::<R>::with_config(
                LcrqConfig::new()
                    .with_ring_order(1 + rng.next_below(7) as u32)
                    .with_starvation_limit(1 + rng.next_below(63) as u32)
                    .with_bounded_wait(rng.next_below(64) as u32),
            );
            let at = |step: usize| format!("round {round} step {step} (LCRQ_TEST_SEED={seed})");
            let mut model: VecDeque<u64> = VecDeque::new();
            let mut closed = false;
            let mut next_val = 0u64;
            let mut out = Vec::new();
            for step in 0..300 {
                match rng.next_below(100) {
                    0 => {
                        assert_eq!(q.close(), !closed, "{}", at(step));
                        closed = true;
                        assert!(q.is_closed());
                    }
                    1..=30 => {
                        let placed = q.try_enqueue(next_val);
                        if closed {
                            assert_eq!(placed, Err(next_val), "{}", at(step));
                        } else {
                            assert_eq!(placed, Ok(()), "{}", at(step));
                            model.push_back(next_val);
                        }
                        next_val += 1;
                    }
                    31..=60 => assert_eq!(q.dequeue(), model.pop_front(), "{}", at(step)),
                    61..=80 => {
                        let n = rng.next_below(24);
                        let vals: Vec<u64> = (next_val..next_val + n).collect();
                        next_val += n;
                        let placed = q.try_enqueue_batch(&vals);
                        // Single-threaded: a closed queue places nothing,
                        // and an empty batch has nothing to refuse.
                        if closed && n > 0 {
                            assert_eq!(placed, Err(0), "{}", at(step));
                        } else {
                            assert_eq!(placed, Ok(()), "{}", at(step));
                            model.extend(vals);
                        }
                    }
                    _ => {
                        let max = rng.next_below(24) as usize;
                        out.clear();
                        let got = q.dequeue_batch(&mut out, max);
                        // A short batch is a linearizable EMPTY observation.
                        assert_eq!(got, max.min(model.len()), "{}", at(step));
                        let expect: Vec<u64> = model.drain(..got).collect();
                        assert_eq!(out, expect, "{}", at(step));
                    }
                }
            }
            assert_eq!(q.drain().collect::<VecDeque<_>>(), model, "round {round}");
            assert_eq!(q.dequeue(), None);
        }
    }

    /// The list-level suite: written once against `RingList<R>`,
    /// instantiated below for every ring the crate ships.
    macro_rules! list_suite {
        ($name:ident, $ring:ty) => {
            mod $name {
                use super::*;
                type Q = RingList<$ring>;

                #[test]
                fn empty_queue_returns_none() {
                    let q = Q::new();
                    assert_eq!(q.dequeue(), None);
                    assert!(q.is_empty_hint());
                }

                #[test]
                fn fifo_order_sequential() {
                    let q = Q::new();
                    for i in 0..500 {
                        q.enqueue(i);
                    }
                    for i in 0..500 {
                        assert_eq!(q.dequeue(), Some(i));
                    }
                    assert_eq!(q.dequeue(), None);
                }

                #[test]
                fn overflowing_one_ring_spills_into_new_rings_in_order() {
                    let q = Q::with_config(tiny());
                    for i in 0..1_000 {
                        q.enqueue(i);
                    }
                    assert!(q.ring_count() > 1, "tiny rings must have spilled");
                    for i in 0..1_000 {
                        assert_eq!(q.dequeue(), Some(i));
                    }
                    assert_eq!(q.dequeue(), None);
                }

                #[test]
                fn the_first_ring_has_256_slots_and_every_spill_a_full_one() {
                    let mut q = Q::new();
                    for i in 0..1 << 14 {
                        q.enqueue(i);
                    }
                    let orders = chain_orders(&mut q);
                    assert!(orders.len() >= 3, "{orders:?}");
                    assert_eq!(orders[0], 8, "{orders:?}");
                    assert!(orders[1..].iter().all(|&o| o == 12), "{orders:?}");
                    for i in 0..1 << 14 {
                        assert_eq!(q.dequeue(), Some(i));
                    }
                    assert_eq!(q.dequeue(), None);
                }

                #[test]
                fn a_ring_order_at_most_eight_keeps_every_ring_that_size() {
                    let mut q = Q::with_config(LcrqConfig::new().with_ring_order(4));
                    for i in 0..1_000 {
                        q.enqueue(i);
                    }
                    let orders = chain_orders(&mut q);
                    assert!(
                        orders.len() > 1 && orders.iter().all(|&o| o == 4),
                        "{orders:?}"
                    );
                    assert!(q.drain().eq(0..1_000));
                }

                #[test]
                fn a_batch_overflowing_the_small_ring_spills_into_full_rings() {
                    // 5 000 values overflow the 256-slot first ring; the
                    // spill seeds a full 4 096-slot ring with what it holds
                    // and the remainder spills once more.
                    let q = Q::new();
                    let values: Vec<u64> = (0..5_000).collect();
                    q.enqueue_batch(&values);
                    assert!(q.drain().eq(values));
                }

                #[test]
                fn drained_queue_is_reusable() {
                    let q = Q::with_config(tiny());
                    for round in 0..20u64 {
                        for i in 0..100 {
                            q.enqueue(round * 1_000 + i);
                        }
                        for i in 0..100 {
                            assert_eq!(q.dequeue(), Some(round * 1_000 + i));
                        }
                        assert_eq!(q.dequeue(), None);
                    }
                }

                #[test]
                #[should_panic(expected = "BOTTOM")]
                fn enqueueing_bottom_panics() {
                    Q::new().enqueue(u64::MAX);
                }

                #[test]
                fn max_value_is_enqueueable() {
                    let q = Q::new();
                    q.enqueue(crate::MAX_VALUE);
                    assert_eq!(q.dequeue(), Some(crate::MAX_VALUE));
                }

                #[test]
                fn mpmc_stress_default_ring() {
                    testing::mpmc_stress(&Q::new(), 4, 4, 10_000);
                }

                #[test]
                fn mpmc_stress_tiny_ring_exercises_ring_switching() {
                    let q = Q::with_config(tiny());
                    testing::mpmc_stress(&q, 4, 4, 5_000);
                    assert!(q.ring_count() < 100, "drained rings must be retired");
                }

                #[test]
                fn model_check_against_vecdeque() {
                    for seed in [0x1C, 0x15C9, 0x13C9] {
                        testing::model_check(&Q::with_config(tiny()), seed);
                        config_and_close_model_check::<$ring>(seed);
                    }
                }

                #[test]
                fn pairs_workload_drains() {
                    let q = Q::with_config(tiny());
                    testing::pairs_smoke(&q, 4, 5_000);
                    assert_eq!(q.dequeue(), None);
                }

                #[test]
                fn retired_rings_are_reclaimed() {
                    // Churn through many rings; the hazard domain must not
                    // accumulate them (the list scans at every ring it
                    // retires) and the chain must not keep growing.
                    let q = Q::with_config(LcrqConfig::new().with_ring_order(2));
                    for round in 0..1_000u64 {
                        for i in 0..10 {
                            q.enqueue(round * 10 + i);
                        }
                        for i in 0..10 {
                            assert_eq!(q.dequeue(), Some(round * 10 + i));
                        }
                    }
                    assert!(q.ring_count() <= 2, "rings linked: {}", q.ring_count());
                }

                #[test]
                fn a_drain_leaves_no_ring_retired() {
                    // Every ring the drain retires is scanned at once, and
                    // this thread's own slots name none of them: each is
                    // freed.
                    let q = Q::new();
                    (0..1 << 16).for_each(|i| q.enqueue(i));
                    assert!(q.drain().eq(0..1 << 16));
                    assert_eq!(q.hazard_domain().retired_count(), 0);
                }

                #[test]
                fn close_fences_enqueues_but_drains_existing_items() {
                    let q = Q::with_config(tiny());
                    for i in 0..100 {
                        q.enqueue(i);
                    }
                    assert!(!q.is_closed());
                    assert!(q.close(), "first close reports the transition");
                    assert!(q.is_closed());
                    assert!(!q.close(), "second close is a no-op");
                    assert_eq!(q.try_enqueue(777), Err(777));
                    assert_eq!(q.try_enqueue_batch(&[1, 2, 3]), Err(0));
                    // Everything placed before the close drains in order.
                    for i in 0..100 {
                        assert_eq!(q.dequeue(), Some(i));
                    }
                    assert_eq!(q.dequeue(), None);
                }

                #[test]
                fn every_chain_walk_stops_at_the_seal() {
                    let q = Q::with_config(tiny());
                    for i in 0..100 {
                        q.enqueue(i);
                    }
                    let rings = q.ring_count();
                    assert!(rings > 1);
                    q.close();
                    assert_eq!(q.ring_count(), rings, "the seal is not a ring");
                    assert!(!q.is_empty_hint());
                    assert_eq!(q.drain().count(), 100);
                    assert!(q.is_empty_hint(), "sealed and drained looks empty");
                    assert_eq!(q.ring_count(), 1, "head never moves onto the seal");
                    assert_eq!(q.dequeue(), None);
                    drop(q); // Drop stops at the seal too
                }

                #[test]
                #[should_panic(expected = "closed")]
                fn enqueue_after_close_panics() {
                    let q = Q::new();
                    q.close();
                    q.enqueue(1);
                }

                #[test]
                #[should_panic(expected = "closed")]
                fn enqueue_batch_after_close_panics() {
                    let q = Q::new();
                    q.close();
                    q.enqueue_batch(&[1, 2]);
                }

                #[test]
                fn close_races_with_producers_without_losing_items() {
                    // Producers try_enqueue until fenced while a consumer
                    // runs the channel's settle poll (dequeue, is_closed,
                    // dequeue) and stops at its first "closed and empty".
                    // Whatever was accepted must be exactly what it got; an
                    // item accepted *after* the consumer concluded is lost
                    // to it, which a drain after the join would not show.
                    for round in 0..20 {
                        let q = Q::with_config(tiny());
                        let q = &q;
                        let (sent, got) = std::thread::scope(|s| {
                            let producers: Vec<_> = (0..3)
                                .map(|p| {
                                    s.spawn(move || {
                                        let mut placed = Vec::new();
                                        for i in 0..10_000 {
                                            let v = testing::encode(p, i);
                                            if q.try_enqueue(v).is_err() {
                                                break;
                                            }
                                            placed.push(v);
                                        }
                                        placed
                                    })
                                })
                                .collect();
                            let consumer = s.spawn(move || {
                                let mut got = Vec::new();
                                loop {
                                    if let Some(v) = q.dequeue() {
                                        got.push(v);
                                    } else if !q.is_closed() {
                                        std::thread::yield_now();
                                    } else if let Some(v) = q.dequeue() {
                                        got.push(v);
                                    } else {
                                        return got;
                                    }
                                }
                            });
                            if round % 2 == 0 {
                                std::thread::yield_now();
                            }
                            q.close();
                            let sent: Vec<u64> = producers
                                .into_iter()
                                .flat_map(|h| h.join().unwrap())
                                .collect();
                            (sent, consumer.join().unwrap())
                        });
                        assert_eq!(q.dequeue(), None, "accepted after closed-and-empty");
                        testing::check_delivery(&sent, &[got])
                            .unwrap_or_else(|e| panic!("round {round}: close: {e}"));
                    }
                }

                #[test]
                fn dequeue_empty_is_never_transient() {
                    // Regression guard for the channel's poll-then-park
                    // protocol (the ISSUE 2 dequeue-empty audit): a queue
                    // that provably holds an item must never report None,
                    // even while the head ring is being exhausted and
                    // switched (where the December-2013 erratum double-check
                    // is what prevents a transient-empty report).
                    let q = Q::with_config(tiny()); // R = 8: maximal ring churn
                    for i in 0..5_000u64 {
                        q.enqueue(i);
                        assert_eq!(q.dequeue(), Some(i), "transient empty at item {i}");
                    }
                    // Same property with a standing backlog straddling ring
                    // boundaries.
                    for i in 0..64u64 {
                        q.enqueue(i);
                    }
                    for i in 64..5_000u64 {
                        q.enqueue(i);
                        assert!(q.dequeue().is_some(), "transient empty with backlog");
                    }
                    for _ in 0..64 {
                        assert!(q.dequeue().is_some());
                    }
                    assert_eq!(q.dequeue(), None);
                }

                #[test]
                fn drop_with_items_across_rings_is_clean() {
                    let q = Q::with_config(tiny());
                    for i in 0..500 {
                        q.enqueue(i);
                    }
                    drop(q); // must not leak or double-free (ASan job covers this)
                }

                #[test]
                fn from_iterator_extend_and_drain_round_trip() {
                    let mut q: Q = (0..100u64).collect();
                    q.extend(100..105u64);
                    let out: Vec<u64> = q.drain().collect();
                    assert_eq!(out, (0..105).collect::<Vec<_>>());
                    assert_eq!(q.dequeue(), None);
                }

                #[test]
                fn debug_output_names_the_variant() {
                    let q = Q::new();
                    let text = format!("{q:?}");
                    assert!(text.contains(q.name()), "{text}");
                    assert!(text.contains("rings"), "{text}");
                }
            }
        };
    }

    list_suite!(crq, Crq<HardwareFaa>);
    list_suite!(crq_cas, Crq<CasLoopFaa>);
    list_suite!(scqd, ScqD<HardwareFaa>);
    list_suite!(wcq_ring, WcqRing<HardwareFaa>);

    // What only some lists have stays below: names, the LCRQ+H gate, the
    // CRQ's FAA(k) batches.

    #[test]
    fn names_reflect_variant() {
        assert_eq!(Lcrq::new().name(), "lcrq");
        assert_eq!(LcrqCas::new().name(), "lcrq-cas");
        let h =
            Lcrq::with_config(LcrqConfig::new().with_hierarchical(HierarchicalConfig::default()));
        assert_eq!(h.name(), "lcrq+h");
        assert_eq!(Lscq::new().name(), "lscq");
        assert_eq!(LscqCas::new().name(), "lscq-cas");
        assert_eq!(Wcq::new().name(), "wcq");
    }

    /// What `f` counted on this thread.
    fn counted(f: impl FnOnce()) -> metrics::Snapshot {
        let before = metrics::local_snapshot();
        f();
        metrics::local_snapshot().delta_since(&before)
    }

    #[test]
    fn steady_state_pairs_publish_each_slot_once() {
        // The paper's cost model, as counts that repeat exactly: a pair on
        // an unchanged ring is two F&As and two CAS2s, and the hazard slots
        // are published once per ring, not once per call. With the slot
        // cleared after every call (the list before it kept its slots) the
        // first bracket below read HazardPublish 2000, one per call, beside
        // the same Faa 2000 / Cas2Attempt 2000 — in debug and in --release.
        let pair = |q: &Lcrq, i: u64| {
            q.enqueue(i);
            assert_eq!(q.dequeue(), Some(i));
        };
        let q = Lcrq::new();
        pair(&q, 0); // warm-up: publishes HP_TAIL and HP_HEAD
        let d = counted(|| (1..=1000).for_each(|i| pair(&q, i)));
        assert_eq!(d.get(Event::HazardPublish), 0);
        assert_eq!(d.get(Event::Faa), 2000);
        assert_eq!(d.get(Event::Cas2Attempt), 2000);
        assert_eq!(d.get(Event::Cas2Failure), 0);
        // The warm-up pair inside the bracket: exactly the two publications.
        let q = Lcrq::new();
        let d = counted(|| (0..=1000).for_each(|i| pair(&q, i)));
        assert_eq!(d.get(Event::HazardPublish), 2);
        assert_eq!(d.get(Event::Faa), 2002);
    }

    #[test]
    fn an_empty_poll_after_an_empty_takes_no_ticket() {
        let q = Lcrq::new();
        assert_eq!(q.dequeue(), None); // the paper's path: sets the hint
        let d = counted(|| (0..1000).for_each(|_| assert_eq!(q.dequeue(), None)));
        assert_eq!(d.get(Event::Faa), 0);
        assert_eq!(d.get(Event::Cas2Attempt), 0);
        assert_eq!(d.get(Event::EmptyTransition), 0);
        // What an EMPTY still costs: every EMPTY clears HP_HEAD, so the next
        // poll publishes it again.
        assert_eq!(d.get(Event::HazardPublish), 1000);
        // An item from another thread fails the proof; the paper's path
        // takes it with its one head ticket.
        std::thread::scope(|s| s.spawn(|| q.enqueue(7)).join().unwrap());
        let d = counted(|| assert_eq!(q.dequeue(), Some(7)));
        assert_eq!(d.get(Event::Faa), 1);
    }

    #[test]
    fn ring_churn_publishes_at_most_twice_per_ring() {
        // R = 4, a backlog a hundred rings deep: each ring is published
        // once by the thread as enqueuer and once as dequeuer.
        let q = Lcrq::with_config(LcrqConfig::new().with_ring_order(2));
        let d = counted(|| {
            (0..400).for_each(|i| q.enqueue(i));
            (0..400).for_each(|i| assert_eq!(q.dequeue(), Some(i)));
        });
        let rings = d.get(Event::RingAlloc);
        assert!(rings >= 99, "R = 4 must spill: {rings}");
        let published = d.get(Event::HazardPublish);
        assert!(published <= 2 * rings + 4, "{published} for {rings} rings");
    }

    #[test]
    fn mpmc_stress_hierarchical() {
        let cfg = LcrqConfig::new()
            .with_ring_order(6)
            .with_hierarchical(HierarchicalConfig {
                timeout: std::time::Duration::from_micros(50),
            });
        let q = Lcrq::with_config(cfg);
        testing::mpmc_stress(&q, 4, 4, 3_000);
    }

    #[test]
    fn batch_round_trip_default_ring() {
        let q = Lcrq::new();
        let values: Vec<u64> = (0..500).collect();
        q.enqueue_batch(&values);
        let mut out = Vec::new();
        assert_eq!(q.dequeue_batch(&mut out, 500), 500);
        assert_eq!(out, values);
        assert_eq!(q.dequeue_batch(&mut out, 1), 0, "linearizable EMPTY");
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn batch_spills_across_tiny_rings_in_order() {
        // R = 8 and a 1000-item batch: the tail ring closes mid-batch over
        // a hundred times; every remainder spills into a fresh seeded ring
        // and FIFO order must survive the whole chain.
        let q = Lcrq::with_config(tiny());
        let values: Vec<u64> = (0..1_000).collect();
        q.enqueue_batch(&values);
        assert!(q.ring_count() > 1, "tiny rings must have spilled");
        let mut out = Vec::new();
        assert_eq!(q.dequeue_batch(&mut out, 2_000), 1_000);
        assert_eq!(out, values);
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn batch_dequeue_switches_rings() {
        // Fill across several rings with scalar enqueues, then drain with
        // one big batch dequeue: the scalar fallback inside dequeue_batch
        // must retire exhausted rings (erratum double-check included) and
        // resume bulk reservations on the next ring.
        let q = Lcrq::with_config(tiny());
        for i in 0..300 {
            q.enqueue(i);
        }
        let before = q.ring_count();
        assert!(before > 1);
        let mut out = Vec::new();
        assert_eq!(q.dequeue_batch(&mut out, 300), 300);
        assert_eq!(out, (0..300).collect::<Vec<u64>>());
        assert!(q.ring_count() <= before);
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn batch_and_scalar_interleave_across_rings() {
        let q = Lcrq::with_config(tiny());
        q.enqueue(0);
        q.enqueue_batch(&(1..50).collect::<Vec<u64>>());
        q.enqueue(50);
        q.enqueue_batch(&(51..100).collect::<Vec<u64>>());
        let mut out = Vec::new();
        out.push(q.dequeue().unwrap());
        q.dequeue_batch(&mut out, 70);
        while let Some(v) = q.dequeue() {
            out.push(v);
        }
        assert_eq!(out, (0..100).collect::<Vec<u64>>());
    }

    #[test]
    fn batch_dequeue_max_zero_is_a_no_op() {
        let q = Lcrq::new();
        q.enqueue(1);
        let mut out = Vec::new();
        assert_eq!(q.dequeue_batch(&mut out, 0), 0);
        assert!(out.is_empty());
        assert_eq!(q.dequeue(), Some(1));
    }

    #[test]
    #[should_panic(expected = "BOTTOM")]
    fn batch_enqueueing_bottom_panics_before_any_placement() {
        let q = Lcrq::new();
        q.enqueue_batch(&[1, u64::MAX]);
    }

    #[test]
    fn cluster_gate_waits_once_then_owns_the_ring() {
        // The LCRQ+H gate must only pay its timeout when the ring's cluster
        // field is foreign; after seizing it, same-cluster operations enter
        // immediately. With a 40 ms timeout, 100 ops must take ~1 timeout,
        // not ~100.
        use lcrq_util::topology::set_current_cluster;
        let timeout = std::time::Duration::from_millis(40);
        let q =
            Lcrq::with_config(LcrqConfig::new().with_hierarchical(HierarchicalConfig { timeout }));
        set_current_cluster(2); // ring starts owned by cluster 0
        let start = std::time::Instant::now();
        for i in 0..100 {
            q.enqueue(i);
            assert_eq!(q.dequeue(), Some(i));
        }
        let elapsed = start.elapsed();
        set_current_cluster(0);
        assert!(
            elapsed < timeout * 3,
            "gate should wait at most once, took {elapsed:?}"
        );
        assert!(
            elapsed >= timeout,
            "first foreign-cluster op should wait the timeout, took {elapsed:?}"
        );
    }

    #[test]
    fn hierarchical_disabled_never_waits() {
        use lcrq_util::topology::set_current_cluster;
        let q = Lcrq::new(); // no hierarchical config
        set_current_cluster(5);
        let start = std::time::Instant::now();
        for i in 0..100 {
            q.enqueue(i);
            assert_eq!(q.dequeue(), Some(i));
        }
        set_current_cluster(0);
        assert!(start.elapsed() < std::time::Duration::from_millis(100));
    }
}

//! SCQ — the scalable circular queue of Nikolaev (arXiv:1908.04511), the
//! portable successor to the CRQ ring.
//!
//! Like the CRQ, an SCQ spreads threads over ring slots with fetch-and-add
//! on `head`/`tail` so that contended F&A does the heavy lifting. Unlike
//! the CRQ it needs only **single-word CAS**: a slot is one 64-bit word
//! packing `(cycle, is_safe, index)`, where the index field addresses one
//! of the ring's `2n` entries and the all-ones pattern is ⊥ (empty). Three
//! ideas replace the CRQ's double-width CAS and starvation counter:
//!
//! * **Cycle tags.** Position `p` lives in slot `p mod 2n` at cycle
//!   `p / 2n`; a dequeuer may consume only an entry whose cycle matches its
//!   own, so the consume itself is an unconditional `fetch_or` that sets
//!   the index field to ⊥ (no failure path — the consume right is
//!   exclusive, and the OR preserves a racing unsafe-marking).
//! * **Threshold counter.** Every unsuccessful dequeue attempt decrements a
//!   shared counter initialized to `3n - 1` (reset by each enqueue); once
//!   it goes negative, dequeuers report EMPTY *before* touching `head`.
//!   This bounds the number of F&As an empty-dequeue storm can waste and is
//!   the livelock-freedom argument (the CRQ instead closes the ring).
//! * **Catchup.** When a dequeue observes `tail <= head + 1`, it CASes the
//!   lagging `tail` forward so enqueuers do not burn F&As walking positions
//!   the dequeuers already invalidated (the CRQ's `fix_state` analogue).
//!
//! An SCQ stores `n`-bounded *indices*, not arbitrary values: callers must
//! keep at most `n` values in circulation (the index-queue contract), which
//! is what makes enqueue's retry loop terminate without a full check. The
//! [`ScqD`] pairing below restores arbitrary `u64` payloads: a free-index
//! ring `fq` (initially full) and an allocated-index ring `aq` shuttle the
//! indices of `n` data slots, so `enqueue(v)` is "pop a slot from `fq`,
//! write `v`, push the slot into `aq`" and dequeue is the mirror image.
//! `ScqD` also reuses the CRQ's tantrum convention (CLOSED bit 63 of the
//! `aq` tail) so [`Lscq`](crate::Lscq) can link rings exactly like LCRQ.
//!
//! Everything here is single-word: this is the one backend in the repo
//! that would run unchanged on non-x86 targets (no `CMPXCHG16B`).

use core::marker::PhantomData;
use core::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use lcrq_atomic::{ops, FaaPolicy, HardwareFaa};
use lcrq_util::metrics::{self, Event};
use lcrq_util::sync::AtomicPtr;
use lcrq_util::CachePadded;

use crate::config::LcrqConfig;
use crate::crq::CrqClosed;
use crate::ring::Ring;

/// Bit 63 of `tail`: the ring is finalized (closed to further enqueues),
/// same convention as the CRQ's CLOSED bit.
const FINALIZED_BIT: u64 = 1 << 63;

/// A bounded ring of *indices* in `0..capacity`, the SCQ of Nikolaev
/// (arXiv:1908.04511 Figure 9), generic over the fetch-and-add policy.
///
/// Entries are single 64-bit words `(cycle << (k+2)) | (safe << (k+1)) |
/// index` for capacity `2^k`; the ring has `2n = 2^(k+1)` entries and the
/// all-ones index pattern is ⊥. Callers must keep at most `capacity`
/// indices in circulation (pop before re-push) — [`ScqD`] enforces this
/// structurally. Most users want [`ScqD`] or the unbounded
/// [`Lscq`](crate::Lscq).
pub struct Scq<P: FaaPolicy = HardwareFaa> {
    head: CachePadded<AtomicU64>,
    /// Bit 63 = finalized; bits 62..0 = the tail position.
    tail: CachePadded<AtomicU64>,
    /// The livelock-freedom counter: reset to `3n - 1` by enqueues,
    /// decremented by unsuccessful dequeue attempts; negative means a
    /// dequeue may report EMPTY without touching `head`.
    threshold: CachePadded<AtomicI64>,
    /// `2n` packed `(cycle, safe, index)` words.
    entries: Box<[AtomicU64]>,
    /// log2 of the entry count (`k + 1` for capacity `2^k`).
    array_order: u32,
    _marker: PhantomData<P>,
}

impl<P: FaaPolicy> Scq<P> {
    /// An empty index ring with capacity `2^order` (so `2^(order+1)`
    /// entries). Positions start at `2n` (cycle 1) so freshly-initialized
    /// entries (cycle 0) always compare older than any live position.
    pub fn new_empty(order: u32) -> Self {
        let order = order.clamp(1, 30);
        let array_order = order + 1;
        let slots = 1usize << array_order;
        let entries: Box<[AtomicU64]> = (0..slots).map(|_| AtomicU64::new(0)).collect();
        let q = Scq {
            head: CachePadded::new(AtomicU64::new(slots as u64)),
            tail: CachePadded::new(AtomicU64::new(slots as u64)),
            // Empty ring: exhausted from the start, so dequeuers on a
            // never-used ring exit without an F&A. The first enqueue
            // re-arms it.
            threshold: CachePadded::new(AtomicI64::new(-1)),
            entries,
            array_order,
            _marker: PhantomData,
        };
        let bottom = q.bottom_index();
        for e in q.entries.iter() {
            e.store(q.pack(0, true, bottom), Ordering::Relaxed);
        }
        q
    }

    /// A *full* index ring holding `0..2^order` in order — the initial
    /// state of an [`ScqD`] free-index ring.
    pub fn new_full(order: u32) -> Self {
        let q = Self::new_empty(order);
        let base = q.entries.len() as u64;
        for k in 0..q.capacity() {
            let pos = base + k;
            let j = q.remap(pos);
            q.entries[j].store(q.pack(q.cycle_of(pos), true, k), Ordering::Relaxed);
        }
        q.tail.store(base + q.capacity(), Ordering::Relaxed);
        q.threshold.store(q.threshold_max(), Ordering::Relaxed);
        q
    }

    /// Number of indices the ring can circulate (`2^order`); half the
    /// entry-array size.
    #[inline]
    pub fn capacity(&self) -> u64 {
        (self.entries.len() as u64) / 2
    }

    /// The ⊥ pattern: all ones in the index field (`2n - 1`). Stored
    /// indices must be strictly below this.
    #[inline]
    fn bottom_index(&self) -> u64 {
        (1u64 << self.array_order) - 1
    }

    #[inline]
    fn index_mask(&self) -> u64 {
        self.bottom_index()
    }

    #[inline]
    fn threshold_max(&self) -> i64 {
        // 3n - 1 (capacity + array size - 1): the paper's bound on
        // unsuccessful dequeue attempts while the queue is non-empty.
        (self.capacity() + self.entries.len() as u64 - 1) as i64
    }

    #[inline]
    fn cycle_of(&self, pos: u64) -> u64 {
        pos >> self.array_order
    }

    #[inline]
    fn pack(&self, cycle: u64, safe: bool, index: u64) -> u64 {
        (cycle << (self.array_order + 1)) | ((safe as u64) << self.array_order) | index
    }

    /// Splits an entry into `(cycle, is_safe, index)`.
    #[inline]
    fn unpack(&self, entry: u64) -> (u64, bool, u64) {
        (
            entry >> (self.array_order + 1),
            entry & (1 << self.array_order) != 0,
            entry & self.index_mask(),
        )
    }

    /// Maps a position to an entry slot, spreading consecutive positions
    /// across cache lines (8 `u64` entries per 64-byte line) the way
    /// Nikolaev's `lfring` does: the shared [`remap`](crate::ring::remap).
    #[inline]
    fn remap(&self, pos: u64) -> usize {
        crate::ring::remap(pos, self.array_order)
    }

    /// Appends index `index` (must be `< capacity`). Fails only once the
    /// ring is [`finalize`](Self::finalize)d — there is no full check, per
    /// the index-queue contract (at most `capacity` indices circulating).
    pub fn enqueue(&self, index: u64) -> Result<(), CrqClosed> {
        debug_assert!(index < self.capacity(), "SCQ stores ring indices only");
        loop {
            let t_raw = P::fetch_add(&self.tail, 1);
            if t_raw & FINALIZED_BIT != 0 {
                return Err(CrqClosed);
            }
            let t = t_raw;
            let tcycle = self.cycle_of(t);
            let j = self.remap(t);
            let mut e = self.entries[j].load(Ordering::SeqCst);
            loop {
                metrics::inc(Event::NodeVisit);
                let (ecycle, safe, idx) = self.unpack(e);
                if ecycle < tcycle
                    && idx == self.bottom_index()
                    && (safe || self.head.load(Ordering::SeqCst) <= t)
                {
                    // The read→CAS window a preemption can waste. A `Fail`
                    // here is a spurious CAS miss: re-read and retry, the
                    // same path a lost race takes.
                    let _ = lcrq_util::fault::inject(lcrq_util::fault::Site::Preempt);
                    if lcrq_util::fault::inject(lcrq_util::fault::Site::ScqEnqueue) {
                        e = self.entries[j].load(Ordering::SeqCst);
                        continue;
                    }
                    match ops::cas(&self.entries[j], e, self.pack(tcycle, true, index)) {
                        Ok(()) => {
                            // Re-arm the threshold *after* publishing the
                            // entry, so a negative threshold implies the
                            // queue was observably empty.
                            let max = self.threshold_max();
                            if self.threshold.load(Ordering::SeqCst) != max {
                                self.threshold.store(max, Ordering::SeqCst);
                            }
                            return Ok(());
                        }
                        Err(cur) => {
                            e = cur;
                            continue;
                        }
                    }
                }
                break; // slot unusable at this cycle: take the next position
            }
        }
    }

    /// Removes the oldest index, or `None` when the ring is empty.
    pub fn dequeue(&self) -> Option<u64> {
        if self.threshold.load(Ordering::SeqCst) < 0 {
            // Livelock-freedom fast exit: an exhausted threshold proves the
            // ring was empty; report EMPTY without an F&A on head.
            metrics::inc(Event::ThresholdExhausted);
            return None;
        }
        loop {
            let h = P::fetch_add(&self.head, 1);
            let hcycle = self.cycle_of(h);
            let j = self.remap(h);
            let mut e = self.entries[j].load(Ordering::SeqCst);
            loop {
                metrics::inc(Event::NodeVisit);
                let (ecycle, safe, idx) = self.unpack(e);
                if ecycle == hcycle && idx != self.bottom_index() {
                    // Dequeue transition: only position h's owner may
                    // consume slot j at this cycle, so the unconditional OR
                    // (index := ⊥) cannot clobber anything except a racing
                    // unsafe-marking, which it preserves.
                    let _ = lcrq_util::fault::inject(lcrq_util::fault::Site::Preempt);
                    // `Fail` = spurious consume failure: re-read the slot
                    // and re-run the transition logic before the fetch-OR.
                    if lcrq_util::fault::inject(lcrq_util::fault::Site::ScqDequeue) {
                        e = self.entries[j].load(Ordering::SeqCst);
                        continue;
                    }
                    let prev = ops::or_bits(&self.entries[j], self.index_mask());
                    let (_, _, v) = self.unpack(prev);
                    debug_assert!(v != self.bottom_index());
                    return Some(v);
                }
                if ecycle < hcycle {
                    let new = if idx == self.bottom_index() {
                        // Empty transition: advance the slot to our cycle so
                        // no same-or-older enqueue can use it.
                        self.pack(hcycle, safe, idx)
                    } else {
                        // Unsafe transition: an unconsumed previous-lap
                        // entry; force its future enqueuers through the
                        // `head <= t` re-validation.
                        self.pack(ecycle, false, idx)
                    };
                    if new != e {
                        let _ = lcrq_util::fault::inject(lcrq_util::fault::Site::Preempt);
                        if let Err(cur) = ops::cas(&self.entries[j], e, new) {
                            e = cur;
                            continue;
                        }
                        metrics::inc(if idx == self.bottom_index() {
                            Event::EmptyTransition
                        } else {
                            Event::UnsafeTransition
                        });
                    }
                }
                // Failed attempt (transitioned, or lapped by a later
                // cycle): decide whether the queue looked empty.
                let t = self.tail_index();
                if t <= h + 1 {
                    self.catchup(t, h + 1);
                    metrics::inc(Event::Faa);
                    self.threshold.fetch_sub(1, Ordering::SeqCst);
                    return None;
                }
                metrics::inc(Event::Faa);
                if self.threshold.fetch_sub(1, Ordering::SeqCst) <= 0 {
                    return None;
                }
                break; // next head position
            }
        }
    }

    /// CASes a lagging `tail` forward to `h` so enqueuers do not spend
    /// F&As on positions the dequeuers already invalidated.
    fn catchup(&self, mut t: u64, h: u64) {
        while ops::cas(&self.tail, t, h).is_err() {
            let head_now = self.head.load(Ordering::SeqCst);
            let t_raw = self.tail.load(Ordering::SeqCst);
            if t_raw & FINALIZED_BIT != 0 {
                break; // never clobber the finalized bit
            }
            t = t_raw;
            if t >= head_now {
                break;
            }
        }
    }

    /// Re-arms the threshold to its maximum, forcing the next dequeue to
    /// actually scan the ring even if the counter was exhausted. The LSCQ
    /// dequeue does this before abandoning a ring: a racing enqueue may
    /// have published an entry but not yet reset the threshold, and the
    /// abandonment double-check must be able to find it.
    pub fn reset_threshold(&self) {
        self.threshold.store(self.threshold_max(), Ordering::SeqCst);
    }

    /// Closes the ring to further enqueues (tantrum-style, `LOCK BTS` on
    /// tail bit 63). Returns `true` if this call closed it.
    pub fn finalize(&self) -> bool {
        let newly = !ops::tas_bit(&self.tail, 63);
        if newly {
            metrics::inc(Event::CrqClosed);
        }
        newly
    }

    /// Whether [`finalize`](Self::finalize) has been called.
    pub fn is_finalized(&self) -> bool {
        self.tail.load(Ordering::SeqCst) & FINALIZED_BIT != 0
    }

    /// The head position (next to dequeue). Diagnostic.
    #[inline]
    pub fn head_index(&self) -> u64 {
        self.head.load(Ordering::SeqCst)
    }

    /// The tail position (next to enqueue), with the finalized bit masked
    /// off. Diagnostic.
    #[inline]
    pub fn tail_index(&self) -> u64 {
        self.tail.load(Ordering::SeqCst) & !FINALIZED_BIT
    }

    /// The current threshold value. Diagnostic (tests assert the
    /// livelock-freedom bound through this).
    pub fn threshold(&self) -> i64 {
        self.threshold.load(Ordering::SeqCst)
    }
}

// SAFETY: all state is atomic words.
unsafe impl<P: FaaPolicy> Send for Scq<P> {}
unsafe impl<P: FaaPolicy> Sync for Scq<P> {}

/// An SCQ ring carrying arbitrary `u64` payloads through index
/// indirection (Nikolaev §2.3): a free-index ring `fq` (initially full)
/// and an allocated-index ring `aq` shuttle the indices of `capacity`
/// data slots. Enqueue pops a slot index from `fq`, writes the value,
/// pushes the index into `aq`; dequeue mirrors it. Index ownership is
/// exclusive between the two rings, so the data-slot accesses never race.
///
/// Tantrum semantics like [`Crq`](crate::Crq): an enqueue that finds no
/// free slot closes the ring and returns [`CrqClosed`], permanently — the
/// signal [`Lscq`](crate::Lscq) uses to link a fresh ring.
pub struct ScqD<P: FaaPolicy = HardwareFaa> {
    /// Indices of slots holding live values.
    aq: Scq<P>,
    /// Free slot indices; starts full, never finalized.
    fq: Scq<P>,
    /// The value slots. `data[i]` is owned by whichever thread holds index
    /// `i` between a ring pop and the matching push; atomics (rather than
    /// `UnsafeCell`) keep the handoff visibly race-free.
    data: Box<[AtomicU64]>,
    /// The next ring in an LSCQ list (null while this is the tail ring).
    next: CachePadded<AtomicPtr<ScqD<P>>>,
}

impl<P: FaaPolicy> ScqD<P> {
    /// Number of values the ring can hold.
    pub fn capacity(&self) -> u64 {
        self.data.len() as u64
    }
}

/// The SCQ ring's operations *are* its [`Ring`] implementation. Its one
/// hook override is [`rearm`](Ring::rearm): a racing enqueue may have
/// published its entry but not yet reset the threshold, and an exhausted
/// counter would let the list's abandonment double-check report EMPTY
/// without scanning — losing the item when `head` swings past the ring.
/// (Nikolaev's unbounded SCQ does the same.) No batch reservation (a k-wide
/// F&A would claim k entries whose cycles the single-word protocol cannot
/// validate as a group).
impl<P: FaaPolicy> Ring for ScqD<P> {
    /// An empty ring with capacity `2^order`.
    fn new(_config: &LcrqConfig, order: u32) -> Self {
        metrics::inc(Event::RingAlloc);
        let n = 1usize << order;
        ScqD {
            aq: Scq::new_empty(order),
            fq: Scq::new_full(order),
            data: (0..n).map(|_| AtomicU64::new(0)).collect(),
            next: CachePadded::new(AtomicPtr::new(core::ptr::null_mut())),
        }
    }

    /// Appends `value` (any `u64`). Fails with [`CrqClosed`] once the ring
    /// is closed — including the self-inflicted close when no free slot is
    /// available (the tantrum).
    fn enqueue(&self, value: u64) -> Result<(), CrqClosed> {
        if self.is_closed() {
            return Err(CrqClosed);
        }
        let Some(i) = self.fq.dequeue() else {
            // No free slot: the ring is full (or transiently looks full).
            // Throw the tantrum so an LSCQ spills into a fresh ring.
            self.close();
            return Err(CrqClosed);
        };
        self.data[i as usize].store(value, Ordering::SeqCst);
        if self.aq.enqueue(i).is_err() {
            // Finalized under us. Hand the slot back so the index count
            // stays exact, and report the tantrum; the caller's item was
            // never published, so no double-delivery is possible.
            self.fq
                .enqueue(i)
                .expect("the free-index ring is never finalized");
            return Err(CrqClosed);
        }
        Ok(())
    }

    /// Removes the oldest value, or `None` when the ring is empty. Keeps
    /// draining after a close (tantrum queues refuse enqueues, not
    /// dequeues).
    fn dequeue(&self) -> Option<u64> {
        let i = self.aq.dequeue()?;
        let v = self.data[i as usize].load(Ordering::SeqCst);
        self.fq
            .enqueue(i)
            .expect("the free-index ring is never finalized");
        Some(v)
    }

    fn close(&self) {
        self.aq.finalize();
    }

    fn is_closed(&self) -> bool {
        self.aq.is_finalized()
    }

    fn order(&self) -> u32 {
        self.capacity().trailing_zeros()
    }

    fn next(&self) -> &AtomicPtr<Self> {
        &self.next
    }

    /// Head position of the allocated ring.
    fn head_index(&self) -> u64 {
        self.aq.head_index()
    }

    /// Tail position of the allocated ring.
    fn tail_index(&self) -> u64 {
        self.aq.tail_index()
    }

    fn name(_hierarchical: bool) -> &'static str {
        match P::name() {
            "faa" => "lscq",
            _ => "lscq-cas",
        }
    }

    /// Re-arms the allocated ring's threshold; see
    /// [`Scq::reset_threshold`].
    fn rearm(&self) {
        self.aq.reset_threshold();
    }
}

// SAFETY: all state is atomic; `next` is managed by the owning list.
unsafe impl<P: FaaPolicy> Send for ScqD<P> {}
unsafe impl<P: FaaPolicy> Sync for ScqD<P> {}

#[cfg(test)]
mod tests {
    use super::*;
    use lcrq_atomic::CasLoopFaa;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn entry_packing_round_trips() {
        let q: Scq = Scq::new_empty(4);
        for (cycle, safe, idx) in [(0, true, 0), (3, false, 7), (99, true, 31), (7, false, 30)] {
            let e = q.pack(cycle, safe, idx);
            assert_eq!(q.unpack(e), (cycle, safe, idx));
        }
        // ⊥ is all-ones in the index field of a 2^5-entry ring.
        assert_eq!(q.bottom_index(), 31);
    }

    #[test]
    fn empty_ring_dequeues_none_without_faa() {
        let q: Scq = Scq::new_empty(3);
        let before = lcrq_util::metrics::local_snapshot();
        assert_eq!(q.dequeue(), None);
        let after = lcrq_util::metrics::local_snapshot();
        // Fresh ring: threshold starts exhausted, EMPTY costs zero F&As.
        assert_eq!(after.get(Event::Faa), before.get(Event::Faa));
        assert_eq!(
            after.get(Event::ThresholdExhausted),
            before.get(Event::ThresholdExhausted) + 1
        );
    }

    #[test]
    fn index_ring_is_fifo_within_capacity() {
        let q: Scq = Scq::new_empty(4);
        for _lap in 0..10 {
            for i in 0..q.capacity() {
                q.enqueue(i).unwrap();
            }
            for i in 0..q.capacity() {
                assert_eq!(q.dequeue(), Some(i));
            }
            assert_eq!(q.dequeue(), None);
        }
    }

    #[test]
    fn full_ring_hands_out_every_index_in_order() {
        let q: Scq = Scq::new_full(3);
        for i in 0..8 {
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
        // And keeps cycling.
        q.enqueue(5).unwrap();
        assert_eq!(q.dequeue(), Some(5));
    }

    #[test]
    fn finalize_refuses_enqueues_but_drains() {
        let q: Scq = Scq::new_empty(3);
        q.enqueue(1).unwrap();
        q.enqueue(2).unwrap();
        assert!(q.finalize());
        assert!(!q.finalize(), "second finalize is a no-op");
        assert!(q.is_finalized());
        assert_eq!(q.enqueue(3), Err(CrqClosed));
        assert_eq!(q.dequeue(), Some(1));
        assert_eq!(q.dequeue(), Some(2));
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn threshold_exhausts_and_rearms() {
        let q: Scq = Scq::new_empty(2);
        q.enqueue(1).unwrap();
        assert_eq!(q.threshold(), q.threshold_max());
        assert_eq!(q.dequeue(), Some(1));
        // Drive the counter negative with empty dequeues.
        let mut spins = 0;
        while q.threshold() >= 0 {
            assert_eq!(q.dequeue(), None);
            spins += 1;
            assert!(spins <= 4 * q.entries.len(), "threshold must decay");
        }
        // Exhausted: head stops moving.
        let head = q.head_index();
        for _ in 0..64 {
            assert_eq!(q.dequeue(), None);
        }
        assert_eq!(q.head_index(), head);
        // An enqueue re-arms it.
        q.enqueue(2).unwrap();
        assert!(q.threshold() >= 0);
        assert_eq!(q.dequeue(), Some(2));
    }

    #[test]
    fn catchup_repairs_a_lagging_tail() {
        let q: Scq = Scq::new_empty(2);
        q.enqueue(0).unwrap();
        assert_eq!(q.dequeue(), Some(0));
        // Empty dequeues push head past tail; catchup must drag tail along
        // so it never lags more than the in-flight window.
        for _ in 0..32 {
            q.dequeue();
        }
        assert!(q.tail_index() + 1 >= q.head_index());
        // Enqueue/dequeue still work after the repairs.
        q.enqueue(3).unwrap();
        assert_eq!(q.dequeue(), Some(3));
    }

    #[test]
    fn scqd_round_trips_arbitrary_values() {
        let q: ScqD = ScqD::new(&LcrqConfig::new(), 4);
        for v in [0u64, 1, u64::MAX, u64::MAX - 1, 0xdead_beef_dead_beef] {
            q.enqueue(v).unwrap();
        }
        for v in [0u64, 1, u64::MAX, u64::MAX - 1, 0xdead_beef_dead_beef] {
            assert_eq!(q.dequeue(), Some(v));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn scqd_tantrums_when_full_and_drains_after() {
        let q: ScqD = ScqD::new(&LcrqConfig::new(), 2);
        for v in 0..q.capacity() {
            q.enqueue(v).unwrap();
        }
        // No free slot left: the enqueue throws the tantrum.
        assert_eq!(q.enqueue(99), Err(CrqClosed));
        assert!(q.is_closed());
        assert_eq!(q.enqueue(100), Err(CrqClosed), "closed is permanent");
        for v in 0..q.capacity() {
            assert_eq!(q.dequeue(), Some(v));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn scqd_seeded_ring_serves_its_seed_first() {
        let q: ScqD = ScqD::with_seed(&LcrqConfig::new(), 3, &[7, 8, 9]);
        q.enqueue(10).unwrap();
        assert_eq!(q.dequeue(), Some(7));
        assert_eq!(q.dequeue(), Some(8));
        assert_eq!(q.dequeue(), Some(9));
        assert_eq!(q.dequeue(), Some(10));
    }

    #[test]
    fn scqd_mpmc_exchange_is_exactly_once() {
        const THREADS: usize = 4;
        const PER_THREAD: u64 = 2_000;
        // Capacity covers the whole run: a bare ScqD closes permanently on
        // full (the tantrum), so this test sizes it for the backlog.
        let q: Arc<ScqD> = Arc::new(ScqD::new(&LcrqConfig::new(), 13));
        let seen = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for t in 0..THREADS as u64 {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    // Ring is big enough that the tantrum never fires here.
                    q.enqueue((t << 32) | i).unwrap();
                }
            }));
        }
        for _ in 0..THREADS {
            let q = Arc::clone(&q);
            let seen = Arc::clone(&seen);
            handles.push(std::thread::spawn(move || {
                let mut last = [None::<u64>; THREADS];
                let mut got = 0usize;
                while got < PER_THREAD as usize {
                    let Some(v) = q.dequeue() else {
                        std::hint::spin_loop();
                        continue;
                    };
                    let (t, i) = ((v >> 32) as usize, v & 0xffff_ffff);
                    assert!(last[t].is_none_or(|prev| prev < i), "per-producer FIFO");
                    last[t] = Some(i);
                    got += 1;
                }
                seen.fetch_add(got, Ordering::SeqCst);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(seen.load(Ordering::SeqCst), THREADS * PER_THREAD as usize);
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn cas_policy_variant_works() {
        let q: ScqD<CasLoopFaa> = ScqD::new(&LcrqConfig::new(), 4);
        for v in 0..10 {
            q.enqueue(v).unwrap();
        }
        for v in 0..10 {
            assert_eq!(q.dequeue(), Some(v));
        }
    }
}

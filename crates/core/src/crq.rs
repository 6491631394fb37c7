//! The CRQ — concurrent ring queue with tantrum semantics (paper §4.1).
//!
//! A ring of `R` nodes with strictly increasing 64-bit `head`/`tail`
//! indices, both updated with fetch-and-add. Index `i` refers to node
//! `i mod R`. The most significant bit of `tail` marks the ring CLOSED.
//!
//! Nodes are dense (16 bytes each), not padded to a cache line as Figure 3a
//! line 17 has them: logical node `i mod R` is *stored* where the rings'
//! shared remap (`ring::spread`) puts it, so neighbouring indices still sit
//! 128 bytes apart (DESIGN.md "Ring layout").
//!
//! Invariants maintained by the node transition protocol:
//!
//! * An occupied node `(s, i, x)` can only be emptied by the dequeuer whose
//!   F&A returned exactly `i` (the *dequeue transition*).
//! * A dequeuer that arrives at an *empty* node before its matching
//!   enqueuer advances the node's index past its own (`empty transition`),
//!   preventing any same-or-older enqueue from using the node.
//! * A dequeuer that arrives at an *occupied* node it cannot dequeue
//!   (a previous-lap item) clears the *safe* bit (`unsafe transition`);
//!   a later enqueuer may only use an unsafe node after verifying its
//!   matching dequeuer has not started (`head <= t`).
//!
//! Because a dequeuer's F&A can push `head` past `tail`, the queue can enter
//! the transient "inconsistent" state `head > tail`; `Crq::fix_state`
//! repairs it before a dequeue reports empty, so enqueuers are not forced to
//! burn F&As on already-skipped indices.

use core::marker::PhantomData;
use core::sync::atomic::{AtomicU64, Ordering};

use lcrq_atomic::{ops, FaaPolicy, HardwareFaa};
use lcrq_util::metrics::{self, Event};
// The list link comes from the sync facade: the list of rings is
// model-checked under `--cfg loom` (tests/loom.rs).
use lcrq_util::sync::AtomicPtr;
use lcrq_util::CachePadded;

use crate::config::LcrqConfig;
use crate::node::Node;
use crate::ring::{pos_of, spread, Ring, LANES};
use crate::BOTTOM;

/// Error returned by [`Crq::enqueue`] once the ring is closed (tantrum
/// semantics: every subsequent enqueue also returns `CrqClosed`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrqClosed;

/// Bit 63 of `tail`: the ring is closed to further enqueues.
const CLOSED_BIT: u64 = 1 << 63;

/// Bounded-wait optimization (§4.1.1): a dequeuer that arrives before its
/// matching enqueuer spins up to this many iterations for the enqueue
/// transition instead of immediately performing an empty transition (which
/// would force both operations to retry).
const BOUNDED_WAIT_SPINS: u32 = 128;

/// A concurrent ring queue (bounded, closable). Most users want the
/// unbounded [`Lcrq`](crate::Lcrq) built from a list of these.
///
/// Generic over the fetch-and-add policy `P` so the same code yields the
/// paper's LCRQ (hardware F&A) and LCRQ-CAS (CAS-loop F&A) variants.
pub struct Crq<P: FaaPolicy = HardwareFaa> {
    head: CachePadded<AtomicU64>,
    /// Bit 63 = closed; bits 62..0 = the tail index.
    tail: CachePadded<AtomicU64>,
    /// The next CRQ in an LCRQ list (null while this is the tail ring).
    next: CachePadded<AtomicPtr<Crq<P>>>,
    /// Identifies the cluster whose threads currently "own" the ring
    /// (LCRQ+H); unused unless the hierarchical optimization is enabled.
    cluster: CachePadded<AtomicU64>,
    /// `max(R / 8, 1)` units of 8 nodes, in `ring::spread` order. The unit's
    /// 128-byte alignment is what keeps neighbouring indices off each
    /// other's line pair, so it is a type and not an allocator promise.
    ring: Box<[CachePadded<[Node; LANES]>]>,
    /// log2 of the ring size `R`.
    order: u32,
    starvation_limit: u32,
    _faa: PhantomData<P>,
}

impl<P: FaaPolicy> Crq<P> {
    /// Creates an empty ring of `1 << config.ring_order` nodes.
    pub fn new(config: &LcrqConfig) -> Self {
        Self::with_seed(config, config.ring_order, &[])
    }

    /// Creates a ring of `R = 2^order` nodes pre-seeded with `seed` (at
    /// most `R` items): one item
    /// when an enqueuer appends a fresh CRQ "initialized to contain x"
    /// (Figure 5c line 162), several when a batch enqueue closes the tail
    /// ring mid-batch and spills its unplaced remainder into the fresh ring
    /// it appends.
    pub fn with_seed(config: &LcrqConfig, order: u32, seed: &[u64]) -> Self {
        assert!(
            seed.len() <= 1 << order,
            "seed batch ({}) exceeds ring size ({})",
            seed.len(),
            1u64 << order
        );
        debug_assert!(!seed.contains(&BOTTOM), "BOTTOM is reserved");
        let units = ((1usize << order) / LANES).max(1);
        // Storage order is not index order: each node starts as the position
        // `j` that reaches it, holding seed item `j` if there is one — the
        // state its enqueue transition would have left. (A ring of fewer
        // than 8 nodes never reaches the spare lanes of its one unit.)
        let ring = (0..units)
            .map(|unit| {
                CachePadded::new(core::array::from_fn(|lane| {
                    let j = pos_of(unit * LANES + lane, order);
                    Node::new(j, seed.get(j as usize).copied().unwrap_or(BOTTOM))
                }))
            })
            .collect();
        metrics::inc(Event::RingAlloc);
        Self {
            head: CachePadded::new(AtomicU64::new(0)),
            tail: CachePadded::new(AtomicU64::new(seed.len() as u64)),
            next: CachePadded::new(AtomicPtr::new(core::ptr::null_mut())),
            cluster: CachePadded::new(AtomicU64::new(0)),
            ring,
            order,
            starvation_limit: config.starvation_limit,
            _faa: PhantomData,
        }
    }

    /// Ring size `R`.
    pub fn ring_size(&self) -> u64 {
        1 << self.order
    }

    /// The node index `index` refers to: logical node `index mod R`.
    #[inline]
    pub(crate) fn node(&self, index: u64) -> &Node {
        let (unit, lane) = spread(index, self.order);
        &self.ring[unit][lane]
    }

    /// Appends `value` (must be `< BOTTOM`), or reports the ring closed.
    ///
    /// Figure 3d. Fails (closing the ring) when the ring appears full
    /// (`t - head >= R`) or after `starvation_limit` placement failures.
    pub fn enqueue(&self, value: u64) -> Result<(), CrqClosed> {
        debug_assert!(value != BOTTOM, "BOTTOM is reserved");
        let mut attempts = 0u32;
        loop {
            let t = P::fetch_add(&self.tail, 1); // F&A on all 64 bits
            if t & CLOSED_BIT != 0 {
                return Err(CrqClosed);
            }
            if self.put(t, value) {
                return Ok(());
            }
            attempts += 1;
            if self.gives_up(t, attempts) {
                return Err(CrqClosed);
            }
        }
    }

    /// Removes the oldest value, or returns `None` when (linearizably)
    /// empty. Figure 3b.
    pub fn dequeue(&self) -> Option<u64> {
        loop {
            let h = P::fetch_add(&self.head, 1);
            if let Some(value) = self.take(h) {
                return Some(value);
            }
            // Failed to dequeue at h; is the queue empty?
            if self.tail_index() <= h + 1 {
                self.fix_state();
                return None;
            }
        }
    }

    /// Figure 3d's placement of `value` at tail index `t`, the one step
    /// every enqueue runs per index: one CAS2 into the node if it is empty,
    /// not ahead of `t`, and safe or not yet reached by `t`'s dequeuer
    /// (`head <= t`). `false` gives the index up, a lost CAS2 included:
    /// the node changed, and its dequeuer may already have passed it.
    #[inline(always)]
    fn put(&self, t: u64, value: u64) -> bool {
        let node = self.node(t);
        metrics::inc(Event::NodeVisit);
        let view = node.read();
        // Scheduler-adversary point inside the read→CAS2 window
        // (`Site::Preempt`). LCRQ's CAS2 targets a slot only this
        // F&A winner races for, so even a mid-window preemption rarely
        // fails it — and a preempted operation blocks nobody.
        let _ = lcrq_util::fault::inject(lcrq_util::fault::Site::Preempt);
        // Fail point between the F&A and the CAS2 placement: `Fail`
        // force-closes the ring (an injected tantrum), `Panic` aborts
        // the enqueue with the tail index consumed but the slot never
        // filled — dequeuers must skip it via the empty transition.
        if lcrq_util::fault::inject(lcrq_util::fault::Site::CrqEnqueue) {
            self.close();
        }
        view.is_empty()
            && view.idx <= t
            && (view.safe || self.head.load(Ordering::SeqCst) <= t)
            && node.try_enqueue(&view, t, value)
    }

    /// Figure 3d's give-up test after an enqueue's `attempts`-th failed
    /// `put`, the last at `t`: closes the ring when it looks full
    /// (`t - head >= R`) or the enqueue is starving.
    #[inline(always)]
    fn gives_up(&self, t: u64, attempts: u32) -> bool {
        let h = self.head.load(Ordering::SeqCst);
        let full = t.wrapping_sub(h) as i64 >= self.ring_size() as i64;
        if full || attempts >= self.starvation_limit {
            self.close();
            return true;
        }
        false
    }

    /// Figure 3b's work at head index `h`, the one step every dequeue runs
    /// per index: the item enqueued at `h`, or `None` once `h` is settled
    /// without one — overtaken, or blocked by an unsafe or empty transition
    /// after the bounded wait (§4.1.1). A lost CAS2 re-reads the node.
    #[inline(always)]
    fn take(&self, h: u64) -> Option<u64> {
        let node = self.node(h);
        let mut spins = BOUNDED_WAIT_SPINS;
        loop {
            metrics::inc(Event::NodeVisit);
            let view = node.read();
            let _ = lcrq_util::fault::inject(lcrq_util::fault::Site::Preempt);
            let _ = lcrq_util::fault::inject(lcrq_util::fault::Site::CrqDequeue);
            if view.idx > h {
                return None; // overtaken between our F&A and the read
            }
            if !view.is_empty() {
                if view.idx == h {
                    // Our item: dequeue transition.
                    if node.try_dequeue(&view, self.ring_size()) {
                        return Some(view.val);
                    }
                } else if node.try_mark_unsafe(&view) {
                    // Previous-lap item we cannot take: mark unsafe so
                    // enq_h cannot blindly store into this node.
                    metrics::inc(Event::UnsafeTransition);
                    return None;
                }
            } else {
                // Empty node with idx <= h. If the matching enqueuer is
                // active (tail already past h), wait briefly for its
                // enqueue transition instead of wasting both operations
                // (§4.1.1 bounded waiting).
                if spins > 0 && self.tail_index() > h {
                    spins -= 1;
                    metrics::inc(Event::SpinWait);
                    core::hint::spin_loop();
                    continue;
                }
                // Empty transition: block index h (and all older laps).
                if node.try_empty(&view, h, self.ring_size()) {
                    metrics::inc(Event::EmptyTransition);
                    return None;
                }
            }
            // A CAS2 failed: the node changed; re-read and retry.
        }
    }

    /// Repairs `head > tail` (caused by dequeuers' F&As overshooting) by
    /// CASing `tail` up to `head`, so enqueuers do not receive a stream of
    /// already-skipped indices. Figure 3c.
    fn fix_state(&self) {
        loop {
            let t = P::fetch_add(&self.tail, 0); // linearized read, all 64 bits
            let h = P::fetch_add(&self.head, 0);
            if self.tail.load(Ordering::SeqCst) != t {
                continue; // tail moved under us; re-read
            }
            // If closed, t's bit 63 makes it huge: nothing to fix, which is
            // correct — no enqueuer will take indices from a closed ring.
            if h <= t {
                return;
            }
            if ops::cas(&self.tail, t, h).is_ok() {
                return;
            }
        }
    }
}

/// The CRQ as a [`Ring`]. Construction, `enqueue` and `dequeue` forward to
/// the inherent methods above (callers without the trait in scope use
/// those); the rest of the ring's surface lives here. The hooks it
/// overrides are its `FAA(k)` batches, the LCRQ+H cluster word and the
/// read-only EMPTY proof.
impl<P: FaaPolicy> Ring for Crq<P> {
    fn new(config: &LcrqConfig, order: u32) -> Self {
        Crq::with_seed(config, order, &[])
    }
    // Seeds node by node, without the F&As the default would spend.
    fn with_seed(config: &LcrqConfig, order: u32, seed: &[u64]) -> Self {
        Crq::with_seed(config, order, seed)
    }
    fn order(&self) -> u32 {
        self.order
    }
    fn enqueue(&self, value: u64) -> Result<(), CrqClosed> {
        Crq::enqueue(self, value)
    }
    fn dequeue(&self) -> Option<u64> {
        Crq::dequeue(self)
    }
    /// Closes the ring: every future enqueue returns [`CrqClosed`].
    /// Idempotent; uses test-and-set on tail's closed bit (Figure 3d l.99).
    fn close(&self) {
        if !ops::tas_bit(&self.tail, 63) {
            metrics::inc(Event::CrqClosed);
        }
    }
    fn is_closed(&self) -> bool {
        self.tail.load(Ordering::SeqCst) & CLOSED_BIT != 0
    }
    const PROVES_EMPTY: bool = true;
    /// `tail`, `head`, `tail` again, and no ticket. `tail` only grows, so
    /// two equal reads place `head >= tail` at the instant of the head read:
    /// the condition under which Figure 3b's dequeue answers EMPTY
    /// (`tail <= h + 1` after its own F&A). A closed ring proves nothing.
    fn proves_empty(&self) -> bool {
        let t = self.tail.load(Ordering::SeqCst);
        let h = self.head.load(Ordering::SeqCst);
        let _ = lcrq_util::fault::inject(lcrq_util::fault::Site::Preempt);
        t & CLOSED_BIT == 0 && h >= t && self.tail.load(Ordering::SeqCst) == t
    }
    fn next(&self) -> &AtomicPtr<Self> {
        &self.next
    }
    fn head_index(&self) -> u64 {
        self.head.load(Ordering::SeqCst)
    }
    fn tail_index(&self) -> u64 {
        self.tail.load(Ordering::SeqCst) & !CLOSED_BIT
    }
    fn name(hierarchical: bool) -> &'static str {
        match (P::name(), hierarchical) {
            ("faa", false) => "lcrq",
            ("faa", true) => "lcrq+h",
            ("cas-loop", false) => "lcrq-cas",
            ("cas-loop", true) => "lcrq-cas+h",
            _ => "lcrq-custom",
        }
    }
    fn cluster(&self) -> Option<&AtomicU64> {
        Some(&self.cluster)
    }
    /// Appends a prefix of `values` after reserving up to `values.len()`
    /// consecutive tail indices with a **single** `FAA(tail, k)`, then
    /// running the scalar enqueue's per-index step (`put`) on each. Returns
    /// the number of values placed.
    ///
    /// Semantics: the batch is **not** an atomic multi-enqueue — it
    /// linearizes as `placed` individual enqueues whose queue positions are
    /// contiguous within this reservation (concurrent enqueuers' items sit
    /// entirely before or after the reserved range, never between two items
    /// of the same reservation; see DESIGN.md "Batched operations").
    ///
    /// A reserved index whose placement fails is given up, exactly as a
    /// scalar enqueue gives up its index (a lost CAS2 included), and the
    /// value moves on to the next reserved index. A dequeuer reaching a
    /// given-up index performs the empty transition. A return of
    /// `placed < values.len()` means one of:
    ///
    /// * the ring is [closed](Ring::is_closed) (tantrum) — the caller must
    ///   spill the remainder elsewhere (the LCRQ appends a fresh ring
    ///   seeded via [`with_seed`](Crq::with_seed));
    /// * the ring is still open but this reservation ran out of usable
    ///   indices (some were given up, or `values.len() > R`) — the caller
    ///   may simply call again for the rest.
    fn enqueue_batch(&self, values: &[u64]) -> usize {
        if values.is_empty() {
            return 0;
        }
        // Cap the reservation at R: indices beyond one lap can never all be
        // usable, and a bounded reservation keeps `head - tail` overshoot
        // (and thus fix_state work) small.
        let k = (values.len() as u64).min(self.ring_size());
        let first = P::fetch_add_k(&self.tail, k); // one F&A for k indices
        if first & CLOSED_BIT != 0 {
            return 0;
        }
        metrics::inc(Event::BatchEnqueue);
        let mut placed = 0usize;
        let mut attempts = 0u32;
        for t in first..first + k {
            debug_assert!(values[placed] != BOTTOM, "BOTTOM is reserved");
            if self.put(t, values[placed]) {
                placed += 1;
                continue;
            }
            attempts += 1;
            if self.gives_up(t, attempts) {
                break;
            }
        }
        metrics::add(Event::BatchEnqueueItems, placed as u64);
        placed
    }

    /// Removes up to `max` of the oldest values after reserving head
    /// indices with a **single** `FAA(head, k)`, appending them to `out` in
    /// queue order, after running the scalar dequeue's per-index step
    /// (`take`) on each. Returns the number of values removed.
    ///
    /// `k` is bounded by the observed `tail - head` distance so an
    /// over-long batch does not manufacture empty transitions on indices no
    /// enqueuer has reserved (the bound is racy under concurrency — any
    /// overshoot behaves exactly like the same number of scalar empty
    /// dequeues).
    ///
    /// Returns 0 **without reserving anything** when the queue looks empty;
    /// callers needing a linearizable EMPTY verdict (or ring switching)
    /// should fall back to a scalar [`dequeue`](Crq::dequeue).
    fn dequeue_batch(&self, out: &mut Vec<u64>, max: usize) -> usize {
        let h0 = self.head.load(Ordering::SeqCst);
        let k = (max as u64).min(self.tail_index().saturating_sub(h0));
        if k == 0 {
            return 0;
        }
        metrics::inc(Event::BatchDequeue);
        let first = P::fetch_add_k(&self.head, k); // one F&A for k indices
        let before = out.len();
        out.extend((first..first + k).filter_map(|h| self.take(h)));
        let taken = out.len() - before;
        if taken == 0 && self.tail_index() <= first + k {
            // Whole reservation came up empty-handed: repair any
            // head-past-tail overshoot before reporting nothing, as the
            // scalar path does.
            self.fix_state();
        }
        metrics::add(Event::BatchDequeueItems, taken as u64);
        taken
    }
}

// SAFETY: all shared state is atomics; values are plain u64.
unsafe impl<P: FaaPolicy> Send for Crq<P> {}
unsafe impl<P: FaaPolicy> Sync for Crq<P> {}

#[cfg(test)]
mod tests {
    use super::*;
    use lcrq_queues::testing;
    use std::sync::atomic::AtomicU64 as StdAtomicU64;
    use std::sync::Barrier;

    fn small_config(order: u32) -> LcrqConfig {
        LcrqConfig::new().with_ring_order(order)
    }

    fn crq(order: u32) -> Crq {
        Crq::new(&small_config(order))
    }

    #[test]
    fn empty_dequeue_returns_none() {
        let q = crq(4);
        assert_eq!(q.dequeue(), None);
        assert_eq!(q.dequeue(), None);
        assert!(!q.is_closed());
    }

    #[test]
    fn proves_empty_where_figure_3b_would_answer_empty() {
        let q = crq(4);
        assert!(q.proves_empty(), "a fresh ring");
        q.enqueue(1).unwrap();
        assert!(!q.proves_empty(), "an item is queued");
        assert_eq!(q.dequeue(), Some(1));
        assert!(q.proves_empty(), "after the last item's dequeue");
        // A full-path EMPTY pushes head past tail; fixState repairs it.
        assert_eq!(q.dequeue(), None);
        assert_eq!((q.head_index(), q.tail_index()), (2, 2));
        assert!(q.proves_empty(), "after a repaired head overshoot");
    }

    #[test]
    fn proves_nothing_with_a_ticket_out_or_a_closed_ring() {
        let q = crq(4);
        // An enqueuer that has taken ticket 0 and not yet placed its item.
        q.tail.store(1, Ordering::SeqCst);
        assert!(!q.proves_empty(), "head < tail");
        let q = crq(4);
        q.close();
        assert!(!q.proves_empty(), "a closed ring");
    }

    #[test]
    fn fifo_order_sequential() {
        let q = crq(6);
        for i in 0..60 {
            q.enqueue(i).unwrap();
        }
        for i in 0..60 {
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn wraps_around_the_ring_many_times() {
        let q = crq(3); // R = 8
        for lap in 0..100u64 {
            for i in 0..6 {
                q.enqueue(lap * 10 + i).unwrap();
            }
            for i in 0..6 {
                assert_eq!(q.dequeue(), Some(lap * 10 + i));
            }
        }
        assert_eq!(q.dequeue(), None);
        assert!(!q.is_closed(), "in-capacity use must never close the ring");
    }

    #[test]
    fn filling_the_ring_closes_it() {
        let q = crq(3); // R = 8
        let mut accepted = 0;
        for i in 0..20 {
            match q.enqueue(i) {
                Ok(()) => accepted += 1,
                Err(CrqClosed) => break,
            }
        }
        assert!(q.is_closed());
        assert!(accepted >= 8 - 1, "a ring holds nearly R items: {accepted}");
        // Tantrum semantics: closed forever.
        assert_eq!(q.enqueue(99), Err(CrqClosed));
        // All accepted items are still dequeueable in order.
        for i in 0..accepted {
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn explicit_close_is_idempotent_and_preserves_items() {
        let q = crq(5);
        q.enqueue(1).unwrap();
        q.enqueue(2).unwrap();
        q.close();
        q.close();
        assert!(q.is_closed());
        assert_eq!(q.enqueue(3), Err(CrqClosed));
        assert_eq!(q.dequeue(), Some(1));
        assert_eq!(q.dequeue(), Some(2));
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn dequeue_on_empty_fixes_head_overshoot() {
        let q = crq(5);
        // Each empty dequeue bumps head past tail; fix_state must repair so
        // a subsequent enqueue/dequeue pair still works at full speed.
        for _ in 0..10 {
            assert_eq!(q.dequeue(), None);
        }
        assert!(
            q.head_index() <= q.tail_index(),
            "fixState must repair head>tail"
        );
        q.enqueue(5).unwrap();
        assert_eq!(q.dequeue(), Some(5));
    }

    #[test]
    fn mpmc_stress_no_loss_no_duplication() {
        // Ring big enough to hold the whole backlog (4 × 5000 < 2^15), so
        // the "possibly full" close never triggers; a bare CRQ is bounded.
        let q = crq(15);
        let producers = 4usize;
        let sent = testing::items(producers, 5_000);
        let barrier = Barrier::new(producers + 2);
        let producers_done = StdAtomicU64::new(0);
        let q = &q;
        let barrier = &barrier;
        let producers_done = &producers_done;
        let streams: Vec<Vec<u64>> = std::thread::scope(|s| {
            for mine in sent.chunks(5_000) {
                s.spawn(move || {
                    barrier.wait();
                    for &v in mine {
                        q.enqueue(v)
                            .expect("ring sized to never close in this test");
                    }
                    producers_done.fetch_add(1, Ordering::SeqCst);
                });
            }
            let consumers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(move || {
                        barrier.wait();
                        let mut got = Vec::new();
                        loop {
                            match q.dequeue() {
                                Some(v) => got.push(v),
                                None => {
                                    if producers_done.load(Ordering::SeqCst) == producers as u64 {
                                        // This dequeue linearizes after the
                                        // flag read, hence after every
                                        // enqueue: None now means drained.
                                        match q.dequeue() {
                                            Some(v) => got.push(v),
                                            None => break,
                                        }
                                    } else {
                                        std::thread::yield_now();
                                    }
                                }
                            }
                        }
                        got
                    })
                })
                .collect();
            consumers.into_iter().map(|h| h.join().unwrap()).collect()
        });
        testing::check_delivery(&sent, &streams).unwrap();
    }

    #[test]
    fn tiny_ring_under_contention_closes_rather_than_blocks() {
        // R=2 with 4 threads: enqueues must either succeed or close the
        // ring; nothing may deadlock.
        let q = crq(1);
        let q = &q;
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(move || {
                    for i in 0..1_000u64 {
                        if q.enqueue(i).is_err() {
                            break;
                        }
                        let _ = q.dequeue();
                    }
                });
            }
        });
        // Drain whatever remains.
        while q.dequeue().is_some() {}
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn starving_enqueuer_closes_the_ring() {
        // Deterministically exercise Figure 3d's starving() branch: a
        // dequeuer's empty transition advances node 0's index to R; we then
        // rewind tail (test-only, emulating an enqueuer whose F&A raced the
        // dequeuer) so the next enqueue receives t = 0, observes idx > t,
        // fails, and — with starvation limit 1 — closes the ring even
        // though it is nowhere near full.
        let cfg = small_config(4).with_starvation_limit(1);
        let q: Crq = Crq::new(&cfg);
        assert_eq!(q.dequeue(), None); // empty transition on node 0 (h = 0)
        q.tail.store(0, Ordering::SeqCst); // rewind: next enqueue gets t = 0
        assert_eq!(q.enqueue(7), Err(CrqClosed));
        assert!(q.is_closed());
        assert!(
            q.tail_index() < q.ring_size(),
            "ring closed by starvation, not by being full"
        );
    }

    #[test]
    fn starvation_limit_bounds_enqueue_attempts() {
        // Same poisoned setup but with a higher limit: the enqueue performs
        // exactly `limit` F&As before giving up (each retry re-fetches an
        // index; only t=0 is poisoned, so the second attempt succeeds —
        // verify by allowing it).
        let cfg = small_config(4).with_starvation_limit(8);
        let q: Crq = Crq::new(&cfg);
        assert_eq!(q.dequeue(), None);
        q.tail.store(0, Ordering::SeqCst);
        // t=0 fails (idx R > 0); retry gets t=1 which succeeds.
        assert_eq!(q.enqueue(7), Ok(()));
        assert!(!q.is_closed());
        assert_eq!(q.dequeue(), Some(7));
    }

    #[test]
    fn huge_indices_behave_like_small_ones() {
        // The paper assumes head/tail never exceed 2^63 (§4.1). Fast-forward
        // both indices deep into that range and verify the ring protocol
        // (node index arithmetic, wrap, closed-bit packing) still works.
        let q = crq(4); // R = 16
        let base: u64 = (1 << 62) + 5;
        // Advance indices coherently: nodes must also carry matching idx
        // values, so replay the advance through the public API is too slow;
        // instead set head == tail == base and re-index the ring nodes by
        // performing base-consistent empty transitions is equally slow.
        // Pragmatic approach: set both counters to a multiple of R so node
        // u's stored index (u) is congruent and `idx <= t` holds.
        let aligned = base & !(q.ring_size() - 1); // multiple of R
        q.head.store(aligned, Ordering::SeqCst);
        q.tail.store(aligned, Ordering::SeqCst);
        for i in 0..40 {
            q.enqueue(i).unwrap();
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
        assert!(!q.is_closed());
        assert!(q.head_index() >= aligned);
    }

    #[test]
    fn closed_bit_does_not_corrupt_huge_tail() {
        let q = crq(3);
        let aligned = ((1u64 << 62) + 9) & !(q.ring_size() - 1);
        q.head.store(aligned, Ordering::SeqCst);
        q.tail.store(aligned, Ordering::SeqCst);
        q.enqueue(1).unwrap();
        q.close();
        assert!(q.is_closed());
        assert_eq!(
            q.tail_index(),
            aligned + 1,
            "closed bit must not leak into the index"
        );
        assert_eq!(q.enqueue(2), Err(CrqClosed));
        assert_eq!(q.dequeue(), Some(1));
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn neighbouring_indices_never_share_a_line_pair() {
        const LINE_PAIR: usize = lcrq_util::pad::CACHE_LINE;
        let q: Crq = Crq::new(&LcrqConfig::new());
        let r = q.ring_size();
        let addr = |i: u64| q.node(i) as *const Node as usize;
        assert_eq!(q.ring.as_ptr() as usize % LINE_PAIR, 0);
        assert_eq!(q.ring.len() * LINE_PAIR, r as usize * 16, "no padding");
        for i in 0..2 * r {
            assert_ne!(addr(i) / LINE_PAIR, addr(i + 1) / LINE_PAIR, "index {i}");
            assert_eq!(addr(i), addr(i + r), "index {i} is node {i} mod R");
        }
        // The indices that do share a line pair are R/8 tickets apart.
        assert_eq!(addr(0) + 16, addr(r / 8));
    }

    /// Every index of the first lap must reach a node that carries it, and
    /// its seed item if it has one: storage order is not index order, so
    /// construction, which walks the storage, has to translate.
    #[test]
    fn every_index_reaches_a_node_that_carries_it() {
        for order in [1, 3, 4, 12] {
            let q: Crq = Crq::with_seed(&LcrqConfig::new(), order, &[7, 8]);
            for p in 0..q.ring_size() {
                let v = q.node(p).read();
                assert!(v.safe);
                assert_eq!(v.idx, p, "R = {}", q.ring_size());
                assert_eq!(v.val, [7, 8].get(p as usize).copied().unwrap_or(BOTTOM));
            }
            assert_eq!((q.head_index(), q.tail_index()), (0, 2));
            assert_eq!(q.dequeue(), Some(7));
            assert_eq!(q.dequeue(), Some(8));
            // And the protocol agrees with the layout, across several laps.
            for i in 0..3 * q.ring_size() {
                q.enqueue(i).unwrap();
                assert_eq!(q.dequeue(), Some(i));
            }
        }
    }

    #[test]
    fn lcrq_cas_variant_behaves_identically() {
        use lcrq_atomic::CasLoopFaa;
        let q: Crq<CasLoopFaa> = Crq::new(&small_config(8));
        for i in 0..50 {
            q.enqueue(i).unwrap();
        }
        for i in 0..50 {
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn common_case_uses_two_faa_per_pair() {
        use lcrq_util::metrics;
        let q = crq(8);
        let before = metrics::local_snapshot();
        for i in 0..100 {
            q.enqueue(i).unwrap();
            assert_eq!(q.dequeue(), Some(i));
        }
        let d = metrics::local_snapshot().delta_since(&before);
        // One F&A per enqueue + one per dequeue (no retries when solo).
        assert_eq!(d.get(metrics::Event::Faa), 200);
        // One CAS2 per op, all successful.
        assert_eq!(d.get(metrics::Event::Cas2Attempt), 200);
        assert_eq!(d.get(metrics::Event::Cas2Failure), 0);
    }

    #[test]
    fn batch_round_trip_preserves_fifo_order() {
        let q = crq(6); // R = 64
        let values: Vec<u64> = (100..160).collect();
        assert_eq!(q.enqueue_batch(&values), 60);
        let mut out = Vec::new();
        assert_eq!(q.dequeue_batch(&mut out, 25), 25);
        assert_eq!(q.dequeue_batch(&mut out, 100), 35);
        assert_eq!(out, values);
        assert_eq!(q.dequeue_batch(&mut out, 10), 0, "drained");
        assert_eq!(q.dequeue(), None);
        assert!(!q.is_closed());
    }

    #[test]
    fn empty_batches_touch_nothing() {
        let q = crq(4);
        let t0 = q.tail_index();
        let h0 = q.head_index();
        assert_eq!(q.enqueue_batch(&[]), 0);
        let mut out = Vec::new();
        assert_eq!(q.dequeue_batch(&mut out, 0), 0);
        assert_eq!(
            q.dequeue_batch(&mut out, 8),
            0,
            "empty ring: no reservation"
        );
        assert_eq!(q.tail_index(), t0, "no F&A may have moved tail");
        assert_eq!(q.head_index(), h0, "no F&A may have moved head");
    }

    #[test]
    fn batch_reservation_is_capped_at_ring_size() {
        let q = crq(3); // R = 8
        let values: Vec<u64> = (0..20).collect();
        // One reservation covers at most R indices: first call places 8.
        assert_eq!(q.enqueue_batch(&values), 8);
        assert!(!q.is_closed());
        // The ring is now full: the next reservation finds an occupied node
        // with head R behind it and throws the tantrum.
        assert_eq!(q.enqueue_batch(&values[8..]), 0);
        assert!(q.is_closed(), "full ring must close, not spin");
        // Everything accepted is still there, in order.
        let mut out = Vec::new();
        assert_eq!(q.dequeue_batch(&mut out, 20), 8);
        assert_eq!(out, (0..8).collect::<Vec<u64>>());
    }

    #[test]
    fn dequeue_batch_is_bounded_by_the_backlog() {
        let q = crq(5);
        assert_eq!(q.enqueue_batch(&[1, 2, 3, 4, 5]), 5);
        let mut out = Vec::new();
        // max far beyond the backlog: the reservation must not overshoot
        // (head stays <= tail; no empty transitions are manufactured).
        assert_eq!(q.dequeue_batch(&mut out, 1_000), 5);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
        assert!(q.head_index() <= q.tail_index());
        // Refill to prove no index was poisoned by the over-ask.
        q.enqueue(6).unwrap();
        assert_eq!(q.dequeue(), Some(6));
    }

    #[test]
    fn batch_and_scalar_ops_interleave() {
        let q = crq(6);
        q.enqueue(1).unwrap();
        assert_eq!(q.enqueue_batch(&[2, 3, 4]), 3);
        q.enqueue(5).unwrap();
        let mut out = Vec::new();
        assert_eq!(q.dequeue_batch(&mut out, 2), 2);
        assert_eq!(q.dequeue(), Some(3));
        assert_eq!(q.dequeue_batch(&mut out, 10), 2);
        assert_eq!(out, vec![1, 2, 4, 5]);
    }

    #[test]
    fn seeded_batch_ring_drains_in_order() {
        let seed: Vec<u64> = (10..18).collect();
        let q: Crq = Crq::with_seed(&LcrqConfig::new(), 3, &seed);
        assert_eq!(q.tail_index(), 8);
        assert_eq!(q.head_index(), 0);
        let mut out = Vec::new();
        assert_eq!(q.dequeue_batch(&mut out, 100), 8);
        assert_eq!(out, seed);
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    #[should_panic(expected = "exceeds ring size")]
    fn oversized_seed_batch_panics() {
        let seed: Vec<u64> = (0..9).collect();
        let _q: Crq = Crq::with_seed(&LcrqConfig::new(), 3, &seed); // R = 8
    }

    #[test]
    fn batch_wraps_the_ring_many_times() {
        let q = crq(3); // R = 8
        let mut out = Vec::new();
        for lap in 0..200u64 {
            let vals: Vec<u64> = (0..5).map(|i| lap * 10 + i).collect();
            assert_eq!(q.enqueue_batch(&vals), 5);
            out.clear();
            assert_eq!(q.dequeue_batch(&mut out, 5), 5);
            assert_eq!(out, vals);
        }
        assert!(!q.is_closed(), "in-capacity batches must never close");
    }

    #[test]
    fn cas_variant_batches_identically() {
        use lcrq_atomic::CasLoopFaa;
        let q: Crq<CasLoopFaa> = Crq::new(&small_config(6));
        let values: Vec<u64> = (0..40).collect();
        assert_eq!(q.enqueue_batch(&values), 40);
        let mut out = Vec::new();
        assert_eq!(q.dequeue_batch(&mut out, 40), 40);
        assert_eq!(out, values);
    }

    #[test]
    fn batch_pays_one_faa_per_reservation() {
        // The tentpole's acceptance criterion: k=16 batches must spend at
        // least 8x fewer F&A instructions than the scalar loop (they spend
        // exactly 16x fewer here: one FAA(ctr, 16) vs 16 FAA(ctr, 1)).
        use lcrq_util::metrics::{self, Event};
        const K: u64 = 16;
        const ROUNDS: u64 = 10;

        let scalar = crq(8);
        let before = metrics::local_snapshot();
        for r in 0..ROUNDS {
            for i in 0..K {
                scalar.enqueue(r * K + i).unwrap();
            }
            for i in 0..K {
                assert_eq!(scalar.dequeue(), Some(r * K + i));
            }
        }
        let scalar_faa = metrics::local_snapshot()
            .delta_since(&before)
            .get(Event::Faa);
        assert_eq!(scalar_faa, 2 * K * ROUNDS, "one F&A per scalar op");

        let batched = crq(8);
        let before = metrics::local_snapshot();
        let mut out = Vec::new();
        for r in 0..ROUNDS {
            let vals: Vec<u64> = (0..K).map(|i| r * K + i).collect();
            assert_eq!(batched.enqueue_batch(&vals), K as usize);
            out.clear();
            assert_eq!(batched.dequeue_batch(&mut out, K as usize), K as usize);
            assert_eq!(out, vals);
        }
        let d = metrics::local_snapshot().delta_since(&before);
        let batch_faa = d.get(Event::Faa);
        assert_eq!(batch_faa, 2 * ROUNDS, "one F&A per k=16 reservation");
        assert!(
            scalar_faa >= 8 * batch_faa,
            "k=16 batches must amortize F&A >= 8x: scalar={scalar_faa} batch={batch_faa}"
        );
        // Batch-size accounting feeding table2/table3's F&A-per-op column.
        assert_eq!(d.get(Event::BatchEnqueue), ROUNDS);
        assert_eq!(d.get(Event::BatchEnqueueItems), K * ROUNDS);
        assert_eq!(d.get(Event::BatchDequeue), ROUNDS);
        assert_eq!(d.get(Event::BatchDequeueItems), K * ROUNDS);
        assert_eq!(d.mean_enqueue_batch(), K as f64);
        assert_eq!(d.mean_dequeue_batch(), K as f64);
    }

    #[test]
    fn concurrent_batch_reservations_do_not_interleave_within_a_batch() {
        // Two threads batch-enqueue stamped runs into one ring; each run
        // placed by one reservation must occupy contiguous positions.
        let q = crq(12); // R = 4096 >> total items: no closes
        let writers = 2usize;
        let runs = 50u64;
        const K: usize = 8;
        let q = &q;
        std::thread::scope(|s| {
            for w in 0..writers {
                s.spawn(move || {
                    for r in 0..runs {
                        let base = testing::encode(w, r << 16);
                        let vals: Vec<u64> = (0..K as u64).map(|i| base | i).collect();
                        let mut placed = 0;
                        while placed < K {
                            placed += q.enqueue_batch(&vals[placed..]);
                        }
                    }
                });
            }
        });
        let mut out = Vec::new();
        let total = writers * runs as usize * K;
        assert_eq!(q.dequeue_batch(&mut out, total + 10), total);
        // Check contiguity: whenever an item with sequence 0 of a run shows
        // up, the whole run follows consecutively (single reservation: the
        // ring was big enough that every batch placed in full).
        let mut i = 0;
        while i < out.len() {
            let v = out[i];
            assert_eq!(v & 0xFFFF, 0, "runs must start at sequence 0");
            for j in 0..K as u64 {
                assert_eq!(out[i + j as usize], (v & !0xFFFF) | j, "run torn at {j}");
            }
            i += K;
        }
    }
}

//! Sharded d-choice front-end: N queues behind one facade.
//!
//! A single LCRQ serializes every endpoint on one fetch-and-add hot spot —
//! the very cost model of the paper. [`ShardedQueue`] trades a bounded
//! amount of FIFO order for throughput by spreading operations over
//! `shards` independent backends (generic over any
//! [`ConcurrentQueue`]), in the style of the d-CBO load-balanced wrappers
//! built around this exact LCRQ (`dcs-chalmers/semantic-relaxation-dcbo`):
//!
//! * **Enqueue** samples `d` shards (default d = 2) by cheap length
//!   estimates and appends to the *shortest*.
//! * **Dequeue** samples `d` shards and takes from the *longest*; if the
//!   chosen shard comes up empty it falls back to a full sweep over every
//!   shard, so `dequeue() == None` still means every shard was observed
//!   empty during the operation ("empty up to relaxation") and an element
//!   that was definitely present is always found.
//!
//! # The balancer must not become the hot spot
//!
//! Length estimates come from per-shard enqueue/dequeue counters (each on
//! its own cache line, bumped with relaxed F&A by the operations that
//! already own that shard's lines). Reading all of them on every operation
//! would re-centralize the very traffic sharding removes, so each thread
//! keeps a private cached copy, adjusted optimistically by its own
//! operations and re-read from the real counters only every `REFRESH`
//! (64) operations. Correctness never depends on the estimates — they
//! only steer placement; the fallback sweep consults the real shards.
//!
//! # Semantic relaxation
//!
//! Per-shard FIFO order is exact; *cross*-shard order is relaxed: a
//! dequeue may overtake elements that are older but live in unsampled
//! shards. [`rank_error_bound`](ShardedQueue::rank_error_bound) gives the
//! configured analytic envelope on that rank error; `lcrq-verify`'s
//! relaxation checker measures the empirical error of recorded histories
//! against it. With `shards = 1` the facade adds no reordering at all and
//! the queue remains strictly linearizable FIFO.

use lcrq_queues::ConcurrentQueue;
use lcrq_util::{fault, CachePadded, XorShift64Star};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Operations a thread runs on its cached length estimates before it
/// re-reads the real per-shard counters. Larger would make the balancer
/// cheaper and the relaxation window wider.
const REFRESH: u32 = 64;

/// Construction parameters for a [`ShardedQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedConfig {
    /// Number of independent backend shards (clamped to ≥ 1).
    pub shards: usize,
    /// Shards sampled per operation (clamped to `1..=shards`). d = 1
    /// degenerates to uniform random placement; d ≥ 2 gives the
    /// power-of-d-choices balance.
    pub d: usize,
}

impl ShardedConfig {
    /// The default: 8 shards, d = 2.
    pub const fn new() -> Self {
        Self { shards: 8, d: 2 }
    }

    /// Returns `self` with the shard count set.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Returns `self` with the sample width set.
    pub fn with_d(mut self, d: usize) -> Self {
        self.d = d;
        self
    }
}

impl Default for ShardedConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// One backend plus its length-estimate counters, each padded so a shard's
/// balancer traffic never false-shares with its neighbours.
struct Shard<Q> {
    queue: Q,
    enq: CachePadded<AtomicU64>,
    deq: CachePadded<AtomicU64>,
}

/// A relaxed MPMC FIFO queue: `shards` independent backends behind one
/// [`ConcurrentQueue`] facade, balanced by d-choice length estimates.
///
/// See the [module docs](self) for the design; construct via
/// [`from_factory`](ShardedQueue::from_factory) (or a
/// `sharded:shards=8,d=2,inner=lcrq` spec string through the bench
/// registry).
pub struct ShardedQueue<Q> {
    shards: Box<[Shard<Q>]>,
    d: usize,
    /// Process-unique id distinguishing this queue's thread-local sampler
    /// state from other (possibly freed-and-reallocated) instances.
    instance: u64,
}

/// Per-thread sampler: cached length estimates plus the d-choice RNG.
struct Sampler {
    instance: u64,
    est: Vec<i64>,
    until_refresh: u32,
    rng: XorShift64Star,
}

thread_local! {
    /// One slot per thread: the sampler of the sharded queue this thread
    /// touched last. Another instance (by id) rebuilds it from the real
    /// counters, so interleaving queues is correct, just not cached.
    static SAMPLER: RefCell<Option<Sampler>> = const { RefCell::new(None) };
}

fn next_instance_id() -> u64 {
    static CTR: AtomicU64 = AtomicU64::new(1);
    CTR.fetch_add(1, Ordering::Relaxed)
}

impl<Q: ConcurrentQueue> ShardedQueue<Q> {
    /// Builds a sharded queue whose shard `i` is `factory(i)`.
    ///
    /// `cfg.shards` is clamped to ≥ 1 and `cfg.d` to `1..=shards`.
    pub fn from_factory(cfg: &ShardedConfig, mut factory: impl FnMut(usize) -> Q) -> Self {
        let shards = cfg.shards.max(1);
        Self {
            shards: (0..shards)
                .map(|i| Shard {
                    queue: factory(i),
                    enq: CachePadded::new(AtomicU64::new(0)),
                    deq: CachePadded::new(AtomicU64::new(0)),
                })
                .collect(),
            d: cfg.d.clamp(1, shards),
            instance: next_instance_id(),
        }
    }

    /// Number of backend shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Shards sampled per operation.
    pub fn d(&self) -> usize {
        self.d
    }

    /// Snapshot length estimate: total enqueues minus total dequeues
    /// observed so far (racy; for monitoring and benchmarks only).
    pub fn len_estimate(&self) -> u64 {
        let (mut e, mut d) = (0u64, 0u64);
        for sh in self.shards.iter() {
            e = e.wrapping_add(sh.enq.load(Ordering::Relaxed));
            d = d.wrapping_add(sh.deq.load(Ordering::Relaxed));
        }
        e.saturating_sub(d)
    }

    /// The analytic rank-error envelope for this configuration at the
    /// given concurrency — see [`rank_error_bound_for`].
    pub fn rank_error_bound(&self, threads: usize) -> u64 {
        rank_error_bound_for(self.shards.len(), self.d, threads)
    }

    /// Re-reads the real counters into the sampler's estimate cache.
    fn refresh_estimates(&self, smp: &mut Sampler) {
        for (slot, sh) in smp.est.iter_mut().zip(self.shards.iter()) {
            let e = sh.enq.load(Ordering::Relaxed);
            let d = sh.deq.load(Ordering::Relaxed);
            *slot = e.wrapping_sub(d) as i64;
        }
        smp.until_refresh = REFRESH;
    }

    /// Samples `d` shards by cached estimate and returns the best index
    /// (shortest for enqueue, longest for dequeue), optimistically
    /// adjusting the cached estimate for the operation about to happen.
    ///
    /// The single thread-local borrow is released before the caller
    /// touches the chosen shard, so nested sharded queues (an inner
    /// `sharded:` spec) re-enter safely.
    fn pick(&self, for_enqueue: bool, delta: i64) -> usize {
        SAMPLER.with(|slot| {
            let mut slot = slot.borrow_mut();
            let smp = match slot.as_mut() {
                Some(smp) if smp.instance == self.instance => smp,
                _ => {
                    let mut fresh = Sampler {
                        instance: self.instance,
                        est: vec![0; self.shards.len()],
                        until_refresh: 0,
                        // Placement steering only — deliberately NOT wired
                        // to LCRQ_TEST_SEED: a shared seed would herd every
                        // thread onto the same shard sequence.
                        rng: XorShift64Star::new(
                            self.instance.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                                ^ next_instance_id().wrapping_mul(0xD1B5_4A32_D192_ED03),
                        ),
                    };
                    self.refresh_estimates(&mut fresh);
                    *slot = Some(fresh);
                    slot.as_mut().unwrap()
                }
            };
            if smp.until_refresh == 0 {
                self.refresh_estimates(smp);
            }
            smp.until_refresh -= 1;
            let n = self.shards.len() as u64;
            let mut best = smp.rng.next_below(n) as usize;
            // Fail point in the sampling window: `Fail` degrades this
            // operation to a single uniform sample (the stale-estimate
            // worst case); `Stall` parks the thread right here, holding
            // arbitrarily stale estimates, without wedging its peers.
            if !fault::inject(fault::Site::ShardSample) {
                for _ in 1..self.d {
                    let c = smp.rng.next_below(n) as usize;
                    let better = if for_enqueue {
                        smp.est[c] < smp.est[best]
                    } else {
                        smp.est[c] > smp.est[best]
                    };
                    if better {
                        best = c;
                    }
                }
            }
            smp.est[best] += delta;
            best
        })
    }

    /// Records in the cache that shard `i` was just observed empty.
    fn note_empty(&self, i: usize) {
        SAMPLER.with(|slot| {
            if let Ok(mut slot) = slot.try_borrow_mut() {
                if let Some(smp) = slot.as_mut() {
                    if smp.instance == self.instance {
                        smp.est[i] = 0;
                    }
                }
            }
        });
    }

    /// One dequeue attempt against shard `i`, with counter bookkeeping.
    fn shard_dequeue(&self, i: usize) -> Option<u64> {
        let sh = &self.shards[i];
        match sh.queue.dequeue() {
            Some(v) => {
                sh.deq.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.note_empty(i);
                None
            }
        }
    }

    /// One batched dequeue attempt against shard `i`.
    fn shard_dequeue_batch(&self, i: usize, out: &mut Vec<u64>, max: usize) -> usize {
        let sh = &self.shards[i];
        let taken = sh.queue.dequeue_batch(out, max);
        if taken > 0 {
            sh.deq.fetch_add(taken as u64, Ordering::Relaxed);
        }
        if taken < max {
            self.note_empty(i);
        }
        taken
    }
}

/// The analytic rank-error envelope asserted by the relaxation checker: a
/// generous bound on how many strictly older elements one dequeue may
/// overtake under d-choice balancing with estimates up to `REFRESH` (64)
/// operations stale per thread.
///
/// Reasoning (probabilistic envelope, not a worst-case theorem):
///
/// * **Staleness.** Every concurrent thread can issue up to `2 × REFRESH`
///   operations against an estimate snapshot before re-reading, so shard
///   lengths can drift apart by `2 × REFRESH × threads` in the worst
///   herd, and each of the other `shards − 1` shards can hold that many
///   strictly older elements when an unlucky head is taken.
/// * **Sampling.** Shards are sampled with replacement, so a shard can go
///   unsampled for a streak of operations with probability decaying
///   geometrically in the streak length (ratio `1 − d/shards` per
///   operation for `d ≥ 2`). The `×8` multiplier buys enough headroom
///   that streak-driven excursions past the envelope are negligible for
///   any realistic run length.
/// * **`d = 1` is uniform placement, not balancing.** With a single
///   sample there is no shortest/longest choice at all: shard lengths
///   follow a random walk whose spread grows with the run, so no
///   run-independent bound exists. The `×64` multiplier makes the
///   envelope honest for the run lengths exercised by the test harness;
///   prefer `d ≥ 2` whenever the rank bound matters.
///
/// `REFRESH` counts *operations*, so callers moving `k` elements per
/// batched call should scale the envelope by their batch size.
pub fn rank_error_bound_for(shards: usize, d: usize, threads: usize) -> u64 {
    if shards <= 1 {
        return 0;
    }
    let staleness = 2 * REFRESH as u64 * threads.max(1) as u64;
    let sampling = if d <= 1 { 64 } else { 8 };
    (shards as u64 - 1) * (staleness + 2 * d as u64 + 16) * sampling
}

impl<Q: ConcurrentQueue> ConcurrentQueue for ShardedQueue<Q> {
    fn enqueue(&self, value: u64) {
        let i = self.pick(true, 1);
        let sh = &self.shards[i];
        sh.queue.enqueue(value);
        sh.enq.fetch_add(1, Ordering::Relaxed);
    }

    fn dequeue(&self) -> Option<u64> {
        let i = self.pick(false, -1);
        if let Some(v) = self.shard_dequeue(i) {
            return Some(v);
        }
        // Exact-empty fallback: the chosen shard was empty (or the estimate
        // was stale). Sweep every other shard before reporting empty, so
        // None means each shard was observed empty during this operation —
        // a definitely-present element can never be missed.
        let n = self.shards.len();
        for k in 1..n {
            if let Some(v) = self.shard_dequeue((i + k) % n) {
                return Some(v);
            }
        }
        None
    }

    fn enqueue_batch(&self, values: &[u64]) {
        if values.is_empty() {
            return;
        }
        // The whole batch rides one shard: intra-batch order stays exact
        // and the inner queue's native multi-slot reservation still fires.
        let i = self.pick(true, values.len() as i64);
        let sh = &self.shards[i];
        sh.queue.enqueue_batch(values);
        sh.enq.fetch_add(values.len() as u64, Ordering::Relaxed);
    }

    fn dequeue_batch(&self, out: &mut Vec<u64>, max: usize) -> usize {
        if max == 0 {
            return 0;
        }
        let i = self.pick(false, -(max as i64));
        let mut taken = self.shard_dequeue_batch(i, out, max);
        let n = self.shards.len();
        let mut k = 1;
        while taken < max && k < n {
            taken += self.shard_dequeue_batch((i + k) % n, out, max - taken);
            k += 1;
        }
        taken
    }

    fn name(&self) -> &'static str {
        "sharded"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Lcrq;
    use lcrq_queues::testing;

    fn sharded(shards: usize, d: usize) -> ShardedQueue<Lcrq> {
        ShardedQueue::from_factory(&ShardedConfig::new().with_shards(shards).with_d(d), |_| {
            Lcrq::new()
        })
    }

    #[test]
    fn config_is_clamped() {
        let q = ShardedQueue::from_factory(&ShardedConfig { shards: 0, d: 99 }, |_| Lcrq::new());
        assert_eq!(q.shards(), 1);
        assert_eq!(q.d(), 1);
    }

    #[test]
    fn single_shard_is_strict_fifo() {
        let q = sharded(1, 2);
        testing::model_check(&q, 0x51);
        assert_eq!(q.rank_error_bound(8), 0);
    }

    #[test]
    fn delivers_every_element_exactly_once() {
        let q = sharded(4, 2);
        for i in 0..1_000u64 {
            q.enqueue(i);
        }
        let mut got = testing::drain(&q);
        assert_eq!(q.dequeue(), None);
        got.sort_unstable();
        assert_eq!(got, (0..1_000).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_drain_stays_within_the_rank_bound() {
        let q = sharded(4, 2);
        let bound = q.rank_error_bound(1);
        // Several bounds' worth of elements, so a balancer that drains
        // one shard ahead of the others displaces elements past the bound.
        let total = 4 * bound;
        for i in 0..total {
            q.enqueue(i);
        }
        // Element i dequeued at position p overtook at most (p - i) older
        // elements; displacement must respect the analytic envelope.
        for p in 0..total {
            let v = q.dequeue().expect("still full");
            assert!(
                v <= p + bound && p <= v + bound,
                "displacement |{v} - {p}| exceeds bound {bound}"
            );
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn singleton_element_is_always_found() {
        // The sweep must find the only element no matter how wrong the
        // estimates are (they start synced here; the cross-thread desync
        // case lives in tests/sharded.rs).
        let q = sharded(8, 2);
        for round in 0..500u64 {
            assert_eq!(q.dequeue(), None);
            q.enqueue(round);
            assert_eq!(q.dequeue(), Some(round), "round {round}");
        }
    }

    #[test]
    fn batches_ride_one_shard_in_order() {
        let q = sharded(4, 2);
        q.enqueue_batch(&[1, 2, 3, 4, 5]);
        let mut out = Vec::new();
        // One shard holds the whole batch, so a full drain through the
        // batch API preserves its internal order.
        assert_eq!(q.dequeue_batch(&mut out, 5), 5);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
        assert_eq!(q.dequeue_batch(&mut out, 1), 0);
    }

    #[test]
    fn len_estimate_tracks_occupancy() {
        let q = sharded(4, 2);
        assert_eq!(q.len_estimate(), 0);
        for i in 0..100 {
            q.enqueue(i);
        }
        assert_eq!(q.len_estimate(), 100);
        for _ in 0..40 {
            q.dequeue().unwrap();
        }
        assert_eq!(q.len_estimate(), 60);
    }

    #[test]
    fn mpmc_delivery_is_exactly_once() {
        let q = sharded(4, 2);
        testing::mpmc_stress_relaxed(&q, 3, 3, 2_000, q.rank_error_bound(6));
    }
}

//! The [`Ring`] contract: what the list of rings ([`RingList`]) needs from
//! a bounded ring to string it on a Michael–Scott list.
//!
//! The paper's LCRQ (§4.2), Nikolaev's LSCQ (arXiv:1908.04511) and wCQ
//! (arXiv:2201.02179) are the *same* list over three different rings. A
//! ring is a bounded MPMC FIFO of `u64` with **tantrum** semantics: an
//! enqueue may refuse, and once it has — or once [`close`](Ring::close) is
//! called — every later enqueue on that ring refuses too. The list turns a
//! refusal into "append a fresh ring seeded with the item".
//!
//! The list, not the config, chooses each ring's size: it passes the order
//! to build to [`new`](Ring::new) / [`with_seed`](Ring::with_seed) and
//! reads a ring's back through [`order`](Ring::order), so its first ring
//! is small and every spill's ring is full-size (`ring_order`).
//!
//! Hooks with defaults are what only some rings have; each default is the
//! behaviour of a ring without the feature:
//!
//! | hook | overridden by | why |
//! |---|---|---|
//! | [`rearm`](Ring::rearm) | `ScqD`, `WcqRing` | their threshold counter can report EMPTY without scanning; the list's abandonment double-check must force a scan |
//! | [`proves_empty`](Ring::proves_empty) | `Crq` | three loads (`tail`, `head`, `tail`) prove EMPTY without a head ticket; SCQ/wCQ's threshold already answers EMPTY read-only |
//! | [`enqueue_batch`](Ring::enqueue_batch) / [`dequeue_batch`](Ring::dequeue_batch) | `Crq` | one `FAA(k)` reserves `k` slots; SCQ/wCQ cannot validate a group of cycles |
//! | [`cluster`](Ring::cluster) | `Crq` | the LCRQ+H owner word (§4.1.1) |
//!
//! What all three rings do share is where they *store* position `i`: the
//! `spread` / `remap` / `pos_of` bijection below, which keeps neighbouring
//! positions a cache line (pair) apart without padding the entries. The two
//! SCQ-family rings also share their cycle arithmetic: `FINALIZED_BIT`,
//! `threshold_max`, `cycle_of` and `catchup`.
//!
//! [`RingList`]: crate::RingList

use core::sync::atomic::{AtomicU64, Ordering};

use lcrq_atomic::ops;
use lcrq_util::sync::AtomicPtr;

use crate::config::LcrqConfig;
use crate::crq::CrqClosed;

/// Slots per spreading unit: the entries one 128-byte prefetch pair holds of
/// a `Crq` (16-byte nodes), and one 64-byte line of an `Scq` (8-byte entries).
pub(crate) const LANES: usize = 8;

/// Where position `pos` of a ring of `2^order` slots lives, as `(unit,
/// lane)`: unit `j mod (slots / 8)`, lane `j div (slots / 8)` for `j = pos mod
/// slots`. Consecutive positions land in consecutive units, so the winners of
/// neighbouring F&As never false-share, and two positions meet in one unit
/// only `slots / 8` tickets apart. This is SCQ's `Cache_Remap`
/// (arXiv:1908.04511). A ring of ≤ 8 slots is one unit, identity-mapped.
#[inline]
pub(crate) fn spread(pos: u64, order: u32) -> (usize, usize) {
    let j = pos & ((1 << order) - 1);
    let shift = order.saturating_sub(3);
    // The lane is below 8 by construction; the mask says so to the compiler.
    (
        (j & ((1 << shift) - 1)) as usize,
        (j >> shift) as usize & (LANES - 1),
    )
}

/// [`spread`] as an index into a flat array of `2^order` slots.
#[inline]
pub(crate) fn remap(pos: u64, order: u32) -> usize {
    let (unit, lane) = spread(pos, order);
    unit * LANES + lane
}

/// Inverse of [`remap`]: the in-lap position (`< 2^order`) that reaches `slot`.
#[inline]
pub(crate) fn pos_of(slot: usize, order: u32) -> u64 {
    let (unit, lane) = ((slot / LANES) as u64, (slot % LANES) as u64);
    (lane << order.saturating_sub(3)) | unit
}

/// Bit 63 of an SCQ-family ring's `tail` (`Scq`, `WcqRing`): the ring is
/// finalized, closed to further enqueues; the CRQ's CLOSED bit.
pub(crate) const FINALIZED_BIT: u64 = 1 << 63;

/// The SCQ threshold's ceiling for a ring of `2n = 2^array_order` entries:
/// `3n - 1`, the bound on unsuccessful dequeue attempts while the ring is
/// non-empty (arXiv:1908.04511).
#[inline]
pub(crate) fn threshold_max(array_order: u32) -> i64 {
    (3 << (array_order - 1)) - 1
}

/// The cycle (lap) of position `pos` on a ring of `2^array_order` entries.
#[inline]
pub(crate) fn cycle_of(pos: u64, array_order: u32) -> u64 {
    pos >> array_order
}

/// CASes a lagging SCQ-family `tail` forward to `h`, the position after a
/// dequeue's, so enqueuers do not spend F&As on positions the dequeuers
/// already invalidated. Stops once `tail` is finalized (never clobber the
/// bit) or has caught up with `head`.
pub(crate) fn catchup(tail: &AtomicU64, head: &AtomicU64, mut t: u64, h: u64) {
    while ops::cas(tail, t, h).is_err() {
        let head_now = head.load(Ordering::SeqCst);
        let t_raw = tail.load(Ordering::SeqCst);
        if t_raw & FINALIZED_BIT != 0 {
            break;
        }
        t = t_raw;
        if t >= head_now {
            break;
        }
    }
}

/// A bounded tantrum ring of `u64` values (`< BOTTOM`) that
/// [`RingList`](crate::RingList) can link. See the [module docs](self).
pub trait Ring: Sized + Send + Sync + 'static {
    /// An empty open ring with capacity `2^order`. The list picks `order`
    /// (at most `config.ring_order`); the rest of `config` tunes the ring.
    fn new(config: &LcrqConfig, order: u32) -> Self;

    /// An open ring of `2^order` slots pre-loaded with `seed` (at most
    /// `2^order` items), in order — how a spilling enqueuer hands its
    /// item(s) to the ring it appends without contending for them again.
    fn with_seed(config: &LcrqConfig, order: u32, seed: &[u64]) -> Self {
        let ring = Self::new(config, order);
        for &v in seed {
            let placed = ring.enqueue(v);
            debug_assert!(placed.is_ok(), "seeding a fresh ring cannot fail");
        }
        ring
    }

    /// log2 of the capacity this ring was built with.
    fn order(&self) -> u32;

    /// Appends `value`, or reports the ring closed (and then stays closed).
    fn enqueue(&self, value: u64) -> Result<(), CrqClosed>;

    /// Removes the oldest value; `None` is a linearizable EMPTY of *this
    /// ring* (subject to [`rearm`](Self::rearm)).
    fn dequeue(&self) -> Option<u64>;

    /// Closes the ring to further enqueues (idempotent); dequeues go on.
    fn close(&self);

    /// Whether the ring is closed.
    fn is_closed(&self) -> bool;

    /// The list link: null while this is the last ring, then the successor
    /// (or the list's seal). Owned by the list; the ring only stores it.
    fn next(&self) -> &AtomicPtr<Self>;

    /// Head position (racy diagnostic; `head_index() >= tail_index()`
    /// means "looks empty").
    fn head_index(&self) -> u64;

    /// Tail position without the closed bit (racy diagnostic).
    fn tail_index(&self) -> u64;

    /// Registry name of the list built from this ring (`"lcrq"`, `"lscq-cas"`,
    /// …); `hierarchical` = the cluster gate is on (LCRQ+H). A function, not
    /// a constant: it depends on the F&A policy's runtime `name()`.
    fn name(hierarchical: bool) -> &'static str;

    /// Forces the next [`dequeue`](Self::dequeue) to scan even if a
    /// shortcut (SCQ's threshold) says EMPTY. Called only on a closed ring
    /// the list is about to give up on, whose tail is therefore frozen.
    fn rearm(&self) {}

    /// Whether [`proves_empty`](Self::proves_empty) can answer `true`. The
    /// list keeps its EMPTY-after-EMPTY hint only for a ring that sets it,
    /// so for the others the hint's loads and stores compile away. A ring
    /// that overrides `proves_empty` sets this to `true`.
    const PROVES_EMPTY: bool = false;

    /// Proves, read-only, that the ring was empty at one instant during the
    /// call: `true` only if a [`dequeue`](Self::dequeue) linearized at that
    /// instant would have answered EMPTY. `false` proves nothing. The list
    /// asks only after this thread's last dequeue answered EMPTY on the
    /// same ring, and only if [`PROVES_EMPTY`](Self::PROVES_EMPTY) is set,
    /// so a ring whose EMPTY is already read-only keeps both defaults.
    fn proves_empty(&self) -> bool {
        false
    }

    /// The LCRQ+H cluster-owner word, if the ring has one.
    fn cluster(&self) -> Option<&AtomicU64> {
        None
    }

    /// Appends a prefix of `values`, returning how many were placed. Fewer
    /// than `values.len()` means the ring closed, or — if it is still open
    /// — that the caller should simply call again for the rest.
    fn enqueue_batch(&self, values: &[u64]) -> usize {
        values
            .iter()
            .take_while(|&&v| self.enqueue(v).is_ok())
            .count()
    }

    /// Removes up to `max` values into `out`, returning how many. Zero
    /// settles nothing: the list follows up with one scalar dequeue.
    fn dequeue_batch(&self, out: &mut Vec<u64>, max: usize) -> usize {
        let before = out.len();
        out.extend(core::iter::from_fn(|| self.dequeue()).take(max));
        out.len() - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remap_is_a_permutation_and_spreads_neighbours() {
        for order in 1..=12u32 {
            let slots = 1usize << order;
            let mut seen = vec![false; slots.max(LANES)];
            for p in 0..slots as u64 {
                let j = remap(p, order);
                assert!(!seen[j], "remap must be a bijection (order {order})");
                seen[j] = true;
                assert_eq!(pos_of(j, order), p, "pos_of inverts remap");
                assert_eq!(remap(p + 3 * slots as u64, order), j, "laps share a slot");
                if slots <= LANES {
                    assert_eq!(j, p as usize, "one unit is identity-mapped");
                }
            }
            if slots > LANES {
                // Consecutive positions land one whole unit apart, and the
                // positions sharing a unit are `slots / 8` tickets apart.
                assert_eq!(remap(1, order).abs_diff(remap(0, order)), LANES);
                assert_eq!(remap((slots / LANES) as u64, order), remap(0, order) + 1);
            }
        }
    }
}

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
//! Hooks with defaults are what only some rings have; each default is the
//! behaviour of a ring without the feature:
//!
//! | hook | overridden by | why |
//! |---|---|---|
//! | [`rearm`](Ring::rearm) | `ScqD`, `WcqRing` | their threshold counter can report EMPTY without scanning; the list's abandonment double-check must force a scan |
//! | [`enqueue_batch`](Ring::enqueue_batch) / [`dequeue_batch`](Ring::dequeue_batch) | `Crq` | one `FAA(k)` reserves `k` slots; SCQ/wCQ cannot validate a group of cycles |
//! | [`cluster`](Ring::cluster) | `Crq` | the LCRQ+H owner word (§4.1.1) |
//! | [`scrub`](Ring::scrub) / [`reseed`](Ring::reseed) / [`pool_slot`](Ring::pool_slot) | `Crq` | recycling: re-basing every index makes a drained ring reusable; SCQ/wCQ rings are freed |
//!
//! [`RingList`]: crate::RingList

use core::sync::atomic::AtomicU64;
use std::sync::{OnceLock, Weak};

use lcrq_util::sync::AtomicPtr;

use crate::config::LcrqConfig;
use crate::crq::CrqClosed;
use crate::pool::RingPool;

/// A bounded tantrum ring of `u64` values (`< BOTTOM`) that
/// [`RingList`](crate::RingList) can link. See the [module docs](self).
pub trait Ring: Sized + Send + Sync + 'static {
    /// An empty open ring with capacity `config.ring_size()`.
    fn new(config: &LcrqConfig) -> Self;

    /// An open ring pre-loaded with `seed` (at most one ring's worth), in
    /// order — how a spilling enqueuer hands its item(s) to the ring it
    /// appends without contending for them again.
    fn with_seed(config: &LcrqConfig, seed: &[u64]) -> Self {
        let ring = Self::new(config);
        for &v in seed {
            let placed = ring.enqueue(v);
            debug_assert!(placed.is_ok(), "seeding a fresh ring cannot fail");
        }
        ring
    }

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

    /// Resets an exclusively-owned, drained ring for reuse. `false` — the
    /// default — means "cannot, free it instead".
    fn scrub(&self) -> bool {
        false
    }

    /// Seeds a freshly [`scrub`](Self::scrub)bed, still exclusively-owned
    /// ring: the recycled counterpart of [`with_seed`](Self::with_seed).
    fn reseed(&self, _seed: &[u64]) {
        unreachable!("only a ring that scrubs can come out of a pool");
    }

    /// Where a recyclable ring remembers the pool it returns to when the
    /// hazard domain reclaims it. `None` — the default — also tells the
    /// list this ring type is not recycled: it then keeps a zero-capacity
    /// pool, so every spill allocates and every retire frees.
    fn pool_slot(&self) -> Option<&OnceLock<Weak<RingPool<Self>>>> {
        None
    }
}

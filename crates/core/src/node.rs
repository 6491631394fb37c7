//! CRQ ring-node representation (Figure 3a).
//!
//! Physically a node is two 64-bit words manipulated with CAS2; logically it
//! is the 3-tuple `(safe: 1 bit, idx: 63 bits, val: 64 bits)`:
//!
//! * word 0 — bit 63 is the *safe* bit, bits 62..0 are the node's *index*;
//! * word 1 — the value, or [`BOTTOM`] when the node is empty.
//!
//! Node `u` starts as `(1, u, ⊥)` — or as `(1, u, x)` when the ring is
//! built seeded with `x` at index `u`. An index with value `i` refers to ring
//! node `i mod R`; the node's stored index advances by `R` every time the
//! node is vacated, which is what lets operations detect that they have been
//! overtaken.

use lcrq_atomic::AtomicPair;

use crate::BOTTOM;

/// Mask of the 63-bit index portion of word 0.
pub const IDX_MASK: u64 = (1 << 63) - 1;
/// The safe bit (bit 63 of word 0).
pub const SAFE_BIT: u64 = 1 << 63;

/// Packs `(safe, idx)` into word 0. `idx` must fit in 63 bits.
#[inline]
pub const fn pack(safe: bool, idx: u64) -> u64 {
    debug_assert!(idx <= IDX_MASK);
    ((safe as u64) << 63) | (idx & IDX_MASK)
}

/// Unpacks word 0 into `(safe, idx)`.
#[inline]
pub const fn unpack(word: u64) -> (bool, u64) {
    (word & SAFE_BIT != 0, word & IDX_MASK)
}

/// One ring node: exactly its 16-byte CAS2 pair. The paper pads each node
/// "to cache line size" (Figure 3a line 17) so that neighbouring tickets do
/// not false-share; here the ring's layout does that job instead (a
/// [`Crq`](crate::Crq) stores consecutive indices 128 bytes apart), so a
/// node costs what it holds.
pub struct Node {
    pair: AtomicPair,
}

/// A consistent (or transiently torn — CAS2 failure resolves it) node view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeView {
    /// The safe bit.
    pub safe: bool,
    /// The 63-bit index.
    pub idx: u64,
    /// The value (`BOTTOM` = empty).
    pub val: u64,
    /// Raw word 0 as read, for use as a CAS2 expected value.
    pub word0: u64,
}

impl NodeView {
    /// Whether the node holds no value.
    pub fn is_empty(&self) -> bool {
        self.val == BOTTOM
    }
}

impl Node {
    /// Initializes ring node `u` to `(1, u, val)`: `val` is [`BOTTOM`] for
    /// an empty node, or the item a seeded ring holds at index `u`.
    pub fn new(u: u64, val: u64) -> Self {
        Self {
            pair: AtomicPair::new(pack(true, u), val),
        }
    }

    /// Reads the node the way the algorithm does: value first, then
    /// `(safe, idx)` as one 64-bit read (Figure 3b lines 37–38). The two
    /// reads may be mutually inconsistent; any transition CAS2 based on a
    /// torn view simply fails.
    #[inline]
    pub fn read(&self) -> NodeView {
        let val = self.pair.load_second();
        let word0 = self.pair.load_first();
        let (safe, idx) = unpack(word0);
        NodeView {
            safe,
            idx,
            val,
            word0,
        }
    }

    /// Attempts the *enqueue transition* `(s, i, ⊥) -> (1, t, arg)`
    /// (Figure 3d line 93). `expected` must come from [`read`](Self::read).
    #[inline]
    pub fn try_enqueue(&self, expected: &NodeView, t: u64, arg: u64) -> bool {
        self.pair
            .compare_exchange((expected.word0, BOTTOM), (pack(true, t), arg))
            .is_ok()
    }

    /// Attempts the *dequeue transition* `(s, h, val) -> (s, h+R, ⊥)`
    /// (Figure 3b line 42), preserving the safe bit.
    #[inline]
    pub fn try_dequeue(&self, expected: &NodeView, ring_size: u64) -> bool {
        self.pair
            .compare_exchange(
                (expected.word0, expected.val),
                (pack(expected.safe, expected.idx + ring_size), BOTTOM),
            )
            .is_ok()
    }

    /// Attempts the *empty transition* `(s, i, ⊥) -> (s, h+R, ⊥)`
    /// (Figure 3b line 48), preserving the safe bit.
    #[inline]
    pub fn try_empty(&self, expected: &NodeView, h: u64, ring_size: u64) -> bool {
        self.pair
            .compare_exchange(
                (expected.word0, BOTTOM),
                (pack(expected.safe, h + ring_size), BOTTOM),
            )
            .is_ok()
    }

    /// Attempts the *unsafe transition* `(s, i, val) -> (0, i, val)`
    /// (Figure 3b line 45).
    #[inline]
    pub fn try_mark_unsafe(&self, expected: &NodeView) -> bool {
        self.pair
            .compare_exchange(
                (expected.word0, expected.val),
                (pack(false, expected.idx), expected.val),
            )
            .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_round_trip() {
        for safe in [false, true] {
            for idx in [0u64, 1, 42, IDX_MASK] {
                assert_eq!(unpack(pack(safe, idx)), (safe, idx));
            }
        }
    }

    #[test]
    fn initial_state_is_safe_empty_with_own_index() {
        let n = Node::new(17, BOTTOM);
        let v = n.read();
        assert!(v.safe);
        assert_eq!(v.idx, 17);
        assert!(v.is_empty());
    }

    #[test]
    fn node_is_its_sixteen_bytes() {
        assert_eq!(core::mem::size_of::<Node>(), 16);
        assert_eq!(core::mem::align_of::<Node>(), 16);
    }

    #[test]
    fn enqueue_then_dequeue_transition() {
        const R: u64 = 8;
        let n = Node::new(3, BOTTOM);
        let v = n.read();
        assert!(n.try_enqueue(&v, 3, 99));
        let v = n.read();
        assert!(v.safe);
        assert_eq!(v.idx, 3);
        assert_eq!(v.val, 99);
        assert!(n.try_dequeue(&v, R));
        let v = n.read();
        assert!(v.safe);
        assert_eq!(v.idx, 3 + R);
        assert!(v.is_empty());
    }

    #[test]
    fn empty_transition_advances_index_and_keeps_safe_bit() {
        const R: u64 = 8;
        let n = Node::new(3, BOTTOM);
        let v = n.read();
        // deq with h = 3 + R arrives before enq(3+R): empty transition.
        assert!(n.try_empty(&v, 3 + R, R));
        let v = n.read();
        assert!(v.safe);
        assert_eq!(v.idx, 3 + 2 * R);
        assert!(v.is_empty());
    }

    #[test]
    fn unsafe_transition_clears_safe_only() {
        let n = Node::new(1, BOTTOM);
        let v = n.read();
        assert!(n.try_enqueue(&v, 1, 55));
        let v = n.read();
        assert!(n.try_mark_unsafe(&v));
        let v = n.read();
        assert!(!v.safe);
        assert_eq!(v.idx, 1);
        assert_eq!(v.val, 55);
        // Dequeue transition preserves the (now clear) safe bit.
        assert!(n.try_dequeue(&v, 8));
        let v = n.read();
        assert!(!v.safe);
        assert_eq!(v.idx, 9);
        assert!(v.is_empty());
    }

    #[test]
    fn stale_views_fail_their_transitions() {
        let n = Node::new(0, BOTTOM);
        let stale = n.read();
        let fresh = n.read();
        assert!(n.try_enqueue(&fresh, 0, 7));
        // All transitions from the pre-enqueue view must now fail.
        assert!(!n.try_enqueue(&stale, 0, 8));
        assert!(!n.try_empty(&stale, 8, 8));
        // A stale view with the *right* value would still dequeue: the
        // enqueue set word0 to (1, 0), identical to the initial (1, 0), so a
        // pre-enqueue view patched with val 7 matches legitimately. The
        // staleness that must fail is an index change:
        let v = n.read();
        assert!(n.try_dequeue(&v, 8)); // idx now 8
        let old = n.read();
        assert!(n.try_empty(&old, 8, 8)); // idx now 16
        assert!(!n.try_empty(&old, 16, 8), "stale idx must fail");
    }
}

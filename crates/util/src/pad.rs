//! Cache-line padding to prevent false sharing.
//!
//! The LCRQ paper stores the CRQ's `head`, `tail`, and `next` fields "on
//! distinct cache lines" (Figure 3a), and so do we. (It also pads each ring
//! node to a cache line, Figure 3a line 17; the CRQ here keeps nodes dense
//! and aligns *units of eight* with this type instead — DESIGN.md "Ring
//! layout".) On Intel processors the prefetcher pulls cache lines in aligned
//! 128-byte pairs, so we pad to 128 bytes on x86-64 — the same choice
//! crossbeam makes.

use core::fmt;
use core::ops::{Deref, DerefMut};

/// Pads and aligns a value to the (prefetcher-visible) cache-line size.
///
/// Wrapping contended fields in `CachePadded` guarantees that two distinct
/// `CachePadded` values never share a cache line, eliminating false sharing
/// between, e.g., a queue's head and tail indices.
///
/// ```
/// use lcrq_util::CachePadded;
/// use std::sync::atomic::AtomicU64;
///
/// struct Indices {
///     head: CachePadded<AtomicU64>,
///     tail: CachePadded<AtomicU64>,
/// }
/// let idx = Indices {
///     head: CachePadded::new(AtomicU64::new(0)),
///     tail: CachePadded::new(AtomicU64::new(0)),
/// };
/// assert_eq!(&*idx.head as *const _ as usize % 128, 0);
/// let _ = idx.tail;
/// ```
#[derive(Default, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(any(target_arch = "x86_64", target_arch = "aarch64"), repr(align(128)))]
#[cfg_attr(
    not(any(target_arch = "x86_64", target_arch = "aarch64")),
    repr(align(64))
)]
pub struct CachePadded<T> {
    value: T,
}

/// The alignment (and minimum size) of a [`CachePadded`] value, in bytes.
pub const CACHE_LINE: usize = core::mem::align_of::<CachePadded<u8>>();

// SAFETY: padding adds no shared state; forward the inner type's properties.
unsafe impl<T: Send> Send for CachePadded<T> {}
unsafe impl<T: Sync> Sync for CachePadded<T> {}

impl<T> CachePadded<T> {
    /// Wraps `value` in cache-line padding.
    pub const fn new(value: T) -> Self {
        Self { value }
    }

    /// Consumes the padding, returning the inner value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> Self {
        Self::new(value)
    }
}

impl<T: fmt::Debug> fmt::Debug for CachePadded<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("CachePadded").field(&self.value).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_is_at_least_64() {
        const { assert!(CACHE_LINE >= 64) };
        assert_eq!(core::mem::align_of::<CachePadded<u8>>(), CACHE_LINE);
        assert_eq!(core::mem::size_of::<CachePadded<u8>>(), CACHE_LINE);
    }

    #[test]
    fn large_values_keep_alignment() {
        // A value bigger than one line still starts line-aligned.
        assert_eq!(core::mem::align_of::<CachePadded<[u8; 300]>>(), CACHE_LINE);
        assert_eq!(
            core::mem::size_of::<CachePadded<[u8; 300]>>() % CACHE_LINE,
            0
        );
    }

    #[test]
    fn adjacent_fields_never_share_a_line() {
        struct Two {
            a: CachePadded<u64>,
            b: CachePadded<u64>,
        }
        let t = Two {
            a: CachePadded::new(1),
            b: CachePadded::new(2),
        };
        let pa = &*t.a as *const u64 as usize;
        let pb = &*t.b as *const u64 as usize;
        assert!(pa.abs_diff(pb) >= CACHE_LINE);
    }

    #[test]
    fn deref_and_into_inner_round_trip() {
        let mut p = CachePadded::new(41u32);
        *p += 1;
        assert_eq!(*p, 42);
        assert_eq!(p.into_inner(), 42);
    }

    #[test]
    fn from_and_debug() {
        let p: CachePadded<i32> = 7.into();
        assert_eq!(format!("{p:?}"), "CachePadded(7)");
    }
}

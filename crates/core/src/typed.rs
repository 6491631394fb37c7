//! The generic typed facade over the raw `u64` lists of rings.
//!
//! The paper's queue transfers 64-bit integers or pointers (Figure 3a,
//! "val: 64 bits (int or pointer)"), and [`Typed<T, R>`] takes both routes
//! over whichever ring `R` the list is built from ([`TypedLcrq`],
//! [`TypedLscq`], [`TypedWcq`]). One rule reads every queue word, for every
//! `T` and on every way out (`dequeue`, `drain_into`, the `Err` of
//! `try_enqueue`, the remainder of `try_extend`, `Drop`): **bit 63 set ⇔
//! the word is a box address**.
//!
//! * **Int.** A primitive scalar — `u8`…`u64`, `i8`…`i64`, `usize`,
//!   `isize`, `f32`, `f64`, `bool`, `char` — is its own queue word: its
//!   bytes, zero-extended to 64 bits. Nothing is allocated, and an operation
//!   is the list's one F&A and one CAS2.
//! * **Pointer.** Every other `Send` type is boxed and the word is
//!   `1 << 63 | address`. So is a scalar whose own word has bit 63 set (a
//!   `u64 ≥ 2^63`, a negative `i64` or `f64`): an 8-byte type has 2^64
//!   values and the rings reserve one ([`BOTTOM`](crate::BOTTOM)), so no
//!   tag-free encoding of all of them exists. Such a value costs a `malloc`
//!   on one thread and a `free` on another, like a `String` does.
//!
//! For anything bigger than a word, send an index into storage of your own,
//! or a `Box<T>` (which rides in a box of its own: telling pointer-shaped
//! payloads apart would take a public marker trait).

use core::any::TypeId;
use core::marker::PhantomData;

use lcrq_atomic::HardwareFaa;

use crate::config::LcrqConfig;
use crate::crq::Crq;
use crate::list::RingList;
use crate::ring::Ring;
use crate::scq::ScqD;
use crate::wcq::WcqRing;

/// [`Typed`] over the LCRQ: a scalar is the word the CAS2 fast path stores,
/// anything else rides it as a tagged box address (see the [module
/// docs](self)).
pub type TypedLcrq<T, P = HardwareFaa> = Typed<T, Crq<P>>;
/// [`Typed`] over the portable LSCQ: the word — scalar or tagged box
/// address — goes through the [`ScqD`] index indirection like any other
/// `u64`.
pub type TypedLscq<T, P = HardwareFaa> = Typed<T, ScqD<P>>;
/// [`Typed`] over the wait-free wCQ, so channels and other `T`-valued
/// layers inherit the bounded-steps progress class; same word encoding.
pub type TypedWcq<T, P = HardwareFaa> = Typed<T, WcqRing<P>>;

/// The tag of a queue word: set ⇔ the rest of the word is a box address.
const BOXED: u64 = 1 << 63;

/// `TypeId::of::<T>()` without its `T: 'static` bound: the id of `T` with
/// every lifetime erased. [`Typed`] is bounded by `T: Send` alone and stable
/// Rust has no specialization, so this is how it asks "is `T` exactly
/// `u64`?"; no type on the scalar list has a lifetime to confuse.
fn type_id_of<T>() -> TypeId {
    trait Erased {
        fn type_id(&self) -> TypeId
        where
            Self: 'static;
    }
    impl<T> Erased for PhantomData<T> {
        fn type_id(&self) -> TypeId
        where
            Self: 'static,
        {
            TypeId::of::<T>()
        }
    }
    let erased: &dyn Erased = &PhantomData::<T>;
    // SAFETY: only the trait object's lifetime bound changes, which has no
    // run-time representation; the one method it unlocks reads no data
    // behind the (zero-sized) object, only the type's identity.
    let erased: &(dyn Erased + 'static) = unsafe { core::mem::transmute(erased) };
    erased.type_id()
}

/// Whether `T` is one of the primitive scalars that travel inline. Decided
/// by type identity over a fixed list: reading a `T` as an integer is sound
/// only if it has no uninitialised byte, and no layout test says that
/// (`#[repr(align(8))] struct S(u8)` and a `union` both have
/// `size_of == align_of`). Constant per instantiation; it folds away.
#[inline(always)]
fn is_scalar<T>() -> bool {
    let id = type_id_of::<T>();
    macro_rules! listed {
        ($($scalar:ty)*) => { false $(|| id == TypeId::of::<$scalar>())* };
    }
    size_of::<T>() <= size_of::<u64>()
        && listed!(u8 u16 u32 u64 usize i8 i16 i32 i64 isize f32 f64 bool char)
}

/// An unbounded, linearizable, op-wise nonblocking MPMC FIFO queue of `T`
/// over a list of `R` rings.
///
/// ```
/// use lcrq_core::{TypedLcrq, TypedLscq, TypedWcq};
/// let q: TypedLcrq<String> = TypedLcrq::new();
/// q.enqueue("hello".to_string());
/// q.enqueue("world".to_string());
/// assert_eq!(q.dequeue().as_deref(), Some("hello"));
/// assert_eq!(q.dequeue().as_deref(), Some("world"));
/// assert_eq!(q.dequeue(), None);
/// // The same facade over the other rings.
/// let (s, w) = (TypedLscq::<u8>::new(), TypedWcq::<u8>::new());
/// s.enqueue(1);
/// w.enqueue(2);
/// assert_eq!((s.dequeue(), w.dequeue()), (Some(1), Some(2)));
/// ```
pub struct Typed<T: Send, R: Ring = Crq> {
    inner: RingList<R>,
    _marker: PhantomData<T>,
}

impl<T: Send, R: Ring> Typed<T, R> {
    /// Creates an empty queue with the default configuration.
    pub fn new() -> Self {
        Self::with_config(LcrqConfig::default())
    }

    /// Creates an empty queue with an explicit configuration.
    pub fn with_config(config: LcrqConfig) -> Self {
        Self {
            inner: RingList::with_config(config),
            _marker: PhantomData,
        }
    }

    /// Turns `value` into its queue word (see the [module docs](self)).
    #[inline]
    fn into_word(value: T) -> u64 {
        if is_scalar::<T>() {
            let mut bytes = [0u8; 8];
            // SAFETY: `T` is a listed scalar, so it is at most 8 bytes, all
            // of them initialised, and `value` is a live `T` to read them
            // from.
            unsafe {
                let src = (&raw const value).cast::<u8>();
                core::ptr::copy_nonoverlapping(src, bytes.as_mut_ptr(), size_of::<T>());
            }
            // Zero-extended from the low end, so only an 8-byte `T` can
            // reach bit 63, on a target of either byte order.
            let word = u64::from_le_bytes(bytes);
            if word & BOXED == 0 {
                return word;
            }
        }
        let ptr = Box::into_raw(Box::new(value)) as u64;
        // `from_word` strips the tag, so an address that used bit 63 itself
        // would come back as another one.
        assert!(ptr & BOXED == 0, "box address {ptr:#x} uses the tag bit");
        debug_assert!((BOXED | ptr) < crate::BOTTOM && ptr != 0);
        BOXED | ptr
    }

    /// Takes back the value [`into_word`](Self::into_word) encoded.
    ///
    /// # Safety
    ///
    /// `word` must come from `into_word` and be claimed exactly once: either
    /// the queue handed it out (a dequeue — exactly once by linearizability)
    /// or the queue rejected it (it never went in).
    #[inline]
    unsafe fn from_word(word: u64) -> T {
        if word & BOXED != 0 {
            // SAFETY: a tagged word is the address of a `Box<T>` that
            // `into_word` leaked, and by this function's contract nobody
            // else takes it back.
            return *unsafe { Box::from_raw((word & !BOXED) as *mut T) };
        }
        assert!(is_scalar::<T>(), "an untagged word in a queue of boxes");
        let bytes = word.to_le_bytes();
        // SAFETY: `into_word` leaves the tag clear only on the bytes of a
        // listed scalar `T`, which has at most 8 of them; they are read
        // back unchanged, so they are a valid `T` (a `bool` is 0 or 1, a
        // `char` a scalar value).
        unsafe { bytes.as_ptr().cast::<T>().read_unaligned() }
    }

    /// Appends `value`.
    pub fn enqueue(&self, value: T) {
        self.inner.enqueue(Self::into_word(value));
    }

    /// Removes and returns the oldest value, or `None` if empty.
    pub fn dequeue(&self) -> Option<T> {
        // SAFETY: every word in the queue came from `into_word`, and is
        // dequeued exactly once.
        self.inner
            .dequeue()
            .map(|word| unsafe { Self::from_word(word) })
    }

    /// Appends `value` unless the queue has been [`close`](Self::close)d,
    /// in which case ownership is handed back as `Err(value)`.
    pub fn try_enqueue(&self, value: T) -> Result<(), T> {
        self.inner
            .try_enqueue(Self::into_word(value))
            // SAFETY: the queue rejected the word we just made, so it is
            // still ours.
            .map_err(|word| unsafe { Self::from_word(word) })
    }

    /// Batch counterpart of [`try_enqueue`](Self::try_enqueue): appends
    /// every value of `values` through the raw batch path, or — if the
    /// queue is closed partway — returns the **unplaced suffix** as
    /// `Err(remainder)`. Items of the placed prefix are in the queue and
    /// will be drained by receivers like any others.
    pub fn try_extend(&self, values: Vec<T>) -> Result<(), Vec<T>> {
        let words: Vec<u64> = values.into_iter().map(Self::into_word).collect();
        self.inner.try_enqueue_batch(&words).map_err(|placed| {
            // SAFETY: words past `placed` were never enqueued; they are
            // still ours.
            let rest = words[placed..].iter();
            rest.map(|&word| unsafe { Self::from_word(word) }).collect()
        })
    }

    /// Closes the queue for further enqueues (see [`RingList::close`]):
    /// [`try_enqueue`](Self::try_enqueue) starts failing while dequeues
    /// drain the remaining items. Returns `true` on the first call.
    pub fn close(&self) -> bool {
        self.inner.close()
    }

    /// Whether the queue is closed (see [`RingList::is_closed`]).
    pub fn is_closed(&self) -> bool {
        self.inner.is_closed()
    }

    /// Whether the queue appears empty (racy snapshot; see
    /// [`RingList::is_empty_hint`]).
    pub fn is_empty_hint(&self) -> bool {
        self.inner.is_empty_hint()
    }

    /// Appends every value of `iter` through the raw batch path: all values
    /// are turned into queue words up front, which then enter the queue via
    /// [`RingList::enqueue_batch`] — on a CRQ, one fetch-and-add per
    /// multi-slot reservation instead of one per item.
    ///
    /// Like the raw batch, this is a sequence of individual enqueues in
    /// iterator order, not an atomic group (see DESIGN.md "Batched
    /// operations"). Takes `&self`: concurrent callers are fine.
    pub fn extend<I: IntoIterator<Item = T>>(&self, iter: I) {
        let words: Vec<u64> = iter.into_iter().map(Self::into_word).collect();
        self.inner.enqueue_batch(&words);
    }

    /// Removes up to `max` of the oldest values, appending them to `out` in
    /// FIFO order through the raw batch path
    /// ([`RingList::dequeue_batch`]); returns how many were moved.
    /// A return `< max` is a linearizable EMPTY observation.
    pub fn drain_into(&self, out: &mut Vec<T>, max: usize) -> usize {
        let mut words = Vec::with_capacity(max.min(1024));
        let taken = self.inner.dequeue_batch(&mut words, max);
        // SAFETY: as in `dequeue`.
        out.extend(
            words
                .into_iter()
                .map(|word| unsafe { Self::from_word(word) }),
        );
        taken
    }

    /// Returns an iterator that dequeues until the queue reports empty.
    pub fn drain(&self) -> impl Iterator<Item = T> + '_ {
        core::iter::from_fn(move || self.dequeue())
    }
}

impl<T: Send, R: Ring> Default for Typed<T, R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send, R: Ring> core::fmt::Debug for Typed<T, R> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Typed")
            .field("value_type", &core::any::type_name::<T>())
            .finish()
    }
}

impl<T: Send, R: Ring> FromIterator<T> for Typed<T, R> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let q = Self::new();
        q.extend(iter);
        q
    }
}

impl<T: Send, R: Ring> Extend<T> for Typed<T, R> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        Typed::extend(self, iter);
    }
}

impl<T: Send, R: Ring> Drop for Typed<T, R> {
    fn drop(&mut self) {
        // Drain and drop the values still inside (freeing the boxed ones)
        // before the rings go.
        while self.dequeue().is_some() {}
    }
}

// SAFETY: the queue owns the `T` values in transit, inline or boxed;
// handing them across threads requires `T: Send` (already bounded on the
// struct). The list itself is `Send + Sync`.
unsafe impl<T: Send, R: Ring> Send for Typed<T, R> {}
unsafe impl<T: Send, R: Ring> Sync for Typed<T, R> {}

#[cfg(test)]
mod tests {
    use super::*;
    use lcrq_atomic::CasLoopFaa;
    use lcrq_queues::testing;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    struct Counted(Arc<AtomicUsize>);
    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn tiny() -> LcrqConfig {
        LcrqConfig::new().with_ring_order(3)
    }

    #[test]
    fn only_the_listed_primitives_travel_inline() {
        #[repr(align(8))]
        struct Padded(#[allow(dead_code)] u8);
        #[repr(transparent)]
        struct Newtype(#[allow(dead_code)] u64);
        fn of_a_borrow<'a>(_: &'a u64) -> [bool; 2] {
            [
                is_scalar::<&'a u64>(),
                is_scalar::<core::cell::Cell<&'a u8>>(),
            ]
        }
        assert!(is_scalar::<u64>() && is_scalar::<char>() && is_scalar::<f32>());
        assert!(!is_scalar::<Padded>() && !is_scalar::<Newtype>());
        assert!(!is_scalar::<()>() && !is_scalar::<Option<u32>>());
        assert!(!is_scalar::<u128>() && !is_scalar::<Box<u64>>());
        assert_eq!(of_a_borrow(&7), [false, false]);
    }

    /// The facade suite: written once against `Typed<T, R>`, instantiated
    /// below for every ring the crate ships.
    macro_rules! typed_suite {
        ($name:ident, $ring:ty) => {
            mod $name {
                use super::*;
                type Q<T> = Typed<T, $ring>;

                #[test]
                fn fifo_of_strings() {
                    let q: Q<String> = Q::with_config(tiny());
                    for i in 0..100 {
                        q.enqueue(format!("item-{i}"));
                    }
                    for i in 0..100 {
                        assert_eq!(q.dequeue(), Some(format!("item-{i}")));
                    }
                    assert_eq!(q.dequeue(), None);
                }

                #[test]
                fn zero_sized_types_work() {
                    // Box<()> still yields a unique-ish dangling pointer;
                    // ensure the round trip works and nothing is lost.
                    let q: Q<()> = Q::new();
                    q.enqueue(());
                    q.enqueue(());
                    assert_eq!(q.dequeue(), Some(()));
                    assert_eq!(q.dequeue(), Some(()));
                    assert_eq!(q.dequeue(), None);
                }

                #[test]
                fn every_word_round_trips() {
                    // Five laps through 8-slot rings: inline and boxed words
                    // cross ring switches side by side.
                    fn laps<T: Send + Copy, K: PartialEq + core::fmt::Debug>(
                        values: &[T],
                        key: impl Fn(T) -> K,
                    ) {
                        let q: Q<T> = Q::with_config(tiny());
                        let mut sent = Vec::new();
                        for _ in 0..5 {
                            q.extend(values.iter().copied());
                            values.iter().for_each(|&v| q.enqueue(v));
                            sent.extend(values.iter().chain(values).map(|&v| key(v)));
                        }
                        let mut out = Vec::new();
                        assert_eq!(q.drain_into(&mut out, values.len()), values.len());
                        out.extend(q.drain());
                        assert_eq!(out.into_iter().map(key).collect::<Vec<K>>(), sent);
                    }
                    use core::convert::identity as id;
                    const TAG: u64 = 1 << 63;
                    laps(&[0, 1, TAG - 1, TAG, TAG + 1, u64::MAX - 1, u64::MAX], id);
                    laps(&[-1, i64::MIN, i64::MAX, 0], id);
                    laps(&[-0.0, f64::NAN, 1.5], f64::to_bits);
                    laps(&[-0.0f32, f32::NAN, 1.5], f32::to_bits);
                    laps(&[false, true], id);
                    laps(&['é', char::MAX, '\0'], id);
                    laps(&[0u8, 1, 0x80, u8::MAX], id);
                    laps(&[i8::MIN, -1, i8::MAX], id);
                    laps(&[usize::MAX, 0, isize::MIN as usize], id);
                    laps(&[(); 3], id);

                    // Rejected words come back whole, whichever way they
                    // were encoded; and a queue dropped with both kinds
                    // inside frees the boxed ones (the leak checkers' job).
                    let q: Q<u64> = Q::with_config(tiny());
                    q.extend([1, u64::MAX, 2, TAG]);
                    q.close();
                    assert_eq!(q.try_enqueue(7), Err(7));
                    assert_eq!(q.try_enqueue(u64::MAX), Err(u64::MAX));
                    assert_eq!(q.try_extend(vec![TAG, 3]), Err(vec![TAG, 3]));
                    assert_eq!(q.dequeue(), Some(1));
                    drop(q);
                }

                #[test]
                fn values_are_dropped_exactly_once() {
                    let drops = Arc::new(AtomicUsize::new(0));
                    let q: Q<Counted> = Q::with_config(LcrqConfig::new().with_ring_order(2));
                    for _ in 0..50 {
                        q.enqueue(Counted(Arc::clone(&drops)));
                    }
                    for _ in 0..20 {
                        drop(q.dequeue());
                    }
                    assert_eq!(drops.load(Ordering::SeqCst), 20);
                    drop(q); // remaining 30 freed by the queue's Drop
                    assert_eq!(drops.load(Ordering::SeqCst), 50);
                }

                #[test]
                fn from_iterator_extend_and_drain() {
                    let q: Q<String> = ["a", "b"].into_iter().map(String::from).collect();
                    q.extend(["c".to_string()]);
                    let out: Vec<String> = q.drain().collect();
                    assert_eq!(out, vec!["a", "b", "c"]);
                    assert!(format!("{q:?}").contains("String"));
                }

                #[test]
                fn extend_and_drain_into_round_trip_through_the_batch_path() {
                    let q: Q<String> = Q::new();
                    q.extend((0..100).map(|i| format!("item-{i}"))); // &self: no mut
                    let mut out = Vec::new();
                    assert_eq!(q.drain_into(&mut out, 30), 30);
                    assert_eq!(q.drain_into(&mut out, 1_000), 70, "short return = EMPTY");
                    let expected: Vec<String> = (0..100).map(|i| format!("item-{i}")).collect();
                    assert_eq!(out, expected);
                    assert_eq!(q.drain_into(&mut out, 1), 0);
                    assert_eq!(q.dequeue(), None);
                }

                #[test]
                fn extend_spills_across_tiny_rings() {
                    let q: Q<u32> = Q::with_config(tiny());
                    q.extend(0..500u32);
                    let mut out = Vec::new();
                    assert_eq!(q.drain_into(&mut out, 500), 500);
                    assert_eq!(out, (0..500).collect::<Vec<u32>>());
                }

                #[test]
                fn drain_into_appends_after_existing_contents() {
                    let q: Q<u8> = Q::new();
                    q.extend([10, 11]);
                    let mut out = vec![9];
                    assert_eq!(q.drain_into(&mut out, 5), 2);
                    assert_eq!(out, vec![9, 10, 11]);
                }

                #[test]
                fn batch_moved_values_drop_exactly_once() {
                    let drops = Arc::new(AtomicUsize::new(0));
                    let q: Q<Counted> = Q::new();
                    q.extend((0..50).map(|_| Counted(Arc::clone(&drops))));
                    let mut out = Vec::new();
                    assert_eq!(q.drain_into(&mut out, 20), 20);
                    drop(out); // 20 drained values dropped here
                    assert_eq!(drops.load(Ordering::SeqCst), 20);
                    drop(q); // remaining 30 freed by the queue's Drop
                    assert_eq!(drops.load(Ordering::SeqCst), 50);
                }

                #[test]
                fn close_returns_ownership_and_drains_in_order() {
                    let q: Q<String> = Q::new();
                    assert_eq!(q.try_enqueue("a".into()), Ok(()));
                    q.extend(["b".to_string(), "c".to_string()]);
                    assert!(q.close());
                    assert!(q.is_closed());
                    assert!(!q.close());
                    assert_eq!(q.try_enqueue("x".to_string()), Err("x".to_string()));
                    let rejected = q
                        .try_extend(vec!["y".to_string(), "z".to_string()])
                        .unwrap_err();
                    assert_eq!(rejected, vec!["y".to_string(), "z".to_string()]);
                    let drained: Vec<String> = q.drain().collect();
                    assert_eq!(drained, vec!["a", "b", "c"]);
                }

                #[test]
                fn rejected_values_drop_exactly_once() {
                    let drops = Arc::new(AtomicUsize::new(0));
                    let q: Q<Counted> = Q::new();
                    q.enqueue(Counted(Arc::clone(&drops)));
                    q.close();
                    // Rejected scalar and batch values come back still
                    // owned; dropping them must free each exactly once.
                    drop(q.try_enqueue(Counted(Arc::clone(&drops))).unwrap_err());
                    let rejected = q
                        .try_extend((0..5).map(|_| Counted(Arc::clone(&drops))).collect())
                        .unwrap_err();
                    assert_eq!(rejected.len(), 5);
                    drop(rejected);
                    assert_eq!(drops.load(Ordering::SeqCst), 6);
                    drop(q); // the one enqueued value freed by the queue's Drop
                    assert_eq!(drops.load(Ordering::SeqCst), 7);
                }

                #[test]
                fn mpmc_stress_typed() {
                    let q: Q<(usize, u64)> = Q::with_config(LcrqConfig::new().with_ring_order(4));
                    let q = &q;
                    let sent = testing::items(3, 3_000);
                    let got = std::thread::scope(|s| {
                        for p in 0..3 {
                            s.spawn(move || {
                                for i in 0..3_000 {
                                    q.enqueue((p, i));
                                }
                            });
                        }
                        let mut got = Vec::new();
                        while got.len() < sent.len() {
                            match q.dequeue() {
                                Some((p, i)) => got.push(testing::encode(p, i)),
                                None => std::thread::yield_now(),
                            }
                        }
                        got
                    });
                    assert!(q.dequeue().is_none());
                    testing::check_delivery(&sent, &[got]).unwrap();
                }
            }
        };
    }

    typed_suite!(crq, Crq<HardwareFaa>);
    typed_suite!(crq_cas, Crq<CasLoopFaa>);
    typed_suite!(scqd, ScqD<HardwareFaa>);
    typed_suite!(wcq_ring, WcqRing<HardwareFaa>);
}

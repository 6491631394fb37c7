//! The generic typed facade over the raw `u64` lists of rings.
//!
//! The paper's queue transfers 64-bit integers or pointers (Figure 3a,
//! "val: 64 bits (int or pointer)"). [`Typed<T, R>`] takes the pointer
//! route: values are boxed and the queue moves the box address, so any
//! `Send` type rides the same lock-free fast path — over whichever ring
//! `R` the list is built from ([`TypedLcrq`], [`TypedLscq`], [`TypedWcq`]).

use core::marker::PhantomData;

use lcrq_atomic::HardwareFaa;

use crate::config::LcrqConfig;
use crate::crq::Crq;
use crate::list::RingList;
use crate::ring::Ring;
use crate::scq::ScqD;
use crate::wcq::WcqRing;

/// [`Typed`] over the LCRQ: boxed values ride the CAS2 fast path.
pub type TypedLcrq<T, P = HardwareFaa> = Typed<T, Crq<P>>;
/// [`Typed`] over the portable LSCQ: the box address goes through the
/// [`ScqD`] index indirection like any other `u64`.
pub type TypedLscq<T, P = HardwareFaa> = Typed<T, ScqD<P>>;
/// [`Typed`] over the wait-free wCQ, so channels and other `T`-valued
/// layers inherit the bounded-steps progress class.
pub type TypedWcq<T, P = HardwareFaa> = Typed<T, WcqRing<P>>;

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

    /// Moves `value` to the heap and returns its address as a queue word.
    fn boxed(value: T) -> u64 {
        let ptr = Box::into_raw(Box::new(value)) as u64;
        debug_assert!(ptr < crate::BOTTOM && ptr != 0);
        ptr
    }

    /// Takes back a value [`boxed`](Self::boxed) earlier.
    ///
    /// # Safety
    ///
    /// `ptr` must come from `boxed` and be claimed exactly once: either the
    /// queue handed it out (a dequeue — exactly once by linearizability) or
    /// the queue rejected it (it never went in).
    unsafe fn unboxed(ptr: u64) -> T {
        // SAFETY: per this function's contract.
        *unsafe { Box::from_raw(ptr as *mut T) }
    }

    /// Appends `value`.
    pub fn enqueue(&self, value: T) {
        self.inner.enqueue(Self::boxed(value));
    }

    /// Removes and returns the oldest value, or `None` if empty.
    pub fn dequeue(&self) -> Option<T> {
        // SAFETY: every value in the queue was `boxed`, and is dequeued
        // exactly once.
        self.inner
            .dequeue()
            .map(|ptr| unsafe { Self::unboxed(ptr) })
    }

    /// Appends `value` unless the queue has been [`close`](Self::close)d,
    /// in which case ownership is handed back as `Err(value)`.
    pub fn try_enqueue(&self, value: T) -> Result<(), T> {
        self.inner
            .try_enqueue(Self::boxed(value))
            // SAFETY: the queue rejected the pointer, so we still own the
            // box we just created.
            .map_err(|ptr| unsafe { Self::unboxed(ptr) })
    }

    /// Batch counterpart of [`try_enqueue`](Self::try_enqueue): appends
    /// every value of `values` through the raw batch path, or — if the
    /// queue is closed partway — returns the **unplaced suffix** as
    /// `Err(remainder)`. Items of the placed prefix are in the queue and
    /// will be drained by receivers like any others.
    pub fn try_extend(&self, values: Vec<T>) -> Result<(), Vec<T>> {
        let ptrs: Vec<u64> = values.into_iter().map(Self::boxed).collect();
        self.inner.try_enqueue_batch(&ptrs).map_err(|placed| {
            // SAFETY: slots past `placed` were never enqueued; we still own
            // those boxes.
            let rest = ptrs[placed..].iter();
            rest.map(|&ptr| unsafe { Self::unboxed(ptr) }).collect()
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
    /// are boxed up front, then their addresses enter the queue via
    /// [`RingList::enqueue_batch`] — on a CRQ, one fetch-and-add per
    /// multi-slot reservation instead of one per item.
    ///
    /// Like the raw batch, this is a sequence of individual enqueues in
    /// iterator order, not an atomic group (see DESIGN.md "Batched
    /// operations"). Takes `&self`: concurrent callers are fine.
    pub fn extend<I: IntoIterator<Item = T>>(&self, iter: I) {
        let ptrs: Vec<u64> = iter.into_iter().map(Self::boxed).collect();
        self.inner.enqueue_batch(&ptrs);
    }

    /// Removes up to `max` of the oldest values, appending them to `out` in
    /// FIFO order through the raw batch path
    /// ([`RingList::dequeue_batch`]); returns how many were moved.
    /// A return `< max` is a linearizable EMPTY observation.
    pub fn drain_into(&self, out: &mut Vec<T>, max: usize) -> usize {
        let mut ptrs = Vec::with_capacity(max.min(1024));
        let taken = self.inner.dequeue_batch(&mut ptrs, max);
        // SAFETY: as in `dequeue`.
        out.extend(ptrs.into_iter().map(|ptr| unsafe { Self::unboxed(ptr) }));
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
        // Drain and drop any remaining boxed values before the rings go.
        while self.dequeue().is_some() {}
    }
}

// SAFETY: the queue owns boxed `T` values in transit; handing them across
// threads requires `T: Send` (already bounded on the struct). The list
// itself is `Send + Sync`.
unsafe impl<T: Send, R: Ring> Send for Typed<T, R> {}
unsafe impl<T: Send, R: Ring> Sync for Typed<T, R> {}

#[cfg(test)]
mod tests {
    use super::*;
    use lcrq_atomic::CasLoopFaa;
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
                    let producers = 3usize;
                    let per = 3_000u64;
                    let total = producers as u64 * per;
                    std::thread::scope(|s| {
                        for p in 0..producers {
                            s.spawn(move || {
                                for i in 0..per {
                                    q.enqueue((p, i));
                                }
                            });
                        }
                        s.spawn(move || {
                            let mut got = 0;
                            let mut last = [None; 8];
                            while got < total {
                                if let Some((p, i)) = q.dequeue() {
                                    if let Some(prev) = last[p] {
                                        assert!(i > prev);
                                    }
                                    last[p] = Some(i);
                                    got += 1;
                                } else {
                                    std::thread::yield_now();
                                }
                            }
                        });
                    });
                    assert!(q.dequeue().is_none());
                }
            }
        };
    }

    typed_suite!(crq, Crq<HardwareFaa>);
    typed_suite!(crq_cas, Crq<CasLoopFaa>);
    typed_suite!(scqd, ScqD<HardwareFaa>);
    typed_suite!(wcq_ring, WcqRing<HardwareFaa>);
}

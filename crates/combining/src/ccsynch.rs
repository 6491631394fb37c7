//! CC-Synch (Fatourou & Kallimanis, PPoPP 2012).
//!
//! A blocking combining construction with constant synchronization cost:
//! each operation performs exactly one SWAP to join the request list, then
//! either spins until a combiner serves it or becomes the combiner itself.
//! The CC-Queue baseline (paper §5) uses two instances — one for the queue's
//! head lock and one for its tail lock — so enqueue and dequeue batches run
//! in parallel with each other.

use core::cell::UnsafeCell;

use crate::list::{Announced, RequestList};
use crate::seq::SeqObject;
use crate::DEFAULT_HELP_LIMIT;

/// A linearizable concurrent version of the sequential object `S`, built
/// with the CC-Synch combining construction.
///
/// ```
/// use lcrq_combining::{CcSynch, seq::SeqCounter};
/// let counter = CcSynch::new(SeqCounter::default());
/// assert_eq!(counter.apply(5), 0); // previous value
/// assert_eq!(counter.apply(1), 5);
/// ```
pub struct CcSynch<S: SeqObject> {
    list: RequestList<S>,
    state: UnsafeCell<S>,
    help_limit: usize,
}

// SAFETY: `state` is only touched by the unique combiner (guaranteed by the
// request-list protocol); ops/results cross threads via the list's
// release/acquire edges.
unsafe impl<S: SeqObject + Send> Send for CcSynch<S> {}
unsafe impl<S: SeqObject + Send> Sync for CcSynch<S> {}

impl<S: SeqObject> CcSynch<S> {
    /// Wraps `state` with the default help limit.
    pub fn new(state: S) -> Self {
        Self::with_help_limit(state, DEFAULT_HELP_LIMIT)
    }

    /// Wraps `state`; a combiner serves at most `help_limit` requests per
    /// round (minimum 1) before handing the role over.
    pub fn with_help_limit(state: S, help_limit: usize) -> Self {
        Self {
            list: RequestList::new(),
            state: UnsafeCell::new(state),
            help_limit: help_limit.max(1),
        }
    }

    /// Applies `op` to the object, linearizably; blocks while the current
    /// combiner (possibly this thread) works.
    pub fn apply(&self, op: S::Op) -> S::Ret {
        match self.list.announce(op) {
            Announced::Done(ret) => ret,
            Announced::Combine(start) => {
                // SAFETY: we hold the combiner role, which grants exclusive
                // access to `state` by the CC-Synch protocol.
                unsafe {
                    self.list
                        .combine(start, &mut *self.state.get(), self.help_limit)
                }
            }
        }
    }

    /// Exclusive access to the wrapped state (no concurrency possible).
    pub fn state_mut(&mut self) -> &mut S {
        self.state.get_mut()
    }

    /// Consumes the wrapper, returning the sequential state.
    pub fn into_inner(self) -> S {
        self.state.into_inner()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::{FifoOp, SeqCounter, SeqFifo};
    use std::sync::Arc;

    #[test]
    fn sequential_semantics() {
        let c = CcSynch::new(SeqCounter::default());
        assert_eq!(c.apply(1), 0);
        assert_eq!(c.apply(2), 1);
        assert_eq!(c.apply(3), 3);
        assert_eq!(c.into_inner().apply(0), 6);
    }

    #[test]
    fn no_lost_updates_under_contention() {
        let c = Arc::new(CcSynch::new(SeqCounter::default()));
        let threads = 8;
        let per = 5_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..per {
                        c.apply(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let c = Arc::try_unwrap(c).ok().expect("sole owner");
        assert_eq!(c.into_inner().apply(0), threads * per);
    }

    #[test]
    fn previous_values_are_unique_proving_atomicity() {
        // Each apply(1) returns the pre-increment value; if two operations
        // ever interleaved inside the object, two would return the same.
        let c = Arc::new(CcSynch::new(SeqCounter::default()));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || (0..2_000).map(|_| c.apply(1)).collect::<Vec<_>>())
            })
            .collect();
        let mut seen: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        seen.sort_unstable();
        let expected: Vec<u64> = (0..8_000).collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn fifo_under_combining_keeps_per_producer_order() {
        let q = Arc::new(CcSynch::new(SeqFifo::default()));
        let producers = 4;
        let per = 2_000u64;
        let handles: Vec<_> = (0..producers)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..per {
                        q.apply(FifoOp::Enq((p << 32) | i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut last_seen = vec![None::<u64>; producers as usize];
        let mut count = 0;
        while let Some(v) = q.apply(FifoOp::Deq) {
            let (p, i) = ((v >> 32) as usize, v & 0xFFFF_FFFF);
            if let Some(prev) = last_seen[p] {
                assert!(i > prev, "per-producer FIFO order violated");
            }
            last_seen[p] = Some(i);
            count += 1;
        }
        assert_eq!(count, producers * per);
    }

    #[test]
    fn tiny_help_limit_still_completes() {
        let c = Arc::new(CcSynch::with_help_limit(SeqCounter::default(), 1));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        c.apply(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let c = Arc::try_unwrap(c).ok().expect("sole owner");
        assert_eq!(c.into_inner().apply(0), 4_000);
    }

    #[test]
    fn combiner_batches_are_recorded() {
        use lcrq_util::metrics::{self, Event};
        let before = metrics::local_snapshot();
        let c = CcSynch::new(SeqCounter::default());
        for _ in 0..10 {
            c.apply(1);
        }
        let d = metrics::local_snapshot().delta_since(&before);
        assert!(d.get(Event::CombinerRound) >= 1);
        assert_eq!(d.get(Event::OpsCombined), 10);
        assert_eq!(d.get(Event::Swap), 10, "one SWAP per operation");
    }

    #[test]
    fn state_mut_gives_direct_access() {
        let mut c = CcSynch::new(SeqCounter::default());
        c.apply(41);
        assert_eq!(c.state_mut().apply(1), 41);
    }

    #[test]
    fn many_instances_do_not_interfere() {
        let a = CcSynch::new(SeqCounter::default());
        let b = CcSynch::new(SeqCounter::default());
        a.apply(10);
        b.apply(20);
        assert_eq!(a.into_inner().apply(0), 10);
        assert_eq!(b.into_inner().apply(0), 20);
    }

    #[test]
    fn drop_after_use_frees_nodes_without_crash() {
        for _ in 0..50 {
            let c = CcSynch::new(SeqCounter::default());
            c.apply(1);
            drop(c);
        }
    }
}

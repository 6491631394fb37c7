//! The uniform MPMC FIFO queue interface used by the harness and tests.

/// A linearizable multi-producer multi-consumer FIFO queue of `u64` values.
///
/// The paper's workloads transfer word-sized payloads (integers or
/// pointers), so the benchmark-facing interface is monomorphic; the LCRQ
/// core crate additionally exposes a generic typed API on top.
///
/// # Batched operations
///
/// [`enqueue_batch`] and [`dequeue_batch`] move several values per call.
/// Their contract is deliberately weak so every queue can provide them:
/// a batch is a *sequence of individual operations*, *not* an atomic
/// multi-enqueue/multi-dequeue — concurrent operations may interleave
/// between two items of the same batch, and a partially-consumed queue
/// never exposes items out of FIFO order. The default implementations
/// simply loop the scalar operations; implementations with a cheaper bulk
/// path (LCRQ reserves k ring indices with a single fetch-and-add)
/// override them and may offer stronger contiguity within one internal
/// reservation, but callers must only rely on the sequential-composition
/// semantics documented here.
///
/// [`enqueue_batch`]: ConcurrentQueue::enqueue_batch
/// [`dequeue_batch`]: ConcurrentQueue::dequeue_batch
pub trait ConcurrentQueue: Send + Sync {
    /// Appends `value` to the queue.
    fn enqueue(&self, value: u64);

    /// Removes and returns the oldest value, or `None` if the queue is
    /// (linearizably) empty.
    fn dequeue(&self) -> Option<u64>;

    /// Appends every value in `values`, in slice order.
    ///
    /// Equivalent to `for &v in values { self.enqueue(v) }`: the items
    /// linearize as `values.len()` individual enqueues in order, with no
    /// atomicity across the batch (see the trait-level docs).
    fn enqueue_batch(&self, values: &[u64]) {
        for &v in values {
            self.enqueue(v);
        }
    }

    /// Removes up to `max` of the oldest values, appending them to `out`
    /// in queue (FIFO) order; returns how many were removed.
    ///
    /// Equivalent to `max` individual [`dequeue`]s stopping at the first
    /// empty: a return value `< max` means the queue was observed
    /// (linearizably) empty, with the same guarantee as a scalar dequeue
    /// returning `None`.
    ///
    /// [`dequeue`]: ConcurrentQueue::dequeue
    fn dequeue_batch(&self, out: &mut Vec<u64>, max: usize) -> usize {
        let mut taken = 0;
        while taken < max {
            match self.dequeue() {
                Some(v) => {
                    out.push(v);
                    taken += 1;
                }
                None => break,
            }
        }
        taken
    }

    /// Short algorithm name for harness output (e.g. `"lcrq"`, `"ms"`).
    fn name(&self) -> &'static str;
}

impl<Q: ConcurrentQueue + ?Sized> ConcurrentQueue for &Q {
    fn enqueue(&self, value: u64) {
        (**self).enqueue(value)
    }
    fn dequeue(&self) -> Option<u64> {
        (**self).dequeue()
    }
    fn enqueue_batch(&self, values: &[u64]) {
        (**self).enqueue_batch(values)
    }
    fn dequeue_batch(&self, out: &mut Vec<u64>, max: usize) -> usize {
        (**self).dequeue_batch(out, max)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

impl<Q: ConcurrentQueue + ?Sized> ConcurrentQueue for Box<Q> {
    fn enqueue(&self, value: u64) {
        (**self).enqueue(value)
    }
    fn dequeue(&self) -> Option<u64> {
        (**self).dequeue()
    }
    fn enqueue_batch(&self, values: &[u64]) {
        (**self).enqueue_batch(values)
    }
    fn dequeue_batch(&self, out: &mut Vec<u64>, max: usize) -> usize {
        (**self).dequeue_batch(out, max)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

impl<Q: ConcurrentQueue + ?Sized> ConcurrentQueue for std::sync::Arc<Q> {
    fn enqueue(&self, value: u64) {
        (**self).enqueue(value)
    }
    fn dequeue(&self) -> Option<u64> {
        (**self).dequeue()
    }
    fn enqueue_batch(&self, values: &[u64]) {
        (**self).enqueue_batch(values)
    }
    fn dequeue_batch(&self, out: &mut Vec<u64>, max: usize) -> usize {
        (**self).dequeue_batch(out, max)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::sync::Arc;
    use std::sync::Mutex;

    /// Minimal queue relying entirely on the default batch methods.
    struct ModelQueue(Mutex<VecDeque<u64>>);

    impl ModelQueue {
        fn new() -> Self {
            Self(Mutex::new(VecDeque::new()))
        }
    }

    impl ConcurrentQueue for ModelQueue {
        fn enqueue(&self, value: u64) {
            self.0.lock().unwrap().push_back(value);
        }
        fn dequeue(&self) -> Option<u64> {
            self.0.lock().unwrap().pop_front()
        }
        fn name(&self) -> &'static str {
            "model"
        }
    }

    #[test]
    fn default_batch_methods_compose_scalar_ops() {
        let q = ModelQueue::new();
        q.enqueue_batch(&[1, 2, 3, 4, 5]);
        let mut out = Vec::new();
        assert_eq!(q.dequeue_batch(&mut out, 3), 3);
        assert_eq!(out, vec![1, 2, 3]);
        // Short batch: stops at empty and reports the shortfall.
        assert_eq!(q.dequeue_batch(&mut out, 10), 2);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
        assert_eq!(q.dequeue_batch(&mut out, 1), 0);
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn empty_batches_are_no_ops() {
        let q = ModelQueue::new();
        q.enqueue_batch(&[]);
        let mut out = Vec::new();
        assert_eq!(q.dequeue_batch(&mut out, 0), 0);
        assert!(out.is_empty());
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn blanket_impls_forward_batch_methods() {
        fn exercise<Q: ConcurrentQueue>(q: Q) {
            q.enqueue_batch(&[7, 8]);
            let mut out = Vec::new();
            assert_eq!(q.dequeue_batch(&mut out, 4), 2);
            assert_eq!(out, vec![7, 8]);
        }
        exercise(ModelQueue::new());
        exercise(Box::new(ModelQueue::new()));
        exercise(Arc::new(ModelQueue::new()));
        let boxed: Box<dyn ConcurrentQueue> = Box::new(ModelQueue::new());
        exercise(boxed);
    }
}

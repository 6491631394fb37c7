//! The sequential-object interface that combining constructions lift into
//! linearizable concurrent objects.

/// A sequential state machine: the "specification object" a universal
/// construction makes concurrent (Herlihy, 1991).
///
/// `apply` is only ever invoked by one thread at a time (the combiner), so
/// implementations need no internal synchronization.
pub trait SeqObject {
    /// Operation descriptor (e.g. `Enq(x)` / `Deq`).
    type Op: Send;
    /// Operation result.
    type Ret: Send;

    /// Applies one operation, mutating the state and producing its result.
    fn apply(&mut self, op: Self::Op) -> Self::Ret;
}

/// A trivial sequential counter, used by tests of every construction: the
/// final count proves no operation was lost or applied twice, and returned
/// previous-values prove each application was atomic.
#[derive(Debug, Default)]
pub struct SeqCounter {
    value: u64,
}

impl SeqObject for SeqCounter {
    type Op = u64;
    type Ret = u64;

    fn apply(&mut self, add: u64) -> u64 {
        let prev = self.value;
        self.value += add;
        prev
    }
}

/// A sequential FIFO queue over `u64`, for construction tests.
#[derive(Debug, Default)]
pub struct SeqFifo {
    items: std::collections::VecDeque<u64>,
}

/// Operation for [`SeqFifo`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FifoOp {
    /// Append a value.
    Enq(u64),
    /// Remove the oldest value.
    Deq,
}

impl SeqObject for SeqFifo {
    type Op = FifoOp;
    type Ret = Option<u64>;

    fn apply(&mut self, op: FifoOp) -> Option<u64> {
        match op {
            FifoOp::Enq(v) => {
                self.items.push_back(v);
                None
            }
            FifoOp::Deq => self.items.pop_front(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_returns_previous() {
        let mut c = SeqCounter::default();
        assert_eq!(c.apply(5), 0);
        assert_eq!(c.apply(3), 5);
        assert_eq!(c.apply(0), 8);
    }

    #[test]
    fn fifo_is_fifo() {
        let mut q = SeqFifo::default();
        assert_eq!(q.apply(FifoOp::Deq), None);
        q.apply(FifoOp::Enq(1));
        q.apply(FifoOp::Enq(2));
        assert_eq!(q.apply(FifoOp::Deq), Some(1));
        assert_eq!(q.apply(FifoOp::Deq), Some(2));
        assert_eq!(q.apply(FifoOp::Deq), None);
    }
}

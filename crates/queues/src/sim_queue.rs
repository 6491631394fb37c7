//! SimQueue — a wait-free FIFO queue built on the P-Sim universal
//! construction (Fatourou & Kallimanis, SPAA 2011; paper §2).
//!
//! The strongest-progress baseline in the repository: *wait-free*, so every
//! operation completes in a bounded number of its own steps even under an
//! adversarial scheduler — stronger than LCRQ's op-wise nonblocking and
//! far stronger than the blocking CC/FC/H queues. The price is combining
//! work plus a state copy per round, so its raw throughput trails both
//! LCRQ and CC-Queue; the paper's authors use F&A and SWAP inside Sim for
//! the same reason LCRQ does — those instructions cannot fail.
//!
//! This generic form copies the whole queue state per combining round (the
//! authors' specialized SimQueue avoids that); keep queue occupancy modest
//! when benchmarking it, as the paper's pairs workload does.

use crate::ConcurrentQueue;
use lcrq_combining::seq::{FifoOp, SeqFifo};
use lcrq_combining::Sim;

/// A wait-free MPMC FIFO queue (at most 64 distinct threads per instance).
pub struct SimQueue {
    inner: Sim<SeqFifo>,
}

impl SimQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            inner: Sim::new(SeqFifo::default()),
        }
    }

    /// Appends `value`.
    pub fn enqueue(&self, value: u64) {
        self.inner.apply(FifoOp::Enq(value));
    }

    /// Removes the oldest value, or `None` if empty.
    pub fn dequeue(&self) -> Option<u64> {
        self.inner.apply(FifoOp::Deq)
    }
}

impl Default for SimQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl ConcurrentQueue for SimQueue {
    fn enqueue(&self, value: u64) {
        SimQueue::enqueue(self, value)
    }
    fn dequeue(&self) -> Option<u64> {
        SimQueue::dequeue(self)
    }
    fn name(&self) -> &'static str {
        "sim-queue"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing;

    #[test]
    fn empty_queue_returns_none() {
        let q = SimQueue::new();
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn fifo_order_sequential() {
        let q = SimQueue::new();
        for i in 0..200 {
            q.enqueue(i);
        }
        for i in 0..200 {
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn mpmc_stress() {
        let q = SimQueue::new();
        testing::mpmc_stress(&q, 3, 3, 2_000);
    }

    #[test]
    fn model_check_against_vecdeque() {
        testing::model_check(&SimQueue::new(), 0x51);
    }

    #[test]
    fn completes_under_adversarial_preemption() {
        // Wait-freedom smoke: heavy injected preemption must not prevent a
        // fixed workload from finishing.
        lcrq_util::adversary::set_preempt_ppm(5_000);
        let q = SimQueue::new();
        testing::pairs_smoke(&q, 4, 500);
        lcrq_util::adversary::set_preempt_ppm(0);
    }
}

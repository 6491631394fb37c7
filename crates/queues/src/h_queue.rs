//! H-Queue (Fatourou & Kallimanis, PPoPP 2012): the hierarchical CC-Queue.
//!
//! Identical to [`CcQueue`](crate::CcQueue) except each side uses H-Synch:
//! one request list per cluster plus a global lock, so combining batches
//! stay on one socket at a time. On the paper's 4-socket machine this is
//! the only combining queue that scales past 16 threads (Figure 7); its
//! weakness is sensitivity to reduced locality (the initially-full run
//! triples its L3 misses and drops throughput ≈40%, Table 3).
//!
//! Threads declare their cluster via
//! [`lcrq_util::topology::set_current_cluster`].

use crate::cc_queue::{DeqSide, EnqSide};
use crate::ll::{free_chain, LlNode};
use crate::ConcurrentQueue;
use lcrq_combining::HSynch;

/// The H-Queue: two H-Synch instances over the two-lock queue's sides.
pub struct HQueue {
    enq: HSynch<EnqSide>,
    deq: HSynch<DeqSide>,
}

impl HQueue {
    /// Creates an empty queue for `num_clusters` clusters.
    pub fn new(num_clusters: usize) -> Self {
        let dummy = LlNode::alloc(0);
        Self {
            enq: HSynch::new(EnqSide::with_tail(dummy), num_clusters),
            deq: HSynch::new(DeqSide::with_head(dummy), num_clusters),
        }
    }

    /// Appends `value`.
    pub fn enqueue(&self, value: u64) {
        self.enq.apply(value);
    }

    /// Removes the oldest value, or `None` if empty.
    pub fn dequeue(&self) -> Option<u64> {
        self.deq.apply(())
    }

    /// Number of clusters this queue was built for.
    pub fn num_clusters(&self) -> usize {
        self.enq.num_clusters()
    }
}

impl Drop for HQueue {
    fn drop(&mut self) {
        // SAFETY: exclusive access in drop.
        unsafe { free_chain(self.deq.state_mut().head_ptr()) };
    }
}

impl ConcurrentQueue for HQueue {
    fn enqueue(&self, value: u64) {
        HQueue::enqueue(self, value)
    }
    fn dequeue(&self) -> Option<u64> {
        HQueue::dequeue(self)
    }
    fn name(&self) -> &'static str {
        "h-queue"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing;
    use lcrq_util::topology::set_current_cluster;

    #[test]
    fn empty_queue_returns_none() {
        let q = HQueue::new(4);
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn fifo_order_sequential() {
        let q = HQueue::new(4);
        for i in 0..200 {
            q.enqueue(i);
        }
        for i in 0..200 {
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn mpmc_stress_single_cluster() {
        let q = HQueue::new(1);
        testing::mpmc_stress(&q, 4, 4, 4_000);
    }

    #[test]
    fn mpmc_stress_with_clustered_threads() {
        // Threads in different clusters use different request lists; the
        // global lock must still keep the queue linearizable.
        let q = HQueue::new(4);
        let q = &q;
        std::thread::scope(|s| {
            for t in 0..4usize {
                s.spawn(move || {
                    set_current_cluster(t % 4);
                    for i in 0..4_000u64 {
                        q.enqueue(testing::encode(t, i));
                    }
                });
            }
        });
        let got = testing::drain(q);
        assert_eq!(got.len(), 16_000);
        // Per-producer order must hold in the drained sequence.
        let mut last = std::collections::HashMap::new();
        for v in got {
            let (p, seq) = testing::decode(v);
            if let Some(&prev) = last.get(&p) {
                assert!(seq > prev);
            }
            last.insert(p, seq);
        }
    }

    #[test]
    fn model_check_against_vecdeque() {
        testing::model_check(&HQueue::new(2), 0x44);
    }

    #[test]
    fn drop_with_items_is_clean() {
        let q = HQueue::new(4);
        for i in 0..500 {
            q.enqueue(i);
        }
    }
}

//! Tuning parameters for CRQ/LCRQ.

use std::time::Duration;

/// Configuration for [`crate::Lcrq`] and the underlying CRQ rings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LcrqConfig {
    /// Ring size exponent: each CRQ has `R = 1 << ring_order` nodes.
    ///
    /// The paper's evaluation uses `R = 2^17` (§5, "LCRQ implementation");
    /// its sensitivity study (Figure 9) shows performance saturates once the
    /// ring comfortably exceeds the thread count. The library default is
    /// `2^12`, which is already deep in the saturated regime for any
    /// realistic thread count while keeping a ring under 1 MiB; pass the
    /// paper's value to reproduce its exact setup.
    pub ring_order: u32,

    /// Close the ring after an enqueue fails to place its item this many
    /// times (the paper's `starving()` predicate, Figure 3d line 98; the
    /// mechanism that makes LCRQ nonblocking).
    pub starvation_limit: u32,

    /// Bounded-wait optimization (§4.1.1): a dequeuer that arrives before
    /// its matching enqueuer spins up to this many iterations for the
    /// enqueue transition instead of immediately performing an empty
    /// transition (which would force both operations to retry). `0`
    /// disables the optimization.
    pub bounded_wait_spins: u32,

    /// Hierarchical cluster batching (LCRQ+H, §4.1.1). `None` = plain LCRQ.
    pub hierarchical: Option<HierarchicalConfig>,

    /// Maximum number of retired rings kept in the recycling pool
    /// ([`crate::pool::RingPool`]) for reuse by the spill path instead of
    /// being freed. Bounds the queue's idle memory at roughly
    /// `ring_pool_capacity × R × 16` bytes beyond the live ring chain.
    /// `0` disables recycling (every spill allocates, every retire frees).
    pub ring_pool_capacity: usize,
}

/// Parameters of the hierarchy-aware optimization (LCRQ+H).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchicalConfig {
    /// How long a thread on a "remote" cluster waits before seizing the
    /// CRQ's cluster field and entering anyway. The paper uses 100 µs.
    pub timeout: Duration,
}

impl Default for HierarchicalConfig {
    fn default() -> Self {
        Self {
            timeout: Duration::from_micros(100),
        }
    }
}

impl LcrqConfig {
    /// Library default: `R = 2^12`, starvation limit 1024, bounded wait 128,
    /// no hierarchical batching, ring pool of 8.
    pub fn new() -> Self {
        Self {
            ring_order: 12,
            starvation_limit: 1024,
            bounded_wait_spins: 128,
            hierarchical: None,
            ring_pool_capacity: 8,
        }
    }

    /// The exact configuration of the paper's evaluation: `R = 2^17`,
    /// hierarchical batching off (enable via [`hierarchical`](Self::with_hierarchical)
    /// for LCRQ+H with its 100 µs timeout).
    pub fn paper() -> Self {
        Self {
            ring_order: 17,
            ..Self::new()
        }
    }

    /// Sets the ring size exponent (clamped to `[1, 30]`).
    pub fn with_ring_order(mut self, order: u32) -> Self {
        self.ring_order = order.clamp(1, 30);
        self
    }

    /// Sets the starvation limit (minimum 1).
    pub fn with_starvation_limit(mut self, limit: u32) -> Self {
        self.starvation_limit = limit.max(1);
        self
    }

    /// Sets the bounded-wait spin budget (0 disables).
    pub fn with_bounded_wait(mut self, spins: u32) -> Self {
        self.bounded_wait_spins = spins;
        self
    }

    /// Enables the hierarchical (LCRQ+H) optimization.
    pub fn with_hierarchical(mut self, h: HierarchicalConfig) -> Self {
        self.hierarchical = Some(h);
        self
    }

    /// Sets the recycling-pool capacity (0 disables ring reuse). The pool
    /// is one 8-byte slot per ring of capacity, allocated with the queue.
    pub fn with_ring_pool_capacity(mut self, capacity: usize) -> Self {
        self.ring_pool_capacity = capacity;
        self
    }

    /// Ring size `R` in nodes.
    pub fn ring_size(&self) -> u64 {
        1u64 << self.ring_order
    }
}

impl Default for LcrqConfig {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = LcrqConfig::default();
        assert_eq!(c.ring_size(), 4096);
        assert!(c.starvation_limit >= 1);
        assert!(c.hierarchical.is_none());
        assert!(c.ring_pool_capacity > 0, "recycling is on by default");
    }

    #[test]
    fn ring_pool_capacity_builder() {
        let c = LcrqConfig::new().with_ring_pool_capacity(0);
        assert_eq!(c.ring_pool_capacity, 0);
        let c = LcrqConfig::new().with_ring_pool_capacity(32);
        assert_eq!(c.ring_pool_capacity, 32);
    }

    #[test]
    fn paper_config_matches_evaluation_section() {
        let c = LcrqConfig::paper();
        assert_eq!(c.ring_size(), 1 << 17);
        let h = HierarchicalConfig::default();
        assert_eq!(h.timeout, Duration::from_micros(100));
    }

    #[test]
    fn builders_clamp() {
        let c = LcrqConfig::new()
            .with_ring_order(99)
            .with_starvation_limit(0);
        assert_eq!(c.ring_order, 30);
        assert_eq!(c.starvation_limit, 1);
        let c = LcrqConfig::new().with_ring_order(0);
        assert_eq!(c.ring_size(), 2);
    }
}

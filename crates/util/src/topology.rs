//! Cluster topology for the hierarchical algorithms (LCRQ+H, H-Queue).
//!
//! The paper's hierarchy-aware variants batch operations per *cluster* — on
//! its four-socket Westmere-EX server, a cluster is one processor's ten
//! cores. Our reproduction host has a single processor, so the topology is
//! *simulated*: the harness partitions software threads into `num_clusters`
//! groups (`cluster id = thread id mod num_clusters`, matching the paper's
//! round-robin pinning, which places consecutive thread ids on consecutive
//! sockets). This exercises the identical cluster hand-off code paths; see
//! DESIGN.md substitution P1.

use std::cell::Cell;

/// Describes how threads map onto synchronization clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterTopology {
    num_clusters: usize,
}

impl ClusterTopology {
    /// A topology with `num_clusters` clusters (clamped to at least 1).
    pub const fn new(num_clusters: usize) -> Self {
        Self {
            num_clusters: if num_clusters == 0 { 1 } else { num_clusters },
        }
    }

    /// The single-cluster topology (hierarchical algorithms degenerate to
    /// their flat counterparts).
    pub const fn flat() -> Self {
        Self::new(1)
    }

    /// Number of clusters.
    pub const fn num_clusters(&self) -> usize {
        self.num_clusters
    }

    /// Cluster of a thread under round-robin placement.
    pub const fn cluster_of(&self, thread_id: usize) -> usize {
        thread_id % self.num_clusters
    }
}

impl Default for ClusterTopology {
    fn default() -> Self {
        Self::flat()
    }
}

thread_local! {
    static MY_CLUSTER: Cell<usize> = const { Cell::new(0) };
}

/// Declares the calling thread's cluster id. Harnesses call this once per
/// worker thread; hierarchical queues read it via [`current_cluster`].
pub fn set_current_cluster(cluster: usize) {
    MY_CLUSTER.with(|c| c.set(cluster));
}

/// The calling thread's cluster id (0 if never set).
pub fn current_cluster() -> usize {
    MY_CLUSTER.with(|c| c.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_clusters_clamped_to_one() {
        let t = ClusterTopology::new(0);
        assert_eq!(t.num_clusters(), 1);
        assert_eq!(t.cluster_of(17), 0);
    }

    #[test]
    fn round_robin_mapping() {
        let t = ClusterTopology::new(4);
        assert_eq!(t.cluster_of(0), 0);
        assert_eq!(t.cluster_of(1), 1);
        assert_eq!(t.cluster_of(4), 0);
        assert_eq!(t.cluster_of(7), 3);
    }

    #[test]
    fn thread_local_cluster_is_per_thread() {
        set_current_cluster(3);
        assert_eq!(current_cluster(), 3);
        let h = std::thread::spawn(|| {
            assert_eq!(current_cluster(), 0); // default in a fresh thread
            set_current_cluster(1);
            current_cluster()
        });
        assert_eq!(h.join().unwrap(), 1);
        assert_eq!(current_cluster(), 3); // unchanged here
        set_current_cluster(0);
    }
}

//! Software event counters substituting for hardware performance counters.
//!
//! Tables 2 and 3 of the paper report per-operation instruction counts, atomic
//! operation counts, and cache-miss counts from hardware performance counters.
//! We reproduce the *atomic operation* and *CAS failure* columns exactly by
//! counting events in software, and add algorithm-level events (ring-node
//! visits, empty/unsafe transitions, CRQ closings, combiner batch sizes) that
//! explain the same wasted-work story the cache-miss columns tell.
//!
//! Counting uses plain thread-local `Cell`s (no atomics, no locks on the hot
//! path), and those cells are the only store: a thread reads its own with
//! [`local_snapshot`] and nothing else can. A measured run's total is the sum
//! of the [`Snapshot`]s its worker closures return through `join` — a freshly
//! spawned worker returns `local_snapshot()` at exit, a long-lived thread
//! returns `local_snapshot().delta_since(&before)` — so two runs in one
//! process never see each other's counts.

use std::cell::Cell;

/// Countable event kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
#[allow(missing_docs)]
pub enum Event {
    /// Hardware fetch-and-add executed (LOCK XADD).
    Faa,
    /// Atomic swap executed (XCHG).
    Swap,
    /// Test-and-set executed (LOCK BTS).
    Tas,
    /// Single-word CAS attempted.
    CasAttempt,
    /// Single-word CAS that failed.
    CasFailure,
    /// Double-width CAS attempted (LOCK CMPXCHG16B).
    Cas2Attempt,
    /// Double-width CAS that failed.
    Cas2Failure,
    /// A CRQ operation inspected a ring node (>=1 per op; retries add more).
    NodeVisit,
    /// A dequeuer performed an empty transition.
    EmptyTransition,
    /// A dequeuer performed an unsafe transition.
    UnsafeTransition,
    /// A CRQ was closed.
    CrqClosed,
    /// A fresh CRQ ring was heap-allocated (the list's first ring, or a
    /// spill).
    RingAlloc,
    /// Completed enqueue operations.
    EnqOp,
    /// Completed dequeue operations (returning an item).
    DeqOp,
    /// Dequeue operations that returned empty.
    DeqEmpty,
    /// A combiner acquired the combining role.
    CombinerRound,
    /// Operations applied by combiners on behalf of other threads (incl. own).
    OpsCombined,
    /// Bounded-wait spins performed by dequeuers waiting for enqueuers.
    SpinWait,
    /// Hazard-pointer reclamation scans.
    HazardScan,
    /// Batched enqueue reservations (one `FAA(tail, k)` each).
    BatchEnqueue,
    /// Items placed through batched enqueue reservations.
    BatchEnqueueItems,
    /// Batched dequeue reservations (one `FAA(head, k)` each).
    BatchDequeue,
    /// Items removed through batched dequeue reservations.
    BatchDequeueItems,
    /// A thread parked (blocked in the kernel) waiting for channel activity:
    /// one per park, counted before it.
    Park,
    /// A notifier woke a registered channel waiter (a parked thread or a
    /// pending future): one per waker woken.
    Unpark,
    /// A channel waiter's park returned before its deadline with no wake
    /// sent to its waker (a spurious return, or a park token left over
    /// from an earlier wait's wake).
    WakeSpurious,
    /// A channel was closed (sender drop or explicit `close()`).
    ChannelClosed,
    /// An SCQ dequeue returned EMPTY straight from the exhausted threshold
    /// counter, without touching `head` (the livelock-freedom fast exit).
    ThresholdExhausted,
    /// A fail point fired under the `fault-injection` feature (any action;
    /// see `lcrq_util::fault`).
    FaultInjected,
    /// A wCQ operation exhausted its bounded fast path and announced a
    /// request record (escaped to the helping slow path).
    HelpAnnounce,
    /// A wCQ operation completed a *peer's* pending request (help-first
    /// scan or slow-path cooperation), observed by the record transition
    /// it published.
    HelpGranted,
    /// A wCQ request record reached a terminal phase (done / ring-closed),
    /// whichever thread got it there.
    HelpFinalized,
    /// A hazard slot was published (the `SeqCst` store in
    /// `Domain::protect`/`protect_raw`). A `protect` that finds its slot
    /// already naming the source's pointer publishes nothing.
    HazardPublish,
}

const NUM_EVENTS: usize = Event::HazardPublish as usize + 1;

const EVENT_NAMES: [&str; NUM_EVENTS] = [
    "faa",
    "swap",
    "tas",
    "cas_attempt",
    "cas_failure",
    "cas2_attempt",
    "cas2_failure",
    "node_visit",
    "empty_transition",
    "unsafe_transition",
    "crq_closed",
    "ring_alloc",
    "enq_op",
    "deq_op",
    "deq_empty",
    "combiner_round",
    "ops_combined",
    "spin_wait",
    "hazard_scan",
    "batch_enqueue",
    "batch_enqueue_items",
    "batch_dequeue",
    "batch_dequeue_items",
    "park",
    "unpark",
    "wake_spurious",
    "channel_closed",
    "threshold_exhausted",
    "fault_injected",
    "help_announce",
    "help_granted",
    "help_finalized",
    "hazard_publish",
];

thread_local! {
    static LOCAL: [Cell<u64>; NUM_EVENTS] = const { [const { Cell::new(0) }; NUM_EVENTS] };
}

/// Increments `event` by one in the calling thread's local counters.
#[inline]
pub fn inc(event: Event) {
    add(event, 1);
}

/// Increments `event` by `n` in the calling thread's local counters.
#[inline]
pub fn add(event: Event, n: u64) {
    LOCAL.with(|l| {
        let c = &l[event as usize];
        c.set(c.get().wrapping_add(n));
    });
}

/// Event counts: one thread's ([`local_snapshot`]), a bracketed region's
/// ([`Snapshot::delta_since`]), or the sum of several of either.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    counts: [u64; NUM_EVENTS],
}

// Manual impl: the std array Default derive stops at 32 elements.
impl Default for Snapshot {
    fn default() -> Self {
        Snapshot {
            counts: [0; NUM_EVENTS],
        }
    }
}

/// Returns the calling thread's counters as a snapshot, without modifying
/// them. No other thread can touch them, so a single thread can bracket a
/// region of its own work (e.g. "this `recv` performed zero F&A while
/// parked") even while unrelated threads run concurrently.
pub fn local_snapshot() -> Snapshot {
    LOCAL.with(|l| {
        let mut counts = [0u64; NUM_EVENTS];
        for (c, cell) in counts.iter_mut().zip(l.iter()) {
            *c = cell.get();
        }
        Snapshot { counts }
    })
}

impl Snapshot {
    /// Count for a single event kind.
    pub fn get(&self, event: Event) -> u64 {
        self.counts[event as usize]
    }

    /// Total atomic read-modify-write instructions executed: F&A + SWAP +
    /// T&S + CAS attempts + CAS2 attempts. This is the "atomic operations"
    /// row of Tables 2 and 3 (paper counts attempts, successful or not).
    pub fn atomic_ops(&self) -> u64 {
        self.get(Event::Faa)
            + self.get(Event::Swap)
            + self.get(Event::Tas)
            + self.get(Event::CasAttempt)
            + self.get(Event::Cas2Attempt)
    }

    /// Completed queue operations (enqueues + dequeues incl. empty returns).
    pub fn total_ops(&self) -> u64 {
        self.get(Event::EnqOp) + self.get(Event::DeqOp) + self.get(Event::DeqEmpty)
    }

    /// Atomic instructions per completed operation (the headline Table 2/3
    /// metric), or 0.0 when no operations completed.
    pub fn atomic_ops_per_op(&self) -> f64 {
        let ops = self.total_ops();
        if ops == 0 {
            0.0
        } else {
            self.atomic_ops() as f64 / ops as f64
        }
    }

    /// Fraction of single-word CAS attempts that failed.
    pub fn cas_failure_rate(&self) -> f64 {
        let att = self.get(Event::CasAttempt);
        if att == 0 {
            0.0
        } else {
            self.get(Event::CasFailure) as f64 / att as f64
        }
    }

    /// Fraction of CAS2 attempts that failed.
    pub fn cas2_failure_rate(&self) -> f64 {
        let att = self.get(Event::Cas2Attempt);
        if att == 0 {
            0.0
        } else {
            self.get(Event::Cas2Failure) as f64 / att as f64
        }
    }

    /// Fetch-and-add instructions per completed operation. Scalar CRQ
    /// operations pay exactly one F&A each; the batch paths reserve k
    /// indices per F&A, driving this toward 1/k.
    pub fn faa_per_op(&self) -> f64 {
        let ops = self.total_ops();
        if ops == 0 {
            0.0
        } else {
            self.get(Event::Faa) as f64 / ops as f64
        }
    }

    /// Fresh ring heap allocations per completed operation (0.0 when no
    /// operations completed). Every ring close costs one allocation, so this
    /// is about one per `2^ring_order` operations on a spill-heavy workload.
    pub fn allocs_per_op(&self) -> f64 {
        let ops = self.total_ops();
        if ops == 0 {
            0.0
        } else {
            self.get(Event::RingAlloc) as f64 / ops as f64
        }
    }

    /// Thread parks per completed operation (0.0 when no operations
    /// completed). For a well-matched channel workload this stays far below
    /// 1: consumers only park when the queue stays empty past the spin and
    /// backoff phases.
    pub fn parks_per_op(&self) -> f64 {
        let ops = self.total_ops();
        if ops == 0 {
            0.0
        } else {
            self.get(Event::Park) as f64 / ops as f64
        }
    }

    /// Mean items per batched enqueue reservation (0.0 when none happened).
    pub fn mean_enqueue_batch(&self) -> f64 {
        let batches = self.get(Event::BatchEnqueue);
        if batches == 0 {
            0.0
        } else {
            self.get(Event::BatchEnqueueItems) as f64 / batches as f64
        }
    }

    /// Mean items per batched dequeue reservation (0.0 when none happened).
    pub fn mean_dequeue_batch(&self) -> f64 {
        let batches = self.get(Event::BatchDequeue);
        if batches == 0 {
            0.0
        } else {
            self.get(Event::BatchDequeueItems) as f64 / batches as f64
        }
    }

    /// Difference `self - other`, saturating at zero per event; lets a harness
    /// bracket a measured region with two snapshots.
    pub fn delta_since(&self, other: &Snapshot) -> Snapshot {
        let mut counts = [0u64; NUM_EVENTS];
        for (i, c) in counts.iter_mut().enumerate() {
            *c = self.counts[i].saturating_sub(other.counts[i]);
        }
        Snapshot { counts }
    }

    /// Iterates `(name, count)` for all non-zero events.
    pub fn nonzero(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, &c)| (EVENT_NAMES[i], c))
    }
}

impl core::ops::AddAssign for Snapshot {
    fn add_assign(&mut self, other: Snapshot) {
        for (c, o) in self.counts.iter_mut().zip(other.counts) {
            *c = c.wrapping_add(o);
        }
    }
}

impl core::iter::Sum for Snapshot {
    fn sum<I: Iterator<Item = Snapshot>>(iter: I) -> Snapshot {
        let mut total = Snapshot::default();
        for s in iter {
            total += s;
        }
        total
    }
}

impl core::fmt::Display for Snapshot {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        for (name, count) in self.nonzero() {
            writeln!(f, "{name:>18}: {count}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What `f` counted on this thread. Test threads are reused under
    /// `--test-threads=1`, so assertions are on deltas, never on absolute
    /// `local_snapshot()` values.
    fn counted(f: impl FnOnce()) -> Snapshot {
        let before = local_snapshot();
        f();
        local_snapshot().delta_since(&before)
    }

    #[test]
    fn inc_add_snapshot_round_trip() {
        let s = counted(|| {
            inc(Event::Faa);
            add(Event::CasAttempt, 5);
            add(Event::CasFailure, 2);
        });
        assert_eq!(s.get(Event::Faa), 1);
        assert_eq!(s.get(Event::CasAttempt), 5);
        assert_eq!(s.cas_failure_rate(), 0.4);
    }

    #[test]
    fn worker_snapshots_sum_to_exactly_their_own_counts() {
        use std::sync::{Arc, Barrier};
        // An unrelated thread counts the same events before and after the
        // workers start; none of it may reach the workers' sum.
        let start = Arc::new(Barrier::new(5));
        let bystander = {
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                add(Event::Cas2Attempt, 777);
                add(Event::EnqOp, 7);
                start.wait();
                add(Event::Cas2Attempt, 777);
            })
        };
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    for _ in 0..1000 {
                        inc(Event::Cas2Attempt);
                    }
                    add(Event::EnqOp, 10);
                    local_snapshot()
                })
            })
            .collect();
        let s: Snapshot = handles.into_iter().map(|h| h.join().unwrap()).sum();
        bystander.join().unwrap();
        assert_eq!(s.get(Event::Cas2Attempt), 4000);
        assert_eq!(s.get(Event::EnqOp), 40);
    }

    #[test]
    fn atomic_ops_sums_all_rmw_kinds() {
        let s = counted(|| {
            inc(Event::Faa);
            inc(Event::Swap);
            inc(Event::Tas);
            add(Event::CasAttempt, 2);
            add(Event::Cas2Attempt, 3);
            add(Event::EnqOp, 2);
        });
        assert_eq!(s.atomic_ops(), 8);
        assert_eq!(s.total_ops(), 2);
        assert_eq!(s.atomic_ops_per_op(), 4.0);
    }

    #[test]
    fn delta_since_brackets_a_region() {
        inc(Event::DeqOp);
        let before = local_snapshot();
        add(Event::DeqOp, 9);
        let after = local_snapshot();
        let d = after.delta_since(&before);
        assert_eq!(d.get(Event::DeqOp), 9);
    }

    #[test]
    fn display_lists_nonzero_only() {
        let text = counted(|| inc(Event::CrqClosed)).to_string();
        assert!(text.contains("crq_closed"));
        assert!(!text.contains("hazard_scan"));
    }

    #[test]
    fn empty_snapshot_rates_are_zero() {
        let s = Snapshot::default();
        assert_eq!(s.atomic_ops_per_op(), 0.0);
        assert_eq!(s.cas_failure_rate(), 0.0);
        assert_eq!(s.cas2_failure_rate(), 0.0);
        assert_eq!(s.faa_per_op(), 0.0);
        assert_eq!(s.mean_enqueue_batch(), 0.0);
        assert_eq!(s.mean_dequeue_batch(), 0.0);
    }

    #[test]
    fn local_snapshot_reads_without_modifying() {
        let start = local_snapshot();
        inc(Event::Park);
        add(Event::Faa, 3);
        let local = local_snapshot();
        assert_eq!(local.delta_since(&start).get(Event::Park), 1);
        assert_eq!(local.delta_since(&start).get(Event::Faa), 3);
        // Reading left the counters intact.
        assert_eq!(local_snapshot(), local);
        // delta_since works on local snapshots for region bracketing.
        inc(Event::Unpark);
        let d = local_snapshot().delta_since(&local);
        assert_eq!(d.get(Event::Unpark), 1);
        assert_eq!(d.get(Event::Faa), 0);
    }

    #[test]
    fn allocs_per_op_counts_ring_allocations() {
        let s = counted(|| {
            add(Event::RingAlloc, 1);
            add(Event::EnqOp, 50);
            add(Event::DeqOp, 50);
        });
        assert_eq!(s.allocs_per_op(), 0.01);
        assert_eq!(Snapshot::default().allocs_per_op(), 0.0);
        let text = s.to_string();
        assert!(text.contains("ring_alloc"));
    }

    #[test]
    fn parks_per_op_ratio() {
        let s = counted(|| {
            add(Event::Park, 2);
            add(Event::DeqOp, 8);
        });
        assert_eq!(s.parks_per_op(), 0.25);
        assert_eq!(Snapshot::default().parks_per_op(), 0.0);
    }

    #[test]
    fn batch_accounting_yields_mean_sizes_and_faa_amortization() {
        let s = counted(|| {
            // Two batched enqueues of 16 and 8 items, one F&A reservation each.
            add(Event::BatchEnqueue, 2);
            add(Event::BatchEnqueueItems, 24);
            add(Event::BatchDequeue, 1);
            add(Event::BatchDequeueItems, 16);
            add(Event::Faa, 3);
            add(Event::EnqOp, 24);
            add(Event::DeqOp, 16);
        });
        assert_eq!(s.mean_enqueue_batch(), 12.0);
        assert_eq!(s.mean_dequeue_batch(), 16.0);
        assert_eq!(s.faa_per_op(), 3.0 / 40.0);
        let text = s.to_string();
        assert!(text.contains("batch_enqueue_items"));
    }
}

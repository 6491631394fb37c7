//! Concurrent history recording.

use lcrq_queues::ConcurrentQueue;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

/// What an operation did, including its observed result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistoryOp {
    /// `enqueue(value)` completed normally.
    Enq(u64),
    /// `enqueue(value)` returned CLOSED (tantrum queues only).
    EnqClosed(u64),
    /// `dequeue()` returned `value`.
    DeqOk(u64),
    /// `dequeue()` returned empty.
    DeqEmpty,
}

/// One completed operation with its timing interval.
///
/// `invoked` and `returned` are drawn from a single global atomic counter,
/// so for any two records `a`, `b`: `a.returned < b.invoked` means `a`
/// really-happened-before `b` and every linearization must respect it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRecord {
    /// Id of the thread that performed the operation.
    pub thread: usize,
    /// Operation and result.
    pub op: HistoryOp,
    /// Clock value drawn immediately before invoking the operation.
    pub invoked: u64,
    /// Clock value drawn immediately after the operation returned.
    pub returned: u64,
}

/// A recorded history, sorted by invocation time.
#[derive(Debug, Clone, Default)]
pub struct Recording {
    /// All completed operations.
    pub ops: Vec<OpRecord>,
}

/// Marker describing the kind of operation a workload step performs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Completed {
    /// Enqueue the given value.
    Enq(u64),
    /// Attempt a dequeue.
    Deq,
    /// Enqueue all given values with one `enqueue_batch` call.
    EnqBatch(Vec<u64>),
    /// Attempt to dequeue up to `max` values with one `dequeue_batch` call.
    DeqBatch(usize),
}

/// Runs a concurrent workload against `queue` and records the history.
///
/// `scripts[t]` is the operation sequence thread `t` executes. All threads
/// start together on a barrier to maximize overlap. Returns the merged
/// history sorted by invocation time.
///
/// Batch steps expand into one [`OpRecord`] *per item*, all sharing the
/// batch call's `[invoked, returned]` window: the batch contract is that
/// the call linearizes as that many individual operations inside its
/// real-time window, which is exactly what the expansion asserts. (The
/// known intra-batch order becomes "concurrent" in the recorded history —
/// a sound weakening: the checker can never falsely reject, and batch
/// *order* is covered separately by the stress harnesses.) A
/// `dequeue_batch` shortfall appends one [`HistoryOp::DeqEmpty`], the
/// batch's linearizable EMPTY observation.
pub fn record<Q: ConcurrentQueue>(queue: &Q, scripts: &[Vec<Completed>]) -> Recording {
    let clock = AtomicU64::new(0);
    let log: Mutex<Vec<OpRecord>> = Mutex::new(Vec::new());
    let barrier = Barrier::new(scripts.len());
    let (clock, log, barrier) = (&clock, &log, &barrier);
    std::thread::scope(|s| {
        for (t, script) in scripts.iter().enumerate() {
            s.spawn(move || {
                let mut local = Vec::with_capacity(script.len());
                barrier.wait();
                for step in script {
                    let invoked = clock.fetch_add(1, Ordering::SeqCst);
                    let mut push = |op, returned| {
                        local.push(OpRecord {
                            thread: t,
                            op,
                            invoked,
                            returned,
                        })
                    };
                    match step {
                        Completed::Enq(v) => {
                            queue.enqueue(*v);
                            let returned = clock.fetch_add(1, Ordering::SeqCst);
                            push(HistoryOp::Enq(*v), returned);
                        }
                        Completed::Deq => {
                            let got = queue.dequeue();
                            let returned = clock.fetch_add(1, Ordering::SeqCst);
                            push(
                                match got {
                                    Some(v) => HistoryOp::DeqOk(v),
                                    None => HistoryOp::DeqEmpty,
                                },
                                returned,
                            );
                        }
                        Completed::EnqBatch(vals) => {
                            queue.enqueue_batch(vals);
                            let returned = clock.fetch_add(1, Ordering::SeqCst);
                            for &v in vals {
                                push(HistoryOp::Enq(v), returned);
                            }
                        }
                        Completed::DeqBatch(max) => {
                            let mut out = Vec::with_capacity(*max);
                            let taken = queue.dequeue_batch(&mut out, *max);
                            let returned = clock.fetch_add(1, Ordering::SeqCst);
                            for &v in &out {
                                push(HistoryOp::DeqOk(v), returned);
                            }
                            if taken < *max {
                                push(HistoryOp::DeqEmpty, returned);
                            }
                        }
                    }
                }
                log.lock().unwrap().extend(local);
            });
        }
    });
    let mut ops = std::mem::take(&mut *log.lock().unwrap());
    ops.sort_by_key(|r| r.invoked);
    Recording { ops }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    struct LockQueue(Mutex<VecDeque<u64>>);
    impl ConcurrentQueue for LockQueue {
        fn enqueue(&self, v: u64) {
            self.0.lock().unwrap().push_back(v);
        }
        fn dequeue(&self) -> Option<u64> {
            self.0.lock().unwrap().pop_front()
        }
        fn name(&self) -> &'static str {
            "lock"
        }
    }

    #[test]
    fn records_every_operation_with_ordered_intervals() {
        let q = LockQueue(Mutex::new(VecDeque::new()));
        let scripts = vec![
            vec![Completed::Enq(1), Completed::Deq],
            vec![Completed::Enq(2), Completed::Deq, Completed::Deq],
        ];
        let rec = record(&q, &scripts);
        assert_eq!(rec.ops.len(), 5);
        for r in &rec.ops {
            assert!(r.invoked < r.returned, "interval must be well-formed");
        }
        // Clock values are globally unique.
        let mut stamps: Vec<u64> = rec
            .ops
            .iter()
            .flat_map(|r| [r.invoked, r.returned])
            .collect();
        stamps.sort_unstable();
        stamps.dedup();
        assert_eq!(stamps.len(), 10);
    }

    #[test]
    fn batch_steps_expand_into_per_item_records() {
        let q = LockQueue(Mutex::new(VecDeque::new()));
        let scripts = vec![vec![
            Completed::EnqBatch(vec![1, 2, 3]),
            Completed::DeqBatch(5),
        ]];
        let rec = record(&q, &scripts);
        // 3 enqueues + 3 successful dequeues + 1 EMPTY for the shortfall.
        assert_eq!(rec.ops.len(), 7);
        let enqs = rec
            .ops
            .iter()
            .filter(|r| matches!(r.op, HistoryOp::Enq(_)))
            .count();
        let deq_ok = rec
            .ops
            .iter()
            .filter(|r| matches!(r.op, HistoryOp::DeqOk(_)))
            .count();
        let deq_empty = rec
            .ops
            .iter()
            .filter(|r| r.op == HistoryOp::DeqEmpty)
            .count();
        assert_eq!((enqs, deq_ok, deq_empty), (3, 3, 1));
        // Records of one batch share the call's interval.
        assert_eq!(rec.ops[0].invoked, rec.ops[1].invoked);
        assert_eq!(rec.ops[0].returned, rec.ops[2].returned);
        // And the expanded history is linearizable.
        assert!(crate::check_fifo(&rec).is_ok());
    }

    #[test]
    fn full_batch_dequeue_records_no_empty() {
        let q = LockQueue(Mutex::new(VecDeque::new()));
        let scripts = vec![vec![
            Completed::EnqBatch(vec![7, 8]),
            Completed::DeqBatch(2),
        ]];
        let rec = record(&q, &scripts);
        assert_eq!(rec.ops.len(), 4, "no shortfall: no DeqEmpty record");
        assert!(rec.ops.iter().all(|r| r.op != HistoryOp::DeqEmpty));
    }

    #[test]
    fn sequential_script_produces_disjoint_intervals() {
        let q = LockQueue(Mutex::new(VecDeque::new()));
        let rec = record(
            &q,
            &[vec![Completed::Enq(1), Completed::Enq(2), Completed::Deq]],
        );
        for w in rec.ops.windows(2) {
            assert!(w[0].returned < w[1].invoked);
        }
        assert_eq!(rec.ops[2].op, HistoryOp::DeqOk(1));
    }
}

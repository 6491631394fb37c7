//! Wing & Gong style linearizability checking for queue histories.
//!
//! Exhaustively searches for a total order of the recorded operations that
//! (a) respects real-time order — if `a` returned before `b` was invoked,
//! `a` must precede `b` — and (b) satisfies the sequential specification.
//! Memoizing on (set of linearized ops, abstract queue state) prunes the
//! search enough for histories of a few dozen operations, the regime in
//! which we use it (many small adversarial runs rather than one big one).

use crate::history::{HistoryOp, OpRecord, Recording};
use std::collections::{HashSet, VecDeque};

/// Why a history failed the check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// No linearization exists. Contains the length of the longest
    /// specification-respecting prefix found, as a debugging hint.
    NotLinearizable {
        /// Most operations any explored branch managed to linearize.
        best_prefix: usize,
        /// Total operations in the history.
        total: usize,
    },
    /// The history is too large for exhaustive checking (> 128 operations).
    TooLarge(usize),
}

impl core::fmt::Display for CheckError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CheckError::NotLinearizable { best_prefix, total } => write!(
                f,
                "history is not linearizable (best prefix {best_prefix}/{total})"
            ),
            CheckError::TooLarge(n) => write!(f, "history too large for exhaustive check: {n}"),
        }
    }
}

impl std::error::Error for CheckError {}

/// Checks a history against the FIFO queue specification. On success
/// returns one witness linearization (indices into `rec.ops`).
pub fn check_fifo(rec: &Recording) -> Result<Vec<usize>, CheckError> {
    check(rec, false)
}

/// Checks a history against the *tantrum queue* specification (§4.1.2):
/// like FIFO, but an enqueue may return CLOSED, after which every
/// linearized-later enqueue must also return CLOSED.
pub fn check_tantrum(rec: &Recording) -> Result<Vec<usize>, CheckError> {
    check(rec, true)
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct StateKey {
    done: u128,
    queue: Vec<u64>,
    closed: bool,
}

fn check(rec: &Recording, tantrum: bool) -> Result<Vec<usize>, CheckError> {
    let ops = &rec.ops;
    let n = ops.len();
    if n > 128 {
        return Err(CheckError::TooLarge(n));
    }
    if n == 0 {
        return Ok(Vec::new());
    }
    let mut visited: HashSet<StateKey> = HashSet::new();
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut queue: VecDeque<u64> = VecDeque::new();
    let mut best_prefix = 0usize;
    let ok = dfs(
        ops,
        tantrum,
        0,
        false,
        &mut queue,
        &mut order,
        &mut visited,
        &mut best_prefix,
    );
    if ok {
        Ok(order)
    } else {
        Err(CheckError::NotLinearizable {
            best_prefix,
            total: n,
        })
    }
}

/// Applies `op` to the abstract state if legal; returns an undo token.
fn apply(
    op: &HistoryOp,
    tantrum: bool,
    closed: bool,
    queue: &mut VecDeque<u64>,
) -> Option<(bool, Option<u64>)> {
    match *op {
        HistoryOp::Enq(v) => {
            if tantrum && closed {
                return None; // a closed tantrum queue cannot accept items
            }
            queue.push_back(v);
            Some((closed, None))
        }
        HistoryOp::EnqClosed(_) => {
            if !tantrum {
                return None; // FIFO queues never refuse
            }
            // Either already closed, or this op throws the tantrum.
            Some((true, None))
        }
        HistoryOp::DeqOk(v) => {
            if queue.front() == Some(&v) {
                queue.pop_front();
                Some((closed, Some(v)))
            } else {
                None
            }
        }
        HistoryOp::DeqEmpty => {
            if queue.is_empty() {
                Some((closed, None))
            } else {
                None
            }
        }
    }
}

fn undo(op: &HistoryOp, token: (bool, Option<u64>), queue: &mut VecDeque<u64>) {
    match *op {
        HistoryOp::Enq(_) => {
            queue.pop_back();
        }
        HistoryOp::DeqOk(_) => {
            if let Some(v) = token.1 {
                queue.push_front(v);
            }
        }
        HistoryOp::EnqClosed(_) | HistoryOp::DeqEmpty => {}
    }
}

#[allow(clippy::too_many_arguments)]
fn dfs(
    ops: &[OpRecord],
    tantrum: bool,
    done: u128,
    closed: bool,
    queue: &mut VecDeque<u64>,
    order: &mut Vec<usize>,
    visited: &mut HashSet<StateKey>,
    best_prefix: &mut usize,
) -> bool {
    let n = ops.len();
    *best_prefix = (*best_prefix).max(order.len());
    if order.len() == n {
        return true;
    }
    let key = StateKey {
        done,
        queue: queue.iter().copied().collect(),
        closed,
    };
    if !visited.insert(key) {
        return false; // already explored this (done, state) combination
    }
    // Minimal return time among pending ops: an op may linearize next only
    // if it was invoked before every pending op's return.
    let mut min_ret = u64::MAX;
    for (i, op) in ops.iter().enumerate() {
        if done & (1u128 << i) == 0 {
            min_ret = min_ret.min(op.returned);
        }
    }
    // Records sharing a thread and an invocation stamp are the items of one
    // batch call, adjacent and in slice order (the recording is sorted by
    // invocation, stably). A batch linearizes as individual operations *in
    // slice order*, so only the first pending item of a call is a candidate
    // — which is the specification, and also what keeps batch histories
    // checkable: unordered, every batch multiplied the search by k!.
    let mut last_pending: Option<(usize, u64)> = None;
    for (i, rec) in ops.iter().enumerate() {
        if done & (1u128 << i) != 0 {
            continue;
        }
        let later_item_of_a_pending_call = last_pending == Some((rec.thread, rec.invoked));
        last_pending = Some((rec.thread, rec.invoked));
        if later_item_of_a_pending_call || rec.invoked > min_ret {
            continue;
        }
        if let Some(token) = apply(&rec.op, tantrum, closed, queue) {
            let new_closed = token.0;
            order.push(i);
            if dfs(
                ops,
                tantrum,
                done | (1u128 << i),
                new_closed,
                queue,
                order,
                visited,
                best_prefix,
            ) {
                return true;
            }
            order.pop();
            undo(&rec.op, token, queue);
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{HistoryOp::*, OpRecord};

    /// Builds a record list from (thread, op, invoked, returned) tuples.
    fn hist(items: &[(usize, HistoryOp, u64, u64)]) -> Recording {
        Recording {
            ops: items
                .iter()
                .map(|&(thread, op, invoked, returned)| OpRecord {
                    thread,
                    op,
                    invoked,
                    returned,
                })
                .collect(),
        }
    }

    #[test]
    fn empty_history_is_linearizable() {
        assert_eq!(check_fifo(&Recording::default()), Ok(vec![]));
    }

    #[test]
    fn sequential_fifo_history_accepted() {
        let h = hist(&[
            (0, Enq(1), 0, 1),
            (0, Enq(2), 2, 3),
            (0, DeqOk(1), 4, 5),
            (0, DeqOk(2), 6, 7),
            (0, DeqEmpty, 8, 9),
        ]);
        assert!(check_fifo(&h).is_ok());
    }

    #[test]
    fn sequential_lifo_history_rejected() {
        let h = hist(&[
            (0, Enq(1), 0, 1),
            (0, Enq(2), 2, 3),
            (0, DeqOk(2), 4, 5), // wrong: 1 must come out first
        ]);
        assert!(check_fifo(&h).is_err());
    }

    #[test]
    fn batch_items_linearize_in_slice_order() {
        // One enqueue_batch call [1, 2] (shared stamps), drained afterwards.
        let batch = |first, second| {
            hist(&[
                (0, Enq(1), 0, 1),
                (0, Enq(2), 0, 1),
                (1, DeqOk(first), 2, 3),
                (1, DeqOk(second), 4, 5),
            ])
        };
        assert!(check_fifo(&batch(1, 2)).is_ok());
        assert!(check_fifo(&batch(2, 1)).is_err(), "items swapped in flight");
    }

    #[test]
    fn overlapping_enqueues_allow_either_order() {
        // Two concurrent enqueues; a dequeue later observes either value.
        for first in [1u64, 2] {
            let h = hist(&[
                (0, Enq(1), 0, 10),
                (1, Enq(2), 1, 9),
                (0, DeqOk(first), 11, 12),
            ]);
            assert!(check_fifo(&h).is_ok(), "first={first} should be allowed");
        }
    }

    #[test]
    fn real_time_order_is_enforced() {
        // Enq(1) strictly precedes Enq(2), so dequeuing 2 first is illegal.
        let h = hist(&[
            (0, Enq(1), 0, 1),
            (1, Enq(2), 2, 3),
            (0, DeqOk(2), 4, 5),
            (1, DeqOk(1), 6, 7),
        ]);
        assert!(check_fifo(&h).is_err());
    }

    #[test]
    fn phantom_dequeue_rejected() {
        let h = hist(&[(0, DeqOk(7), 0, 1)]);
        assert!(check_fifo(&h).is_err());
    }

    #[test]
    fn duplicate_delivery_rejected() {
        let h = hist(&[
            (0, Enq(5), 0, 1),
            (0, DeqOk(5), 2, 3),
            (1, DeqOk(5), 2, 5), // same item delivered twice
        ]);
        assert!(check_fifo(&h).is_err());
    }

    #[test]
    fn empty_during_overlap_is_allowed() {
        // Deq overlapping an Enq may linearize before it and return empty.
        let h = hist(&[(0, Enq(1), 0, 10), (1, DeqEmpty, 1, 2)]);
        assert!(check_fifo(&h).is_ok());
    }

    #[test]
    fn empty_after_completed_enqueue_rejected() {
        // Enq(1) fully precedes the dequeue and nothing removed 1.
        let h = hist(&[(0, Enq(1), 0, 1), (1, DeqEmpty, 2, 3)]);
        assert!(check_fifo(&h).is_err());
    }

    #[test]
    fn lost_item_history_rejected() {
        // The proceedings-version LCRQ bug: enqueue completes but its item
        // never comes out; a later dequeue sees empty. With only these ops
        // the history is not linearizable.
        let h = hist(&[
            (0, Enq(1), 0, 1),
            (1, DeqOk(1), 2, 3),
            (0, Enq(2), 4, 5), // the lost item
            (1, DeqEmpty, 6, 7),
        ]);
        assert!(check_fifo(&h).is_err());
    }

    #[test]
    fn closed_enqueue_rejected_under_fifo_spec() {
        let h = hist(&[(0, EnqClosed(1), 0, 1)]);
        assert!(check_fifo(&h).is_err());
        assert!(check_tantrum(&h).is_ok());
    }

    #[test]
    fn tantrum_closed_is_permanent() {
        // enqueue returns CLOSED, then a later enqueue claims OK: illegal.
        let h = hist(&[(0, EnqClosed(1), 0, 1), (0, Enq(2), 2, 3)]);
        assert!(check_tantrum(&h).is_err());
    }

    #[test]
    fn tantrum_overlapping_close_and_enqueue_ok() {
        // Concurrent: the OK enqueue may linearize before the tantrum.
        let h = hist(&[
            (0, EnqClosed(1), 0, 10),
            (1, Enq(2), 1, 9),
            (1, DeqOk(2), 11, 12),
            (1, DeqEmpty, 13, 14),
        ]);
        assert!(check_tantrum(&h).is_ok());
    }

    #[test]
    fn tantrum_items_remain_dequeueable_after_close() {
        let h = hist(&[
            (0, Enq(1), 0, 1),
            (0, EnqClosed(2), 2, 3),
            (1, DeqOk(1), 4, 5),
            (1, DeqEmpty, 6, 7),
        ]);
        assert!(check_tantrum(&h).is_ok());
    }

    #[test]
    fn witness_linearization_is_a_permutation_respecting_real_time() {
        let h = hist(&[
            (0, Enq(1), 0, 4),
            (1, Enq(2), 1, 3),
            (0, DeqOk(2), 5, 8),
            (1, DeqOk(1), 6, 7),
        ]);
        let order = check_fifo(&h).expect("linearizable");
        assert_eq!(order.len(), 4);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
        // Real-time edges: op with returned < invoked of another must precede.
        for (a_pos, &a) in order.iter().enumerate() {
            for &b in &order[a_pos + 1..] {
                assert!(
                    h.ops[a].invoked < h.ops[b].returned,
                    "order violates real time"
                );
            }
        }
    }

    #[test]
    fn too_large_history_is_reported() {
        let ops: Vec<OpRecord> = (0..129)
            .map(|i| OpRecord {
                thread: 0,
                op: Enq(i as u64),
                invoked: 2 * i as u64,
                returned: 2 * i as u64 + 1,
            })
            .collect();
        assert_eq!(
            check_fifo(&Recording { ops }),
            Err(CheckError::TooLarge(129))
        );
    }

    #[test]
    fn wide_concurrency_is_tractable() {
        // 6 threads × 4 ops fully overlapping: stresses memoization.
        let mut ops = Vec::new();
        for t in 0..6usize {
            for k in 0..2u64 {
                ops.push(OpRecord {
                    thread: t,
                    op: Enq((t as u64) * 10 + k),
                    invoked: (t as u64 * 2 + k) * 2,
                    returned: 1000 + (t as u64 * 2 + k) * 2,
                });
            }
        }
        // All concurrent; everything linearizable. Then a sequential drain.
        let mut base = 3000;
        let drained: Vec<u64> = (0..6u64)
            .flat_map(|t| (0..2).map(move |k| t * 10 + k))
            .collect();
        for v in drained {
            ops.push(OpRecord {
                thread: 0,
                op: DeqOk(v),
                invoked: base,
                returned: base + 1,
            });
            base += 2;
        }
        let rec = Recording { ops };
        assert!(check_fifo(&rec).is_ok());
    }
}

//! The flat-combining queue (Hendler, Incze, Shavit & Tzafrir, SPAA 2010).
//!
//! As evaluated in the paper (§5): "a linked list of cyclic arrays, with a
//! new tail array allocated when the old tail fills", behind a single flat
//! combining instance. Because only the combiner ever touches the storage,
//! the storage itself is a plain sequential structure — the segmented layout
//! matters for allocation behaviour (one allocation per `SEG_SIZE` items,
//! not per item).

use crate::ConcurrentQueue;
use lcrq_combining::{FlatCombining, SeqObject};

/// Items per segment (the paper does not specify; 1024 words ≈ 8 KiB keeps
/// allocation rare without wasting memory at small queue sizes).
pub const SEG_SIZE: usize = 1024;

struct Seg {
    items: Box<[u64; SEG_SIZE]>,
    /// Next index to dequeue within this segment.
    head: usize,
    /// Next index to enqueue within this segment.
    tail: usize,
    next: Option<Box<Seg>>,
}

impl Seg {
    fn new() -> Box<Seg> {
        Box::new(Seg {
            items: Box::new([0; SEG_SIZE]),
            head: 0,
            tail: 0,
            next: None,
        })
    }
}

/// A sequential FIFO over a linked list of fixed-size arrays.
pub struct SegFifo {
    /// The oldest segment (dequeue side). `None` only transiently.
    head: Option<Box<Seg>>,
    /// Raw pointer to the newest segment, which is owned by the chain
    /// starting at `head`. Only valid while the chain is intact.
    tail: *mut Seg,
    len: usize,
}

// SAFETY: only the combiner touches the storage (FlatCombining contract).
unsafe impl Send for SegFifo {}

impl SegFifo {
    /// Creates an empty segmented FIFO.
    pub fn new() -> Self {
        let mut head = Seg::new();
        let tail: *mut Seg = &mut *head;
        Self {
            head: Some(head),
            tail,
            len: 0,
        }
    }

    /// Number of stored items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the FIFO holds no items.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends `value` at the tail, allocating a new segment if full.
    pub fn push(&mut self, value: u64) {
        // SAFETY: `tail` points at the last segment of the chain owned by
        // `head`; `&mut self` gives exclusive access.
        let tail = unsafe { &mut *self.tail };
        if tail.tail == SEG_SIZE {
            let mut new_seg = Seg::new();
            let new_ptr: *mut Seg = &mut *new_seg;
            tail.next = Some(new_seg);
            self.tail = new_ptr;
            // SAFETY: as above, now for the fresh segment.
            let tail = unsafe { &mut *self.tail };
            tail.items[0] = value;
            tail.tail = 1;
        } else {
            tail.items[tail.tail] = value;
            tail.tail += 1;
        }
        self.len += 1;
    }

    /// Removes the oldest value.
    pub fn pop(&mut self) -> Option<u64> {
        loop {
            let head = self.head.as_mut().expect("head segment always present");
            if head.head < head.tail {
                let v = head.items[head.head];
                head.head += 1;
                self.len -= 1;
                return Some(v);
            }
            // Head segment exhausted: drop it if a successor exists.
            if head.next.is_some() {
                let next = head.next.take();
                self.head = next;
                // `tail` still points into the (new) chain: the dropped
                // segment was not the tail because it had a successor.
                continue;
            }
            return None;
        }
    }
}

impl Default for SegFifo {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for SegFifo {
    fn drop(&mut self) {
        // Unlink iteratively: the default recursive Box-chain drop would
        // overflow the stack for queues with many thousands of segments.
        let mut cur = self.head.take();
        while let Some(mut seg) = cur {
            cur = seg.next.take();
        }
    }
}

/// Flat-combining queue operation.
#[derive(Debug, Clone, Copy)]
pub enum QOp {
    /// Append a value.
    Enq(u64),
    /// Remove the oldest value.
    Deq,
}

impl SeqObject for SegFifo {
    type Op = QOp;
    type Ret = Option<u64>;

    fn apply(&mut self, op: QOp) -> Option<u64> {
        match op {
            QOp::Enq(v) => {
                self.push(v);
                None
            }
            QOp::Deq => self.pop(),
        }
    }
}

/// The FC queue: flat combining over the segmented FIFO.
pub struct FcQueue {
    inner: FlatCombining<SegFifo>,
}

impl FcQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            inner: FlatCombining::new(SegFifo::new()),
        }
    }

    /// Appends `value`.
    pub fn enqueue(&self, value: u64) {
        self.inner.apply(QOp::Enq(value));
    }

    /// Removes the oldest value, or `None` if empty.
    pub fn dequeue(&self) -> Option<u64> {
        self.inner.apply(QOp::Deq)
    }
}

impl Default for FcQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl ConcurrentQueue for FcQueue {
    fn enqueue(&self, value: u64) {
        FcQueue::enqueue(self, value)
    }
    fn dequeue(&self) -> Option<u64> {
        FcQueue::dequeue(self)
    }
    fn name(&self) -> &'static str {
        "fc-queue"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing;

    #[test]
    fn segfifo_basic() {
        let mut f = SegFifo::new();
        assert!(f.is_empty());
        assert_eq!(f.pop(), None);
        f.push(1);
        f.push(2);
        assert_eq!(f.len(), 2);
        assert_eq!(f.pop(), Some(1));
        assert_eq!(f.pop(), Some(2));
        assert_eq!(f.pop(), None);
        assert!(f.is_empty());
    }

    #[test]
    fn segfifo_crosses_segment_boundaries() {
        let mut f = SegFifo::new();
        let n = (SEG_SIZE * 3 + 7) as u64;
        for i in 0..n {
            f.push(i);
        }
        assert_eq!(f.len(), n as usize);
        for i in 0..n {
            assert_eq!(f.pop(), Some(i));
        }
        assert_eq!(f.pop(), None);
    }

    #[test]
    fn segfifo_reuse_after_drain() {
        let mut f = SegFifo::new();
        for round in 0..5u64 {
            for i in 0..(SEG_SIZE as u64 + 10) {
                f.push(round * 1_000_000 + i);
            }
            for i in 0..(SEG_SIZE as u64 + 10) {
                assert_eq!(f.pop(), Some(round * 1_000_000 + i));
            }
            assert!(f.is_empty());
        }
    }

    #[test]
    fn segfifo_interleaved_push_pop_across_boundary() {
        let mut f = SegFifo::new();
        let mut next_in = 0u64;
        let mut next_out = 0u64;
        for _ in 0..(SEG_SIZE * 4) {
            f.push(next_in);
            next_in += 1;
            f.push(next_in);
            next_in += 1;
            assert_eq!(f.pop(), Some(next_out));
            next_out += 1;
        }
        while let Some(v) = f.pop() {
            assert_eq!(v, next_out);
            next_out += 1;
        }
        assert_eq!(next_out, next_in);
    }

    #[test]
    fn empty_queue_returns_none() {
        let q = FcQueue::new();
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn fifo_order_sequential() {
        let q = FcQueue::new();
        for i in 0..300 {
            q.enqueue(i);
        }
        for i in 0..300 {
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn mpmc_stress() {
        let q = FcQueue::new();
        testing::mpmc_stress(&q, 4, 4, 5_000);
    }

    #[test]
    fn model_check_against_vecdeque() {
        testing::model_check(&FcQueue::new(), 0xFC);
    }

    #[test]
    fn drop_with_items_is_clean() {
        let q = FcQueue::new();
        for i in 0..(SEG_SIZE as u64 * 2) {
            q.enqueue(i);
        }
    }
}

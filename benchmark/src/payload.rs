//! What travels through the queues, and the check every delivery passes.
//!
//! A payload is one `u64`: bits 0–29 the producer's sequence number, bit 30
//! the producer, bits 31–62 a nanosecond stamp (0 = this item is not
//! timed). Bit 63 stays clear: `u64::MAX` is reserved by the rings.

const SEQ_BITS: u32 = 30;
const SEQ_MASK: u64 = (1 << SEQ_BITS) - 1;
const ID_MASK: u64 = (1 << (SEQ_BITS + 1)) - 1;

/// Packs an item. `stamp` is the low 32 bits of an `Epoch::ns()` reading,
/// or `None` for an untimed item.
#[inline]
pub fn encode(producer: usize, seq: u64, stamp: Option<u64>) -> u64 {
    debug_assert!(producer < 2 && seq <= SEQ_MASK);
    let t = match stamp {
        // A real stamp of 0 would read as "untimed": nudge it by 1 ns.
        Some(ns) => ((ns as u32).max(1)) as u64,
        None => 0,
    };
    (t << (SEQ_BITS + 1)) | ((producer as u64) << SEQ_BITS) | (seq & SEQ_MASK)
}

#[inline]
pub fn seq_of(payload: u64) -> u64 {
    payload & SEQ_MASK
}

#[inline]
pub fn producer_of(payload: u64) -> usize {
    ((payload >> SEQ_BITS) & 1) as usize
}

/// Nanoseconds from the item's stamp to now, if it carries one; the clock
/// is read only then. Wrap-safe for intervals under 4.29 s.
#[inline]
pub fn age_ns(payload: u64, now_ns: impl FnOnce() -> u64) -> Option<u64> {
    let t = (payload >> (SEQ_BITS + 1)) as u32;
    (t != 0).then(|| (now_ns() as u32).wrapping_sub(t) as u64)
}

/// One thread's account of what it sent and received. Merged over threads
/// and judged once per repetition.
#[derive(Clone, Default)]
pub struct Check {
    pub sent: u64,
    sent_sum: u64,
    pub received: u64,
    received_sum: u64,
    /// Per producer, the next sequence number that may arrive.
    next_seq: [u64; 2],
    /// An item arrived at or before one already seen from its producer:
    /// duplicated or out of per-producer FIFO order.
    pub out_of_order: u64,
    /// A remove found nothing where an item had to be.
    pub missing: u64,
    /// `send` or `recv` reported an error, or an item outlived its queue.
    pub errors: u64,
    /// Calls made (including removes that found the queue empty).
    pub attempted: u64,
}

impl Check {
    #[inline]
    pub fn on_put(&mut self, payload: u64) {
        self.sent += 1;
        self.sent_sum = self.sent_sum.wrapping_add(payload & ID_MASK);
        self.attempted += 1;
    }

    #[inline]
    pub fn on_take(&mut self, payload: u64) {
        self.received += 1;
        self.received_sum = self.received_sum.wrapping_add(payload & ID_MASK);
        self.attempted += 1;
        let (p, s) = (producer_of(payload), seq_of(payload));
        if s < self.next_seq[p] {
            self.out_of_order += 1;
        }
        self.next_seq[p] = s + 1;
    }

    /// A remove that legitimately found the queue empty.
    #[inline]
    pub fn on_empty(&mut self) {
        self.attempted += 1;
    }

    pub fn merge(&mut self, other: &Check) {
        self.sent += other.sent;
        self.sent_sum = self.sent_sum.wrapping_add(other.sent_sum);
        self.received += other.received;
        self.received_sum = self.received_sum.wrapping_add(other.received_sum);
        self.out_of_order += other.out_of_order;
        self.missing += other.missing;
        self.errors += other.errors;
        self.attempted += other.attempted;
    }

    /// Wrong-or-missing outcomes, once every thread has been merged in and
    /// the queue has been drained dry: lost or extra items, per-producer
    /// order violations, empties that should not have been, errors, and a
    /// checksum that differs although the counts agree.
    pub fn failed(&self) -> u64 {
        let unbalanced = self.sent.abs_diff(self.received);
        let corrupt = u64::from(unbalanced == 0 && self.sent_sum != self.received_sum);
        self.out_of_order + self.missing + self.errors + unbalanced + corrupt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_round_trips_and_stays_below_the_reserved_value() {
        let p = encode(1, SEQ_MASK, Some(u64::MAX));
        assert!(p <= u64::MAX >> 1);
        assert_eq!((producer_of(p), seq_of(p)), (1, SEQ_MASK));
        assert_eq!(age_ns(encode(0, 7, None), || 123), None);
        assert_eq!(age_ns(encode(0, 7, Some(1000)), || 1250), Some(250));
        // stamp taken just before the 32-bit wrap, read just after it
        assert_eq!(
            age_ns(encode(0, 7, Some((1 << 32) - 10)), || (1 << 32) + 5),
            Some(15)
        );
    }

    #[test]
    fn check_counts_loss_duplication_and_reordering() {
        let mut ok = Check::default();
        for s in 0..10 {
            let p = encode(0, s, None);
            ok.on_put(p);
            ok.on_take(p);
        }
        assert_eq!(ok.failed(), 0);

        let mut lost = ok.clone();
        lost.on_put(encode(0, 10, None));
        assert_eq!(lost.failed(), 1);

        let mut dup = ok.clone();
        dup.on_take(encode(0, 9, None));
        assert!(dup.failed() >= 2);

        let mut swapped = Check::default();
        for s in [0, 1] {
            swapped.on_put(encode(0, s, None));
        }
        swapped.on_take(encode(0, 1, None));
        swapped.on_take(encode(0, 0, None));
        assert_eq!(swapped.failed(), 1);
    }
}

//! A bounded channel's capacity gate: two counters, each written by one
//! side only.
//!
//! `sent` counts the items senders were granted room for and `received` the
//! items receivers took out; `sent − received` is what is in flight, and a
//! sender may add to it while it stays within the capacity. Both counters
//! only ever see F&A — a sender that finds less room than it asked for has
//! overdrawn `sent` and subtracts the excess again — so the gate has no CAS
//! loop to starve in.
//!
//! The two counters live on two cache lines, and a sender does not read the
//! receivers' line to find room: beside `sent` it keeps `received_seen`,
//! the last value of `received` any sender looked at. `received` only
//! grows, so the copy can only be behind, and room computed from it is room
//! that exists. Only when the copy says "full" does the sender load
//! `received` itself — with a consumer that keeps up, once per `capacity`
//! sends instead of once per send (the cached index of every SPSC ring,
//! MPMC-safe here because a stale copy errs to the safe side).
//!
//! That reload is also what parking stands on. A sender that waits is
//! `prepare`d before its last [`acquire`](Credit::acquire), whose reload of
//! `received` is `SeqCst`; a receiver bumps `received` (`SeqCst`) before it
//! looks for waiters. Either the reload sees the bump or the receiver sees
//! the waiter (`tests/loom.rs` checks it, and that a gate trusting the copy
//! for "full" is caught).

use lcrq_util::sync::{AtomicU64, Ordering};
use lcrq_util::CachePadded;

/// The senders' cache line.
struct SentLine {
    /// Items granted room so far, plus any overdraft not yet subtracted.
    sent: AtomicU64,
    /// A past value of `received`; `Relaxed`, because it is never trusted
    /// for more than "at least this many were received".
    received_seen: AtomicU64,
    /// How many items may be in flight. Never written, and read by senders
    /// only; a receiver that had to look here would take this line from
    /// the sender on every message.
    capacity: u64,
}

/// The capacity gate of one bounded channel (see the module docs).
pub struct Credit {
    senders: CachePadded<SentLine>,
    /// Items taken out so far. Only grows.
    received: CachePadded<AtomicU64>,
}

impl Credit {
    /// A gate that admits `capacity` items before any is received.
    pub fn new(capacity: u64) -> Self {
        Self {
            senders: CachePadded::new(SentLine {
                sent: AtomicU64::new(0),
                received_seen: AtomicU64::new(0),
                capacity,
            }),
            received: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// Room left when `sent` items have been granted and `received` taken.
    /// `received` can be ahead of a sender's reading of `sent` (other
    /// senders sent since, and the receiver took theirs): that is an empty
    /// channel, so the difference stops at zero instead of wrapping. `sent`
    /// can be past the capacity (overdrafts of others): that is no room.
    #[inline]
    fn room(&self, sent: u64, received: u64) -> u64 {
        let in_flight = sent.saturating_sub(received);
        self.senders.capacity.saturating_sub(in_flight)
    }

    /// Asks for room for `want` items and returns how many were granted,
    /// `0..=want`. Whatever is granted must be sent, or handed back with
    /// [`give_back`](Self::give_back).
    #[inline]
    pub fn acquire(&self, want: u64) -> u64 {
        let line = &*self.senders;
        let sent = line.sent.fetch_add(want, Ordering::SeqCst);
        let mut room = self.room(sent, line.received_seen.load(Ordering::Relaxed));
        if room < want {
            let received = self.received.load(Ordering::SeqCst);
            line.received_seen.store(received, Ordering::Relaxed);
            room = self.room(sent, received);
        }
        self.settle(want, room)
    }

    /// Grants `min(room, want)` and subtracts the rest of `want` again.
    #[inline]
    fn settle(&self, want: u64, room: u64) -> u64 {
        let granted = room.min(want);
        if granted < want {
            self.senders
                .sent
                .fetch_sub(want - granted, Ordering::SeqCst);
        }
        granted
    }

    /// Hands back room for `n` items that was granted but not used (the
    /// queue closed before they went in).
    pub fn give_back(&self, n: u64) {
        self.senders.sent.fetch_sub(n, Ordering::SeqCst);
    }

    /// Records that `n` items were taken out. The caller then notifies the
    /// senders waiting for room.
    #[inline]
    pub fn on_received(&self, n: u64) {
        self.received.fetch_add(n, Ordering::SeqCst);
    }

    /// Whether an [`acquire`](Self::acquire) made now could be granted
    /// anything: the condition a sender waits for. Reads `received` first,
    /// so that it is the older of the two readings and never the one ahead.
    pub fn has_room(&self) -> bool {
        let received = self.received.load(Ordering::SeqCst);
        let sent = self.senders.sent.load(Ordering::SeqCst);
        self.room(sent, received) > 0
    }
}

/// The planted-bug twin of [`acquire`](Credit::acquire), reachable only by
/// the model checker (`tests/loom.rs` asserts it is caught): on apparent
/// "full" it refreshes its copy of `received` for the next attempt and
/// answers from the old one. The ladder's next attempt usually covers for
/// it; the last attempt before a park has no next, and the sender sleeps
/// beside the room a receiver has just made.
#[cfg(loom)]
#[doc(hidden)]
impl Credit {
    pub fn acquire_trusting_the_hint(&self, want: u64) -> u64 {
        let line = &*self.senders;
        let sent = line.sent.fetch_add(want, Ordering::SeqCst);
        let room = self.room(sent, line.received_seen.load(Ordering::Relaxed));
        if room < want {
            let received = self.received.load(Ordering::SeqCst);
            line.received_seen.store(received, Ordering::Relaxed);
        }
        self.settle(want, room)
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn grants_up_to_capacity_and_repays_the_overdraft() {
        let c = Credit::new(3);
        assert_eq!(c.acquire(2), 2);
        assert_eq!(c.acquire(5), 1, "clamped to what is left");
        assert_eq!(c.acquire(1), 0);
        assert!(!c.has_room());
        c.on_received(2);
        assert!(c.has_room());
        assert_eq!(c.acquire(4), 2, "the overdrafts above were subtracted");
        c.give_back(2);
        assert_eq!(c.acquire(1), 1);
        assert_eq!(c.acquire(1), 1);
        assert_eq!(c.acquire(1), 0);
    }

    #[test]
    fn receiver_ahead_of_a_stalled_sender_is_room_not_full() {
        // A sender's reading of `sent` is as old as its F&A; its reading of
        // `received` is later. Stall it in between while five items are
        // sent and received by others: it holds sent = 1, received = 5, and
        // its room is cap − max(0, 1 − 5) — all of it. A wrapping
        // difference would call the empty channel full.
        let c = Credit::new(2);
        assert_eq!(c.room(1, 5), 2);
        assert_eq!(c.room(5, 5), 2);
        assert_eq!(c.room(6, 5), 1);
        assert_eq!(c.room(7, 5), 0);
        assert_eq!(c.room(9, 5), 0, "others' overdrafts are not room either");
        assert_eq!(c.room(u64::MAX, 0), 0);
    }

    #[test]
    fn a_stale_copy_only_ever_hides_room() {
        let c = Credit::new(4);
        assert_eq!(c.acquire(4), 4);
        c.on_received(3);
        // The copy still says 0 received: apparent room 0 < 1, so the gate
        // reloads instead of reporting full.
        assert_eq!(c.senders.received_seen.load(Ordering::Relaxed), 0);
        assert_eq!(c.acquire(1), 1);
        assert_eq!(c.senders.received_seen.load(Ordering::Relaxed), 3);
        // An older reading stored late (two senders racing) is behind, not
        // wrong: the next apparent-full reloads again.
        c.senders.received_seen.store(1, Ordering::Relaxed);
        assert_eq!(c.acquire(2), 2);
        assert_eq!(c.acquire(1), 0);
    }

    #[test]
    fn each_side_writes_a_line_of_its_own() {
        let c = Credit::new(1);
        let line = |field: *const u8| field as usize / lcrq_util::pad::CACHE_LINE;
        assert_ne!(
            line((&raw const c.senders.sent).cast()),
            line((&raw const *c.received).cast())
        );
        assert_eq!(size_of::<Credit>(), 2 * lcrq_util::pad::CACHE_LINE);
    }
}

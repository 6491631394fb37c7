//! Calibrated busy-waiting.
//!
//! Two of the paper's mechanisms need "wait a short while" primitives that do
//! not involve the OS: the dequeuer's bounded wait for a matching enqueuer
//! (§4.1.1) and the ≤100 ns random inter-operation pause in the benchmark
//! methodology (§5). Sleeping is far too coarse (the Linux timer slack alone
//! is ~50 µs), so both busy-wait.

use std::time::{Duration, Instant};

/// Busy-waits for approximately `ns` nanoseconds.
///
/// Uses `Instant` re-reads, so accuracy is bounded by the clock-read cost
/// (~20-30 ns); that is adequate for the paper's ≤100 ns workload jitter and
/// µs-scale timeouts.
#[inline]
pub fn spin_for_ns(ns: u64) {
    if ns == 0 {
        return;
    }
    let deadline = Instant::now() + Duration::from_nanos(ns);
    while Instant::now() < deadline {
        core::hint::spin_loop();
    }
}

/// A deadline-based spinner for µs-scale timeouts (hierarchical cluster
/// hand-off in LCRQ+H uses 100 µs).
#[derive(Debug)]
pub struct SpinDeadline {
    deadline: Instant,
}

impl SpinDeadline {
    /// Starts a deadline `timeout` from now.
    pub fn new(timeout: Duration) -> Self {
        Self {
            deadline: Instant::now() + timeout,
        }
    }

    /// Returns `true` if the deadline has passed.
    #[inline]
    pub fn expired(&self) -> bool {
        Instant::now() >= self.deadline
    }

    /// Spins once (hint only); convenience for `while !d.expired() { d.pause() }`.
    #[inline]
    pub fn pause(&self) {
        core::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spin_for_ns_zero_returns_immediately() {
        spin_for_ns(0);
    }

    #[test]
    fn spin_for_ns_waits_roughly_long_enough() {
        let start = Instant::now();
        spin_for_ns(200_000); // 200 µs: far above clock-read noise
        assert!(start.elapsed() >= Duration::from_micros(190));
    }

    #[test]
    fn deadline_expires() {
        let d = SpinDeadline::new(Duration::from_micros(50));
        // May already be expired on a loaded box; either answer is fine.
        let _ = d.expired();
        while !d.expired() {
            d.pause();
        }
        assert!(d.expired());
    }
}

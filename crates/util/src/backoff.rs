//! Bounded exponential backoff for contended retry loops.

use core::hint;
use core::sync::atomic::{AtomicU8, Ordering};

/// How waiting loops behave once their spin budget is exhausted.
///
/// The paper's C implementations busy-wait unconditionally, which is what
/// makes the lock-based combining queues collapse when a combiner is
/// preempted (Figure 6b: FC −40×, CC-Queue −15×): every waiter burns its
/// whole scheduling quantum before the combiner runs again. A library
/// default of yielding is kinder to oversubscribed systems; the benchmark
/// harness switches to [`WaitMode::Spin`] to reproduce the paper's setup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitMode {
    /// Busy-wait forever (paper-faithful).
    Spin,
    /// Busy-wait briefly, then yield to the OS scheduler.
    SpinThenYield,
}

static WAIT_MODE: AtomicU8 = AtomicU8::new(1); // SpinThenYield

/// Sets the process-wide wait mode used by [`Backoff::snooze`].
pub fn set_wait_mode(mode: WaitMode) {
    WAIT_MODE.store(mode as u8, Ordering::Relaxed);
}

/// Returns the current process-wide wait mode.
pub fn wait_mode() -> WaitMode {
    if WAIT_MODE.load(Ordering::Relaxed) == 0 {
        WaitMode::Spin
    } else {
        WaitMode::SpinThenYield
    }
}

/// Exponential backoff helper for spin/retry loops.
///
/// Each call to [`Backoff::spin`] busy-waits for an exponentially growing
/// number of iterations (doubling up to `1 << SPIN_LIMIT`), issuing the
/// processor's spin-loop hint (`pause` on x86) each iteration so a sibling
/// hyperthread can make progress and the exit from the loop is fast.
///
/// ```
/// use lcrq_util::Backoff;
/// let mut tries = 0;
/// let backoff = Backoff::new();
/// loop {
///     tries += 1;
///     if tries == 3 { break; }
///     backoff.spin();
/// }
/// ```
#[derive(Debug)]
pub struct Backoff {
    step: core::cell::Cell<u32>,
    /// Per-instance xorshift state for deterministic jitter; 0 disables
    /// jitter (the [`Backoff::new`] default).
    jitter: core::cell::Cell<u64>,
}

const SPIN_LIMIT: u32 = 7;

/// Hands out one jitter stream index per thread (see [`Backoff::jittered`]).
static JITTER_ORDINAL: core::sync::atomic::AtomicU64 = core::sync::atomic::AtomicU64::new(1);

thread_local! {
    // 0 = unseeded; assigned lazily from the process seed + thread ordinal.
    static JITTER_STREAM: core::cell::Cell<u64> = const { core::cell::Cell::new(0) };
}

/// Draws the next value of the calling thread's deterministic jitter
/// stream: seeded from `test_seed()` (so `LCRQ_TEST_SEED` replays jitter
/// schedules) mixed with a unique thread ordinal.
fn next_jitter_seed() -> u64 {
    JITTER_STREAM.with(|state| {
        let mut x = state.get();
        if x == 0 {
            let ordinal = JITTER_ORDINAL.fetch_add(1, core::sync::atomic::Ordering::Relaxed);
            let base = crate::rng::test_seed(0x6A09_E667_F3BC_C908);
            x = crate::rng::splitmix64(base ^ crate::rng::splitmix64(ordinal));
        }
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if x == 0 {
            x = 0x9E37_79B9_7F4A_7C15;
        }
        state.set(x);
        x
    })
}

impl Backoff {
    /// Creates a backoff in its initial (shortest-wait) state.
    pub const fn new() -> Self {
        Self {
            step: core::cell::Cell::new(0),
            jitter: core::cell::Cell::new(0),
        }
    }

    /// Creates a backoff whose waits carry **deterministic jitter**: each
    /// [`spin`](Self::spin) adds a pseudo-random extra of `[0, 2^step)`
    /// iterations drawn from a per-thread stream seeded by
    /// [`test_seed`](crate::rng::test_seed) and a thread ordinal.
    ///
    /// Unjittered exponential backoff keeps symmetric losers of a race
    /// (e.g. the LCRQ close race, where every enqueuer in a tantrum retries
    /// after the same fixed wait) in lockstep, so they collide again on the
    /// next round; jitter breaks the symmetry while staying replayable
    /// under `LCRQ_TEST_SEED`.
    pub fn jittered() -> Self {
        Self {
            step: core::cell::Cell::new(0),
            jitter: core::cell::Cell::new(next_jitter_seed()),
        }
    }

    /// Resets the backoff to its initial state (jitter stream retained).
    pub fn reset(&self) {
        self.step.set(0);
    }

    /// Busy-waits for `2^step` iterations — plus, for a
    /// [`jittered`](Self::jittered) backoff, a deterministic extra in
    /// `[0, 2^step)` — and advances the step, saturating at
    /// `2^7 = 128` base iterations.
    pub fn spin(&self) {
        let step = self.step.get();
        let mut iters = 1u32 << step;
        let j = self.jitter.get();
        if j != 0 {
            let mut x = j;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x == 0 {
                x = 0x9E37_79B9_7F4A_7C15;
            }
            self.jitter.set(x);
            iters += (x & ((1u64 << step) - 1)) as u32;
        }
        for _ in 0..iters {
            hint::spin_loop();
        }
        if step < SPIN_LIMIT {
            self.step.set(step + 1);
        }
    }

    /// Like [`spin`](Self::spin) but, once the exponential budget is
    /// exhausted, behaves per the process-wide [`WaitMode`]: yield to the OS
    /// scheduler (default) or keep busy-waiting (paper-faithful). Use in
    /// loops that may wait on a preempted thread (e.g. waiting for a
    /// combiner).
    pub fn snooze(&self) {
        if self.step.get() < SPIN_LIMIT {
            self.spin();
        } else if wait_mode() == WaitMode::SpinThenYield {
            std::thread::yield_now();
        } else {
            for _ in 0..1u32 << SPIN_LIMIT {
                hint::spin_loop();
            }
        }
    }
}

impl Default for Backoff {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exponential budget is spent: `spin` waits its longest and
    /// `snooze` escalates.
    fn exhausted(b: &Backoff) -> bool {
        b.step.get() >= SPIN_LIMIT
    }

    #[test]
    fn starts_incomplete_and_completes() {
        let b = Backoff::new();
        assert!(!exhausted(&b));
        for _ in 0..SPIN_LIMIT {
            b.spin();
        }
        assert!(exhausted(&b));
    }

    #[test]
    fn reset_restores_initial_state() {
        let b = Backoff::new();
        for _ in 0..SPIN_LIMIT + 3 {
            b.spin();
        }
        assert!(exhausted(&b));
        b.reset();
        assert!(!exhausted(&b));
    }

    #[test]
    fn snooze_does_not_panic_after_completion() {
        let b = Backoff::new();
        for _ in 0..SPIN_LIMIT + 2 {
            b.snooze();
        }
        b.snooze(); // now yields
        assert!(exhausted(&b));
    }

    #[test]
    fn jittered_backoff_completes_and_stays_bounded() {
        let b = Backoff::jittered();
        assert!(!exhausted(&b));
        for _ in 0..SPIN_LIMIT {
            b.spin(); // base 2^step + jitter < 2^step: bounded per call
        }
        assert!(exhausted(&b));
        b.snooze(); // escalation path unchanged for jittered backoffs
    }

    #[test]
    fn jitter_streams_advance_deterministically() {
        // Within one thread the stream is a fixed xorshift orbit: two draws
        // never repeat, and the per-instance state decouples two backoffs.
        let a = next_jitter_seed();
        let b = next_jitter_seed();
        assert_ne!(a, b);
        let x = Backoff::jittered();
        let y = Backoff::jittered();
        assert_ne!(x.jitter.get(), y.jitter.get());
    }

    #[test]
    fn wait_mode_round_trips() {
        assert_eq!(wait_mode(), WaitMode::SpinThenYield);
        set_wait_mode(WaitMode::Spin);
        assert_eq!(wait_mode(), WaitMode::Spin);
        // Snooze must still terminate per call in pure-spin mode.
        let b = Backoff::new();
        for _ in 0..SPIN_LIMIT + 4 {
            b.snooze();
        }
        set_wait_mode(WaitMode::SpinThenYield);
        assert_eq!(wait_mode(), WaitMode::SpinThenYield);
    }
}

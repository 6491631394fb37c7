//! Scheduler-adversary injection for oversubscription studies.
//!
//! The paper's Figure 6b shows lock-based combining queues collapsing by
//! 15–40× when oversubscribed: the OS eventually preempts a combiner (or
//! lock holder) *inside* its critical window, and every other thread then
//! burns its scheduling quantum waiting. On the reproduction host — a
//! single hardware thread — operations are so short relative to the
//! scheduling quantum (~100 ns vs ~4 ms) that natural preemption almost
//! never lands inside the window, and the effect vanishes.
//!
//! This module substitutes *controlled* preemption (DESIGN.md P1): each
//! algorithm calls [`preempt_point`] at its structurally dangerous moment
//! (combining: between joining the request list and finishing the combine;
//! locks: just after acquisition; LCRQ/MS: after their F&A/protect, for
//! symmetric treatment), and the benchmark harness arms a per-call yield
//! probability. Nonblocking algorithms shrug off an injected yield — no
//! other thread depends on the preempted one — which is exactly the
//! property the figure measures.
//!
//! Disabled (probability zero) by default; overhead is one relaxed load.

use core::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::cell::Cell;

static PREEMPT_PPM: AtomicU32 = AtomicU32::new(0);

/// Arms the adversary: at every [`preempt_point`], yield the CPU with
/// probability `ppm` per million. Zero disables (the default).
pub fn set_preempt_ppm(ppm: u32) {
    PREEMPT_PPM.store(ppm.min(1_000_000), Ordering::Relaxed);
}

/// Current injection probability in parts-per-million.
pub fn preempt_ppm() -> u32 {
    PREEMPT_PPM.load(Ordering::Relaxed)
}

thread_local! {
    // 0 = unseeded: the stream seed is assigned lazily on first roll so
    // every thread gets a distinct, decorrelated stream (see
    // `thread_stream_seed`). A constant initializer here would make all
    // threads yield in lockstep — the same operations of every thread would
    // draw the same rolls, so "random" preemptions would all land on the
    // same ops instead of sampling the window independently per thread.
    static RNG: Cell<u64> = const { Cell::new(0) };
}

/// Hands out one stream index per thread, so streams stay distinct no
/// matter how threads interleave their first rolls.
static STREAM_ORDINAL: AtomicU64 = AtomicU64::new(1);

/// Derives the calling thread's RNG seed: the process seed (honoring
/// `LCRQ_TEST_SEED`, so adversary schedules replay like every other
/// randomized harness) mixed with a unique thread ordinal through
/// SplitMix64.
fn thread_stream_seed() -> u64 {
    let ordinal = STREAM_ORDINAL.fetch_add(1, Ordering::Relaxed);
    let base = crate::rng::test_seed(0x853C_49E6_748F_EA9B);
    let mixed = crate::rng::splitmix64(base ^ crate::rng::splitmix64(ordinal));
    if mixed == 0 {
        0x9E37_79B9_7F4A_7C15
    } else {
        mixed
    }
}

/// A possible preemption: yields to the OS scheduler with the armed
/// probability. Algorithms place this at the point where a real preemption
/// would be most damaging.
///
/// Also a registered fail point ([`crate::fault::Site::Preempt`]): with the
/// `fault-injection` feature armed, a scenario can inject yields, delays,
/// stalls, or panics here independently of the ppm dial. Without the
/// feature the extra call compiles away and the disabled-path cost stays
/// one relaxed load.
#[inline]
pub fn preempt_point() {
    let _ = crate::fault::inject(crate::fault::Site::Preempt);
    let ppm = PREEMPT_PPM.load(Ordering::Relaxed);
    if ppm == 0 {
        return;
    }
    let roll = RNG.with(|state| {
        let mut x = state.get();
        if x == 0 {
            x = thread_stream_seed();
        }
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        state.set(x);
        ((x as u128 * 1_000_000) >> 64) as u32
    });
    if roll < ppm {
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_streams_are_decorrelated() {
        // Two threads' first rolls must come from distinct streams: with
        // the old constant thread-local seed both threads would produce
        // the same roll sequence and yield in lockstep.
        let seeds: Vec<u64> = (0..4)
            .map(|_| std::thread::spawn(thread_stream_seed).join().unwrap())
            .collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(
            unique.len(),
            seeds.len(),
            "stream seeds collided: {seeds:?}"
        );
    }

    // One ordered test: the rate is process-wide, so "off by default" and
    // "arming" cannot run as two tests in parallel.
    #[test]
    fn disabled_by_default_then_arming_and_clamping() {
        assert_eq!(preempt_ppm(), 0);
        for _ in 0..10_000 {
            preempt_point(); // must be a near-noop
        }
        set_preempt_ppm(2_000_000);
        assert_eq!(preempt_ppm(), 1_000_000);
        set_preempt_ppm(500);
        assert_eq!(preempt_ppm(), 500);
        for _ in 0..1_000 {
            preempt_point(); // exercises the probabilistic path
        }
        set_preempt_ppm(0);
        assert_eq!(preempt_ppm(), 0);
    }
}

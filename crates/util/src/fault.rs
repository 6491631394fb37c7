//! Deterministic fail-point registry for fault-injection testing.
//!
//! LCRQ's headline property is *op-wise nonblocking progress*: a thread
//! preempted, stalled, or killed inside an operation must never wedge the
//! queue. The interesting failures all live in narrow windows — between an
//! F&A and its CAS2 placement, between publishing a hazard and revalidating
//! it, between a close race losing and its loser ring being released. This
//! module names those windows as **fail points** ([`Site`]) and lets a test
//! arm a `Scenario` of per-site actions ([`FaultAction`]): yield, bounded
//! spin-delay, site-interpreted *failure* (spurious CAS2 miss, refused ring
//! allocation, forced ring close), a permanent stall ("thread crash"), or a
//! panic. `Scenario`, `disarm` and `take_hit_log` exist only with the
//! `fault-injection` feature.
//!
//! Three properties make the registry usable as a test substrate rather
//! than a fuzzer:
//!
//! 1. **Determinism.** Every decision comes from a per-thread `xorshift64*`
//!    stream derived from the scenario seed (which honors
//!    [`LCRQ_TEST_SEED`](crate::rng::test_seed)) and a process-wide thread
//!    ordinal. A single-threaded workload replays its injected-fault
//!    sequence byte-for-byte; a multi-threaded one replays per thread up to
//!    scheduling of the ordinal assignment.
//! 2. **Replayability.** A recording scenario appends every fired site to a
//!    global hit log (`take_hit_log`); failing harnesses print the
//!    `Scenario` (seed + armed sites) so the exact run can be re-armed.
//! 3. **Zero cost when disabled.** Without the `fault-injection` cargo
//!    feature, [`inject`] is an `#[inline(always)]` constant `false`: every
//!    call site folds to nothing, so the shipped build carries no
//!    injection at all, the scheduler adversary ([`Site::Preempt`])
//!    included. With the feature on, a visit to a site the armed scenario
//!    (if any) leaves alone costs one relaxed load of a site mask, and one
//!    to an armed site that does not fire touches only thread-local state.
//!
//! `Stall` does not literally stall forever: the thread parks until
//! `disarm` (or the next `Scenario::arm`) so test harnesses can release
//! and join their "crashed" threads after asserting that survivors made
//! progress.

/// A named fail point: one structurally dangerous window in the codebase.
///
/// The `Fail` action is *site-interpreted* — see each variant for what a
/// fired failure means there. Sites where `Fail` has no sensible
/// interpretation ignore it (they remain useful as yield / delay / stall /
/// panic sites).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Site {
    /// The scheduler adversary: where a real preemption hurts most, in every
    /// algorithm's read→CAS window (combining: after taking a list
    /// position; locks: just after acquisition). The figures arm it with
    /// [`FaultAction::Yield`] at `--preempt-ppm` (DESIGN.md P6). `Fail` is
    /// ignored.
    Preempt,
    /// `AtomicPair::compare_exchange` (`lock cmpxchg16b`). `Fail` reports a
    /// spurious CAS2 failure with the current contents, without attempting
    /// the exchange.
    Cas2,
    /// The fetch-and-add policies' increment (for the CAS-loop emulation,
    /// its read→CAS window). `Fail` makes the CAS-loop attempt spuriously
    /// fail and retry; the hardware policy ignores it.
    Faa,
    /// `ops::or_bits`, the SCQ consume RMW. The fetch-OR is unconditional,
    /// so `Fail` is ignored here; use [`Site::ScqDequeue`] for a spurious
    /// consume failure.
    OrBits,
    /// The CRQ enqueue read→CAS2 window (scalar and batched). `Fail`
    /// force-closes the ring (an injected tantrum).
    CrqEnqueue,
    /// The CRQ dequeue read→CAS2 window (scalar and batched). `Fail` is
    /// ignored.
    CrqDequeue,
    /// The SCQ enqueue read→CAS window. `Fail` makes the placement attempt
    /// spuriously fail and retry.
    ScqEnqueue,
    /// The SCQ dequeue transition window. `Fail` makes the consume attempt
    /// spuriously fail and retry.
    ScqDequeue,
    /// The LCRQ/LSCQ close race: between finding the tail ring closed and
    /// racing to link a fresh ring. `Fail` is ignored (the race itself is
    /// the failure mode; arm [`Site::RingAlloc`] to refuse the ring).
    CloseRace,
    /// Fresh-ring allocation on the spill path. `Fail` refuses the
    /// allocation: the enqueue backs off and retries inside `try_enqueue` /
    /// `try_enqueue_batch`, and no caller sees the refusal.
    RingAlloc,
    /// `Domain::protect`, between publishing the hazard and revalidating
    /// the source pointer. A `Stall` here parks the thread while it holds a
    /// published hazard — the memory-bound adversary. `Fail` is ignored.
    HazardProtect,
    /// `Domain::scan`, before collecting hazards. `Fail` is ignored.
    HazardScan,
    /// The channel's blocked wait, between registering and parking (the
    /// final attempt falls in between) — the lost-wakeup window. A `Stall`
    /// here holds a registered waiter whose wake may land before it parks.
    /// `Fail` is ignored.
    ChannelPark,
    /// The channel waker registry's `register`. `Fail` is ignored.
    WakerRegister,
    /// The sharded front-end's d-choice sampling window: between sampling
    /// the per-shard length estimates and operating on the chosen shard.
    /// `Fail` degrades the choice to a single uniform sample (d = 1), the
    /// stale-estimate worst case; a `Stall` here parks the thread while its
    /// cached estimates go arbitrarily stale.
    ShardSample,
    /// The wCQ fast-path enqueue read→CAS2 window. `Fail` makes the
    /// placement attempt spuriously fail; after a bounded number of
    /// fast-path attempts the operation announces a request record and
    /// escapes to the helping slow path (the wait-freedom mechanism a
    /// lock-free ring does not have).
    WcqEnqueue,
    /// The wCQ fast-path dequeue read→CAS2 window. `Fail` makes the
    /// consume attempt spuriously fail, with the same bounded-attempt
    /// escape to the slow path as [`Site::WcqEnqueue`].
    WcqDequeue,
    /// The wCQ helping loop, between reading a pending request record and
    /// acting on it. `Fail` forces one extra re-read of the record (a
    /// helper losing its race); a `Stall` parks the thread mid-help, the
    /// scenario helpers must tolerate because every record transition is
    /// CAS-published and any peer can finish the request.
    WcqHelp,
}

/// Number of distinct [`Site`]s.
pub const NUM_SITES: usize = Site::WcqHelp as usize + 1;

impl Site {
    /// Every site, in declaration order.
    pub const ALL: [Site; NUM_SITES] = [
        Site::Preempt,
        Site::Cas2,
        Site::Faa,
        Site::OrBits,
        Site::CrqEnqueue,
        Site::CrqDequeue,
        Site::ScqEnqueue,
        Site::ScqDequeue,
        Site::CloseRace,
        Site::RingAlloc,
        Site::HazardProtect,
        Site::HazardScan,
        Site::ChannelPark,
        Site::WakerRegister,
        Site::ShardSample,
        Site::WcqEnqueue,
        Site::WcqDequeue,
        Site::WcqHelp,
    ];

    /// Stable lowercase name, used in scenario displays and hit logs.
    pub fn name(self) -> &'static str {
        match self {
            Site::Preempt => "preempt",
            Site::Cas2 => "cas2",
            Site::Faa => "faa",
            Site::OrBits => "or-bits",
            Site::CrqEnqueue => "crq-enqueue",
            Site::CrqDequeue => "crq-dequeue",
            Site::ScqEnqueue => "scq-enqueue",
            Site::ScqDequeue => "scq-dequeue",
            Site::CloseRace => "close-race",
            Site::RingAlloc => "ring-alloc",
            Site::HazardProtect => "hazard-protect",
            Site::HazardScan => "hazard-scan",
            Site::ChannelPark => "channel-park",
            Site::WakerRegister => "waker-register",
            Site::ShardSample => "shard-sample",
            Site::WcqEnqueue => "wcq-enqueue",
            Site::WcqDequeue => "wcq-dequeue",
            Site::WcqHelp => "wcq-help",
        }
    }
}

impl core::fmt::Display for Site {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// What an armed fail point does when its probability roll fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Yield the CPU (`std::thread::yield_now`), widening the window.
    Yield,
    /// Busy-wait for the given number of spin-loop hints.
    SpinDelay(u32),
    /// Report a site-interpreted failure to the caller ([`inject`] returns
    /// `true`): a spurious CAS2/CAS miss, a refused ring allocation, a
    /// forced ring close — see each [`Site`]'s documentation.
    Fail,
    /// Permanently stall the thread ("crash"): park until `disarm` or the
    /// next `Scenario::arm` releases it. Bounded per scenario by
    /// `Scenario::max_stalls`.
    Stall,
    /// Panic with a message naming the site and seed. Pair with
    /// `std::panic::catch_unwind` to test panic-safety of the window.
    Panic,
}

impl core::fmt::Display for FaultAction {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FaultAction::Yield => f.write_str("yield"),
            FaultAction::SpinDelay(n) => write!(f, "spin({n})"),
            FaultAction::Fail => f.write_str("fail"),
            FaultAction::Stall => f.write_str("stall"),
            FaultAction::Panic => f.write_str("panic"),
        }
    }
}

#[cfg(feature = "fault-injection")]
mod registry {
    use super::{FaultAction, Site, NUM_SITES};
    use crate::metrics::{self, Event};
    use crate::rng::splitmix64;
    use core::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
    use std::cell::Cell;
    use std::sync::{Arc, Condvar, Mutex};

    /// One armed fail point inside an installed scenario.
    struct ArmedSite {
        ppm: u32,
        action: FaultAction,
        hits_left: AtomicU64,
    }

    /// An installed scenario plus its runtime counters.
    struct Armed {
        seed: u64,
        record: bool,
        max_stalls: u64,
        stalls: AtomicU64,
        sites: [Option<ArmedSite>; NUM_SITES],
    }

    /// A record of one fired fail point, in firing order.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SiteHit {
        /// The site that fired.
        pub site: Site,
        /// The action that was taken.
        pub action: FaultAction,
    }

    /// A deterministic fault scenario: a seed plus a set of armed sites.
    ///
    /// Build with [`Scenario::new`] + [`Scenario::with`], install with
    /// [`Scenario::arm`]. The value is `Clone` and `Display` so failing
    /// tests can print the exact configuration to replay.
    #[derive(Debug, Clone)]
    pub struct Scenario {
        seed: u64,
        record: bool,
        max_stalls: u64,
        sites: Vec<(Site, u32, FaultAction, u64)>,
    }

    impl Scenario {
        /// Starts an empty scenario from `seed` (pass
        /// [`crate::rng::test_seed`]'s result to honor `LCRQ_TEST_SEED`).
        pub fn new(seed: u64) -> Self {
            Self {
                seed,
                record: false,
                max_stalls: u64::MAX,
                sites: Vec::new(),
            }
        }

        /// The scenario seed.
        pub fn seed(&self) -> u64 {
            self.seed
        }

        /// Arms `site` to take `action` with probability `ppm` per million
        /// visits (clamped to 1 000 000), with no hit limit.
        pub fn with(self, site: Site, ppm: u32, action: FaultAction) -> Self {
            self.with_limited(site, ppm, action, u64::MAX)
        }

        /// Like [`with`](Self::with), but the site stops firing after
        /// `max_hits` hits (process-wide, across all threads).
        pub fn with_limited(
            mut self,
            site: Site,
            ppm: u32,
            action: FaultAction,
            max_hits: u64,
        ) -> Self {
            self.sites
                .push((site, ppm.min(1_000_000), action, max_hits));
            self
        }

        /// Caps how many threads this scenario may permanently stall
        /// ([`FaultAction::Stall`]); further stall hits become no-ops.
        pub fn max_stalls(mut self, k: u64) -> Self {
            self.max_stalls = k;
            self
        }

        /// Enables the hit log: every fired site is appended for
        /// [`take_hit_log`] (used by the same-seed replay test).
        pub fn recording(mut self, on: bool) -> Self {
            self.record = on;
            self
        }

        /// Installs this scenario process-wide, replacing any previous one
        /// (whose stalled threads are released) and clearing the hit log.
        pub fn arm(&self) {
            let mut sites: [Option<ArmedSite>; NUM_SITES] = core::array::from_fn(|_| None);
            for &(site, ppm, action, max_hits) in &self.sites {
                sites[site as usize] = Some(ArmedSite {
                    ppm,
                    action,
                    hits_left: AtomicU64::new(max_hits),
                });
            }
            let armed = Arc::new(Armed {
                seed: self.seed,
                record: self.record,
                max_stalls: self.max_stalls,
                stalls: AtomicU64::new(0),
                sites,
            });
            HIT_LOG.lock().unwrap_or_else(|e| e.into_inner()).clear();
            *ARMED.lock().unwrap_or_else(|e| e.into_inner()) = Some(armed);
            static GEN_CTR: AtomicU64 = AtomicU64::new(1);
            let gen = GEN_CTR.fetch_add(1, Ordering::SeqCst);
            // Publish the new generation under the stall mutex so a thread
            // about to park on the old generation cannot miss the wakeup.
            let _g = STALL_MUTEX.lock().unwrap_or_else(|e| e.into_inner());
            GENERATION.store(gen, Ordering::SeqCst);
            let mask = self.sites.iter().fold(0, |m, s| m | (1 << s.0 as u32));
            ARMED_SITES.store(mask, Ordering::SeqCst);
            STALL_CV.notify_all();
        }
    }

    impl core::fmt::Display for Scenario {
        fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
            write!(f, "seed={:#x} sites=[", self.seed)?;
            for (i, (site, ppm, action, max_hits)) in self.sites.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{site}:{ppm}ppm:{action}")?;
                if *max_hits != u64::MAX {
                    write!(f, ":≤{max_hits}")?;
                }
            }
            f.write_str("]")?;
            if self.max_stalls != u64::MAX {
                write!(f, " max_stalls={}", self.max_stalls)?;
            }
            Ok(())
        }
    }

    /// 0 = nothing armed; otherwise the generation of the armed scenario.
    static GENERATION: AtomicU64 = AtomicU64::new(0);
    /// Bit `site` is set iff the armed scenario arms `site`: a visit to any
    /// other site costs one relaxed load, armed scenario or not.
    static ARMED_SITES: AtomicU32 = AtomicU32::new(0);
    const _: () = assert!(NUM_SITES <= 32);
    static ARMED: Mutex<Option<Arc<Armed>>> = Mutex::new(None);
    static HIT_LOG: Mutex<Vec<SiteHit>> = Mutex::new(Vec::new());
    static STALL_MUTEX: Mutex<()> = Mutex::new(());
    static STALL_CV: Condvar = Condvar::new();
    static STALLED: AtomicUsize = AtomicUsize::new(0);
    /// Process-wide thread ordinals: each thread's RNG stream index.
    static NEXT_ORDINAL: AtomicU64 = AtomicU64::new(1);

    thread_local! {
        /// (generation this thread last synced to, cached scenario).
        static CACHED: Cell<u64> = const { Cell::new(0) };
        static CACHED_ARMED: std::cell::RefCell<Option<Arc<Armed>>> =
            const { std::cell::RefCell::new(None) };
        /// The cached scenario's per-site probabilities (0 = unarmed).
        static PPM: [Cell<u32>; NUM_SITES] = const { [const { Cell::new(0) }; NUM_SITES] };
        /// Per-thread xorshift64* state, reseeded per generation.
        static RNG: Cell<u64> = const { Cell::new(0) };
        static ORDINAL: Cell<u64> = const { Cell::new(0) };
    }

    fn ordinal() -> u64 {
        ORDINAL.with(|o| {
            if o.get() == 0 {
                o.set(NEXT_ORDINAL.fetch_add(1, Ordering::Relaxed));
            }
            o.get()
        })
    }

    /// Per-(scenario, thread) deterministic stream seed.
    fn stream_seed(scenario_seed: u64) -> u64 {
        let s = splitmix64(scenario_seed ^ splitmix64(ordinal()));
        if s == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            s
        }
    }

    /// Whether the registry is compiled in.
    pub fn enabled() -> bool {
        true
    }

    /// Visits the fail point `site`. Returns `true` iff an armed
    /// [`FaultAction::Fail`] fired — the caller applies the site-specific
    /// failure. All other actions are performed internally. A visit to an
    /// armed site rolls on thread-local state only, inline, so an armed
    /// scheduler adversary widens its windows by little more than its
    /// yields; resyncing and firing are out of line.
    #[inline]
    pub fn inject(site: Site) -> bool {
        if ARMED_SITES.load(Ordering::Relaxed) & (1 << site as u32) == 0 {
            return false;
        }
        let gen = GENERATION.load(Ordering::Relaxed);
        if gen == 0 || (CACHED.with(Cell::get) != gen && !resync(gen)) {
            return false;
        }
        let ppm = PPM.with(|p| p[site as usize].get());
        let roll = RNG.with(|state| {
            let mut x = state.get();
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            state.set(x);
            ((x.wrapping_mul(0x2545_F491_4F6C_DD1D) as u128 * 1_000_000) >> 64) as u32
        });
        roll < ppm && fire(site, gen)
    }

    /// Refreshes the cached scenario (and reseeds the RNG stream) when the
    /// generation moved under us; `false` skips this visit.
    #[cold]
    fn resync(gen: u64) -> bool {
        let cur = ARMED.lock().unwrap_or_else(|e| e.into_inner()).clone();
        // Re-check: if the scenario changed between the load and the lock,
        // skip this visit; the next one resyncs.
        if GENERATION.load(Ordering::SeqCst) != gen {
            return false;
        }
        let Some(armed) = cur else { return false };
        RNG.with(|r| r.set(stream_seed(armed.seed)));
        PPM.with(|ppm| {
            for (p, arm) in ppm.iter().zip(&armed.sites) {
                p.set(arm.as_ref().map_or(0, |a| a.ppm));
            }
        });
        CACHED_ARMED.with(|c| *c.borrow_mut() = Some(armed));
        CACHED.with(|c| c.set(gen));
        true
    }

    /// Takes the armed action at `site` once its roll fired: the only
    /// visit that touches (here, clones) the shared scenario.
    #[cold]
    fn fire(site: Site, gen: u64) -> bool {
        let Some(armed) = CACHED_ARMED.with(|c| c.borrow().clone()) else {
            return false;
        };
        let Some(arm) = &armed.sites[site as usize] else {
            return false;
        };
        // Hit cap (process-wide, e.g. "panic exactly once").
        if arm
            .hits_left
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |h| h.checked_sub(1))
            .is_err()
        {
            return false;
        }
        metrics::inc(Event::FaultInjected);
        if armed.record {
            HIT_LOG
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(SiteHit {
                    site,
                    action: arm.action,
                });
        }
        match arm.action {
            FaultAction::Yield => {
                std::thread::yield_now();
                false
            }
            FaultAction::SpinDelay(n) => {
                for _ in 0..n {
                    core::hint::spin_loop();
                }
                false
            }
            FaultAction::Fail => true,
            FaultAction::Stall => {
                stall(&armed, gen);
                false
            }
            FaultAction::Panic => panic!(
                "fault-injection: injected panic at site `{}` (seed {:#x})",
                site.name(),
                armed.seed
            ),
        }
    }

    /// Parks the calling thread until the arming generation changes,
    /// honoring the scenario's stall cap.
    fn stall(armed: &Armed, gen: u64) {
        if armed
            .stalls
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |s| {
                (s < armed.max_stalls).then_some(s + 1)
            })
            .is_err()
        {
            return;
        }
        STALLED.fetch_add(1, Ordering::SeqCst);
        let mut g = STALL_MUTEX.lock().unwrap_or_else(|e| e.into_inner());
        while GENERATION.load(Ordering::SeqCst) == gen {
            g = STALL_CV.wait(g).unwrap_or_else(|e| e.into_inner());
        }
        drop(g);
        STALLED.fetch_sub(1, Ordering::SeqCst);
    }

    /// Uninstalls the armed scenario and releases every stalled thread.
    pub fn disarm() {
        ARMED_SITES.store(0, Ordering::SeqCst);
        *ARMED.lock().unwrap_or_else(|e| e.into_inner()) = None;
        let _g = STALL_MUTEX.lock().unwrap_or_else(|e| e.into_inner());
        GENERATION.store(0, Ordering::SeqCst);
        STALL_CV.notify_all();
    }

    /// Number of threads currently parked by [`FaultAction::Stall`].
    pub fn stalled_count() -> usize {
        STALLED.load(Ordering::SeqCst)
    }

    /// Drains and returns the hit log recorded since the last
    /// [`Scenario::arm`] (empty unless the scenario was `recording`).
    pub fn take_hit_log() -> Vec<SiteHit> {
        core::mem::take(&mut *HIT_LOG.lock().unwrap_or_else(|e| e.into_inner()))
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        /// The registry is process-global state: serialize its tests.
        static LOCK: Mutex<()> = Mutex::new(());
        fn guard() -> std::sync::MutexGuard<'static, ()> {
            LOCK.lock().unwrap_or_else(|e| e.into_inner())
        }

        #[test]
        fn unarmed_inject_is_inert() {
            let _g = guard();
            disarm();
            for _ in 0..1000 {
                assert!(!inject(Site::Cas2));
            }
        }

        #[test]
        fn fail_action_fires_at_armed_probability_only() {
            let _g = guard();
            Scenario::new(7)
                .with(Site::Cas2, 1_000_000, FaultAction::Fail)
                .arm();
            assert!(inject(Site::Cas2), "ppm=1e6 must always fire");
            assert!(!inject(Site::Preempt), "unarmed site must not fire");
            disarm();
            assert!(!inject(Site::Cas2));
        }

        #[test]
        fn hit_cap_limits_firing() {
            let _g = guard();
            Scenario::new(9)
                .with_limited(Site::Cas2, 1_000_000, FaultAction::Fail, 3)
                .arm();
            let fired = (0..100).filter(|_| inject(Site::Cas2)).count();
            assert_eq!(fired, 3);
            disarm();
        }

        #[test]
        fn same_seed_same_thread_replays_identical_hit_log() {
            let _g = guard();
            let scenario = Scenario::new(0xBEEF)
                .with(Site::Cas2, 250_000, FaultAction::Fail)
                .with(Site::Preempt, 125_000, FaultAction::Yield)
                .recording(true);
            let run = || {
                scenario.arm();
                for _ in 0..2000 {
                    let _ = inject(Site::Cas2);
                    let _ = inject(Site::Preempt);
                }
                take_hit_log()
            };
            let a = run();
            let b = run();
            disarm();
            assert!(!a.is_empty(), "a 25% site must fire in 2000 visits");
            assert_eq!(a, b, "same seed must replay byte-identically");
        }

        #[test]
        fn distinct_seeds_diverge() {
            let _g = guard();
            let log_for = |seed: u64| {
                Scenario::new(seed)
                    .with(Site::Cas2, 500_000, FaultAction::Fail)
                    .recording(true)
                    .arm();
                for _ in 0..512 {
                    let _ = inject(Site::Cas2);
                }
                take_hit_log().len()
            };
            let a = log_for(1);
            let b = log_for(2);
            disarm();
            // Equal lengths are possible but the full logs differing in
            // positions is near-certain; length is a cheap proxy that can
            // collide, so compare the firing positions instead.
            let positions = |seed: u64| {
                Scenario::new(seed)
                    .with(Site::Cas2, 500_000, FaultAction::Fail)
                    .recording(true)
                    .arm();
                (0..512).map(|_| inject(Site::Cas2)).collect::<Vec<_>>()
            };
            let pa = positions(1);
            let pb = positions(2);
            disarm();
            assert!(pa != pb, "seeds 1 and 2 produced identical streams");
            let _ = (a, b);
        }

        #[test]
        fn stall_parks_until_disarm_and_honors_cap() {
            let _g = guard();
            Scenario::new(3)
                .with(Site::HazardProtect, 1_000_000, FaultAction::Stall)
                .max_stalls(1)
                .arm();
            let t = std::thread::spawn(|| {
                let _ = inject(Site::HazardProtect);
            });
            while stalled_count() < 1 {
                std::thread::yield_now();
            }
            // Cap reached: further stall hits are no-ops.
            let _ = inject(Site::HazardProtect);
            assert_eq!(stalled_count(), 1);
            disarm();
            t.join().unwrap();
            assert_eq!(stalled_count(), 0);
        }

        #[test]
        fn panic_action_panics_with_site_and_seed() {
            let _g = guard();
            Scenario::new(0xAB)
                .with_limited(Site::CrqEnqueue, 1_000_000, FaultAction::Panic, 1)
                .arm();
            let err = std::panic::catch_unwind(|| inject(Site::CrqEnqueue))
                .expect_err("armed panic action must panic");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("crq-enqueue"), "panic names the site: {msg}");
            assert!(msg.contains("0xab"), "panic names the seed: {msg}");
            // Hit cap of 1: the site is spent.
            assert!(!inject(Site::CrqEnqueue));
            disarm();
        }

        #[test]
        fn thread_streams_are_decorrelated() {
            // One stream for all threads would fire them in lockstep: the
            // adversary's preemptions would hit the same ops of each one.
            let mut seeds: Vec<u64> = (0..4)
                .map(|_| std::thread::spawn(|| stream_seed(7)).join().unwrap())
                .collect();
            seeds.sort_unstable();
            seeds.dedup();
            assert_eq!(seeds.len(), 4, "stream seeds collided: {seeds:?}");
        }

        #[test]
        fn preempt_yield_clamps_its_rate_to_certainty() {
            let s = Scenario::new(1).with(Site::Preempt, 2_000_000, FaultAction::Yield);
            assert!(s.to_string().contains("preempt:1000000ppm:yield"), "{s}");
        }

        #[test]
        fn scenario_display_lists_seed_and_sites() {
            let s = Scenario::new(0x2A)
                .with(Site::Cas2, 1000, FaultAction::Fail)
                .with_limited(Site::RingAlloc, 500, FaultAction::Fail, 2)
                .max_stalls(2);
            let d = s.to_string();
            assert!(d.contains("seed=0x2a"), "{d}");
            assert!(d.contains("cas2:1000ppm:fail"), "{d}");
            assert!(d.contains("ring-alloc:500ppm:fail:≤2"), "{d}");
            assert!(d.contains("max_stalls=2"), "{d}");
        }
    }
}

#[cfg(feature = "fault-injection")]
pub use registry::{disarm, enabled, inject, stalled_count, take_hit_log, Scenario, SiteHit};

/// Stub implementation compiled when the `fault-injection` feature is off:
/// every fail point folds to a constant and the optimizer deletes the call.
#[cfg(not(feature = "fault-injection"))]
mod stub {
    use super::Site;

    /// Whether the registry is compiled in (`false`: this is the stub).
    #[inline(always)]
    pub fn enabled() -> bool {
        false
    }

    /// Visits the fail point `site`; without the `fault-injection` feature
    /// this is a constant `false` and the call site folds to nothing.
    #[inline(always)]
    pub fn inject(_site: Site) -> bool {
        false
    }
}

#[cfg(not(feature = "fault-injection"))]
pub use stub::{enabled, inject};

#[cfg(all(test, not(feature = "fault-injection")))]
mod disabled_tests {
    use super::*;

    /// The zero-cost contract: in a default build the registry is the stub
    /// — `inject` is a constant `false` with no observable effect. (ci.sh
    /// additionally greps the release binary for registry symbols.)
    #[test]
    fn default_build_uses_the_inert_stub() {
        assert!(!enabled());
        for site in Site::ALL {
            assert!(!inject(site));
        }
    }
}

#[cfg(test)]
mod shared_tests {
    use super::*;

    #[test]
    fn site_names_are_unique_and_cover_all() {
        let mut names: Vec<_> = Site::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), NUM_SITES);
    }

    #[test]
    fn site_discriminants_index_the_all_table() {
        for (i, site) in Site::ALL.iter().enumerate() {
            assert_eq!(*site as usize, i);
        }
    }
}

//! A 16-byte-aligned pair of `u64` words supporting double-width CAS.
//!
//! This is the paper's `CAS2(a, <o0,o1>, <n0,n1>)` primitive (§3), i.e.
//! x86 `LOCK CMPXCHG16B`. A CRQ ring node is one `AtomicPair`: the first
//! word packs `(safe, idx)` and the second holds the value (Figure 3a).
//!
//! Rust's standard library has no stable 128-bit atomic, so on x86-64 we
//! issue `lock cmpxchg16b` through inline assembly. A portable spinlock-
//! striped fallback is compiled on every platform (and unit-tested on this
//! one) so the library still builds elsewhere. Which path a build actually
//! uses is reported by [`cas2_backend`]: native on x86-64, the fallback
//! everywhere else **and** on x86-64 under the `force-fallback` feature,
//! under Miri (which cannot execute inline asm), and under `--cfg loom`
//! (so the model checker sees instrumented per-word accesses).

use core::cell::UnsafeCell;
use lcrq_util::metrics::{self, Event};
use lcrq_util::sync::{AtomicU64, Ordering};

/// A pair of `u64` words on which [`compare_exchange`](AtomicPair::compare_exchange)
/// is atomic across both words.
///
/// Individual words can be loaded atomically (and independently) with
/// [`load_first`](AtomicPair::load_first) / [`load_second`](AtomicPair::load_second);
/// this matches the CRQ's access pattern, which reads `val` and
/// `<safe, idx>` as two separate 64-bit reads (Figure 3b line 37-38) and
/// relies on CAS2 failure to detect torn observations.
///
/// ```
/// use lcrq_atomic::AtomicPair;
/// let p = AtomicPair::new(1, 2);
/// assert_eq!(p.compare_exchange((1, 2), (3, 4)), Ok(()));
/// assert_eq!(p.compare_exchange((1, 2), (9, 9)), Err((3, 4)));
/// assert_eq!(p.load(), (3, 4));
/// ```
#[repr(C, align(16))]
pub struct AtomicPair {
    words: UnsafeCell<[u64; 2]>,
}

// SAFETY: all access goes through atomic instructions (or the fallback lock).
unsafe impl Send for AtomicPair {}
unsafe impl Sync for AtomicPair {}

impl AtomicPair {
    /// Creates a pair initialized to `(first, second)`.
    pub const fn new(first: u64, second: u64) -> Self {
        Self {
            words: UnsafeCell::new([first, second]),
        }
    }

    #[inline]
    fn word(&self, i: usize) -> &AtomicU64 {
        // SAFETY: each half of the 16-byte cell is a valid, aligned AtomicU64
        // and every mutation of it is performed with atomic instructions.
        unsafe { &*(self.words.get() as *const u64 as *const AtomicU64).add(i) }
    }

    /// Atomically loads the first word (acquire).
    #[inline]
    pub fn load_first(&self) -> u64 {
        self.word(0).load(Ordering::Acquire)
    }

    /// Atomically loads the second word (acquire).
    #[inline]
    pub fn load_second(&self) -> u64 {
        self.word(1).load(Ordering::Acquire)
    }

    /// Atomically loads both words as one 128-bit quantity.
    ///
    /// Implemented with a `CAS2(p, x, x)` probe, so it is exactly as strong
    /// as the paper's model allows. Primarily for tests and assertions; the
    /// queue algorithms use per-word loads.
    #[inline]
    pub fn load(&self) -> (u64, u64) {
        // A cmpxchg16b with equal old/new never changes memory but always
        // returns the current contents.
        match self.compare_exchange_internal((0, 0), (0, 0), false) {
            Ok(()) => (0, 0),
            Err(cur) => cur,
        }
    }

    /// Double-width compare-and-swap with sequentially consistent ordering
    /// (the instruction is lock-prefixed; x86 gives total order).
    ///
    /// On success returns `Ok(())`; on failure returns the observed value.
    /// Records [`Event::Cas2Attempt`] / [`Event::Cas2Failure`].
    #[inline]
    pub fn compare_exchange(&self, old: (u64, u64), new: (u64, u64)) -> Result<(), (u64, u64)> {
        if lcrq_util::fault::inject(lcrq_util::fault::Site::Cas2) {
            // Injected spurious CAS2 failure: report the current contents
            // without attempting the exchange. Callers must already cope
            // with losing the real race (re-read and retry), so a spurious
            // loss exercises the same path without weakening the protocol.
            metrics::inc(Event::Cas2Attempt);
            metrics::inc(Event::Cas2Failure);
            return Err(self.load());
        }
        self.compare_exchange_internal(old, new, true)
    }

    #[inline]
    fn compare_exchange_internal(
        &self,
        old: (u64, u64),
        new: (u64, u64),
        count: bool,
    ) -> Result<(), (u64, u64)> {
        if count {
            metrics::inc(Event::Cas2Attempt);
        }
        let r = {
            #[cfg(all(
                target_arch = "x86_64",
                not(any(loom, miri, feature = "force-fallback"))
            ))]
            {
                native::cmpxchg16b(self.words.get(), old, new)
            }
            #[cfg(not(all(
                target_arch = "x86_64",
                not(any(loom, miri, feature = "force-fallback"))
            )))]
            {
                fallback::cmpxchg16b(self.words.get(), old, new)
            }
        };
        if count && r.is_err() {
            metrics::inc(Event::Cas2Failure);
        }
        r
    }

    /// Non-atomic store through exclusive access (initialization).
    pub fn store_mut(&mut self, first: u64, second: u64) {
        *self.words.get_mut() = [first, second];
    }
}

impl core::fmt::Debug for AtomicPair {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let (a, b) = self.load();
        f.debug_tuple("AtomicPair").field(&a).field(&b).finish()
    }
}

/// Which CAS2 implementation this build routes
/// [`AtomicPair::compare_exchange`] through. Benches and arena artifacts
/// record this so a measurement is never silently attributed to the wrong
/// path (e.g. a `force-fallback` run mistaken for native numbers).
pub fn cas2_backend() -> &'static str {
    if cfg!(loom) {
        "seqlock-fallback (loom model)"
    } else if cfg!(miri) {
        "seqlock-fallback (miri)"
    } else if cfg!(all(target_arch = "x86_64", feature = "force-fallback")) {
        "seqlock-fallback (force-fallback on x86_64)"
    } else if cfg!(target_arch = "x86_64") {
        "native cmpxchg16b"
    } else {
        "seqlock-fallback (portable)"
    }
}

/// Native x86-64 path: `lock cmpxchg16b` via inline assembly. Compiled out
/// (not just unused) under Miri / loom / `force-fallback`, matching the
/// routing in `compare_exchange_internal`.
#[cfg(all(
    target_arch = "x86_64",
    not(any(loom, miri, feature = "force-fallback"))
))]
mod native {
    /// Atomically compares the 16 bytes at `ptr` with `old` and, if equal,
    /// replaces them with `new`. Returns `Ok(())` or the observed value.
    ///
    /// `ptr` must be 16-byte aligned and valid for concurrent atomic access.
    #[inline]
    pub fn cmpxchg16b(
        ptr: *mut [u64; 2],
        old: (u64, u64),
        new: (u64, u64),
    ) -> Result<(), (u64, u64)> {
        // `lock cmpxchg16b` #GP-faults on a misaligned operand; every
        // `AtomicPair` is `repr(align(16))`, but a cell reached through a
        // bad cast or FFI would not be. Cheap to check, fatal to miss.
        debug_assert_eq!(
            ptr as usize % 16,
            0,
            "cmpxchg16b operand must be 16-byte aligned"
        );
        let (old_lo, old_hi) = old;
        let (new_lo, new_hi) = new;
        let res_lo: u64;
        let res_hi: u64;
        let ok: u8;
        // SAFETY: `ptr` comes from a 16-byte-aligned `AtomicPair`.
        // CMPXCHG16B compares RDX:RAX with the memory operand and, if equal,
        // stores RCX:RBX. LLVM reserves RBX, so we stash the low new word via
        // a scratch register around the instruction. While RBX holds that
        // word, nothing else the block uses may live there: a `reg` operand
        // can be allocated RBX, so the address would be swapped away before
        // it is dereferenced, and a `reg_byte` flag in BL would be destroyed
        // by the restoring `mov`. Both are pinned to named registers instead
        // (ci.sh probes the release binary for `cmpxchg16b (%rbx)`).
        unsafe {
            core::arch::asm!(
                "xchg rbx, {new_lo}",
                "lock cmpxchg16b [rdi]",
                "sete r8b",
                "mov rbx, {new_lo}",
                in("rdi") ptr,
                new_lo = inout(reg) new_lo => _,
                out("r8b") ok,
                inout("rax") old_lo => res_lo,
                inout("rdx") old_hi => res_hi,
                in("rcx") new_hi,
                options(nostack),
            );
        }
        if ok != 0 {
            Ok(())
        } else {
            Err((res_lo, res_hi))
        }
    }
}

/// Portable fallback: an address-striped spinlock table serializing CAS2
/// *writers*; readers ([`AtomicPair::load_first`]/[`load_second`]) stay
/// lock-free per-word atomic loads. A reader racing a CAS2 can observe the
/// pair half-updated — exactly the CRQ's access model, which reads `val`
/// and `<safe, idx>` as two independent 64-bit loads and relies on CAS2
/// failure to reject torn observations. Compiled everywhere; used off
/// x86-64 and under Miri / loom / `force-fallback`.
#[allow(dead_code)]
mod fallback {
    use lcrq_util::sync::{AtomicBool, AtomicU64, Ordering};

    // One stripe under loom: lock choice must not depend on heap addresses,
    // which vary across executions and would derail schedule replay.
    const STRIPES: usize = if cfg!(loom) { 1 } else { 64 };
    static LOCKS: [AtomicBool; STRIPES] = [const { AtomicBool::new(false) }; STRIPES];

    fn stripe(addr: usize) -> &'static AtomicBool {
        // 16-byte cells: drop the low 4 bits, then stripe.
        #[allow(clippy::modulo_one)] // STRIPES == 1 under the loom cfg
        let idx = (addr >> 4) % STRIPES;
        &LOCKS[idx]
    }

    struct Guard(&'static AtomicBool);
    impl Drop for Guard {
        fn drop(&mut self) {
            self.0.store(false, Ordering::Release);
        }
    }

    fn lock(addr: usize) -> Guard {
        let l = stripe(addr);
        #[cfg(loom)]
        lcrq_util::model::acquire_flag(l);
        #[cfg(not(loom))]
        while l
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            core::hint::spin_loop();
        }
        Guard(l)
    }

    /// Views the 16-byte cell as its two word atomics.
    ///
    /// # Safety
    /// `ptr` must point to a live, 8-byte-aligned `[u64; 2]` whose words
    /// are only ever mutated through atomic operations.
    unsafe fn words<'a>(ptr: *mut [u64; 2]) -> (&'a AtomicU64, &'a AtomicU64) {
        let base = ptr as *const AtomicU64;
        (&*base, &*base.add(1))
    }

    /// Lock-based emulation of x86 `lock cmpxchg16b`.
    ///
    /// All cell access is per-word atomic. An earlier version read and
    /// wrote the cell with `read_volatile`/`write_volatile` under the
    /// stripe lock — a data race against the *unlocked* `Acquire` word
    /// loads in `load_first`/`load_second` (volatile is not atomic).
    /// Miri reports it as "Data race detected between (1) non-atomic
    /// write and (2) atomic load"; x86's TSO happened to tolerate it,
    /// aarch64 would not. Keep every access to the cell atomic.
    pub fn cmpxchg16b(
        ptr: *mut [u64; 2],
        old: (u64, u64),
        new: (u64, u64),
    ) -> Result<(), (u64, u64)> {
        let _g = lock(ptr as usize);
        // SAFETY: `ptr` comes from a live cell (`AtomicPair` or a test's
        // exclusive array) mutated only under this stripe lock, and read
        // elsewhere only with atomic loads.
        let (w0, w1) = unsafe { words(ptr) };
        // The stripe lock serializes writers, so this read-compare-write
        // is atomic with respect to other CAS2s; Relaxed loads suffice
        // under the lock's Acquire.
        let cur = (w0.load(Ordering::Relaxed), w1.load(Ordering::Relaxed));
        if cur == old {
            // Second word first. A lock-free reader loads word 0 and then
            // word 1; against the native instruction (one 16-byte store) it
            // can pair an old word 0 with a new word 1 but never the other
            // way round, and callers rely on that ("the meta word says our
            // cycle, so the value word is already there"). Storing in this
            // order keeps the same one-way tearing here.
            w1.store(new.1, Ordering::Release);
            w0.store(new.0, Ordering::Release);
            Ok(())
        } else {
            Err(cur)
        }
    }

    /// The planted-bug twin of [`cmpxchg16b`]: word 0 is stored first, so a
    /// reader can pair the new word 0 with the old word 1.
    #[cfg(loom)]
    pub fn cmpxchg16b_word0_first(
        ptr: *mut [u64; 2],
        old: (u64, u64),
        new: (u64, u64),
    ) -> Result<(), (u64, u64)> {
        let _g = lock(ptr as usize);
        // SAFETY: as in `cmpxchg16b`.
        let (w0, w1) = unsafe { words(ptr) };
        let cur = (w0.load(Ordering::Relaxed), w1.load(Ordering::Relaxed));
        if cur == old {
            w0.store(new.0, Ordering::Release);
            w1.store(new.1, Ordering::Release);
            Ok(())
        } else {
            Err(cur)
        }
    }
}

/// The planted-bug twin of the fallback's store order, reachable only by
/// the model checker: `tests/loom.rs` runs it against the same per-word
/// reader and asserts the checker finds the new word 0 beside the old
/// word 1.
#[cfg(loom)]
#[doc(hidden)]
impl AtomicPair {
    pub fn compare_exchange_word0_first(
        &self,
        old: (u64, u64),
        new: (u64, u64),
    ) -> Result<(), (u64, u64)> {
        fallback::cmpxchg16b_word0_first(self.words.get(), old, new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn new_and_load_words() {
        let p = AtomicPair::new(7, 9);
        assert_eq!(p.load_first(), 7);
        assert_eq!(p.load_second(), 9);
        assert_eq!(p.load(), (7, 9));
    }

    #[test]
    fn successful_cas2_updates_both_words() {
        let p = AtomicPair::new(1, 2);
        assert_eq!(p.compare_exchange((1, 2), (10, 20)), Ok(()));
        assert_eq!(p.load(), (10, 20));
    }

    #[test]
    fn failed_cas2_returns_current_and_leaves_memory() {
        let p = AtomicPair::new(1, 2);
        assert_eq!(p.compare_exchange((1, 3), (10, 20)), Err((1, 2)));
        assert_eq!(p.compare_exchange((0, 2), (10, 20)), Err((1, 2)));
        assert_eq!(p.load(), (1, 2));
    }

    #[test]
    fn cas2_distinguishes_each_word() {
        // Must compare both words, not just one.
        let p = AtomicPair::new(5, 5);
        assert!(p.compare_exchange((5, 6), (0, 0)).is_err());
        assert!(p.compare_exchange((6, 5), (0, 0)).is_err());
        assert!(p.compare_exchange((5, 5), (0, 0)).is_ok());
    }

    #[test]
    fn store_mut_reinitializes() {
        let mut p = AtomicPair::new(0, 0);
        p.store_mut(3, 4);
        assert_eq!(p.load(), (3, 4));
    }

    #[test]
    fn alignment_is_16_bytes() {
        assert_eq!(core::mem::align_of::<AtomicPair>(), 16);
        assert_eq!(core::mem::size_of::<AtomicPair>(), 16);
        let v: Vec<AtomicPair> = (0..8).map(|i| AtomicPair::new(i, i)).collect();
        for p in &v {
            assert_eq!(p as *const _ as usize % 16, 0);
        }
        // Boxed, stack, and struct-embedded cells must all satisfy the
        // native path's debug assertion (`lock cmpxchg16b` faults on a
        // misaligned operand).
        let boxed = Box::new(AtomicPair::new(0, 0));
        assert_eq!(&*boxed as *const _ as usize % 16, 0);
        struct Embeds {
            _pad: u8,
            p: AtomicPair,
        }
        let e = Embeds {
            _pad: 1,
            p: AtomicPair::new(0, 0),
        };
        assert_eq!(&e.p as *const _ as usize % 16, 0);
        assert!(e.p.compare_exchange((0, 0), (1, 1)).is_ok());
    }

    #[test]
    fn backend_report_matches_build_configuration() {
        let b = cas2_backend();
        if cfg!(all(
            target_arch = "x86_64",
            not(any(miri, feature = "force-fallback"))
        )) {
            assert_eq!(b, "native cmpxchg16b");
        } else {
            assert!(b.starts_with("seqlock-fallback"), "unexpected backend {b}");
        }
    }

    #[test]
    fn fallback_cas2_vs_atomic_word_reads_is_race_free() {
        // Regression witness for the fallback data race (see the comment on
        // fallback::cmpxchg16b): under Miri the old volatile-write body
        // fails here with "Data race detected between (1) non-atomic write
        // and (2) atomic load". Readers use the same per-word Acquire loads
        // as load_first/load_second while a writer runs fallback CAS2s.
        let p = Arc::new(AtomicPair::new(0, 0));
        let iters: u64 = if cfg!(miri) { 200 } else { 20_000 };
        let w = {
            let p = Arc::clone(&p);
            std::thread::spawn(move || {
                let mut cur = (0u64, 0u64);
                for _ in 0..iters {
                    let next = if cur.0 == 0 {
                        (u64::MAX, u64::MAX)
                    } else {
                        (0, 0)
                    };
                    // SAFETY: the fallback serializes writers internally and
                    // readers only use atomic loads — the property under test.
                    assert_eq!(
                        super::fallback::cmpxchg16b(p.words.get(), cur, next),
                        Ok(())
                    );
                    cur = next;
                }
            })
        };
        for _ in 0..iters {
            let a = p.load_first();
            let b = p.load_second();
            assert!(a == 0 || a == u64::MAX, "impossible word value {a}");
            assert!(b == 0 || b == u64::MAX, "impossible word value {b}");
        }
        w.join().unwrap();
    }

    #[test]
    fn counts_attempts_and_failures() {
        use lcrq_util::metrics::{self, Event};
        let p = AtomicPair::new(0, 0);
        let before = metrics::local_snapshot();
        let _ = p.compare_exchange((0, 0), (1, 1)); // success
        let _ = p.compare_exchange((0, 0), (1, 1)); // failure
        let d = metrics::local_snapshot().delta_since(&before);
        assert_eq!(d.get(Event::Cas2Attempt), 2);
        assert_eq!(d.get(Event::Cas2Failure), 1);
    }

    #[test]
    fn concurrent_increments_via_cas2_lose_nothing() {
        // 4 threads, each performs 10_000 successful CAS2 increments of both
        // halves; the total must be exact — the whole point of double-width CAS.
        let p = Arc::new(AtomicPair::new(0, 0));
        let threads = 4;
        let per = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let p = Arc::clone(&p);
                std::thread::spawn(move || {
                    for _ in 0..per {
                        loop {
                            let cur = p.load();
                            if p.compare_exchange(cur, (cur.0 + 1, cur.1 + 2)).is_ok() {
                                break;
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(p.load(), (threads * per, threads * per * 2));
    }

    #[test]
    fn pair_load_is_never_torn() {
        // Writer flips between (A, A) and (B, B); readers must never observe
        // a mixed pair via the 128-bit load.
        let p = Arc::new(AtomicPair::new(0, 0));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let w = {
            let p = Arc::clone(&p);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut cur = (0u64, 0u64);
                while !stop.load(Ordering::Relaxed) {
                    let next = if cur.0 == 0 {
                        (u64::MAX, u64::MAX)
                    } else {
                        (0, 0)
                    };
                    assert_eq!(p.compare_exchange(cur, next), Ok(()));
                    cur = next;
                }
            })
        };
        for _ in 0..50_000 {
            let (a, b) = p.load();
            assert_eq!(a, b, "torn 128-bit read");
        }
        stop.store(true, Ordering::Relaxed);
        w.join().unwrap();
    }

    #[test]
    fn fallback_agrees_with_semantics() {
        // Exercise the portable fallback directly (it is compiled on x86 too).
        let mut cell = [1u64, 2u64];
        let ptr = &mut cell as *mut [u64; 2];
        assert_eq!(super::fallback::cmpxchg16b(ptr, (1, 2), (3, 4)), Ok(()));
        assert_eq!(cell, [3, 4]);
        assert_eq!(
            super::fallback::cmpxchg16b(ptr, (1, 2), (9, 9)),
            Err((3, 4))
        );
        assert_eq!(cell, [3, 4]);
    }

    #[test]
    fn fallback_concurrent_counter_is_exact() {
        struct SendPtr(*mut [u64; 2]);
        unsafe impl Send for SendPtr {}
        let cell = Box::leak(Box::new([0u64, 0u64])) as *mut [u64; 2];
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let p = SendPtr(cell);
                std::thread::spawn(move || {
                    let p = p;
                    for _ in 0..5_000 {
                        loop {
                            // SAFETY: all accesses in this test go through the
                            // fallback's stripe lock.
                            let cur = match super::fallback::cmpxchg16b(p.0, (0, 0), (0, 0)) {
                                Ok(()) => (0, 0),
                                Err(c) => c,
                            };
                            if super::fallback::cmpxchg16b(p.0, cur, (cur.0 + 1, cur.1 + 1)).is_ok()
                            {
                                break;
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // SAFETY: all writers joined.
        let v = unsafe { *cell };
        assert_eq!(v, [20_000, 20_000]);
        // SAFETY: cell came from Box::leak above and has no other owners.
        unsafe { drop(Box::from_raw(cell)) };
    }
}

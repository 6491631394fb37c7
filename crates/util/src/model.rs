//! An in-tree, loom-style model checker: bounded-exhaustive exploration of
//! thread interleavings for the library's hand-rolled synchronization
//! protocols (the seqlock CAS2 fallback, the list of rings' sealed close
//! and kept hazard slots, the channel's wait and capacity protocols).
//!
//! # Why in-tree
//!
//! The workspace builds with **no registry dependencies** (DESIGN.md
//! "Offline build"), so the real `loom` crate is not available. This module
//! reimplements the part of loom this library actually needs: a controlled
//! scheduler that runs a test closure over *many distinct interleavings* of
//! its threads and fails loudly (with a replayable schedule) when any
//! interleaving panics, loses a wakeup (deadlocks), or violates an
//! assertion. The exploration is sequentially-consistent: it finds
//! *interleaving* bugs (lost wakeups, torn multi-word updates, ABA races,
//! broken mutual exclusion), while *ordering*-level weakness (a `Relaxed`
//! that must be `Acquire`) is covered by the Miri and aarch64/QEMU CI legs
//! (see DESIGN.md "Weak memory & model checking" for the exact split).
//!
//! # How it works
//!
//! Every instrumented operation — an access through the
//! [`sync`] shim atomics, a [`sync::Mutex`] lock, a [`thread::park`], a
//! [`thread::spawn`]/join — is a
//! *decision point*: the running thread pauses and the scheduler picks who
//! runs next. Exactly one thread runs between decision points, so each
//! execution is a deterministic function of the decision sequence. The
//! driver enumerates decision sequences depth-first, bounded CHESS-style by
//! a **preemption budget** (unforced context switches per execution,
//! default 2 — the empirical sweet spot for finding real concurrency bugs
//! without exponential blowup), a per-execution step bound, and a total
//! execution cap.
//!
//! Deadlock (every live thread blocked with nothing schedulable) is
//! detected and reported with the schedule that produced it — this is how a
//! lost wakeup manifests: a parked thread whose unpark token nobody sets.
//! A park can additionally return *spuriously* (budgeted per execution), so
//! protocols must tolerate spurious wakes to pass.
//!
//! Production builds are untouched: the [`crate::sync`] facade re-exports
//! `core`/`std` primitives unless the crate is compiled with
//! `RUSTFLAGS="--cfg loom"` (the crossbeam convention), in which case it
//! re-exports [`model::sync`](self::sync) and the modeled code becomes
//! explorable. The engine itself compiles (and is unit-tested) in every
//! build.
//!
//! # Limits (documented, deliberate)
//!
//! * Sequentially-consistent exploration only — see above for what covers
//!   the rest.
//! * Timed parks ([`thread::park_timeout`]) are modeled as untimed: a model
//!   must be woken by an unpark or a spurious wake, never by the clock.
//!   Don't rely on timeouts inside a model.
//! * Exploration is bounded (preemption budget, step bound, execution cap);
//!   [`Report::complete`] says whether the bounded space was exhausted.

use core::sync::atomic::Ordering;
use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex as StdMutex};

/// Sentinel for "no thread is scheduled" (all finished).
const DONE: usize = usize::MAX;

/// Exploration bounds for a model run. The defaults suit protocol-sized
/// models (2–3 threads, tens of instrumented operations each).
#[derive(Clone, Copy, Debug)]
pub struct Builder {
    /// Unforced context switches allowed per execution (CHESS-style bound).
    /// Switches while the current thread is blocked are always free.
    pub preemption_bound: usize,
    /// Hard cap on distinct executions explored; exceeding it stops the
    /// search with [`Report::complete`] `= false`.
    pub max_executions: usize,
    /// Per-execution decision-point budget; an execution exceeding it is
    /// pruned (counted in [`Report::pruned`]) rather than failed.
    pub max_steps: usize,
    /// Spurious returns from `park` the scheduler may inject per execution.
    pub spurious_wakes: u32,
}

impl Default for Builder {
    fn default() -> Self {
        Self {
            preemption_bound: 2,
            max_executions: 10_000,
            max_steps: 20_000,
            spurious_wakes: 1,
        }
    }
}

impl Builder {
    /// A builder with the default bounds.
    pub fn new() -> Self {
        Self::default()
    }

    /// Explores interleavings of `f`, panicking (with the offending
    /// schedule) if any explored interleaving panics or deadlocks.
    ///
    /// `f` is re-run once per explored schedule, so all model state must be
    /// created inside it (the loom convention).
    pub fn check<F>(&self, f: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        // One model at a time, process-wide. Modeled code may touch
        // process-global state (the CAS2 fallback's lock stripe), and
        // `cargo test` runs tests on parallel threads: a second model
        // holding the stripe looks to this one like a deadlock, or like
        // nondeterminism on replay.
        static ONE_MODEL: StdMutex<()> = StdMutex::new(());
        let _one = ONE_MODEL.lock().unwrap_or_else(|e| e.into_inner());
        let f = Arc::new(f);
        let mut prefix: Vec<usize> = Vec::new();
        let mut executions = 0usize;
        let mut pruned = 0usize;
        let mut complete = true;
        loop {
            let (decisions, abort) = run_once(Arc::clone(&f), self, prefix.clone());
            executions += 1;
            match abort {
                None => {}
                Some(Abort::Pruned) => pruned += 1,
                Some(Abort::Deadlock(msg) | Abort::Panicked(msg) | Abort::Diverged(msg)) => {
                    let path: Vec<usize> = decisions.iter().map(|d| d.0).collect();
                    panic!(
                        "model check failed on execution {executions}: {msg}\n\
                         schedule (decision indices): {path:?}"
                    );
                }
            }
            // Depth-first backtrack: advance the deepest decision that
            // still has an unexplored sibling.
            let mut i = decisions.len();
            let mut found = false;
            while i > 0 {
                i -= 1;
                if decisions[i].0 + 1 < decisions[i].1 {
                    found = true;
                    break;
                }
            }
            if !found {
                break; // bounded space exhausted
            }
            if executions >= self.max_executions {
                complete = false;
                break;
            }
            prefix = decisions[..i].iter().map(|d| d.0).collect();
            prefix.push(decisions[i].0 + 1);
        }
        Report {
            executions,
            pruned,
            complete,
        }
    }
}

/// What a [`Builder::check`] run explored.
#[derive(Clone, Copy, Debug)]
pub struct Report {
    /// Distinct interleavings executed (including pruned ones).
    pub executions: usize,
    /// Executions cut short by the per-execution step bound.
    pub pruned: usize,
    /// Whether the bounded schedule space was exhausted (`false` when the
    /// execution cap stopped the search first).
    pub complete: bool,
}

/// Explores `f` with the default bounds, panicking on any failing
/// interleaving. See [`Builder::check`].
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    let _ = Builder::new().check(f);
}

/// Whether the calling thread is currently inside a model execution.
pub fn active() -> bool {
    CTX.with(|c| c.borrow().is_some())
}

/// Blocking acquire of a `false -> true` spinlock flag, for modeled code
/// whose production form is a spin loop. Under an active model the caller
/// blocks (schedulably) instead of spinning, which keeps the schedule
/// space finite; outside a model it spins exactly like production code.
pub fn acquire_flag(flag: &sync::AtomicBool) {
    loop {
        if flag
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            return;
        }
        if let Some((exec, me)) = ctx() {
            exec.block(me, Blocked::Flag(flag as *const _ as usize));
        } else {
            core::hint::spin_loop();
        }
    }
}

// ---------------------------------------------------------------------------
// Engine internals
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq)]
enum Blocked {
    /// Schedulable.
    No,
    /// Waiting for a write to the flag at this address (see `acquire_flag`).
    Flag(usize),
    /// Waiting for the model mutex at this address to be released.
    Mutex(usize),
    /// Parked ([`thread::park`]): schedulable once its unpark token is
    /// set, or spuriously.
    Park,
    /// Waiting for the thread with this id to finish.
    Join(usize),
    /// Finished.
    Done,
}

enum Abort {
    Pruned,
    Deadlock(String),
    Panicked(String),
    Diverged(String),
}

struct ExecState {
    threads: Vec<Blocked>,
    /// Each thread's unpark token (`std::thread::park`'s semantics).
    tokens: Vec<bool>,
    current: usize,
    steps: usize,
    preempt_left: usize,
    spurious_left: u32,
    prefix: Vec<usize>,
    cursor: usize,
    /// `(chosen option, option count)` per decision point.
    decisions: Vec<(usize, usize)>,
    abort: Option<Abort>,
}

struct Exec {
    st: StdMutex<ExecState>,
    cv: Condvar,
    handles: StdMutex<Vec<std::thread::JoinHandle<()>>>,
    max_steps: usize,
}

/// Panic payload used to unwind worker threads out of an aborted
/// execution; swallowed by the per-thread `catch_unwind` wrapper.
struct ModelAbort;

thread_local! {
    static CTX: RefCell<Option<(Arc<Exec>, usize)>> = const { RefCell::new(None) };
}

fn ctx() -> Option<(Arc<Exec>, usize)> {
    // `try_with`: a shim op in some other thread-local's destructor may run
    // after `CTX` itself is gone, and is then simply not instrumented.
    CTX.try_with(|c| c.borrow().clone()).ok().flatten()
}

fn lock_st(e: &Exec) -> std::sync::MutexGuard<'_, ExecState> {
    e.st.lock().unwrap_or_else(|p| p.into_inner())
}

impl Exec {
    /// Picks the next thread to run. `me` is the caller; its state in
    /// `st.threads` must already reflect whether it stays schedulable.
    fn schedule_next(&self, st: &mut ExecState, me: usize) {
        let me_runnable = st.threads[me] == Blocked::No;
        let mut options: Vec<(usize, bool)> = Vec::new();
        if me_runnable {
            options.push((me, false));
        }
        // Switching away from a runnable thread costs preemption budget;
        // switching off a blocked thread is always free.
        if !me_runnable || st.preempt_left > 0 {
            for (tid, b) in st.threads.iter().enumerate() {
                if tid == me {
                    continue;
                }
                match b {
                    Blocked::No => options.push((tid, false)),
                    Blocked::Park if st.tokens[tid] => options.push((tid, false)),
                    Blocked::Park if st.spurious_left > 0 => options.push((tid, true)),
                    _ => {}
                }
            }
        }
        if options.is_empty() {
            if st.threads.iter().all(|b| *b == Blocked::Done) {
                st.current = DONE;
            } else {
                st.abort = Some(Abort::Deadlock(format!(
                    "deadlock: no schedulable thread (states: {:?})",
                    st.threads
                )));
            }
            self.cv.notify_all();
            return;
        }
        let idx = if st.cursor < st.prefix.len() {
            st.prefix[st.cursor]
        } else {
            0
        };
        st.cursor += 1;
        if idx >= options.len() {
            st.abort = Some(Abort::Diverged(format!(
                "replay diverged: decision {} wants option {idx} of {} — \
                 the model closure is nondeterministic (time, addresses, or \
                 ambient randomness leaked into scheduling-visible behavior)",
                st.cursor - 1,
                options.len()
            )));
            self.cv.notify_all();
            return;
        }
        st.decisions.push((idx, options.len()));
        let (tid, spurious) = options[idx];
        if me_runnable && tid != me {
            st.preempt_left -= 1;
        }
        if spurious {
            st.spurious_left -= 1;
        }
        if st.threads[tid] == Blocked::Park {
            st.tokens[tid] = false;
        }
        st.threads[tid] = Blocked::No;
        st.current = tid;
        self.cv.notify_all();
    }

    /// Non-blocking decision point: lets the scheduler preempt here. Never
    /// panics (safe to call from drop glue); under an aborted execution it
    /// is a no-op.
    fn switch(&self, me: usize) {
        let mut st = lock_st(self);
        if st.abort.is_some() {
            return;
        }
        st.steps += 1;
        if st.steps > self.max_steps {
            st.abort = Some(Abort::Pruned);
            self.cv.notify_all();
            return;
        }
        self.schedule_next(&mut st, me);
        while st.abort.is_none() && st.current != me {
            st = self.cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Blocks `me` with reason `b` until rescheduled. Panics with
    /// [`ModelAbort`] if the execution aborts while blocked (unwinding the
    /// worker out of user code; its wrapper swallows the payload).
    fn block(&self, me: usize, b: Blocked) {
        let mut st = lock_st(self);
        if st.abort.is_some() {
            drop(st);
            panic::panic_any(ModelAbort);
        }
        st.steps += 1;
        if st.steps > self.max_steps {
            st.abort = Some(Abort::Pruned);
            self.cv.notify_all();
            drop(st);
            panic::panic_any(ModelAbort);
        }
        st.threads[me] = b;
        self.schedule_next(&mut st, me);
        loop {
            if st.abort.is_some() {
                drop(st);
                panic::panic_any(ModelAbort);
            }
            if st.current == me {
                return;
            }
            st = self.cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// First wait of a freshly spawned thread (no decision is consumed —
    /// the spawner's switch already made one).
    fn initial_wait(&self, me: usize) {
        let mut st = lock_st(self);
        loop {
            if st.abort.is_some() {
                drop(st);
                panic::panic_any(ModelAbort);
            }
            if st.current == me {
                return;
            }
            st = self.cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Marks `me` finished, wakes joiners, and schedules a successor.
    fn finish(&self, me: usize) {
        let mut st = lock_st(self);
        st.threads[me] = Blocked::Done;
        for b in st.threads.iter_mut() {
            if *b == Blocked::Join(me) {
                *b = Blocked::No;
            }
        }
        if st.abort.is_some() {
            self.cv.notify_all();
            return;
        }
        if st.threads.iter().all(|b| *b == Blocked::Done) {
            st.current = DONE;
            self.cv.notify_all();
            return;
        }
        self.schedule_next(&mut st, me);
    }

    /// Records the first user panic as the execution's failure.
    fn record_panic(&self, msg: String) {
        let mut st = lock_st(self);
        if st.abort.is_none() {
            st.abort = Some(Abort::Panicked(msg));
        }
        self.cv.notify_all();
    }

    /// A write to `addr` happened: flag-blocked threads there may retry.
    fn wake_flag(&self, addr: usize) {
        let mut st = lock_st(self);
        for b in st.threads.iter_mut() {
            if *b == Blocked::Flag(addr) {
                *b = Blocked::No;
            }
        }
    }

    /// The model mutex at `addr` was released: its waiters may retry.
    fn wake_mutex(&self, addr: usize) {
        let mut st = lock_st(self);
        for b in st.threads.iter_mut() {
            if *b == Blocked::Mutex(addr) {
                *b = Blocked::No;
            }
        }
    }

    /// `me` parks: returns at once, through a decision point, if its token
    /// is set (consuming it); otherwise blocks until an unpark sets it or
    /// the scheduler wakes it spuriously.
    fn park(&self, me: usize) {
        let token = core::mem::take(&mut lock_st(self).tokens[me]);
        if token {
            self.switch(me);
        } else {
            self.block(me, Blocked::Park);
        }
    }

    /// Sets `tid`'s unpark token (not a decision point).
    fn unpark(&self, tid: usize) {
        lock_st(self).tokens[tid] = true;
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker thread panicked (non-string payload)".to_string()
    }
}

/// Runs `f` once under the schedule `prefix` (decisions beyond the prefix
/// default to "continue the current thread"). Returns the full decision
/// record and the abort reason, if any.
fn run_once<F>(f: Arc<F>, b: &Builder, prefix: Vec<usize>) -> (Vec<(usize, usize)>, Option<Abort>)
where
    F: Fn() + Send + Sync + 'static,
{
    let exec = Arc::new(Exec {
        st: StdMutex::new(ExecState {
            threads: vec![Blocked::No],
            tokens: vec![false],
            current: 0,
            steps: 0,
            preempt_left: b.preemption_bound,
            spurious_left: b.spurious_wakes,
            prefix,
            cursor: 0,
            decisions: Vec::new(),
            abort: None,
        }),
        cv: Condvar::new(),
        handles: StdMutex::new(Vec::new()),
        max_steps: b.max_steps,
    });
    let e2 = Arc::clone(&exec);
    let root = std::thread::spawn(move || {
        CTX.with(|c| *c.borrow_mut() = Some((Arc::clone(&e2), 0)));
        let r = panic::catch_unwind(AssertUnwindSafe(|| f()));
        if let Err(p) = r {
            if p.downcast_ref::<ModelAbort>().is_none() {
                e2.record_panic(panic_message(p.as_ref()));
            }
        }
        e2.finish(0);
        CTX.with(|c| *c.borrow_mut() = None);
    });
    {
        let mut st = lock_st(&exec);
        while !st.threads.iter().all(|b| *b == Blocked::Done) {
            st = exec.cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }
    let _ = root.join();
    for h in exec
        .handles
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .drain(..)
    {
        let _ = h.join();
    }
    let mut st = lock_st(&exec);
    (core::mem::take(&mut st.decisions), st.abort.take())
}

// ---------------------------------------------------------------------------
// Modeled thread API
// ---------------------------------------------------------------------------

/// Modeled threads: spawn/join and park/unpark participate in the
/// exploration.
pub mod thread {
    use super::*;

    /// Handle to a modeled thread; [`join`](JoinHandle::join) returns the
    /// closure's result exactly like `std::thread`.
    pub struct JoinHandle<T> {
        exec: Arc<Exec>,
        tid: usize,
        result: Arc<StdMutex<Option<std::thread::Result<T>>>>,
    }

    impl<T> JoinHandle<T> {
        /// Blocks (schedulably) until the thread finishes; returns its
        /// result, or `Err` with the panic payload if it panicked.
        pub fn join(self) -> std::thread::Result<T> {
            let (exec, me) = ctx().expect("model join outside a model execution");
            loop {
                {
                    let st = lock_st(&exec);
                    if st.threads[self.tid] == Blocked::Done {
                        break;
                    }
                }
                exec.block(me, Blocked::Join(self.tid));
            }
            self.result
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .take()
                .unwrap_or_else(|| Err(Box::new("model thread produced no result")))
        }
    }

    /// Spawns a modeled thread. Must be called from inside a model
    /// execution; the spawn itself is a decision point.
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let (exec, me) = ctx().expect("model::thread::spawn outside a model execution");
        let tid = {
            let mut st = lock_st(&exec);
            st.threads.push(Blocked::No);
            st.tokens.push(false);
            st.threads.len() - 1
        };
        let result: Arc<StdMutex<Option<std::thread::Result<T>>>> = Arc::new(StdMutex::new(None));
        let (e2, e3, r2) = (Arc::clone(&exec), Arc::clone(&exec), Arc::clone(&result));
        let real = std::thread::spawn(move || {
            // The body runs on an OS thread of its own, joined before the
            // scheduler hears the modeled thread finished: its thread-local
            // destructors (a hazard record going back to its domain, for the
            // next thread to reuse) then run at a fixed point of the
            // schedule instead of racing the threads still in it.
            let body = std::thread::spawn(move || {
                CTX.with(|c| *c.borrow_mut() = Some((Arc::clone(&e3), tid)));
                e3.initial_wait(tid);
                let r = panic::catch_unwind(AssertUnwindSafe(f));
                if let Err(p) = &r {
                    if p.downcast_ref::<ModelAbort>().is_none() {
                        e3.record_panic(panic_message(p.as_ref()));
                    }
                }
                *r2.lock().unwrap_or_else(|p| p.into_inner()) = Some(r);
                CTX.with(|c| *c.borrow_mut() = None);
            });
            let _ = body.join();
            e2.finish(tid);
        });
        exec.handles
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(real);
        exec.switch(me); // the spawned thread may be scheduled right here
        JoinHandle { exec, tid, result }
    }

    impl<T> Drop for JoinHandle<T> {
        fn drop(&mut self) {
            // The real OS thread is joined by the execution driver; nothing
            // to do here. (Field kept so an un-joined handle pins the
            // execution alive in debug dumps.)
            let _ = &self.exec;
        }
    }

    /// An explicit decision point (loom's `yield_now`).
    pub fn yield_now() {
        if let Some((exec, me)) = ctx() {
            exec.switch(me);
        } else {
            std::thread::yield_now();
        }
    }

    /// A handle for [`unpark`](Thread::unpark)ing a thread: the modeled
    /// thread inside a model, `std`'s outside one.
    #[derive(Clone)]
    pub struct Thread {
        std: std::thread::Thread,
        model: Option<(Arc<Exec>, usize)>,
    }

    impl Thread {
        /// Sets the thread's unpark token: its next [`park`] (or the one
        /// it is blocked in) returns.
        pub fn unpark(&self) {
            match &self.model {
                Some((exec, tid)) => exec.unpark(*tid),
                None => self.std.unpark(),
            }
        }
    }

    /// The calling thread's handle.
    pub fn current() -> Thread {
        Thread {
            std: std::thread::current(),
            model: ctx(),
        }
    }

    /// Blocks (schedulably) until the thread's unpark token is set, and
    /// consumes it; may return spuriously within the
    /// [`Builder::spurious_wakes`] budget. `std::thread::park` outside a
    /// model.
    pub fn park() {
        match ctx() {
            Some((exec, me)) => exec.park(me),
            None => std::thread::park(),
        }
    }

    /// [`park`] with a timeout. **Inside a model the timeout never fires**:
    /// a modeled parker must be unparked or spuriously woken (module docs,
    /// limits).
    pub fn park_timeout(dur: std::time::Duration) {
        match ctx() {
            Some((exec, me)) => exec.park(me),
            None => std::thread::park_timeout(dur),
        }
    }
}

// ---------------------------------------------------------------------------
// Modeled sync primitives
// ---------------------------------------------------------------------------

/// Drop-in instrumented stand-ins for `core::sync::atomic` and
/// `std::sync::Mutex`. Outside an active model execution they
/// delegate straight to the real primitives; inside one, every operation
/// is a scheduler decision point. The atomic wrappers are
/// `#[repr(transparent)]` over their `core` counterparts so pointer-cast
/// idioms (e.g. viewing an `UnsafeCell<[u64; 2]>` as two words) keep
/// working.
pub mod sync {
    use super::{ctx, Blocked};
    pub use core::sync::atomic::Ordering;
    use std::sync::{LockResult, Mutex as StdMutex, MutexGuard as StdMutexGuard, TryLockError};

    #[inline]
    fn decision_point() {
        if let Some((exec, me)) = ctx() {
            exec.switch(me);
        }
    }

    #[inline]
    fn wrote(addr: usize) {
        if let Some((exec, _)) = ctx() {
            exec.wake_flag(addr);
        }
    }

    macro_rules! shim_atomic_common {
        ($name:ident, $core:ty, $prim:ty) => {
            /// Instrumented counterpart of the same-named `core` atomic.
            #[repr(transparent)]
            #[derive(Debug, Default)]
            pub struct $name {
                inner: $core,
            }

            impl $name {
                /// Creates the atomic (const, usable in statics).
                pub const fn new(v: $prim) -> Self {
                    Self {
                        inner: <$core>::new(v),
                    }
                }

                /// See the `core` atomic's `load`.
                #[inline]
                pub fn load(&self, o: Ordering) -> $prim {
                    decision_point();
                    self.inner.load(o)
                }

                /// See the `core` atomic's `store`.
                #[inline]
                pub fn store(&self, v: $prim, o: Ordering) {
                    decision_point();
                    self.inner.store(v, o);
                    wrote(self as *const _ as usize);
                }

                /// See the `core` atomic's `swap`.
                #[inline]
                pub fn swap(&self, v: $prim, o: Ordering) -> $prim {
                    decision_point();
                    let r = self.inner.swap(v, o);
                    wrote(self as *const _ as usize);
                    r
                }

                /// See the `core` atomic's `compare_exchange`.
                #[inline]
                pub fn compare_exchange(
                    &self,
                    cur: $prim,
                    new: $prim,
                    ok: Ordering,
                    err: Ordering,
                ) -> Result<$prim, $prim> {
                    decision_point();
                    let r = self.inner.compare_exchange(cur, new, ok, err);
                    wrote(self as *const _ as usize);
                    r
                }

                /// See the `core` atomic's `compare_exchange_weak` (never
                /// fails spuriously under the model — SC exploration).
                #[inline]
                pub fn compare_exchange_weak(
                    &self,
                    cur: $prim,
                    new: $prim,
                    ok: Ordering,
                    err: Ordering,
                ) -> Result<$prim, $prim> {
                    self.compare_exchange(cur, new, ok, err)
                }

                /// Plain (non-instrumented) exclusive access.
                #[inline]
                pub fn get_mut(&mut self) -> &mut $prim {
                    self.inner.get_mut()
                }

                /// Consumes the atomic, returning the value.
                #[inline]
                pub fn into_inner(self) -> $prim {
                    self.inner.into_inner()
                }
            }
        };
    }

    macro_rules! shim_atomic_int {
        ($name:ident, $core:ty, $prim:ty) => {
            shim_atomic_common!($name, $core, $prim);

            impl $name {
                /// See the `core` atomic's `fetch_add`.
                #[inline]
                pub fn fetch_add(&self, v: $prim, o: Ordering) -> $prim {
                    decision_point();
                    let r = self.inner.fetch_add(v, o);
                    wrote(self as *const _ as usize);
                    r
                }

                /// See the `core` atomic's `fetch_sub`.
                #[inline]
                pub fn fetch_sub(&self, v: $prim, o: Ordering) -> $prim {
                    decision_point();
                    let r = self.inner.fetch_sub(v, o);
                    wrote(self as *const _ as usize);
                    r
                }

                /// See the `core` atomic's `fetch_or`.
                #[inline]
                pub fn fetch_or(&self, v: $prim, o: Ordering) -> $prim {
                    decision_point();
                    let r = self.inner.fetch_or(v, o);
                    wrote(self as *const _ as usize);
                    r
                }

                /// See the `core` atomic's `fetch_and`.
                #[inline]
                pub fn fetch_and(&self, v: $prim, o: Ordering) -> $prim {
                    decision_point();
                    let r = self.inner.fetch_and(v, o);
                    wrote(self as *const _ as usize);
                    r
                }
            }
        };
    }

    shim_atomic_common!(AtomicBool, core::sync::atomic::AtomicBool, bool);
    shim_atomic_int!(AtomicU32, core::sync::atomic::AtomicU32, u32);
    shim_atomic_int!(AtomicU64, core::sync::atomic::AtomicU64, u64);
    shim_atomic_int!(AtomicUsize, core::sync::atomic::AtomicUsize, usize);

    /// Instrumented counterpart of `core::sync::atomic::AtomicPtr`.
    #[repr(transparent)]
    #[derive(Debug, Default)]
    pub struct AtomicPtr<T> {
        inner: core::sync::atomic::AtomicPtr<T>,
    }

    impl<T> AtomicPtr<T> {
        /// Creates the atomic pointer (const, usable in statics).
        pub const fn new(p: *mut T) -> Self {
            Self {
                inner: core::sync::atomic::AtomicPtr::new(p),
            }
        }

        /// See `core`'s `AtomicPtr::load`.
        #[inline]
        pub fn load(&self, o: Ordering) -> *mut T {
            decision_point();
            self.inner.load(o)
        }

        /// See `core`'s `AtomicPtr::store`.
        #[inline]
        pub fn store(&self, p: *mut T, o: Ordering) {
            decision_point();
            self.inner.store(p, o);
            wrote(self as *const _ as usize);
        }

        /// See `core`'s `AtomicPtr::swap`.
        #[inline]
        pub fn swap(&self, p: *mut T, o: Ordering) -> *mut T {
            decision_point();
            let r = self.inner.swap(p, o);
            wrote(self as *const _ as usize);
            r
        }

        /// See `core`'s `AtomicPtr::compare_exchange`.
        #[inline]
        pub fn compare_exchange(
            &self,
            cur: *mut T,
            new: *mut T,
            ok: Ordering,
            err: Ordering,
        ) -> Result<*mut T, *mut T> {
            decision_point();
            let r = self.inner.compare_exchange(cur, new, ok, err);
            wrote(self as *const _ as usize);
            r
        }

        /// See `core`'s `AtomicPtr::compare_exchange_weak`.
        #[inline]
        pub fn compare_exchange_weak(
            &self,
            cur: *mut T,
            new: *mut T,
            ok: Ordering,
            err: Ordering,
        ) -> Result<*mut T, *mut T> {
            self.compare_exchange(cur, new, ok, err)
        }

        /// Plain (non-instrumented) exclusive access.
        #[inline]
        pub fn get_mut(&mut self) -> &mut *mut T {
            self.inner.get_mut()
        }
    }

    /// Instrumented counterpart of `std::sync::Mutex`. Inside a model,
    /// contended locks block schedulably (never poisoned-panic).
    #[derive(Debug, Default)]
    pub struct Mutex<T> {
        inner: StdMutex<T>,
    }

    /// Guard for [`Mutex`]; releasing it wakes modeled waiters.
    #[derive(Debug)]
    pub struct MutexGuard<'a, T> {
        lock: &'a Mutex<T>,
        g: Option<StdMutexGuard<'a, T>>,
    }

    impl<T> Mutex<T> {
        /// Creates the mutex (const, usable in statics).
        pub const fn new(v: T) -> Self {
            Self {
                inner: StdMutex::new(v),
            }
        }

        fn addr(&self) -> usize {
            self as *const _ as usize
        }

        /// Locks, blocking schedulably inside a model. Always returns
        /// `Ok` (the model never observes poisoning it didn't cause).
        pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
            if let Some((exec, me)) = ctx() {
                loop {
                    exec.switch(me);
                    match self.inner.try_lock() {
                        Ok(g) => {
                            return Ok(MutexGuard {
                                lock: self,
                                g: Some(g),
                            })
                        }
                        Err(TryLockError::Poisoned(p)) => {
                            return Ok(MutexGuard {
                                lock: self,
                                g: Some(p.into_inner()),
                            })
                        }
                        Err(TryLockError::WouldBlock) => {
                            exec.block(me, Blocked::Mutex(self.addr()));
                        }
                    }
                }
            } else {
                let g = self.inner.lock().unwrap_or_else(|p| p.into_inner());
                Ok(MutexGuard {
                    lock: self,
                    g: Some(g),
                })
            }
        }

        /// Plain (non-instrumented) exclusive access.
        pub fn get_mut(&mut self) -> &mut T {
            self.inner.get_mut().unwrap_or_else(|p| p.into_inner())
        }
    }

    impl<T> core::ops::Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.g.as_ref().expect("guard taken")
        }
    }

    impl<T> core::ops::DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.g.as_mut().expect("guard taken")
        }
    }

    impl<T> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            drop(self.g.take());
            if let Some((exec, _)) = ctx() {
                exec.wake_mutex(self.lock.addr());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::sync::{AtomicU64, Mutex, Ordering};
    use super::*;
    use std::sync::Arc;

    #[test]
    fn atomic_increments_commute_and_multiple_interleavings_run() {
        let report = Builder::new().check(|| {
            let a = Arc::new(AtomicU64::new(0));
            let (a1, a2) = (Arc::clone(&a), Arc::clone(&a));
            let t1 = thread::spawn(move || {
                a1.fetch_add(1, Ordering::SeqCst);
            });
            let t2 = thread::spawn(move || {
                a2.fetch_add(1, Ordering::SeqCst);
            });
            t1.join().unwrap();
            t2.join().unwrap();
            assert_eq!(a.load(Ordering::SeqCst), 2);
        });
        assert!(
            report.executions > 1,
            "expected >1 interleaving: {report:?}"
        );
        assert_eq!(report.pruned, 0);
    }

    #[test]
    fn finds_lost_update_in_nonatomic_rmw() {
        // load-then-store instead of fetch_add: some interleaving loses an
        // increment, and the model must find it.
        let r = std::panic::catch_unwind(|| {
            Builder::new().check(|| {
                let a = Arc::new(AtomicU64::new(0));
                let (a1, a2) = (Arc::clone(&a), Arc::clone(&a));
                let t1 = thread::spawn(move || {
                    let v = a1.load(Ordering::SeqCst);
                    a1.store(v + 1, Ordering::SeqCst);
                });
                let t2 = thread::spawn(move || {
                    let v = a2.load(Ordering::SeqCst);
                    a2.store(v + 1, Ordering::SeqCst);
                });
                t1.join().unwrap();
                t2.join().unwrap();
                assert_eq!(a.load(Ordering::SeqCst), 2, "lost update");
            });
        });
        let msg = panic_message(r.expect_err("model must catch the lost update").as_ref());
        assert!(msg.contains("lost update"), "unexpected failure: {msg}");
    }

    #[test]
    fn detects_abba_deadlock() {
        let r = std::panic::catch_unwind(|| {
            Builder::new().check(|| {
                let a = Arc::new(Mutex::new(0u32));
                let b = Arc::new(Mutex::new(0u32));
                let (a1, b1) = (Arc::clone(&a), Arc::clone(&b));
                let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
                let t1 = thread::spawn(move || {
                    let _ga = a1.lock().unwrap();
                    let _gb = b1.lock().unwrap();
                });
                let t2 = thread::spawn(move || {
                    let _gb = b2.lock().unwrap();
                    let _ga = a2.lock().unwrap();
                });
                t1.join().unwrap();
                t2.join().unwrap();
            });
        });
        let msg = panic_message(r.expect_err("model must find the ABBA deadlock").as_ref());
        assert!(msg.contains("deadlock"), "unexpected failure: {msg}");
    }

    #[test]
    fn mutex_preserves_mutual_exclusion() {
        let report = Builder::new().check(|| {
            let m = Arc::new(Mutex::new(0u64));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let m = Arc::clone(&m);
                    thread::spawn(move || {
                        let mut g = m.lock().unwrap();
                        let v = *g;
                        *g = v + 1;
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(*m.lock().unwrap(), 2);
        });
        assert!(report.executions > 1);
    }

    /// The main thread waits for `flag` by parking; a second thread raises
    /// it and unparks main if main has announced itself (`waiting`). With
    /// `announce_first` main announces before it looks at the flag, the
    /// protocol the channel's waiters follow; without it, it announces after
    /// it looked, and the unpark can be skipped in between. Returns how many
    /// times main parked.
    fn park_model(announce_first: bool) -> u32 {
        let flag = Arc::new(sync::AtomicBool::new(false));
        let waiting = Arc::new(sync::AtomicBool::new(false));
        let me = thread::current();
        let (f2, w2) = (Arc::clone(&flag), Arc::clone(&waiting));
        let notifier = thread::spawn(move || {
            f2.store(true, Ordering::SeqCst);
            if w2.load(Ordering::SeqCst) {
                me.unpark();
            }
        });
        let mut parks = 0;
        loop {
            if announce_first {
                waiting.store(true, Ordering::SeqCst);
            }
            if flag.load(Ordering::SeqCst) {
                break;
            }
            waiting.store(true, Ordering::SeqCst);
            thread::park();
            parks += 1;
        }
        notifier.join().unwrap();
        parks
    }

    #[test]
    fn finds_lost_wakeup_in_unlocked_poll() {
        // Look, then announce, then park: the notifier can raise the flag
        // and find nobody announced in between -> lost wakeup, which the
        // model reports as a deadlock.
        let r = std::panic::catch_unwind(|| {
            Builder {
                spurious_wakes: 0, // a spurious wake would mask the bug
                ..Builder::new()
            }
            .check(|| {
                park_model(false);
            });
        });
        let msg = panic_message(r.expect_err("model must find the lost wakeup").as_ref());
        assert!(msg.contains("deadlock"), "unexpected failure: {msg}");
    }

    #[test]
    fn spurious_wakeups_are_injected_within_budget() {
        // Announce, then look, then park: never hangs. The unpark follows
        // the flag, so a second park means the first one returned with the
        // flag down and no token set: a spurious wake.
        use core::sync::atomic::AtomicUsize as RawUsize;
        let spurious_seen = Arc::new(RawUsize::new(0));
        let seen = Arc::clone(&spurious_seen);
        let report = Builder::new().check(move || {
            if park_model(true) > 1 {
                seen.fetch_add(1, core::sync::atomic::Ordering::Relaxed);
            }
        });
        assert!(report.executions > 1);
        assert!(
            spurious_seen.load(core::sync::atomic::Ordering::Relaxed) > 0,
            "no exploration injected a spurious wake"
        );
    }

    #[test]
    fn acquire_flag_is_a_blocking_lock_under_the_model() {
        let report = Builder::new().check(|| {
            let flag = Arc::new(sync::AtomicBool::new(false));
            let shared = Arc::new(AtomicU64::new(0));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let (f, s) = (Arc::clone(&flag), Arc::clone(&shared));
                    thread::spawn(move || {
                        acquire_flag(&f);
                        // Non-atomic RMW is safe *because* the flag is held.
                        let v = s.load(Ordering::SeqCst);
                        s.store(v + 1, Ordering::SeqCst);
                        f.store(false, Ordering::Release);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(shared.load(Ordering::SeqCst), 2);
        });
        assert!(report.executions > 1);
    }

    #[test]
    fn single_threaded_model_is_one_complete_execution() {
        let report = Builder::new().check(|| {
            let a = AtomicU64::new(41);
            a.fetch_add(1, Ordering::SeqCst);
            assert_eq!(a.load(Ordering::SeqCst), 42);
        });
        assert_eq!(report.executions, 1);
        assert!(report.complete);
    }

    #[test]
    fn execution_cap_reports_incomplete() {
        let report = Builder {
            max_executions: 3,
            ..Builder::new()
        }
        .check(|| {
            let a = Arc::new(AtomicU64::new(0));
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let a = Arc::clone(&a);
                    thread::spawn(move || {
                        a.fetch_add(1, Ordering::SeqCst);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        assert_eq!(report.executions, 3);
        assert!(!report.complete);
    }
}

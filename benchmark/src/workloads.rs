//! The six workloads. Each function runs ONE repetition: fresh queue or
//! channel, fresh pinned threads, a cold pass that only `setup_s` sees,
//! then one timed window, then a drain-dry and the delivery check.
//!
//! `TRACE` is a const parameter so that with tracing off the timed loops
//! contain no tracing code at all: end-to-end numbers come from those.

use std::hint::spin_loop;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use crate::adapter::{self, ChanRx, ChanTx, Counts, LcrqTarget, Target};
use crate::clock::{self, Epoch};
use crate::payload::{self, Check};
use crate::pin::{self, Cpus};
use crate::stats::Hist;
use crate::trace::{self, Call, Layer, Span};
use crate::{alloc, Rng};

/// Workload names, in the order they are run and reported.
pub const NAMES: [&str; 6] = [
    "solo_pairs",
    "duo_pairs",
    "burst_drain",
    "stream",
    "openloop_sparse",
    "openloop_dense",
];

/// Items per burst of `burst_drain`: 256 default-sized rings.
pub const BURST_ITEMS: u64 = 1 << 20;
/// Closed loops stamp one item in this many for `handoff_*`.
const HANDOFF_EVERY: u64 = 64;
/// Traced closed loops record a span for one call in this many (their calls
/// take well under 100 ns); the open loops record every call.
const SPAN_EVERY: u64 = 16;
/// Calls between two looks at the clock in a closed loop.
const BLOCK: u64 = 256;
/// Items sent one at a time, each after the last was acknowledged, by the
/// handoff probe of the two-thread closed loops.
const PROBE_ITEMS: u64 = 4096;
/// How long the probe's consumer waits for one item before calling it lost.
const PROBE_PATIENCE_NS: u64 = 100_000_000;

/// Nominal gap between sends of the open loops, and the cold-pass length.
const SPARSE_GAP_NS: u64 = 50_000; // 20 000 msg/s
const DENSE_GAP_NS: u64 = 1_000; // 1 000 000 msg/s

/// What one repetition needs from its caller.
pub struct Plan<'a> {
    pub cpus: &'a Cpus,
    pub seed: u64,
    pub window_ns: u64,
}

/// One worker thread's record of one repetition.
pub struct Side {
    thread: usize,
    cpu: usize,
    clock_cost: u64,
    /// Epoch time at which this worker finished the cold pass.
    ready_ns: u64,
    start_ns: u64,
    end_ns: u64,
    cpu_ns: u64,
    /// Pairs, sends or receives completed inside the timed window.
    items: u64,
    /// Time inside this side's own phases (`burst_drain`); the whole window
    /// elsewhere.
    active_ns: u64,
    check: Check,
    /// Stamped items of the timed window: enqueue or due time to dequeue.
    sojourn: Hist,
    /// Items of the handoff probe: one at a time through an empty queue.
    probe: Hist,
    put_ns: Hist,
    take_ns: Hist,
    spans: Vec<Span>,
    counts: Counts,
    allocs: u64,
    heap_live: Vec<u64>,
    ring_count: usize,
    sends_late: u64,
    max_late_ns: u64,
}

impl Side {
    fn new(thread: usize, trace: bool) -> Self {
        Side {
            thread,
            cpu: usize::MAX,
            clock_cost: clock::clock_cost_ns() as u64,
            ready_ns: 0,
            start_ns: 0,
            end_ns: 0,
            cpu_ns: 0,
            items: 0,
            active_ns: 0,
            check: Check::default(),
            sojourn: Hist::new(),
            probe: Hist::new(),
            put_ns: Hist::new(),
            take_ns: Hist::new(),
            spans: Vec::with_capacity(if trace { trace::SPANS_PER_THREAD } else { 0 }),
            counts: Counts::new(),
            allocs: 0,
            heap_live: Vec::with_capacity(64),
            ring_count: 0,
            sends_late: 0,
            max_late_ns: 0,
        }
    }

    #[inline]
    fn span(&mut self, call: Call, item: Option<u64>, start_ns: u64, end_ns: u64) {
        let took = (end_ns - start_ns).saturating_sub(self.clock_cost);
        match call {
            Call::Put => self.put_ns.record(took),
            Call::Take => self.take_ns.record(took),
        }
        if self.spans.len() < self.spans.capacity() {
            self.spans.push(Span {
                call,
                thread: self.thread as u8,
                item_producer: item.map_or(0, |p| payload::producer_of(p) as u8),
                item_seq: item.map_or(u32::MAX, |p| payload::seq_of(p) as u32),
                start_ns,
                end_ns,
            });
        }
    }

    /// Makes one call into the program; when `traced`, inside a span. `item`
    /// picks the item the span is about out of what the call returned.
    #[inline(always)]
    fn call<R>(
        &mut self,
        traced: bool,
        epoch: &Epoch,
        call: Call,
        f: impl FnOnce() -> R,
        item: impl FnOnce(&R) -> Option<u64>,
    ) -> R {
        if !traced {
            return f();
        }
        let start_ns = epoch.ns();
        let r = f();
        let end_ns = epoch.ns();
        self.span(call, item(&r), start_ns, end_ns);
        r
    }

    /// Takes until the layer is empty, checking every item.
    fn drain_dry<T: Target>(&mut self, t: &T) {
        while let Some(item) = t.take() {
            self.check.on_take(item);
        }
        self.check.on_empty();
    }

    /// Records how long a delivered item was under way, if it was stamped.
    /// The interval holds one clock read (about 25 ns); it is left in, since
    /// subtracting a per-process calibration would add that calibration's
    /// run-to-run error to a metric that is gated.
    #[inline]
    fn sojourn(&mut self, item: u64, epoch: &Epoch) {
        if let Some(age) = payload::age_ns(item, || epoch.ns()) {
            self.sojourn.record(age);
        }
    }

    /// Producer half of the handoff probe: `PROBE_ITEMS` stamped items, each
    /// put only after `acked` says the one before has been taken, so every
    /// item crosses an empty queue to a consumer that is already waiting.
    fn probe_put(
        &mut self,
        epoch: &Epoch,
        acked: &AtomicU64,
        seq: &mut u64,
        put: impl Fn(u64) -> bool,
    ) {
        for k in 0..PROBE_ITEMS {
            while acked.load(Ordering::Acquire) < k {
                spin_loop();
            }
            let item = payload::encode(self.thread, *seq, Some(epoch.ns()));
            self.check.on_put(item);
            if !put(item) {
                self.check.errors += 1;
            }
            *seq += 1;
        }
    }

    /// Consumer half of the handoff probe. `take` returns `None` when the
    /// layer had nothing (a non-blocking layer is polled).
    fn probe_take(&mut self, epoch: &Epoch, acked: &AtomicU64, take: impl Fn() -> Option<u64>) {
        for k in 0..PROBE_ITEMS {
            let asked = epoch.ns();
            let mut polls = 0u32;
            let got = loop {
                if let Some(item) = take() {
                    break Some(item);
                }
                self.check.on_empty();
                polls = polls.wrapping_add(1);
                if polls.is_multiple_of(1024) && epoch.ns() - asked > PROBE_PATIENCE_NS {
                    break None;
                }
                spin_loop();
            };
            match got {
                Some(item) => {
                    self.check.on_take(item);
                    if let Some(age) = payload::age_ns(item, || epoch.ns()) {
                        self.probe.record(age);
                    }
                }
                None => self.check.missing += 1,
            }
            acked.store(k + 1, Ordering::Release);
        }
    }

    fn open_window(&mut self, epoch: &Epoch, trace: bool) -> Window {
        let w = Window {
            counts: if trace {
                adapter::thread_counts()
            } else {
                Counts::new()
            },
            allocs: alloc::allocs(),
            cpu_ns: clock::thread_cpu_ns(),
        };
        self.start_ns = epoch.ns();
        w
    }

    fn close_window(&mut self, epoch: &Epoch, trace: bool, opened: Window) {
        self.end_ns = epoch.ns();
        self.cpu_ns = clock::thread_cpu_ns().saturating_sub(opened.cpu_ns);
        self.allocs = alloc::allocs().saturating_sub(opened.allocs);
        if self.active_ns == 0 {
            self.active_ns = self.end_ns - self.start_ns;
        }
        if trace {
            for (name, now) in adapter::thread_counts() {
                let before = opened.counts.get(name).copied().unwrap_or(0);
                if now > before {
                    self.counts.insert(name, now - before);
                }
            }
        }
    }
}

/// What a worker read when its timed window opened.
struct Window {
    counts: Counts,
    allocs: u64,
    cpu_ns: u64,
}

/// All workers of a repetition pass each gate together.
struct Gate(AtomicUsize);

impl Gate {
    fn wait(&self, parties: usize) {
        let arrived = self.0.fetch_add(1, Ordering::AcqRel) + 1;
        let full = arrived.div_ceil(parties) * parties;
        while self.0.load(Ordering::Acquire) < full {
            spin_loop();
        }
    }
}

/// One repetition's results, before any aggregation.
pub struct Rep {
    pub traced: bool,
    pub setup_s: f64,
    pub ops_per_s: f64,
    /// What `handoff_*` reports: the probe on two-thread closed loops, the
    /// window's stamped items elsewhere.
    pub handoff: Hist,
    /// Stamped items of the timed window.
    pub sojourn: Hist,
    pub consumer_cpu_share: f64,
    pub producer_cpu_share: f64,
    pub heap_live_bytes: f64,
    /// Items delivered inside the timed window.
    pub items: u64,
    pub allocs: u64,
    pub check: Check,
    pub producer_ns_per_op: f64,
    pub consumer_ns_per_op: f64,
    pub put_ns: Hist,
    pub take_ns: Hist,
    pub counts: Counts,
    pub spans: Vec<Span>,
    pub ring_count_peak: usize,
    pub late_share: f64,
    pub max_late_ns: u64,
}

/// Which worker plays which part when the sides are folded into a `Rep`.
struct Roles {
    producer: usize,
    consumer: usize,
    /// Calls each side makes per item it counts (2 for a pair, 1 otherwise).
    calls_per_item: u64,
}

fn assemble(traced: bool, sides: Vec<Side>, roles: Roles, items: u64, ops_per_s: f64) -> Rep {
    let cpus: Vec<usize> = sides.iter().map(|s| s.cpu).collect();
    pin::assert_distinct(&cpus);
    let share = |s: &Side| s.cpu_ns as f64 / (s.end_ns - s.start_ns).max(1) as f64;
    let per_op = |s: &Side| s.active_ns as f64 / (s.items * roles.calls_per_item).max(1) as f64;
    let (p, c) = (&sides[roles.producer], &sides[roles.consumer]);
    let mut heap: Vec<f64> = sides
        .iter()
        .flat_map(|s| s.heap_live.iter().map(|&b| b as f64))
        .collect();
    heap.sort_by(f64::total_cmp);
    let sends = p.check.sent.max(1);
    let mut rep = Rep {
        traced,
        setup_s: sides.iter().map(|s| s.ready_ns).max().unwrap_or(0) as f64 / 1e9,
        ops_per_s,
        handoff: Hist::new(),
        sojourn: Hist::new(),
        consumer_cpu_share: share(c),
        producer_cpu_share: share(p),
        heap_live_bytes: heap.get(heap.len() / 2).copied().unwrap_or(0.0),
        items,
        allocs: sides.iter().map(|s| s.allocs).max().unwrap_or(0),
        check: Check::default(),
        producer_ns_per_op: per_op(p),
        consumer_ns_per_op: per_op(c),
        put_ns: Hist::new(),
        take_ns: Hist::new(),
        counts: Counts::new(),
        spans: Vec::new(),
        ring_count_peak: sides.iter().map(|s| s.ring_count).max().unwrap_or(0),
        late_share: p.sends_late as f64 / sends as f64,
        max_late_ns: p.max_late_ns,
    };
    for s in sides {
        rep.handoff.merge(&s.probe);
        rep.sojourn.merge(&s.sojourn);
        rep.put_ns.merge(&s.put_ns);
        rep.take_ns.merge(&s.take_ns);
        rep.check.merge(&s.check);
        for (name, n) in s.counts {
            *rep.counts.entry(name).or_insert(0) += n;
        }
        rep.spans.extend(s.spans);
    }
    if rep.handoff.count() == 0 {
        // No probe ran (one thread, or an open loop): every stamped item of
        // the window already crossed a queue the benchmark kept shallow.
        rep.handoff = rep.sojourn.clone();
    }
    rep
}

/// Runs `worker(side, handle)` on one thread per side and returns the sides.
fn run_sides<H: Send, F>(sides: Vec<(Side, H)>, worker: F) -> Vec<Side>
where
    F: Fn(Side, H) -> Side + Sync,
{
    std::thread::scope(|scope| {
        let handles: Vec<_> = sides
            .into_iter()
            .map(|(side, handle)| {
                let worker = &worker;
                scope.spawn(move || worker(side, handle))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a benchmark worker panicked"))
            .collect()
    })
}

// ---------------------------------------------------------------- pairs

/// One enqueue and one dequeue by the same thread, checked and, when asked,
/// stamped and traced.
#[inline(always)]
fn pair<T: Target, const TRACE: bool>(
    t: &T,
    w: &mut Side,
    epoch: &Epoch,
    seq: u64,
    solo: bool,
    think: Option<&mut Rng>,
) {
    let stamp = seq.is_multiple_of(HANDOFF_EVERY).then(|| epoch.ns());
    let item = payload::encode(w.thread, seq, stamp);
    let traced = TRACE && seq.is_multiple_of(SPAN_EVERY);
    w.call(traced, epoch, Call::Put, || t.put(item), |_| Some(item));
    w.check.on_put(item);
    let mut think = think;
    if let Some(rng) = think.as_deref_mut() {
        clock::spin(rng.think_iters());
    }
    match w.call(traced, epoch, Call::Take, || t.take(), |got| *got) {
        Some(item) => {
            w.check.on_take(item);
            w.sojourn(item, epoch);
        }
        // Alone on the queue, the item just put must be there.
        None if solo => {
            w.check.missing += 1;
            w.check.on_empty();
        }
        None => w.check.on_empty(),
    }
    if let Some(rng) = think {
        clock::spin(rng.think_iters());
    }
}

/// `solo_pairs` (1 thread, no think time) and `duo_pairs` (2 threads,
/// seeded 50–150 ns think time after every call) over any layer.
pub fn pairs<T: Target, const TRACE: bool>(
    plan: &Plan,
    make: impl FnOnce() -> T,
    threads: usize,
    think: bool,
    cold_pairs: u64,
) -> Rep {
    let sides: Vec<Side> = (0..threads).map(|i| Side::new(i, TRACE)).collect();
    let heap0 = alloc::live_bytes();
    let epoch = Epoch::start();
    let target = make();
    let sides = sides.into_iter().map(|s| (s, target.clone())).collect();
    let gate = Gate(AtomicUsize::new(0));
    let acked = AtomicU64::new(0);
    let solo = threads == 1;
    let sides = run_sides(sides, |mut w, t| {
        w.cpu = plan.cpus.pin_worker(w.thread);
        let mut rng = Rng::new(plan.seed, w.thread as u64);
        let mut seq = 0;
        for _ in 0..cold_pairs {
            pair::<T, false>(&t, &mut w, &epoch, seq, solo, think.then_some(&mut rng));
            seq += 1;
        }
        w.ready_ns = epoch.ns();
        if !solo {
            // Handoff probe, on a queue worker 0 has first drained dry.
            gate.wait(threads);
            if w.thread == 0 {
                w.drain_dry(&t);
            }
            gate.wait(threads);
            if w.thread == 0 {
                w.probe_put(&epoch, &acked, &mut seq, |item| {
                    t.put(item);
                    true
                });
            } else {
                w.probe_take(&epoch, &acked, || t.take());
            }
        }
        gate.wait(threads);
        let opened = w.open_window(&epoch, TRACE);
        let deadline = w.start_ns + plan.window_ns;
        let first = seq;
        while epoch.ns() < deadline {
            for _ in 0..BLOCK {
                pair::<T, TRACE>(&t, &mut w, &epoch, seq, solo, think.then_some(&mut rng));
                seq += 1;
            }
        }
        w.items = seq - first;
        w.close_window(&epoch, TRACE, opened);
        if w.thread == 0 {
            w.heap_live.push(alloc::live_bytes().saturating_sub(heap0));
            w.ring_count = t.ring_count();
        }
        // Everyone has stopped putting: worker 0 drains the queue dry.
        gate.wait(threads);
        if w.thread == 0 {
            w.drain_dry(&t);
        }
        w
    });
    drop(target);
    let items = sides.iter().map(|s| s.items).sum();
    let ops_per_s = sides
        .iter()
        .map(|s| s.items as f64 * 1e9 / (s.end_ns - s.start_ns).max(1) as f64)
        .sum();
    let roles = Roles {
        producer: 0,
        consumer: threads - 1,
        calls_per_item: 2,
    };
    assemble(TRACE, sides, roles, items, ops_per_s)
}

pub fn solo_pairs<const TRACE: bool>(plan: &Plan) -> Rep {
    pairs::<_, TRACE>(plan, LcrqTarget::new, 1, false, 1 << 20)
}

pub fn duo_pairs<const TRACE: bool>(plan: &Plan) -> Rep {
    pairs::<_, TRACE>(plan, LcrqTarget::new, 2, true, 1 << 18)
}

// ---------------------------------------------------------- burst_drain

/// One producer fills `BURST_ITEMS`, then one consumer on the other CPU
/// drains to EMPTY, alternating until the window has passed. The first
/// burst is the cold pass.
pub fn burst_drain<const TRACE: bool>(plan: &Plan) -> Rep {
    let sides: Vec<Side> = (0..2).map(|i| Side::new(i, TRACE)).collect();
    let heap0 = alloc::live_bytes();
    let epoch = Epoch::start();
    let target = LcrqTarget::new();
    let sides = sides.into_iter().map(|s| (s, target.clone())).collect();
    let gate = Gate(AtomicUsize::new(0));
    // Bursts filled and bursts drained so far; the sides take turns on them.
    let filled = AtomicU64::new(0);
    let drained = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let acked = AtomicU64::new(0);

    let fill = |t: &LcrqTarget, w: &mut Side, seq: &mut u64, traced: bool| {
        for _ in 0..BURST_ITEMS {
            let stamp = (*seq).is_multiple_of(HANDOFF_EVERY).then(|| epoch.ns());
            let item = payload::encode(0, *seq, stamp);
            let traced = traced && (*seq).is_multiple_of(SPAN_EVERY);
            w.call(traced, &epoch, Call::Put, || t.put(item), |_| Some(item));
            w.check.on_put(item);
            *seq += 1;
        }
    };
    let drain = |t: &LcrqTarget, w: &mut Side, traced: bool| -> u64 {
        let mut n = 0u64;
        loop {
            let traced = traced && n.is_multiple_of(SPAN_EVERY);
            match w.call(traced, &epoch, Call::Take, || t.take(), |got| *got) {
                Some(item) => {
                    w.check.on_take(item);
                    w.sojourn(item, &epoch);
                    n += 1;
                }
                None => {
                    w.check.on_empty();
                    return n;
                }
            }
        }
    };

    let mut sides = run_sides(sides, |mut w, t| {
        w.cpu = plan.cpus.pin_worker(w.thread);
        if w.thread == 0 {
            let mut seq = 0;
            fill(&t, &mut w, &mut seq, false);
            filled.store(1, Ordering::Release);
            while drained.load(Ordering::Acquire) < 1 {
                spin_loop();
            }
            w.ready_ns = epoch.ns();
            w.probe_put(&epoch, &acked, &mut seq, |item| {
                t.put(item);
                true
            });
            gate.wait(2);
            let opened = w.open_window(&epoch, TRACE);
            let deadline = w.start_ns + plan.window_ns;
            let mut burst = 1;
            while epoch.ns() < deadline {
                let a = epoch.ns();
                fill(&t, &mut w, &mut seq, TRACE);
                w.active_ns += epoch.ns() - a;
                w.items += BURST_ITEMS;
                // Full depth: the reading `heap_live_bytes` reports.
                w.heap_live.push(alloc::live_bytes().saturating_sub(heap0));
                w.ring_count = w.ring_count.max(t.ring_count());
                burst += 1;
                filled.store(burst, Ordering::Release);
                while drained.load(Ordering::Acquire) < burst {
                    spin_loop();
                }
            }
            stop.store(true, Ordering::Release);
            w.close_window(&epoch, TRACE, opened);
        } else {
            while filled.load(Ordering::Acquire) < 1 {
                spin_loop();
            }
            if drain(&t, &mut w, false) != BURST_ITEMS {
                w.check.missing += 1;
            }
            drained.store(1, Ordering::Release);
            w.ready_ns = epoch.ns();
            w.probe_take(&epoch, &acked, || t.take());
            gate.wait(2);
            let opened = w.open_window(&epoch, TRACE);
            let mut burst = 1;
            loop {
                while filled.load(Ordering::Acquire) <= burst {
                    if stop.load(Ordering::Acquire) && filled.load(Ordering::Acquire) <= burst {
                        w.close_window(&epoch, TRACE, opened);
                        return w;
                    }
                    spin_loop();
                }
                let a = epoch.ns();
                let got = drain(&t, &mut w, TRACE);
                w.active_ns += epoch.ns() - a;
                w.items += got;
                // The burst was complete before the drain began, so a short
                // drain means items are gone.
                w.check.missing += BURST_ITEMS.saturating_sub(got);
                burst += 1;
                drained.store(burst, Ordering::Release);
            }
        }
        w
    });
    // Nothing may be left once the consumer has seen EMPTY after the last
    // burst.
    if target.take().is_some() {
        sides[1].check.errors += 1;
    }
    let items = sides[1].items;
    let wall = sides[1].end_ns.max(sides[0].end_ns) - sides[0].start_ns.min(sides[1].start_ns);
    let ops_per_s = items as f64 * 1e9 / wall.max(1) as f64;
    let roles = Roles {
        producer: 0,
        consumer: 1,
        calls_per_item: 1,
    };
    assemble(TRACE, sides, roles, items, ops_per_s)
}

// ------------------------------------------- stream and the open loops

/// How the producer of a channel workload decides when to send.
#[derive(Clone, Copy)]
enum Pace {
    /// As fast as backpressure allows; one item in `HANDOFF_EVERY` stamped
    /// with its send time.
    Closed,
    /// On a seeded schedule around `gap_ns`, whatever the consumer does;
    /// every item stamped with the time it was due.
    Open { gap_ns: u64 },
}

fn send_traced<const TRACE: bool>(tx: &ChanTx, w: &mut Side, epoch: &Epoch, item: u64, every: u64) {
    let traced = TRACE && payload::seq_of(item).is_multiple_of(every);
    let ok = w.call(traced, epoch, Call::Put, || tx.send(item), |_| Some(item));
    w.check.on_put(item);
    if !ok {
        w.check.errors += 1;
    }
}

/// Sends `count` items (or until `deadline_ns`, whichever is first).
#[allow(clippy::too_many_arguments)]
fn produce<const TRACE: bool>(
    tx: &ChanTx,
    w: &mut Side,
    epoch: &Epoch,
    pace: Pace,
    rng: &mut Rng,
    seq: &mut u64,
    count: u64,
    deadline_ns: u64,
) {
    let end = seq.saturating_add(count);
    match pace {
        Pace::Closed => {
            while *seq < end {
                for _ in 0..BLOCK.min(end - *seq) {
                    let stamp = (*seq).is_multiple_of(HANDOFF_EVERY).then(|| epoch.ns());
                    let item = payload::encode(0, *seq, stamp);
                    send_traced::<TRACE>(tx, w, epoch, item, SPAN_EVERY);
                    *seq += 1;
                }
                if epoch.ns() >= deadline_ns {
                    return;
                }
            }
        }
        Pace::Open { gap_ns } => {
            let mut due = epoch.ns() + gap_ns;
            while *seq < end && due < deadline_ns {
                let mut now = epoch.ns();
                while now < due {
                    spin_loop();
                    now = epoch.ns();
                }
                let late = now - due;
                if late > gap_ns {
                    w.sends_late += 1;
                }
                w.max_late_ns = w.max_late_ns.max(late);
                let item = payload::encode(0, *seq, Some(due));
                send_traced::<TRACE>(tx, w, epoch, item, 1);
                *seq += 1;
                // Seeded jitter of ±20 % around the nominal gap.
                due += gap_ns * 4 / 5 + rng.below((gap_ns * 2 / 5) as u32 + 1) as u64;
            }
        }
    }
}

/// Receives `count` items, or until the channel disconnects.
fn consume<const TRACE: bool>(
    rx: &ChanRx,
    w: &mut Side,
    epoch: &Epoch,
    count: u64,
    every: u64,
) -> u64 {
    let mut n = 0;
    while n < count {
        let traced = TRACE && n.is_multiple_of(every);
        match w.call(traced, epoch, Call::Take, || rx.recv(), |got| *got) {
            Some(item) => {
                w.check.on_take(item);
                w.sojourn(item, epoch);
                n += 1;
            }
            None => break,
        }
    }
    n
}

/// One end of a channel, handed to the worker that owns it.
enum Half {
    Tx(ChanTx),
    Rx(ChanRx),
}

fn link<const TRACE: bool>(
    plan: &Plan,
    make: fn() -> (ChanTx, ChanRx),
    pace: Pace,
    cold_items: u64,
) -> Rep {
    let sides: Vec<Side> = (0..2).map(|i| Side::new(i, TRACE)).collect();
    let heap0 = alloc::live_bytes();
    let epoch = Epoch::start();
    let (tx, rx) = make();
    // Each half moves into its worker; the producer's drop disconnects.
    let sides = sides
        .into_iter()
        .zip([Half::Tx(tx), Half::Rx(rx)])
        .collect();
    let gate = Gate(AtomicUsize::new(0));
    let acked = AtomicU64::new(0);
    let closed = matches!(pace, Pace::Closed);
    let span_every = match pace {
        Pace::Closed => SPAN_EVERY,
        Pace::Open { .. } => 1,
    };
    let sides = run_sides(sides, |mut w, half| {
        w.cpu = plan.cpus.pin_worker(w.thread);
        match half {
            Half::Tx(tx) => {
                let mut rng = Rng::new(plan.seed, 0);
                let mut seq = 0;
                produce::<false>(
                    &tx,
                    &mut w,
                    &epoch,
                    pace,
                    &mut rng,
                    &mut seq,
                    cold_items,
                    u64::MAX,
                );
                w.ready_ns = epoch.ns();
                if closed {
                    w.probe_put(&epoch, &acked, &mut seq, |item| tx.send(item));
                }
                gate.wait(2);
                let opened = w.open_window(&epoch, TRACE);
                let deadline = w.start_ns + plan.window_ns;
                let first = seq;
                produce::<TRACE>(
                    &tx,
                    &mut w,
                    &epoch,
                    pace,
                    &mut rng,
                    &mut seq,
                    u64::MAX,
                    deadline,
                );
                w.items = seq - first;
                w.close_window(&epoch, TRACE, opened);
                drop(tx);
            }
            Half::Rx(rx) => {
                let cold = consume::<false>(&rx, &mut w, &epoch, cold_items, span_every);
                if cold != cold_items {
                    w.check.errors += 1;
                }
                w.ready_ns = epoch.ns();
                if closed {
                    w.probe_take(&epoch, &acked, || rx.recv());
                }
                gate.wait(2);
                let opened = w.open_window(&epoch, TRACE);
                w.items = consume::<TRACE>(&rx, &mut w, &epoch, u64::MAX, span_every);
                w.close_window(&epoch, TRACE, opened);
                w.heap_live.push(alloc::live_bytes().saturating_sub(heap0));
                // Disconnected means closed and drained: a further item is one
                // the channel had hidden.
                if rx.recv().is_some() {
                    w.check.errors += 1;
                }
            }
        }
        w
    });
    let c = &sides[1];
    let items = c.items;
    let ops_per_s = items as f64 * 1e9 / (c.end_ns - c.start_ns).max(1) as f64;
    let roles = Roles {
        producer: 0,
        consumer: 1,
        calls_per_item: 1,
    };
    assemble(TRACE, sides, roles, items, ops_per_s)
}

pub fn stream<const TRACE: bool>(plan: &Plan) -> Rep {
    link::<TRACE>(plan, adapter::bounded_link, Pace::Closed, 1 << 18)
}

pub fn openloop_sparse<const TRACE: bool>(plan: &Plan) -> Rep {
    let pace = Pace::Open {
        gap_ns: SPARSE_GAP_NS,
    };
    link::<TRACE>(plan, adapter::unbounded_link, pace, 1 << 11)
}

pub fn openloop_dense<const TRACE: bool>(plan: &Plan) -> Rep {
    let pace = Pace::Open {
        gap_ns: DENSE_GAP_NS,
    };
    link::<TRACE>(plan, adapter::unbounded_link, pace, 1 << 17)
}

/// Layer and call names of a workload's spans.
pub fn layer_of(workload: &str) -> Layer {
    match workload {
        "solo_pairs" | "duo_pairs" | "burst_drain" => trace::LCRQ,
        _ => trace::CHANNEL,
    }
}

fn run_as<const TRACE: bool>(workload: &str, plan: &Plan) -> Option<Rep> {
    Some(match workload {
        "solo_pairs" => solo_pairs::<TRACE>(plan),
        "duo_pairs" => duo_pairs::<TRACE>(plan),
        "burst_drain" => burst_drain::<TRACE>(plan),
        "stream" => stream::<TRACE>(plan),
        "openloop_sparse" => openloop_sparse::<TRACE>(plan),
        "openloop_dense" => openloop_dense::<TRACE>(plan),
        _ => return None,
    })
}

/// Runs one repetition of the named workload.
pub fn run(workload: &str, plan: &Plan, traced: bool) -> Option<Rep> {
    if traced {
        run_as::<true>(workload, plan)
    } else {
        run_as::<false>(workload, plan)
    }
}

//! Cross-library pairwise arena: every registry backend raced against
//! external baselines under one adapter trait, with chaoran-style
//! multi-run statistics.
//!
//! The harness behind "A Wait-free Queue as Fast as Fetch-and-Add"
//! (SNIPPETS.md snippet 2) races queue implementations through a
//! `pairwise` benchmark — every thread repeatedly executes an
//! enqueue/dequeue pair with an arbitrary 50–150 ns delay between
//! operations to defeat artificial long-run scenarios — and its driver
//! reports the mean of up to ten runs with standard deviation and margin
//! of error. This module is that arena for this repo: a [`Contender`]
//! adapter trait wraps every [`QueueSpec`] the registry can build *and*
//! external baselines, a seeded multi-run driver produces Mops/s samples,
//! and the results serialize into a schema-versioned
//! `results/BENCH_arena.json` that `ci.sh` diffs against the committed
//! baseline (see [`regression_gate`]).
//!
//! ## External contenders
//!
//! The workspace builds offline with no registry dependencies, so the
//! always-available baselines come from `std` (whose `mpsc` has been
//! crossbeam-channel's implementation since Rust 1.67 — racing it *is*
//! racing crossbeam's channel algorithm) plus a classic `Mutex<VecDeque>`
//! and the chaoran `faa` synthetic, which emulates both operations with a
//! single fetch-and-add and upper-bounds what any real queue on the F&A
//! hot path can reach.
//!
//! ## Delivery validation
//!
//! Arena numbers are only meaningful if the adapter is honest: after
//! every run the driver reconciles dequeue count *and* a wrapping value
//! checksum against what the producers enqueued, then drains the queue
//! dry. A lossy or duplicating adapter fails the run instead of posting a
//! fast-looking number (`tests/contender_contract.rs` holds the
//! per-adapter contract suite).

use crate::registry::QueueSpec;
use crate::stats::Summary;
use lcrq_queues::ConcurrentQueue;
use lcrq_util::rng::splitmix64;
use lcrq_util::spin::spin_for_ns;
use lcrq_util::{CachePadded, XorShift64Star};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Barrier, Mutex};
use std::time::Instant;

/// A queue implementation entered in the arena. The adapter surface is
/// deliberately the minimal MPMC contract every library shares: blocking
/// semantics, value types, and batch APIs all stay outside so external
/// libraries can compete without shims changing their algorithm.
pub trait Contender: Send + Sync {
    /// Enqueues one value (may block for bounded contenders; the pairwise
    /// workload keeps occupancy at most `threads` so bounded contenders
    /// with reasonable capacity never do).
    fn enqueue(&self, value: u64);
    /// Attempts to dequeue; `None` means observed-empty.
    fn dequeue(&self) -> Option<u64>;
    /// `true` for synthetic contenders (the `faa` upper bound) whose
    /// dequeues fabricate values: the driver skips delivery validation
    /// and draining for them.
    fn is_synthetic(&self) -> bool {
        false
    }
}

/// Any registry-built queue competes through its `ConcurrentQueue` vtable
/// unchanged.
impl Contender for Box<dyn ConcurrentQueue> {
    fn enqueue(&self, value: u64) {
        (**self).enqueue(value);
    }

    fn dequeue(&self) -> Option<u64> {
        (**self).dequeue()
    }
}

/// `std::sync::mpsc::channel` — since Rust 1.67 this *is* the
/// crossbeam-channel unbounded algorithm (block-linked segments), making
/// it the portable stand-in for the crossbeam baseline in offline builds.
/// MPMC-ified the standard way: consumers share the `Receiver` behind a
/// mutex (the cost a real deployment of an MPSC channel in an MPMC role
/// pays too).
pub struct StdMpsc {
    tx: mpsc::Sender<u64>,
    rx: Mutex<mpsc::Receiver<u64>>,
}

impl Default for StdMpsc {
    fn default() -> Self {
        let (tx, rx) = mpsc::channel();
        Self {
            tx,
            rx: Mutex::new(rx),
        }
    }
}

impl Contender for StdMpsc {
    fn enqueue(&self, value: u64) {
        // The receiver lives as long as `self`; send cannot fail.
        self.tx.send(value).expect("receiver alive");
    }

    fn dequeue(&self) -> Option<u64> {
        self.rx.lock().unwrap().try_recv().ok()
    }
}

/// `std::sync::mpsc::sync_channel` — the bounded rendezvous-buffer
/// variant (crossbeam's bounded array channel since Rust 1.67).
pub struct StdMpscBounded {
    tx: mpsc::SyncSender<u64>,
    rx: Mutex<mpsc::Receiver<u64>>,
}

impl StdMpscBounded {
    /// Creates the contender with the given buffer capacity. The pairwise
    /// workload holds at most `threads` items in flight, so any capacity
    /// above the thread count never blocks a producer.
    pub fn new(capacity: usize) -> Self {
        let (tx, rx) = mpsc::sync_channel(capacity);
        Self {
            tx,
            rx: Mutex::new(rx),
        }
    }
}

impl Contender for StdMpscBounded {
    fn enqueue(&self, value: u64) {
        self.tx.send(value).expect("receiver alive");
    }

    fn dequeue(&self) -> Option<u64> {
        self.rx.lock().unwrap().try_recv().ok()
    }
}

/// The classic coarse-grained baseline every lock-free paper races: one
/// mutex around a `VecDeque`.
#[derive(Default)]
pub struct MutexDeque {
    inner: Mutex<VecDeque<u64>>,
}

impl Contender for MutexDeque {
    fn enqueue(&self, value: u64) {
        self.inner.lock().unwrap().push_back(value);
    }

    fn dequeue(&self) -> Option<u64> {
        self.inner.lock().unwrap().pop_front()
    }
}

/// The chaoran `faa` synthetic: enqueue and dequeue are each one
/// fetch-and-add on a dedicated cache line. No data moves, so this is the
/// throughput ceiling for any queue that pays at least one F&A per
/// operation — the paper's own cost model for the LCRQ hot path.
#[derive(Default)]
pub struct FaaBound {
    tail: CachePadded<AtomicU64>,
    head: CachePadded<AtomicU64>,
}

impl Contender for FaaBound {
    fn enqueue(&self, _value: u64) {
        self.tail.fetch_add(1, Ordering::AcqRel);
    }

    fn dequeue(&self) -> Option<u64> {
        Some(self.head.fetch_add(1, Ordering::AcqRel))
    }

    fn is_synthetic(&self) -> bool {
        true
    }
}

/// One arena entrant: a display name plus a factory (each measured run
/// gets a fresh instance, so no state leaks between runs).
pub struct Entry {
    /// Canonical display name (registry entries use the `QueueSpec`
    /// canonical string, so gate configs and CLI filters share one
    /// vocabulary).
    pub name: String,
    /// `true` for non-registry baselines.
    pub external: bool,
    /// `true` for the synthetic upper bound (skips delivery validation).
    pub synthetic: bool,
    make: Box<dyn Fn() -> Box<dyn Contender>>,
}

impl Entry {
    /// An entry wrapping a registry spec.
    pub fn from_spec(spec: &QueueSpec) -> Self {
        let spec = spec.clone();
        Self {
            name: spec.to_string(),
            external: false,
            synthetic: false,
            make: Box::new(move || Box::new(spec.build())),
        }
    }

    /// An external (non-registry) entry built by `make`.
    pub fn external(
        name: &str,
        synthetic: bool,
        make: impl Fn() -> Box<dyn Contender> + 'static,
    ) -> Self {
        Self {
            name: name.to_string(),
            external: true,
            synthetic,
            make: Box::new(make),
        }
    }

    /// Builds a fresh contender instance.
    pub fn build(&self) -> Box<dyn Contender> {
        (self.make)()
    }
}

/// Capacity for bounded external contenders: far above any in-flight
/// population the pairwise workload can create, so bounded semantics
/// never distort the comparison.
pub const BOUNDED_CAPACITY: usize = 4096;

/// The registry side of the default roster: all 15 backend kinds plus the
/// flagship sharded composition, at the given ring order.
pub fn registry_entries(ring_order: u32) -> Vec<Entry> {
    let mut entries: Vec<Entry> = crate::registry::ALL_KINDS
        .iter()
        .map(|&k| Entry::from_spec(&QueueSpec::backend(k).with_ring_order(ring_order)))
        .collect();
    let flagship = QueueSpec::parse(SHARDED_FLAGSHIP)
        .expect("flagship spec parses")
        .with_ring_order(ring_order);
    entries.push(Entry::from_spec(&flagship));
    entries
}

/// The external baselines available in every (offline) build.
pub fn external_entries() -> Vec<Entry> {
    vec![
        Entry::external("std-mpsc", false, || Box::new(StdMpsc::default())),
        Entry::external("std-mpsc-bounded", false, || {
            Box::new(StdMpscBounded::new(BOUNDED_CAPACITY))
        }),
        Entry::external("mutex-deque", false, || Box::new(MutexDeque::default())),
        Entry::external("faa", true, || Box::new(FaaBound::default())),
    ]
}

/// The full default roster: registry entries then external baselines.
pub fn default_roster(ring_order: u32) -> Vec<Entry> {
    let mut r = registry_entries(ring_order);
    r.extend(external_entries());
    r
}

/// Parameters of one arena cell (contender × threads).
#[derive(Debug, Clone)]
pub struct ArenaConfig {
    /// Worker threads, each running enqueue/dequeue pairs.
    pub threads: usize,
    /// Pairs per thread per run.
    pub pairs: u64,
    /// Inclusive randomized inter-operation delay range (chaoran uses
    /// 50–150 ns).
    pub delay_ns: (u64, u64),
    /// Measured runs (samples for the statistics).
    pub runs: usize,
    /// Warmup runs discarded before measuring.
    pub warmup: usize,
    /// Base RNG seed: thread/run streams derive from it, so
    /// `LCRQ_TEST_SEED` replays the exact delay schedule.
    pub seed: u64,
}

impl ArenaConfig {
    /// The default arena cell shape (seed still comes from
    /// [`lcrq_util::rng::test_seed`] at the call site).
    pub fn new(threads: usize, seed: u64) -> Self {
        Self {
            threads,
            pairs: 5_000,
            delay_ns: (50, 150),
            runs: 6,
            warmup: 1,
            seed,
        }
    }
}

/// Runs one pairwise measurement: `threads` workers each execute `pairs`
/// enqueue/dequeue pairs with the seeded randomized delay between
/// operations. Returns Mops/s, after reconciling delivery (count and
/// wrapping value checksum, queue drained dry) for non-synthetic
/// contenders — a broken adapter is an `Err`, not a fast number.
pub fn pairwise_run(c: &dyn Contender, cfg: &ArenaConfig, run_idx: usize) -> Result<f64, String> {
    let threads = cfg.threads;
    let (lo, hi) = cfg.delay_ns;
    assert!(threads > 0 && cfg.pairs > 0 && lo <= hi);
    let produced = threads as u64 * cfg.pairs;
    let deq_count = AtomicU64::new(0);
    let deq_sum = AtomicU64::new(0);
    let barrier = Barrier::new(threads + 1);
    let (deq_count_ref, deq_sum_ref, barrier_ref) = (&deq_count, &deq_sum, &barrier);

    let start = std::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || {
                let mut rng = XorShift64Star::new(splitmix64(
                    cfg.seed ^ splitmix64(run_idx as u64) ^ splitmix64(t as u64),
                ));
                let mut count = 0u64;
                let mut sum = 0u64;
                barrier_ref.wait();
                for i in 0..cfg.pairs {
                    c.enqueue(((t as u64) << 40) | i);
                    spin_for_ns(lo + rng.next_below(hi - lo + 1));
                    if let Some(v) = c.dequeue() {
                        count += 1;
                        sum = sum.wrapping_add(v);
                    }
                    spin_for_ns(lo + rng.next_below(hi - lo + 1));
                }
                deq_count_ref.fetch_add(count, Ordering::Relaxed);
                deq_sum_ref.fetch_add(sum, Ordering::Relaxed);
            });
        }
        let start = Instant::now();
        barrier_ref.wait();
        start
    });
    let wall = start.elapsed();

    if !c.is_synthetic() {
        // Every produced value must come out exactly once: what the
        // workers didn't dequeue must still be in the queue, and the
        // wrapping sum over both must reconcile.
        let mut count = deq_count.load(Ordering::Relaxed);
        let mut sum = deq_sum.load(Ordering::Relaxed);
        while let Some(v) = c.dequeue() {
            count += 1;
            sum = sum.wrapping_add(v);
        }
        let mut expect_sum = 0u64;
        for t in 0..threads as u64 {
            // Σ_i ((t<<40) | i) for i < pairs, with i < 2^40 so | is +.
            expect_sum = expect_sum
                .wrapping_add((t << 40).wrapping_mul(cfg.pairs))
                .wrapping_add(cfg.pairs.wrapping_mul(cfg.pairs - 1) / 2);
        }
        if count != produced || sum != expect_sum {
            return Err(format!(
                "delivery violation: {count} of {produced} values accounted for \
                 (checksum {sum:#x}, expected {expect_sum:#x}) — \
                 replay with LCRQ_TEST_SEED={:#x}",
                cfg.seed
            ));
        }
    }

    let ops = 2 * produced;
    Ok(ops as f64 / wall.as_secs_f64() / 1e6)
}

/// Runs one entry through warmup + measured runs with a fresh contender
/// instance per run. Returns the measured Mops/s samples.
pub fn run_entry(entry: &Entry, cfg: &ArenaConfig) -> Result<Vec<f64>, String> {
    for w in 0..cfg.warmup {
        let c = entry.build();
        pairwise_run(&*c, cfg, w).map_err(|e| format!("{} (warmup): {e}", entry.name))?;
    }
    (0..cfg.runs)
        .map(|r| {
            let c = entry.build();
            pairwise_run(&*c, cfg, cfg.warmup + r).map_err(|e| format!("{}: {e}", entry.name))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Artifact: schema-versioned machine-readable results.
// ---------------------------------------------------------------------------

/// Artifact schema identifier (`"schema"` field).
pub const ARENA_SCHEMA: &str = "lcrq-bench/arena";
/// Current artifact schema version; [`ArenaArtifact::parse`] rejects
/// anything else so gate comparisons never cross schema revisions
/// silently.
pub const ARENA_SCHEMA_VERSION: u64 = 1;

/// The flagship configurations the ci.sh regression gate protects.
pub const FLAGSHIPS: &[&str] = &["lcrq", "wcq", SHARDED_FLAGSHIP];
/// Canonical spec string of the flagship sharded composition.
pub const SHARDED_FLAGSHIP: &str = "sharded:shards=8,d=2,inner=lcrq";
/// Throughput may drop this much (percent) before the gate fails; noisier
/// cells additionally get their combined margins of error as slack (a
/// drop must be both large *and* statistically real to fail).
pub const GATE_DROP_PCT: f64 = 10.0;

/// One measured arena cell.
#[derive(Debug, Clone)]
pub struct ArenaRow {
    /// Contender display name ([`Entry::name`]).
    pub contender: String,
    /// Whether the contender is an external baseline.
    pub external: bool,
    /// Whether the contender is synthetic (skips delivery validation).
    pub synthetic: bool,
    /// Worker thread count.
    pub threads: usize,
    /// Raw per-run Mops/s samples (post-warmup).
    pub samples: Vec<f64>,
    /// Summary statistics over `samples`.
    pub summary: Summary,
}

/// A complete arena artifact (one `BENCH_arena.json`).
#[derive(Debug, Clone)]
pub struct ArenaArtifact {
    /// Base seed the delay RNG streams derive from.
    pub seed: u64,
    /// Pairs per thread per run.
    pub pairs: u64,
    /// Measured runs per cell.
    pub runs: usize,
    /// Discarded warmup runs per cell.
    pub warmup: usize,
    /// Inclusive inter-operation delay range in ns.
    pub delay_ns: (u64, u64),
    /// CAS2 path the producing build routed `AtomicPair` through
    /// (`lcrq_atomic::cas2_backend()`): numbers from a `force-fallback`
    /// or portable run must never be confused with native ones.
    /// `"unknown"` when read from a pre-field artifact.
    pub cas2_backend: String,
    /// Measured cells.
    pub rows: Vec<ArenaRow>,
}

impl ArenaArtifact {
    /// Finds the row for a (contender, threads) cell.
    pub fn row(&self, contender: &str, threads: usize) -> Option<&ArenaRow> {
        self.rows
            .iter()
            .find(|r| r.contender == contender && r.threads == threads)
    }

    /// Serializes to the schema-versioned JSON document. Hand-rolled like
    /// the other emitters: every value is a number, bool, or an
    /// escape-free spec string.
    pub fn render(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!(
            "  \"schema\": \"{ARENA_SCHEMA}\",\n  \
             \"schema_version\": {ARENA_SCHEMA_VERSION},\n  \
             \"bench\": \"pairwise\",\n  \
             \"seed\": \"{:#x}\",\n  \
             \"pairs\": {},\n  \"runs\": {},\n  \"warmup_runs\": {},\n  \
             \"delay_ns\": [{}, {}],\n  \
             \"cas2_backend\": \"{}\",\n  \"rows\": [\n",
            self.seed,
            self.pairs,
            self.runs,
            self.warmup,
            self.delay_ns.0,
            self.delay_ns.1,
            self.cas2_backend
        ));
        for (i, r) in self.rows.iter().enumerate() {
            let samples = r
                .samples
                .iter()
                .map(|x| format!("{x:.6}"))
                .collect::<Vec<_>>()
                .join(", ");
            s.push_str(&format!(
                "    {{\"contender\": \"{}\", \"external\": {}, \"synthetic\": {}, \
                 \"threads\": {}, \"runs\": {}, \"mean_mops\": {:.6}, \
                 \"stddev_mops\": {:.6}, \"moe_mops\": {:.6}, \"moe_pct\": {:.3}, \
                 \"samples\": [{}]}}{}\n",
                r.contender,
                r.external,
                r.synthetic,
                r.threads,
                r.summary.n,
                r.summary.mean,
                r.summary.stddev,
                r.summary.moe,
                r.summary.moe_pct(),
                samples,
                if i + 1 == self.rows.len() { "" } else { "," }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Parses and validates an artifact document. Rejects wrong schema
    /// identifiers and versions outright.
    pub fn parse(text: &str) -> Result<Self, String> {
        let v = crate::json::Value::parse(text)?;
        let schema = v.get("schema").and_then(|s| s.as_str()).unwrap_or("");
        if schema != ARENA_SCHEMA {
            return Err(format!(
                "not an arena artifact (schema '{schema}', expected '{ARENA_SCHEMA}')"
            ));
        }
        let version = v
            .get("schema_version")
            .and_then(|n| n.as_u64())
            .ok_or("missing schema_version")?;
        if version != ARENA_SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {version} (this build reads {ARENA_SCHEMA_VERSION})"
            ));
        }
        let seed_str = v.get("seed").and_then(|s| s.as_str()).unwrap_or("0");
        let seed = parse_seed(seed_str)?;
        let get_u64 = |key: &str| {
            v.get(key)
                .and_then(|n| n.as_u64())
                .ok_or_else(|| format!("missing numeric field '{key}'"))
        };
        let delay = v
            .get("delay_ns")
            .and_then(|d| d.as_arr())
            .filter(|a| a.len() == 2)
            .ok_or("missing delay_ns [lo, hi]")?;
        let delay_ns = (
            delay[0].as_u64().ok_or("bad delay_ns[0]")?,
            delay[1].as_u64().ok_or("bad delay_ns[1]")?,
        );
        let rows = v
            .get("rows")
            .and_then(|r| r.as_arr())
            .ok_or("missing rows array")?
            .iter()
            .map(parse_row)
            .collect::<Result<Vec<_>, _>>()?;
        // Absent in schema-v1 artifacts written before the field existed;
        // lenient so the committed baseline stays readable.
        let cas2_backend = v
            .get("cas2_backend")
            .and_then(|s| s.as_str())
            .unwrap_or("unknown")
            .to_string();
        Ok(Self {
            seed,
            pairs: get_u64("pairs")?,
            runs: get_u64("runs")? as usize,
            warmup: get_u64("warmup_runs")? as usize,
            delay_ns,
            cas2_backend,
            rows,
        })
    }
}

fn parse_seed(s: &str) -> Result<u64, String> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    }
    .map_err(|_| format!("bad seed '{s}'"))
}

fn parse_row(v: &crate::json::Value) -> Result<ArenaRow, String> {
    let contender = v
        .get("contender")
        .and_then(|s| s.as_str())
        .ok_or("row missing contender")?
        .to_string();
    let num = |key: &str| {
        v.get(key)
            .and_then(|n| n.as_f64())
            .ok_or_else(|| format!("row '{contender}' missing numeric '{key}'"))
    };
    let samples = v
        .get("samples")
        .and_then(|s| s.as_arr())
        .map(|a| a.iter().filter_map(|x| x.as_f64()).collect())
        .unwrap_or_default();
    Ok(ArenaRow {
        external: v.get("external").and_then(|b| b.as_bool()).unwrap_or(false),
        synthetic: v
            .get("synthetic")
            .and_then(|b| b.as_bool())
            .unwrap_or(false),
        threads: num("threads")? as usize,
        summary: Summary {
            n: num("runs")? as usize,
            mean: num("mean_mops")?,
            stddev: num("stddev_mops")?,
            moe: num("moe_mops")?,
        },
        samples,
        contender,
    })
}

// ---------------------------------------------------------------------------
// Regression gate.
// ---------------------------------------------------------------------------

/// Result of one gate evaluation: human-readable per-cell lines plus the
/// failures (empty = gate passes).
#[derive(Debug, Default)]
pub struct GateOutcome {
    /// One line per compared cell (for the gate's report output).
    pub lines: Vec<String>,
    /// Failure descriptions; non-empty fails the gate.
    pub failures: Vec<String>,
}

impl GateOutcome {
    /// Whether the gate passes.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Diffs `candidate` against `baseline` for the flagship contenders:
/// every candidate cell naming a flagship is matched to the baseline cell
/// with the same (contender, threads) key, and fails the gate if its mean
/// throughput dropped more than `max(`[`GATE_DROP_PCT`]`, moe_b% + moe_c%)`
/// — i.e. the drop must be both over threshold and outside the combined
/// 95 % noise margins. A flagship with no comparable cell at all is a
/// failure too (a gate that silently skips is no gate; the self-test in
/// `tests/arena_gate.rs` mutation-checks both paths).
pub fn regression_gate(
    baseline: &ArenaArtifact,
    candidate: &ArenaArtifact,
    flagships: &[String],
) -> GateOutcome {
    let mut out = GateOutcome::default();
    for flagship in flagships {
        let mut compared = 0;
        for cand in candidate.rows.iter().filter(|r| &r.contender == flagship) {
            let Some(base) = baseline.row(&cand.contender, cand.threads) else {
                continue;
            };
            compared += 1;
            let drop_pct = if base.summary.mean > 0.0 {
                100.0 * (1.0 - cand.summary.mean / base.summary.mean)
            } else {
                0.0
            };
            let allowed = GATE_DROP_PCT.max(base.summary.moe_pct() + cand.summary.moe_pct());
            let verdict = if drop_pct > allowed { "FAIL" } else { "ok" };
            out.lines.push(format!(
                "{} @{}t: baseline {:.3} ±{:.3} Mops/s, candidate {:.3} ±{:.3} → \
                 drop {:+.1}% (allowed {:.1}%) {}",
                cand.contender,
                cand.threads,
                base.summary.mean,
                base.summary.moe,
                cand.summary.mean,
                cand.summary.moe,
                drop_pct,
                allowed,
                verdict
            ));
            if drop_pct > allowed {
                out.failures.push(format!(
                    "{} @{}t dropped {:.1}% (> {:.1}% allowed)",
                    cand.contender, cand.threads, drop_pct, allowed
                ));
            }
        }
        if compared == 0 {
            out.failures.push(format!(
                "flagship '{flagship}' has no comparable cells in both artifacts"
            ));
        }
    }
    out
}

/// Returns a copy of `artifact` with the flagship rows' throughput scaled
/// by `factor` (samples and summary together, so the fixture stays
/// internally consistent). `factor = 0.8` plants the 20 % drop the gate
/// self-test must catch; `factor = 1.0` is the must-pass twin.
pub fn plant_drop(artifact: &ArenaArtifact, flagships: &[String], factor: f64) -> ArenaArtifact {
    let mut out = artifact.clone();
    for row in &mut out.rows {
        if flagships.contains(&row.contender) {
            for s in &mut row.samples {
                *s *= factor;
            }
            row.summary.mean *= factor;
            row.summary.stddev *= factor;
            row.summary.moe *= factor;
        }
    }
    out
}

/// Owned-string copy of [`FLAGSHIPS`] (gate entry points take `&[String]`
/// so CLI overrides slot in).
pub fn flagship_names() -> Vec<String> {
    FLAGSHIPS.iter().map(|s| s.to_string()).collect()
}

/// Derives the gate self-test fixture pair from `baseline`: the planted
/// `_drop` twin (flagship throughput × 0.8) and the identity `_pass`
/// twin. The pair is verified on the spot — the drop must fail the gate
/// on **every** flagship and the identity must pass — so a baseline too
/// noisy for its own gate (combined margins of error swallowing a 20 %
/// drop) is rejected here, at refresh time, instead of silently shipping
/// a self-test that can't catch anything.
pub fn make_fixtures(
    baseline: &ArenaArtifact,
    flagships: &[String],
) -> Result<(ArenaArtifact, ArenaArtifact), String> {
    let drop = plant_drop(baseline, flagships, 0.8);
    let outcome = regression_gate(baseline, &drop, flagships);
    for flagship in flagships {
        if !outcome
            .failures
            .iter()
            .any(|f| f.starts_with(&format!("{flagship} @")))
        {
            return Err(format!(
                "baseline is too noisy to gate '{flagship}': a planted 20% drop stays \
                 inside the combined margins of error — re-measure the baseline with \
                 more runs (seed {:#x})",
                baseline.seed
            ));
        }
    }
    let identity = regression_gate(baseline, baseline, flagships);
    if !identity.passed() {
        return Err(format!(
            "baseline does not pass its own gate: {:?}",
            identity.failures
        ));
    }
    Ok((drop, baseline.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::QueueKind;

    fn tiny_cfg() -> ArenaConfig {
        ArenaConfig {
            threads: 2,
            pairs: 300,
            delay_ns: (0, 10),
            runs: 2,
            warmup: 0,
            seed: 0x5EED,
        }
    }

    #[test]
    fn registry_roster_covers_all_kinds_plus_flagship() {
        let entries = registry_entries(6);
        assert_eq!(entries.len(), crate::registry::ALL_KINDS.len() + 1);
        assert_eq!(
            entries.last().unwrap().name,
            "sharded:shards=8,d=2,inner=lcrq:ring=6"
        );
        assert!(entries.iter().all(|e| !e.external && !e.synthetic));
        // At the default ring order the flagship name matches the gate's
        // canonical FLAGSHIPS entry exactly.
        assert_eq!(
            registry_entries(crate::registry::DEFAULT_RING_ORDER)
                .last()
                .unwrap()
                .name,
            SHARDED_FLAGSHIP
        );
    }

    #[test]
    fn external_roster_has_at_least_four_contenders() {
        let ext = external_entries();
        assert!(ext.len() >= 4, "{} externals", ext.len());
        assert!(ext.iter().all(|e| e.external));
        assert_eq!(ext.iter().filter(|e| e.synthetic).count(), 1, "only faa");
    }

    #[test]
    fn pairwise_run_measures_registry_and_external_contenders() {
        let cfg = tiny_cfg();
        for entry in [
            Entry::from_spec(&QueueSpec::backend(QueueKind::Lcrq).with_ring_order(6)),
            Entry::external("std-mpsc", false, || Box::new(StdMpsc::default())),
            Entry::external("mutex-deque", false, || Box::new(MutexDeque::default())),
            Entry::external("faa", true, || Box::new(FaaBound::default())),
        ] {
            let samples = run_entry(&entry, &cfg).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(samples.len(), cfg.runs, "{}", entry.name);
            assert!(samples.iter().all(|&m| m > 0.0), "{}", entry.name);
        }
    }

    /// A deliberately broken adapter: drops every 7th dequeued value. The
    /// driver's delivery reconciliation must refuse to report a number
    /// for it — this is the meter-mutant for the arena itself.
    struct Lossy {
        inner: MutexDeque,
        drops: AtomicU64,
    }

    impl Contender for Lossy {
        fn enqueue(&self, value: u64) {
            self.inner.enqueue(value);
        }

        fn dequeue(&self) -> Option<u64> {
            let v = self.inner.dequeue()?;
            if self.drops.fetch_add(1, Ordering::Relaxed) % 7 == 6 {
                return self.inner.dequeue(); // swallow v: lost forever
            }
            Some(v)
        }
    }

    #[test]
    fn lossy_adapter_is_rejected_not_measured() {
        let entry = Entry::external("lossy", false, || {
            Box::new(Lossy {
                inner: MutexDeque::default(),
                drops: AtomicU64::new(0),
            })
        });
        let err = run_entry(&entry, &tiny_cfg()).unwrap_err();
        assert!(err.contains("delivery violation"), "{err}");
        assert!(err.contains("LCRQ_TEST_SEED"), "must print the seed: {err}");
    }

    fn sample_artifact() -> ArenaArtifact {
        let mk = |name: &str, threads: usize, samples: &[f64]| ArenaRow {
            contender: name.to_string(),
            external: false,
            synthetic: false,
            threads,
            samples: samples.to_vec(),
            summary: Summary::from_samples(samples).unwrap(),
        };
        ArenaArtifact {
            seed: 0xDEAD_BEEF,
            pairs: 5000,
            runs: 3,
            warmup: 1,
            delay_ns: (50, 150),
            cas2_backend: lcrq_atomic::cas2_backend().to_string(),
            // Tight samples (moe ≈ 2–3 % of the mean): the gate's noise
            // allowance stays below the planted 20 % drop, as a usable
            // committed baseline's must (make_fixtures verifies this for
            // the real artifact).
            rows: vec![
                mk("lcrq", 4, &[5.0, 5.05, 4.95]),
                mk("wcq", 4, &[4.0, 4.02, 3.98]),
                mk(SHARDED_FLAGSHIP, 4, &[6.0, 6.06, 5.94]),
                mk("ms", 4, &[2.0, 2.1, 1.9]),
            ],
        }
    }

    #[test]
    fn artifact_renders_and_parses_round_trip() {
        let a = sample_artifact();
        let text = a.render();
        assert!(text.contains("\"schema_version\": 1"));
        assert!(text.contains("\"seed\": \"0xdeadbeef\""));
        let b = ArenaArtifact::parse(&text).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(b.seed, a.seed);
        assert_eq!((b.pairs, b.runs, b.warmup), (a.pairs, a.runs, a.warmup));
        assert_eq!(b.delay_ns, a.delay_ns);
        assert_eq!(b.cas2_backend, a.cas2_backend);
        assert!(!b.cas2_backend.is_empty());
        assert_eq!(b.rows.len(), a.rows.len());
        let (ra, rb) = (&a.rows[0], &b.rows[0]);
        assert_eq!(rb.contender, ra.contender);
        assert!((rb.summary.mean - ra.summary.mean).abs() < 1e-6);
        assert!((rb.summary.moe - ra.summary.moe).abs() < 1e-6);
        assert_eq!(rb.samples.len(), ra.samples.len());
    }

    #[test]
    fn parse_defaults_cas2_backend_for_pre_field_artifacts() {
        // Committed schema-v1 baselines predate the field; they must stay
        // readable, reporting "unknown" rather than failing the gate.
        let a = sample_artifact().render();
        let legacy: String = a
            .lines()
            .filter(|l| !l.contains("cas2_backend"))
            .collect::<Vec<_>>()
            .join("\n");
        let parsed = ArenaArtifact::parse(&legacy).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(parsed.cas2_backend, "unknown");
    }

    #[test]
    fn parse_rejects_foreign_and_future_schemas() {
        let a = sample_artifact().render();
        let wrong_schema = a.replace("lcrq-bench/arena", "somebody-else/arena");
        assert!(ArenaArtifact::parse(&wrong_schema).is_err());
        let future = a.replace("\"schema_version\": 1", "\"schema_version\": 2");
        let err = ArenaArtifact::parse(&future).unwrap_err();
        assert!(err.contains("schema_version 2"), "{err}");
        assert!(ArenaArtifact::parse("{}").is_err());
    }

    #[test]
    fn gate_passes_identical_artifacts() {
        let a = sample_artifact();
        let out = regression_gate(&a, &a.clone(), &flagship_names());
        assert!(out.passed(), "{:?}", out.failures);
        assert_eq!(out.lines.len(), 3, "three flagship cells compared");
    }

    #[test]
    fn gate_fails_on_planted_twenty_percent_drop() {
        let a = sample_artifact();
        let dropped = plant_drop(&a, &flagship_names(), 0.8);
        let out = regression_gate(&a, &dropped, &flagship_names());
        assert_eq!(out.failures.len(), 3, "{:?}", out.failures);
        // And the parse→gate path (what ci.sh runs) agrees.
        let reparsed = ArenaArtifact::parse(&dropped.render()).unwrap();
        assert!(!regression_gate(&a, &reparsed, &flagship_names()).passed());
    }

    #[test]
    fn gate_tolerates_small_drops_and_noise() {
        let a = sample_artifact();
        // 5% < the 10% threshold: must pass.
        let small = plant_drop(&a, &flagship_names(), 0.95);
        assert!(regression_gate(&a, &small, &flagship_names()).passed());
        // Non-flagship rows may tank freely.
        let mut ms_tanked = a.clone();
        ms_tanked.rows[3].summary.mean *= 0.1;
        assert!(regression_gate(&a, &ms_tanked, &flagship_names()).passed());
    }

    #[test]
    fn gate_fails_when_a_flagship_is_missing() {
        let a = sample_artifact();
        let mut missing = a.clone();
        missing.rows.retain(|r| r.contender != "wcq");
        let out = regression_gate(&a, &missing, &flagship_names());
        assert!(!out.passed());
        assert!(
            out.failures.iter().any(|f| f.contains("wcq")),
            "{:?}",
            out.failures
        );
    }

    #[test]
    fn gate_widens_allowance_for_noisy_cells() {
        let mut a = sample_artifact();
        // Make the lcrq baseline cell very noisy: moe_pct ≈ 30%.
        a.rows[0].summary.moe = a.rows[0].summary.mean * 0.30;
        let dropped = plant_drop(&a, &flagship_names(), 0.80);
        let out = regression_gate(&a, &dropped, &flagship_names());
        // wcq and sharded still fail; the noisy lcrq cell is within margin
        // (starts_with: the sharded flagship's name contains "lcrq" too).
        assert_eq!(out.failures.len(), 2, "{:?}", out.failures);
        assert!(
            out.failures.iter().all(|f| !f.starts_with("lcrq @")),
            "{:?}",
            out.failures
        );
    }

    #[test]
    fn make_fixtures_verifies_the_pair_and_rejects_noisy_baselines() {
        let a = sample_artifact();
        let (drop, pass) = make_fixtures(&a, &flagship_names()).unwrap();
        assert!(!regression_gate(&a, &drop, &flagship_names()).passed());
        assert!(regression_gate(&a, &pass, &flagship_names()).passed());
        // A baseline whose wcq cell is noisy enough to swallow 20% must be
        // rejected at fixture time, naming the culprit.
        let mut noisy = a.clone();
        noisy.rows[1].summary.moe = noisy.rows[1].summary.mean * 0.15;
        let err = make_fixtures(&noisy, &flagship_names()).unwrap_err();
        assert!(err.contains("wcq") && err.contains("more runs"), "{err}");
    }

    #[test]
    fn seed_strings_parse_in_hex_and_decimal() {
        assert_eq!(parse_seed("0xBEEF").unwrap(), 0xBEEF);
        assert_eq!(parse_seed("48879").unwrap(), 48879);
        assert!(parse_seed("zork").is_err());
    }
}

//! Cross-library pairwise arena: every registry backend raced against
//! external baselines through one queue trait, with chaoran-style
//! multi-run statistics.
//!
//! The harness behind "A Wait-free Queue as Fast as Fetch-and-Add"
//! (SNIPPETS.md snippet 2) races queue implementations through a
//! `pairwise` benchmark — every thread repeatedly executes an
//! enqueue/dequeue pair with an arbitrary 50–150 ns delay between
//! operations to defeat artificial long-run scenarios — and its driver
//! reports the mean of up to ten runs with standard deviation and margin
//! of error. This module is that arena's roster for this repo: an
//! [`Entry`] wraps every [`QueueSpec`] the registry can build *and*
//! external baselines behind [`ConcurrentQueue`], the `pairwise` bin runs
//! each through [`run_workload`](crate::run_workload) (which validates
//! delivery after every run), and the results serialize into the
//! schema-versioned `results/BENCH_arena.json`.
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

use crate::registry::QueueSpec;
use crate::stats::Summary;
use crate::workload::SYNTHETIC;
use lcrq_queues::ConcurrentQueue;
use lcrq_util::CachePadded;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};

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

impl ConcurrentQueue for StdMpsc {
    fn enqueue(&self, value: u64) {
        // The receiver lives as long as `self`; send cannot fail.
        self.tx.send(value).expect("receiver alive");
    }

    fn dequeue(&self) -> Option<u64> {
        self.rx.lock().unwrap().try_recv().ok()
    }

    fn name(&self) -> &'static str {
        "std-mpsc"
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

impl ConcurrentQueue for StdMpscBounded {
    fn enqueue(&self, value: u64) {
        self.tx.send(value).expect("receiver alive");
    }

    fn dequeue(&self) -> Option<u64> {
        self.rx.lock().unwrap().try_recv().ok()
    }

    fn name(&self) -> &'static str {
        "std-mpsc-bounded"
    }
}

/// The classic coarse-grained baseline every lock-free paper races: one
/// mutex around a `VecDeque`.
#[derive(Default)]
pub struct MutexDeque {
    inner: Mutex<VecDeque<u64>>,
}

impl ConcurrentQueue for MutexDeque {
    fn enqueue(&self, value: u64) {
        self.inner.lock().unwrap().push_back(value);
    }

    fn dequeue(&self) -> Option<u64> {
        self.inner.lock().unwrap().pop_front()
    }

    fn name(&self) -> &'static str {
        "mutex-deque"
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

impl ConcurrentQueue for FaaBound {
    fn enqueue(&self, _value: u64) {
        self.tail.fetch_add(1, Ordering::AcqRel);
    }

    fn dequeue(&self) -> Option<u64> {
        Some(self.head.fetch_add(1, Ordering::AcqRel))
    }

    fn name(&self) -> &'static str {
        SYNTHETIC
    }
}

/// One arena entrant: a display name plus a factory (each measured run
/// gets a fresh instance, so no state leaks between runs).
pub struct Entry {
    /// Canonical display name (registry entries use the `QueueSpec`
    /// canonical string, so artifact rows and CLI filters share one
    /// vocabulary).
    pub name: String,
    /// `true` for non-registry baselines.
    pub external: bool,
    /// `true` for the synthetic upper bound, whose delivery
    /// [`run_workload`](crate::run_workload) does not validate.
    pub synthetic: bool,
    make: Box<dyn Fn() -> Box<dyn ConcurrentQueue>>,
}

impl Entry {
    /// An entry wrapping a registry spec.
    pub fn from_spec(spec: &QueueSpec) -> Self {
        let spec = spec.clone();
        Self {
            name: spec.to_string(),
            external: false,
            synthetic: false,
            make: Box::new(move || spec.build()),
        }
    }

    /// An external (non-registry) entry built by `make`; it is synthetic
    /// when `name` is [`SYNTHETIC`].
    pub fn external(name: &str, make: impl Fn() -> Box<dyn ConcurrentQueue> + 'static) -> Self {
        Self {
            name: name.to_string(),
            external: true,
            synthetic: name == SYNTHETIC,
            make: Box::new(make),
        }
    }

    /// Builds a fresh queue instance.
    pub fn build(&self) -> Box<dyn ConcurrentQueue> {
        (self.make)()
    }
}

/// Capacity for bounded external contenders: far above any in-flight
/// population the pairwise workload can create, so bounded semantics
/// never distort the comparison.
pub const BOUNDED_CAPACITY: usize = 4096;

/// The registry side of the default roster: all 12 backend kinds plus the
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
        Entry::external("std-mpsc", || Box::new(StdMpsc::default())),
        Entry::external("std-mpsc-bounded", || {
            Box::new(StdMpscBounded::new(BOUNDED_CAPACITY))
        }),
        Entry::external("mutex-deque", || Box::new(MutexDeque::default())),
        Entry::external(SYNTHETIC, || Box::new(FaaBound::default())),
    ]
}

/// The full default roster: registry entries then external baselines.
pub fn default_roster(ring_order: u32) -> Vec<Entry> {
    let mut r = registry_entries(ring_order);
    r.extend(external_entries());
    r
}

// ---------------------------------------------------------------------------
// Artifact: schema-versioned machine-readable results.
// ---------------------------------------------------------------------------

/// Artifact schema identifier (`"schema"` field).
pub const ARENA_SCHEMA: &str = "lcrq-bench/arena";
/// Current artifact schema version: a reader of the artifact compares it
/// before comparing any numbers.
pub const ARENA_SCHEMA_VERSION: u64 = 1;

/// Canonical spec string of the flagship sharded composition.
pub const SHARDED_FLAGSHIP: &str = "sharded:shards=8,d=2,inner=lcrq";

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
    pub cas2_backend: String,
    /// Measured cells.
    pub rows: Vec<ArenaRow>,
}

impl ArenaArtifact {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::QueueKind;
    use crate::workload::{run_workload, RunConfig};

    #[test]
    fn registry_roster_covers_all_kinds_plus_flagship() {
        let entries = registry_entries(6);
        assert_eq!(entries.len(), crate::registry::ALL_KINDS.len() + 1);
        assert_eq!(
            entries.last().unwrap().name,
            "sharded:shards=8,d=2,inner=lcrq:ring=6"
        );
        assert!(entries.iter().all(|e| !e.external && !e.synthetic));
        // At the default ring order the flagship name is the canonical
        // SHARDED_FLAGSHIP string exactly.
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
        // An entry's name is its queue's name: the one `run_workload`
        // reads to skip the synthetic bound.
        assert!(ext.iter().all(|e| e.build().name() == e.name));
    }

    #[test]
    fn run_workload_measures_registry_and_external_contenders() {
        let mut cfg = RunConfig::new(2);
        cfg.pairs = 300;
        cfg.delay_ns = (0, 10);
        cfg.pin = false;
        cfg.seed = 0x5EED;
        for entry in [
            Entry::from_spec(&QueueSpec::backend(QueueKind::Lcrq).with_ring_order(6)),
            Entry::external("std-mpsc", || Box::new(StdMpsc::default())),
            Entry::external("mutex-deque", || Box::new(MutexDeque::default())),
            Entry::external(SYNTHETIC, || Box::new(FaaBound::default())),
        ] {
            let r = run_workload(&entry.build(), &cfg);
            assert!(r.mops > 0.0, "{}", entry.name);
        }
    }

    #[test]
    fn artifact_renders_schema_v1() {
        let samples = [5.0, 5.05, 4.95];
        let a = ArenaArtifact {
            seed: 0xDEAD_BEEF,
            pairs: 5000,
            runs: 3,
            warmup: 1,
            delay_ns: (50, 150),
            cas2_backend: lcrq_atomic::cas2_backend().to_string(),
            rows: vec![ArenaRow {
                contender: "lcrq".to_string(),
                external: false,
                synthetic: false,
                threads: 4,
                samples: samples.to_vec(),
                summary: Summary::from_samples(&samples).unwrap(),
            }],
        };
        let text = a.render();
        assert!(text.contains("\"schema\": \"lcrq-bench/arena\""));
        assert!(text.contains("\"schema_version\": 1"));
        assert!(text.contains("\"seed\": \"0xdeadbeef\""));
        assert!(text.contains("\"delay_ns\": [50, 150]"));
        assert!(text.contains("\"contender\": \"lcrq\""));
        assert!(text.contains("\"samples\": [5.000000, 5.050000, 4.950000]"));
    }
}

//! Queue construction by *spec string*, so every harness binary sweeps the
//! same set and composed variants need no new registry entries.
//!
//! A spec is a self-describing name with optional `key=value` parameters:
//!
//! ```text
//! lcrq                              the paper's LCRQ, default ring
//! lcrq:ring=16                      2^16-entry rings
//! h-queue:clusters=4                hierarchical combining, 4 clusters
//! sharded:shards=8,d=2,inner=lcrq   d-choice front-end over 8 LCRQs
//! sharded:inner=lscq:ring=10        parameters nest through `inner=`
//! ```
//!
//! `inner=` consumes the rest of the string (it must be the last
//! parameter), which is what lets sharded specs wrap any other spec —
//! including another `sharded:` — without quoting or escaping. Lists of
//! specs on a command line are separated by `;` when any spec contains
//! parameters, or plain `,` for bare names (see [`QueueSpec::parse_list`]).

use lcrq_core::infinite::InfiniteArrayQueue;
use lcrq_core::{
    HierarchicalConfig, Lcrq, LcrqCas, LcrqConfig, Lscq, LscqCas, ShardedConfig, ShardedQueue, Wcq,
};
use lcrq_queues::{CcQueue, ConcurrentQueue, FcQueue, HQueue, MsQueue, TwoLockQueue};

/// The backend queue algorithms the harness can instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueKind {
    /// LCRQ with hardware F&A (the paper's contribution).
    Lcrq,
    /// LCRQ with the hierarchical cluster optimization (LCRQ+H).
    LcrqH,
    /// LCRQ with CAS-loop F&A (LCRQ-CAS).
    LcrqCas,
    /// LSCQ: unbounded list of Nikolaev SCQ rings — single-word CAS only.
    Lscq,
    /// LSCQ with CAS-loop F&A (the portable family's ablation twin).
    LscqCas,
    /// wCQ: wait-free helping over the SCQ ring (Nikolaev, arXiv:2201.02179).
    Wcq,
    /// Michael & Scott nonblocking queue.
    Ms,
    /// Michael & Scott two-lock queue.
    TwoLock,
    /// CC-Queue (CC-Synch combining).
    Cc,
    /// H-Queue (H-Synch hierarchical combining).
    H,
    /// Flat-combining queue.
    Fc,
    /// The Figure-2 infinite-array queue (study only).
    Infinite,
}

/// Every backend kind, in the order the paper's figures list them.
pub const ALL_KINDS: &[QueueKind] = &[
    QueueKind::LcrqH,
    QueueKind::Lcrq,
    QueueKind::LcrqCas,
    QueueKind::Lscq,
    QueueKind::LscqCas,
    QueueKind::Wcq,
    QueueKind::H,
    QueueKind::Cc,
    QueueKind::Fc,
    QueueKind::Ms,
    QueueKind::TwoLock,
    QueueKind::Infinite,
];

impl QueueKind {
    /// Parses a bare backend name. This is the single name table — the
    /// spec parser and printer both go through it.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "lcrq" => Self::Lcrq,
            "lcrq+h" | "lcrq-h" => Self::LcrqH,
            "lcrq-cas" => Self::LcrqCas,
            "lscq" => Self::Lscq,
            "lscq-cas" => Self::LscqCas,
            "wcq" => Self::Wcq,
            "ms" => Self::Ms,
            "two-lock" => Self::TwoLock,
            "cc-queue" | "cc" => Self::Cc,
            "h-queue" | "h" => Self::H,
            "fc-queue" | "fc" => Self::Fc,
            "infinite" | "infinite-array" => Self::Infinite,
            _ => return None,
        })
    }

    /// Canonical display name (matches `ConcurrentQueue::name`).
    pub fn name(&self) -> &'static str {
        match self {
            Self::Lcrq => "lcrq",
            Self::LcrqH => "lcrq+h",
            Self::LcrqCas => "lcrq-cas",
            Self::Lscq => "lscq",
            Self::LscqCas => "lscq-cas",
            Self::Wcq => "wcq",
            Self::Ms => "ms",
            Self::TwoLock => "two-lock",
            Self::Cc => "cc-queue",
            Self::H => "h-queue",
            Self::Fc => "fc-queue",
            Self::Infinite => "infinite-array",
        }
    }

    /// Whether this kind participates in hierarchical (multi-cluster) runs
    /// in the paper's figures.
    pub fn is_hierarchical(&self) -> bool {
        matches!(self, Self::LcrqH | Self::H)
    }
}

/// Default ring order for ring-based backends (`LcrqConfig::new()`).
pub const DEFAULT_RING_ORDER: u32 = 12;
/// Default cluster count for hierarchical backends.
pub const DEFAULT_CLUSTERS: usize = 1;

const DEFAULT_SHARDED: ShardedConfig = ShardedConfig::new();

/// A complete, buildable queue description — the redesigned constructor
/// API. Parsed from spec strings (see the [module docs](self)), printed
/// back in canonical form (`parse(spec.to_string()) == spec`), and built
/// with [`build`](QueueSpec::build).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueueSpec {
    /// A single backend algorithm.
    Backend {
        /// Which algorithm.
        kind: QueueKind,
        /// log2 ring size for the LCRQ/LSCQ variants (ignored by others).
        ring_order: u32,
        /// Cluster count for the hierarchical algorithms (ignored by
        /// others).
        clusters: usize,
    },
    /// A d-choice sharded front-end over `shards` copies of `inner`.
    Sharded {
        /// Number of shards.
        shards: usize,
        /// Shards sampled per operation.
        d: usize,
        /// Spec each shard is built from.
        inner: Box<QueueSpec>,
    },
}

impl QueueSpec {
    /// A backend spec with default parameters.
    pub fn backend(kind: QueueKind) -> Self {
        Self::Backend {
            kind,
            ring_order: DEFAULT_RING_ORDER,
            clusters: DEFAULT_CLUSTERS,
        }
    }

    /// Parses a spec string: a name, optionally followed by
    /// `:key=value,...`. See the [module docs](self) for the grammar.
    pub fn parse(s: &str) -> Result<Self, String> {
        let s = s.trim();
        let (name, params) = match s.split_once(':') {
            Some((n, p)) => (n.trim(), p),
            None => (s, ""),
        };
        if name == "sharded" {
            return Self::parse_sharded(params);
        }
        let kind = QueueKind::parse(name)
            .ok_or_else(|| format!("unknown queue '{name}' (in spec '{s}')"))?;
        let mut ring_order = DEFAULT_RING_ORDER;
        let mut clusters = DEFAULT_CLUSTERS;
        for tok in params.split(',').filter(|t| !t.trim().is_empty()) {
            let (key, val) = tok
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got '{tok}' (in spec '{s}')"))?;
            match key.trim() {
                "ring" => ring_order = parse_num(key, val)?,
                "clusters" => clusters = parse_num(key, val)?,
                other => {
                    return Err(format!(
                        "unknown parameter '{other}' for backend '{name}' \
                         (expected ring=, clusters=)"
                    ))
                }
            }
        }
        Ok(Self::Backend {
            kind,
            ring_order,
            clusters,
        })
    }

    /// Parses the parameter tail of a `sharded:` spec. `inner=` consumes
    /// the rest of the string, so it must come last.
    fn parse_sharded(params: &str) -> Result<Self, String> {
        let mut shards = DEFAULT_SHARDED.shards;
        let mut d = DEFAULT_SHARDED.d;
        let mut inner = QueueSpec::backend(QueueKind::Lcrq);
        let mut rest = params;
        while !rest.trim().is_empty() {
            if let Some(inner_spec) = rest.trim_start().strip_prefix("inner=") {
                inner = QueueSpec::parse(inner_spec)?;
                rest = "";
                continue;
            }
            let (tok, next) = match rest.split_once(',') {
                Some((a, b)) => (a, b),
                None => (rest, ""),
            };
            rest = next;
            let tok = tok.trim();
            if tok.is_empty() {
                continue;
            }
            let (key, val) = tok
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got '{tok}' (in sharded spec)"))?;
            match key.trim() {
                "shards" => shards = parse_num(key, val)?,
                "d" => d = parse_num(key, val)?,
                other => {
                    return Err(format!(
                        "unknown parameter '{other}' for sharded \
                         (expected shards=, d=, inner=; inner= must be last)"
                    ))
                }
            }
        }
        Ok(Self::Sharded {
            shards,
            d,
            inner: Box::new(inner),
        })
    }

    /// Parses a command-line list of specs. Lists split on `;` when one is
    /// present; a single spec with parameters (contains `:`) is taken
    /// whole; otherwise bare names split on `,` (the historical syntax).
    /// Sharded specs contain commas, so multi-spec lists involving them
    /// use `;`.
    pub fn parse_list(s: &str) -> Result<Vec<Self>, String> {
        let parts: Vec<&str> = if s.contains(';') {
            s.split(';').collect()
        } else if s.contains(':') {
            vec![s]
        } else {
            s.split(',').collect()
        };
        parts
            .into_iter()
            .map(str::trim)
            .filter(|p| !p.is_empty())
            .map(Self::parse)
            .collect()
    }

    /// Returns the spec with the ring order overridden, recursing through
    /// sharded wrappers to the backend (what the ring-size sweeps need).
    pub fn with_ring_order(self, ring_order: u32) -> Self {
        match self {
            Self::Backend { kind, clusters, .. } => Self::Backend {
                kind,
                ring_order,
                clusters,
            },
            Self::Sharded { shards, d, inner } => Self::Sharded {
                shards,
                d,
                inner: Box::new(inner.with_ring_order(ring_order)),
            },
        }
    }

    /// Returns the spec with the cluster count overridden, recursing
    /// through sharded wrappers to the backend.
    pub fn with_clusters(self, clusters: usize) -> Self {
        match self {
            Self::Backend {
                kind, ring_order, ..
            } => Self::Backend {
                kind,
                ring_order,
                clusters,
            },
            Self::Sharded { shards, d, inner } => Self::Sharded {
                shards,
                d,
                inner: Box::new(inner.with_clusters(clusters)),
            },
        }
    }

    /// Short family name for harness output — matches what
    /// `ConcurrentQueue::name` reports on the built queue.
    pub fn family(&self) -> &'static str {
        match self {
            Self::Backend { kind, .. } => kind.name(),
            Self::Sharded { .. } => "sharded",
        }
    }

    /// Whether the (innermost) backend participates in hierarchical
    /// multi-cluster runs.
    pub fn is_hierarchical(&self) -> bool {
        match self {
            Self::Backend { kind, .. } => kind.is_hierarchical(),
            Self::Sharded { inner, .. } => inner.is_hierarchical(),
        }
    }

    /// The analytic rank-error envelope for histories run at the given
    /// concurrency: 0 for any strict backend; the d-choice envelope
    /// (compounded through nesting) for sharded specs. See
    /// [`lcrq_core::sharded::rank_error_bound_for`].
    pub fn rank_error_bound(&self, threads: usize) -> u64 {
        match self {
            Self::Backend { .. } => 0,
            Self::Sharded { shards, d, inner } => lcrq_core::rank_error_bound_for(
                *shards, *d, threads,
            )
            .saturating_add((*shards as u64).saturating_mul(inner.rank_error_bound(threads))),
        }
    }

    /// Builds the queue this spec describes.
    pub fn build(&self) -> Box<dyn ConcurrentQueue> {
        match self {
            Self::Backend {
                kind,
                ring_order,
                clusters,
            } => {
                let cfg = LcrqConfig::new().with_ring_order(*ring_order);
                match kind {
                    QueueKind::Lcrq => Box::new(Lcrq::with_config(cfg)),
                    QueueKind::LcrqH => Box::new(Lcrq::with_config(
                        cfg.with_hierarchical(HierarchicalConfig::default()),
                    )),
                    QueueKind::LcrqCas => Box::new(LcrqCas::with_config(cfg)),
                    QueueKind::Lscq => Box::new(Lscq::with_config(cfg)),
                    QueueKind::LscqCas => Box::new(LscqCas::with_config(cfg)),
                    QueueKind::Wcq => Box::new(Wcq::with_config(cfg)),
                    QueueKind::Ms => Box::new(MsQueue::new()),
                    QueueKind::TwoLock => Box::new(TwoLockQueue::new()),
                    QueueKind::Cc => Box::new(CcQueue::new()),
                    QueueKind::H => Box::new(HQueue::new((*clusters).max(1))),
                    QueueKind::Fc => Box::new(FcQueue::new()),
                    QueueKind::Infinite => {
                        Box::new(InfiniteArrayQueue::<lcrq_atomic::HardwareFaa>::new())
                    }
                }
            }
            Self::Sharded { shards, d, inner } => {
                let cfg = ShardedConfig::new().with_shards(*shards).with_d(*d);
                Box::new(ShardedQueue::from_factory(&cfg, |_| inner.build()))
            }
        }
    }
}

fn parse_num<T: std::str::FromStr>(key: &str, val: &str) -> Result<T, String> {
    val.trim()
        .parse()
        .map_err(|_| format!("parameter '{key}' has a non-numeric value '{val}'"))
}

impl core::fmt::Display for QueueSpec {
    /// Canonical form: parameters at their defaults are omitted for
    /// backends; sharded specs always spell out `shards`, `d`, and
    /// `inner` (self-description beats brevity there).
    /// `parse(x.to_string()) == x` in all cases.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Backend {
                kind,
                ring_order,
                clusters,
            } => {
                write!(f, "{}", kind.name())?;
                let mut sep = ':';
                if *ring_order != DEFAULT_RING_ORDER {
                    write!(f, "{sep}ring={ring_order}")?;
                    sep = ',';
                }
                if *clusters != DEFAULT_CLUSTERS {
                    write!(f, "{sep}clusters={clusters}")?;
                }
                Ok(())
            }
            Self::Sharded { shards, d, inner } => {
                write!(f, "sharded:shards={shards},d={d},inner={inner}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_names() {
        for &k in ALL_KINDS {
            assert_eq!(QueueKind::parse(k.name()), Some(k), "{}", k.name());
        }
        assert_eq!(QueueKind::parse("nope"), None);
    }

    #[test]
    fn every_kind_constructs_and_works() {
        for &k in ALL_KINDS {
            let q = QueueSpec::backend(k).with_ring_order(8).build();
            q.enqueue(1);
            q.enqueue(2);
            assert_eq!(q.dequeue(), Some(1), "{}", k.name());
            assert_eq!(q.dequeue(), Some(2));
            assert_eq!(q.dequeue(), None);
        }
    }

    #[test]
    fn trait_names_match_registry_names() {
        for &k in ALL_KINDS {
            let q = QueueSpec::backend(k).build();
            assert_eq!(q.name(), k.name());
        }
        let q = QueueSpec::parse("sharded:inner=lcrq").unwrap().build();
        assert_eq!(q.name(), "sharded");
    }

    #[test]
    fn spec_strings_round_trip_canonically() {
        for s in [
            "lcrq",
            "lcrq:ring=16",
            "h-queue:clusters=4",
            "lcrq:ring=16,clusters=2",
            "sharded:shards=8,d=2,inner=lcrq",
            "sharded:shards=4,d=3,inner=lscq:ring=10",
            "sharded:shards=2,d=2,inner=sharded:shards=3,d=1,inner=ms",
        ] {
            let spec = QueueSpec::parse(s).unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(spec.to_string(), s, "canonical form");
            assert_eq!(QueueSpec::parse(&spec.to_string()).unwrap(), spec);
        }
        // Non-canonical inputs still round-trip through one print cycle.
        for s in ["lcrq:ring=12", "sharded", "sharded:d=2,inner=lcrq"] {
            let spec = QueueSpec::parse(s).unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(QueueSpec::parse(&spec.to_string()).unwrap(), spec, "{s}");
        }
    }

    #[test]
    fn randomized_specs_round_trip() {
        // Deterministic randomized round-trip sweep.
        let mut rng = lcrq_util::XorShift64Star::new(0x5bec);
        for _ in 0..500 {
            let spec = random_spec(&mut rng, 2);
            let printed = spec.to_string();
            let reparsed = QueueSpec::parse(&printed)
                .unwrap_or_else(|e| panic!("printed spec '{printed}' must reparse: {e}"));
            assert_eq!(reparsed, spec, "'{printed}'");
            // Every truncation is a near-miss string: Ok or Err, never a
            // panic (specs print as ASCII, so any byte is a boundary).
            for cut in 0..printed.len() {
                let _ = QueueSpec::parse(&printed[..cut]);
                let _ = QueueSpec::parse_list(&printed[..cut]);
            }
        }
    }

    fn random_spec(rng: &mut lcrq_util::XorShift64Star, depth: usize) -> QueueSpec {
        if depth > 0 && rng.chance(1, 3) {
            QueueSpec::Sharded {
                shards: 1 + rng.next_below(9) as usize,
                d: 1 + rng.next_below(4) as usize,
                inner: Box::new(random_spec(rng, depth - 1)),
            }
        } else {
            QueueSpec::Backend {
                kind: ALL_KINDS[rng.next_below(ALL_KINDS.len() as u64) as usize],
                ring_order: 1 + rng.next_below(20) as u32,
                clusters: 1 + rng.next_below(4) as usize,
            }
        }
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        // A retired key is refused with the list of accepted ones.
        let retired = "sharded:refresh=64,inner=lcrq";
        for bad in [
            "nope",
            "lcrq:bogus=1",
            "lcrq:ring=abc",
            "sharded:shards=x,inner=lcrq",
            "sharded:inner=nope",
            "sharded:wat=1",
            retired,
            "lcrq:ring",
        ] {
            assert!(QueueSpec::parse(bad).is_err(), "'{bad}' must be rejected");
        }
        let err = QueueSpec::parse(retired).unwrap_err();
        assert!(err.contains("expected shards=, d=, inner="), "{err}");
    }

    #[test]
    fn parse_list_handles_all_three_syntaxes() {
        // Bare-name comma lists (the historical CLI syntax).
        let l = QueueSpec::parse_list("lcrq,ms").unwrap();
        assert_eq!(l.len(), 2);
        assert_eq!(l[0], QueueSpec::backend(QueueKind::Lcrq));
        // A single parameterized spec is taken whole despite its commas.
        let l = QueueSpec::parse_list("sharded:shards=4,d=2,inner=lcrq").unwrap();
        assert_eq!(l.len(), 1);
        // Semicolons separate parameterized specs.
        let l = QueueSpec::parse_list("lcrq:ring=16; sharded:shards=4,d=2,inner=lcrq; ms").unwrap();
        assert_eq!(l.len(), 3);
        assert_eq!(l[2], QueueSpec::backend(QueueKind::Ms));
    }

    #[test]
    fn sharded_spec_builds_a_working_queue() {
        let spec = QueueSpec::parse("sharded:shards=4,d=2,inner=lscq:ring=6").unwrap();
        let q = spec.build();
        for i in 0..100 {
            q.enqueue(i);
        }
        let mut got: Vec<u64> = std::iter::from_fn(|| q.dequeue()).collect();
        got.sort_unstable();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        assert!(spec.rank_error_bound(4) > 0);
        assert_eq!(QueueSpec::backend(QueueKind::Lcrq).rank_error_bound(4), 0);
    }

    #[test]
    fn overrides_recurse_through_sharded_wrappers() {
        let spec = QueueSpec::parse("sharded:shards=2,d=1,inner=lcrq")
            .unwrap()
            .with_ring_order(4);
        assert_eq!(
            spec.to_string(),
            "sharded:shards=2,d=1,inner=lcrq:ring=4",
            "ring override must reach the backend"
        );
        assert!(!spec.is_hierarchical());
        assert!(QueueSpec::parse("sharded:inner=h-queue")
            .unwrap()
            .is_hierarchical());
    }
}

//! Benchmark harness for the LCRQ paper reproduction.
//!
//! Reimplements the methodology of §5 (itself following Fatourou &
//! Kallimanis's benchmark framework): every thread executes `pairs`
//! enqueue/dequeue pairs with a random ≤100 ns pause between operations
//! (defeating artificial "long runs"), threads are pinned when the host has
//! multiple CPUs, results are averaged over repeated runs, and software
//! event counters stand in for the paper's hardware performance counters
//! (DESIGN.md substitution P3). [`run_workload`] is the one pairs loop; it
//! drains and reconciles the queue after every run, so no bin reports a
//! number for a queue that lost an item.
//!
//! The `src/bin/` binaries regenerate the paper's figures and tables:
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `fig1_counter` | Figure 1 — contended counter, F&A vs CAS loop |
//! | `table1_primitives` | Table 1 — primitive availability |
//! | `fig6_throughput` | Figure 6a/6b — single-processor + oversubscribed |
//! | `fig7_multiprocessor` | Figure 7a/7b — clustered runs, empty/prefilled |
//! | `fig8_latency` | Figure 8 — latency CDFs at max concurrency |
//! | `fig9_ringsize` | Figure 9 — ring-size sensitivity |
//! | `table2_stats` | Table 2 — per-op stats, 1 and 20 threads |
//! | `table3_stats` | Table 3 — per-op stats, 80 threads, empty & full |
//!
//! Beyond the paper, `pairwise` runs the cross-library arena (chaoran's
//! fast-wait-free-queue methodology): every registry spec plus the
//! external baselines of [`arena`] through [`run_workload`] with a
//! 50–150 ns pause, multi-run mean/stddev/margin-of-error statistics from
//! [`stats`], and a schema-versioned `results/BENCH_arena.json`. Every
//! binary accepts `--smoke` for a seconds-long bit-rot check (ci.sh runs
//! them all).

#![warn(missing_docs)]

pub mod arena;
pub mod cli;
pub mod registry;
pub mod stats;
pub mod workload;

pub use arena::ArenaArtifact;
pub use registry::{QueueKind, QueueSpec, ALL_KINDS};
pub use stats::Summary;
pub use workload::{run_averaged, run_workload, RunConfig, RunResult};

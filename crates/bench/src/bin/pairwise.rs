//! Cross-library pairwise arena (ROADMAP open item "cross-library arena
//! benchmark"): races all 12 registry backends, the flagship sharded
//! composition, and the external baselines under the chaoran
//! fast-wait-free-queue methodology — enqueue/dequeue pairs with a
//! randomized 50–150 ns inter-operation delay, warmup discarded,
//! mean/stddev/margin-of-error over repeated runs — and emits the
//! schema-versioned `results/BENCH_arena.json` perf-trajectory artifact.
//!
//! `pairwise [--threads 1,4] [--pairs 5000] [--runs 6] [--warmup 1]
//!           [--delay 50,150] [--queues <spec;list>] [--external all|none]
//!           [--smoke] [--out results/BENCH_arena.json]`
//!
//! Every run is `run_workload`, so every run is delivery-validated (count
//! and checksum, queue drained) except the synthetic `faa` bound's. The
//! base seed threads `LCRQ_TEST_SEED` through `rng::test_seed` and the
//! artifact records it; run `r` of a cell (warmups first) pauses on
//! `seed ^ splitmix64(r)`, and a delivery panic prints that run's seed, so
//! any arena anomaly replays exactly (the PR 4 deflake convention).

use lcrq_bench::arena::{external_entries, registry_entries, ArenaArtifact, ArenaRow, Entry};
use lcrq_bench::cli::Cli;
use lcrq_bench::stats::Summary;
use lcrq_bench::{run_workload, QueueSpec, RunConfig};
use lcrq_util::rng::splitmix64;
use std::process::ExitCode;

/// Builds the contender roster from the CLI selection. An explicit
/// `--ring-order` overrides ring sizes everywhere; otherwise `--queues`
/// specs keep whatever `ring=` they spell out (fig6's convention).
fn roster(cli: &Cli, ring_order: u32) -> Result<Vec<Entry>, String> {
    let reorder = |spec: QueueSpec| {
        if cli.get_str("ring-order").is_some() {
            spec.with_ring_order(ring_order)
        } else {
            spec
        }
    };
    let mut entries = match cli.get_str("queues") {
        Some(list) => QueueSpec::parse_list(list)?
            .into_iter()
            .map(|spec| Entry::from_spec(&reorder(spec)))
            .collect(),
        None => registry_entries(ring_order),
    };
    match cli.get_str("external").unwrap_or("all") {
        "none" => {}
        "all" => entries.extend(external_entries()),
        other => {
            let wanted: Vec<&str> = other.split(',').map(str::trim).collect();
            let all = external_entries();
            for name in &wanted {
                if !all.iter().any(|e| &e.name == name) {
                    return Err(format!(
                        "unknown external contender '{name}' (have: {})",
                        all.iter()
                            .map(|e| e.name.as_str())
                            .collect::<Vec<_>>()
                            .join(", ")
                    ));
                }
            }
            entries.extend(
                all.into_iter()
                    .filter(|e| wanted.contains(&e.name.as_str())),
            );
        }
    }
    Ok(entries)
}

fn main() -> ExitCode {
    let cli = Cli::from_env();
    let smoke = cli.has("smoke");
    let threads_list = cli.get_list("threads", if smoke { &[2] } else { &[1, 4] });
    let pairs: u64 = cli.get("pairs", if smoke { 300 } else { 5_000 });
    let runs: usize = cli.get("runs", if smoke { 2 } else { 6 });
    let warmup: usize = cli.get("warmup", if smoke { 0 } else { 1 });
    let ring_order: u32 = cli.get("ring-order", 12u32);
    let delay = cli.get_list("delay", &[50, 150]);
    let (delay_lo, delay_hi) = match delay.as_slice() {
        [lo, hi] if lo <= hi => (*lo as u64, *hi as u64),
        _ => {
            eprintln!("error: --delay wants 'lo,hi' in ns with lo <= hi");
            return ExitCode::from(2);
        }
    };
    let out_path = cli
        .get_str("out")
        .unwrap_or(if smoke {
            "target/smoke/BENCH_arena.json"
        } else {
            "results/BENCH_arena.json"
        })
        .to_string();
    let seed = lcrq_util::rng::test_seed(0xA5E2_A000_2026_0809);
    let entries = match roster(&cli, ring_order) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    println!(
        "# pairwise arena — {} contenders, threads {:?}, {pairs} pairs/thread, \
         {runs} runs (+{warmup} warmup), delay {delay_lo}-{delay_hi} ns, seed {seed:#x}",
        entries.len(),
        threads_list
    );
    println!("| contender | threads | mean Mops/s | stddev | moe (95%) | moe % |");
    println!("|-----------|---------|-------------|--------|-----------|-------|");

    // Process-level warm-up: the first entry in the roster otherwise eats
    // the CPU governor's frequency ramp (measured: the same queue's moe is
    // ~15% when measured first in the process, ~1% when measured later),
    // which per-entry warmup runs are too short to absorb.
    if !smoke {
        let t0 = std::time::Instant::now();
        while t0.elapsed() < std::time::Duration::from_millis(300) {
            std::hint::spin_loop();
        }
    }

    let mut rows = Vec::new();
    for entry in &entries {
        for &threads in &threads_list {
            let mut cfg = RunConfig::new(threads);
            cfg.pairs = pairs;
            cfg.delay_ns = (delay_lo, delay_hi);
            // Each run draws its own pause schedule; a delivery panic
            // prints that run's seed.
            let mut run = |r: usize| {
                cfg.seed = seed ^ splitmix64(r as u64);
                run_workload(&entry.build(), &cfg).mops
            };
            for r in 0..warmup {
                run(r);
            }
            let samples: Vec<f64> = (warmup..warmup + runs).map(&mut run).collect();
            let Some(summary) = Summary::from_samples(&samples) else {
                eprintln!(
                    "error: {}: degenerate samples {samples:?} — replay with \
                     LCRQ_TEST_SEED={seed:#x}",
                    entry.name
                );
                return ExitCode::FAILURE;
            };
            println!(
                "| {} | {} | {:.3} | {:.3} | ±{:.3} | {:.1}% |",
                entry.name,
                threads,
                summary.mean,
                summary.stddev,
                summary.moe,
                summary.moe_pct()
            );
            rows.push(ArenaRow {
                contender: entry.name.clone(),
                external: entry.external,
                synthetic: entry.synthetic,
                threads,
                samples,
                summary,
            });
        }
    }

    let artifact = ArenaArtifact {
        seed,
        pairs,
        runs,
        warmup,
        delay_ns: (delay_lo, delay_hi),
        cas2_backend: lcrq_atomic::cas2_backend().to_string(),
        rows,
    };
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&out_path, artifact.render()) {
        Ok(()) => println!("\nwrote {out_path}"),
        Err(e) => {
            eprintln!("error: writing {out_path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

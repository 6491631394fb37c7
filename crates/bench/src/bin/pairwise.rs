//! Cross-library pairwise arena (ROADMAP open item "cross-library arena
//! benchmark"): races all 15 registry backends, the flagship sharded
//! composition, and the external baselines under the chaoran
//! fast-wait-free-queue methodology — enqueue/dequeue pairs with a
//! randomized 50–150 ns inter-operation delay, warmup discarded,
//! mean/stddev/margin-of-error over repeated runs — and emits the
//! schema-versioned `results/BENCH_arena.json` perf-trajectory artifact.
//!
//! Modes:
//!
//! * **Measure** (default): run the roster, print the table, write the
//!   artifact.
//!   `pairwise [--threads 1,4] [--pairs 5000] [--runs 6] [--warmup 1]
//!             [--delay 50,150] [--queues <spec;list>] [--external all|none]
//!             [--smoke] [--out results/BENCH_arena.json]`
//! * **Gate**: compare two artifacts, exit nonzero on a flagship
//!   regression (no benchmarking — deterministic, file-only).
//!   `pairwise --gate --baseline results/BENCH_arena.json --candidate fresh.json`
//! * **Fixtures**: derive the gate self-test fixtures from an artifact
//!   (`_drop` plants a 20 % flagship regression, `_pass` is the identity
//!   copy).
//!   `pairwise --make-fixtures --baseline results/BENCH_arena.json --out-dir results/fixtures`
//!
//! The delay RNG threads `LCRQ_TEST_SEED` through `rng::test_seed`, the
//! artifact records the seed, and every failure path prints it, so any
//! arena anomaly replays exactly (the PR 4 deflake convention).

use lcrq_bench::arena::{
    self, external_entries, flagship_names, registry_entries, ArenaArtifact, ArenaConfig, Entry,
};
use lcrq_bench::cli::Cli;
use lcrq_bench::stats::Summary;
use lcrq_bench::QueueSpec;
use std::process::ExitCode;

fn read_artifact(path: &str) -> Result<ArenaArtifact, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    ArenaArtifact::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn write_text(path: &str, text: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))
}

/// `--gate`: pure artifact comparison, no measurement.
fn gate_mode(cli: &Cli) -> ExitCode {
    let Some(baseline_path) = cli.get_str("baseline") else {
        eprintln!("error: --gate needs --baseline <BENCH_arena.json>");
        return ExitCode::from(2);
    };
    let Some(candidate_path) = cli.get_str("candidate") else {
        eprintln!("error: --gate needs --candidate <BENCH_arena.json>");
        return ExitCode::from(2);
    };
    let threshold_note = format!(
        "drop > max({:.0}%, combined 95% margins) fails",
        arena::GATE_DROP_PCT
    );
    let (baseline, candidate) = match (read_artifact(baseline_path), read_artifact(candidate_path))
    {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for e in [b.err(), c.err()].into_iter().flatten() {
                eprintln!("error: {e}");
            }
            return ExitCode::from(2);
        }
    };
    let flagships = flagship_list(cli);
    println!(
        "# arena regression gate — baseline {baseline_path}, candidate {candidate_path}\n\
         # flagships: {}; {threshold_note}",
        flagships.join(", ")
    );
    let out = arena::regression_gate(&baseline, &candidate, &flagships);
    for line in &out.lines {
        println!("  {line}");
    }
    if out.passed() {
        println!("gate OK");
        ExitCode::SUCCESS
    } else {
        for f in &out.failures {
            eprintln!("error: {f}");
        }
        eprintln!(
            "error: arena regression gate failed — replay the candidate with \
             LCRQ_TEST_SEED={:#x} (baseline seed {:#x})",
            candidate.seed, baseline.seed
        );
        ExitCode::FAILURE
    }
}

/// `--make-fixtures`: derive the self-test fixtures from an artifact.
fn fixtures_mode(cli: &Cli) -> ExitCode {
    let Some(baseline_path) = cli.get_str("baseline") else {
        eprintln!("error: --make-fixtures needs --baseline <BENCH_arena.json>");
        return ExitCode::from(2);
    };
    let out_dir = cli.get_str("out-dir").unwrap_or("results/fixtures");
    let baseline = match read_artifact(baseline_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let flagships = flagship_list(cli);
    let (drop, pass) = match arena::make_fixtures(&baseline, &flagships) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (name, artifact) in [
        ("BENCH_arena_drop.json", &drop),
        ("BENCH_arena_pass.json", &pass),
    ] {
        let path = format!("{out_dir}/{name}");
        if let Err(e) = write_text(&path, &artifact.render()) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    ExitCode::SUCCESS
}

fn flagship_list(cli: &Cli) -> Vec<String> {
    match cli.get_str("flagships") {
        Some(list) => list
            .split(';')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect(),
        None => flagship_names(),
    }
}

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

fn measure_mode(cli: &Cli) -> ExitCode {
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
    let entries = match roster(cli, ring_order) {
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
            let cfg = ArenaConfig {
                threads,
                pairs,
                delay_ns: (delay_lo, delay_hi),
                runs,
                warmup,
                seed,
            };
            let samples = match arena::run_entry(entry, &cfg) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
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
            rows.push(arena::ArenaRow {
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
    match write_text(&out_path, &artifact.render()) {
        Ok(()) => println!("\nwrote {out_path}"),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let cli = Cli::from_env();
    if cli.has("gate") {
        gate_mode(&cli)
    } else if cli.has("make-fixtures") {
        fixtures_mode(&cli)
    } else {
        measure_mode(&cli)
    }
}

//! The benchmark of record for the `lcrq` workspace. See `README.md`.
//!
//! ```text
//! lcrq-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out file]
//! lcrq-benchmark run [--seed n] [--seconds s] [--trace] [--quick] [--out file]
//! lcrq-benchmark compare A.jsonl B.jsonl [--bounds BENCHMARK.json]
//! lcrq-benchmark selftest
//! ```

mod adapter;
mod alloc;
mod clock;
mod json;
mod ledger;
mod payload;
mod pin;
mod report;
mod rng;
mod stats;
mod trace;
mod twins;
mod workloads;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use adapter::LcrqTarget;
use pin::Cpus;
use report::{Outcome, Verdict};
pub use rng::Rng;
use workloads::{Plan, Rep};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Timed repetitions of an untraced run; the reported value of a metric is
/// their median.
const REPS: usize = 20;
/// A traced run alternates untraced and traced repetitions in the first
/// half of its time and measures the ledger in the second.
const TRACED_REPS: usize = 6;
const DEFAULT_SECONDS: f64 = 10.0;

fn rep_seed(seed: u64, rep: usize) -> u64 {
    seed ^ ((rep as u64 + 1) << 40)
}

fn out_dir() -> PathBuf {
    // Run from the repository root (as the driver does) or from benchmark/.
    if Path::new("benchmark").is_dir() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

/// One run of one workload: `seconds` of timed windows in all.
fn run_workload(
    cpus: &Cpus,
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
) -> Result<Outcome, String> {
    let rep = |r: usize, window_s: f64, trace: bool| -> Result<Rep, String> {
        let plan = Plan {
            cpus,
            seed: rep_seed(seed, r),
            window_ns: (window_s * 1e9) as u64,
        };
        workloads::run(workload, &plan, trace).ok_or_else(|| {
            format!(
                "unknown workload {workload:?}; the workloads are {}",
                workloads::NAMES.join(", ")
            )
        })
    };
    if !traced {
        let n = if quick { 1 } else { REPS };
        let reps = (0..n)
            .map(|r| rep(r, seconds / n as f64, false))
            .collect::<Result<Vec<_>, _>>()?;
        return Ok(report::fold(workload, seed, false, &reps, &[]));
    }
    let n = if quick { 2 } else { TRACED_REPS };
    let mut reps = (0..n)
        .map(|r| rep(r, seconds / 2.0 / n as f64, r % 2 == 1))
        .collect::<Result<Vec<_>, _>>()?;
    let ledger = ledger::measure(cpus, Duration::from_secs_f64(seconds / 2.0), seed);
    println!(
        "atomic.cas2_ns was measured on: {}",
        adapter::cas2_backend()
    );
    let spans: Vec<_> = reps
        .iter_mut()
        .enumerate()
        .filter(|(_, r)| r.traced)
        .map(|(i, r)| (i, std::mem::take(&mut r.spans)))
        .collect();
    let path = out_dir().join(format!("trace-{workload}.jsonl"));
    let written = trace::write_jsonl(&path, workload, workloads::layer_of(workload), &spans)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("{written} spans written to {}", path.display());
    Ok(report::fold(workload, seed, true, &reps, &ledger))
}

struct Args(Vec<String>);

impl Args {
    /// Removes `--name value` and returns the value.
    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(i) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if i + 1 >= self.0.len() {
            return Err(format!("{name} needs a value"));
        }
        self.0.remove(i);
        Ok(Some(self.0.remove(i)))
    }

    fn parsed<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        match self.value(name)? {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{name}: cannot read {v:?}")),
        }
    }

    /// Removes `--name` and says whether it was there.
    fn flag(&mut self, name: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|a| a != name);
        self.0.len() != before
    }

    fn finish(self) -> Result<Vec<String>, String> {
        match self.0.iter().find(|a| a.starts_with("--")) {
            Some(unknown) => Err(format!("unknown option {unknown}")),
            None => Ok(self.0),
        }
    }
}

fn seconds_arg(args: &mut Args) -> Result<f64, String> {
    let s = args.parsed::<f64>("--seconds")?.unwrap_or(DEFAULT_SECONDS);
    if (0.1..=600.0).contains(&s) {
        Ok(s)
    } else {
        Err(format!("--seconds must be between 0.1 and 600, got {s}"))
    }
}

/// The driver's entry: one workload, one result line last on stdout.
fn driver(mut args: Args) -> Result<ExitCode, String> {
    let workload = args.value("--workload")?.ok_or("--workload is required")?;
    let seed = args.parsed::<u64>("--seed")?.unwrap_or(1);
    let seconds = seconds_arg(&mut args)?;
    let traced = match args.parsed::<u8>("--trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    if args.flag("--no-alloc-count") {
        alloc::disable_counting();
    }
    let out = args.value("--out")?;
    args.finish()?;
    let cpus = Cpus::capture()?;
    let outcome = run_workload(&cpus, &workload, seed, seconds, traced, false)?;
    outcome.print_table();
    if let Some(path) = &out {
        append_record(path, &outcome)?;
    }
    println!("{}", outcome.result_line());
    Ok(ExitCode::SUCCESS)
}

/// Appends the outcome to a results file `compare` can read.
fn append_record(path: &str, outcome: &Outcome) -> Result<(), String> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("cannot open {path}: {e}"))?;
    writeln!(f, "{}", outcome.record_line()).map_err(|e| format!("{path}: {e}"))
}

/// All six workloads, one after the other; non-zero exit when any delivery
/// was wrong or missing.
fn run_all(mut args: Args) -> Result<ExitCode, String> {
    let seed = args.parsed::<u64>("--seed")?.unwrap_or(1);
    let quick = args.flag("--quick");
    let traced = args.flag("--trace");
    let mut seconds = seconds_arg(&mut args)?;
    if quick {
        seconds = seconds.min(2.0);
    }
    let out = args.value("--out")?;
    args.finish()?;
    let cpus = Cpus::capture()?;
    let mut failed = 0;
    for workload in workloads::NAMES {
        let outcome = run_workload(&cpus, workload, seed, seconds, traced, quick)?;
        outcome.print_table();
        failed += outcome.failed;
        if let Some(path) = &out {
            append_record(path, &outcome)?;
        }
    }
    if failed > 0 {
        println!("FAILED: {failed} wrong or missing deliveries");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn compare(mut args: Args) -> Result<ExitCode, String> {
    let bounds = args
        .value("--bounds")?
        .unwrap_or_else(|| "BENCHMARK.json".to_string());
    let files = args.finish()?;
    let [a, b] = files.as_slice() else {
        return Err("compare takes two result files".into());
    };
    let bounds = report::read_bounds(&read(&bounds)?)?;
    let (worse, unresolved) = report::compare(
        &bounds,
        &report::read_runs(&read(a)?)?,
        &report::read_runs(&read(b)?)?,
    );
    println!("{worse} worse, {unresolved} unresolved");
    Ok(if worse + unresolved == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs the planted twins through the real workload code: the lossy and
/// the duplicating adapter must make a run fail, the slowed one must be
/// judged worse by `compare`'s rule.
fn selftest(args: Args) -> Result<ExitCode, String> {
    args.finish()?;
    let cpus = Cpus::capture()?;
    let plan = |r: usize| Plan {
        cpus: &cpus,
        seed: rep_seed(7, r),
        window_ns: 200_000_000,
    };
    let mut escaped = 0;
    let mut judge = |what: &str, rep: Rep| {
        let failed = rep.check.failed();
        let share = failed as f64 / rep.check.attempted.max(1) as f64;
        let caught = failed > 0;
        println!(
            "{what:<28} failed_share {share:.3e} -> the run would exit {} ({})",
            u8::from(caught),
            if caught { "caught" } else { "ESCAPED" }
        );
        escaped += usize::from(!caught);
    };
    let lcrq = LcrqTarget::new;
    judge(
        "lossy on solo_pairs",
        workloads::pairs::<_, false>(&plan(0), || twins::Lossy::new(lcrq()), 1, false, 0),
    );
    judge(
        "lossy on duo_pairs",
        workloads::pairs::<_, false>(&plan(1), || twins::Lossy::new(lcrq()), 2, true, 0),
    );
    judge(
        "duplicating on solo_pairs",
        workloads::pairs::<_, false>(&plan(2), || twins::Duplicating::new(lcrq()), 1, false, 0),
    );
    judge(
        "duplicating on duo_pairs",
        workloads::pairs::<_, false>(&plan(3), || twins::Duplicating::new(lcrq()), 2, true, 0),
    );

    let bound = read("BENCHMARK.json")
        .and_then(|t| report::read_bounds(&t))
        .ok()
        .and_then(|b| b.into_iter().find(|(n, _, _)| n == "ops_per_s"))
        .map_or(0.10, |(_, _, bound)| bound);
    let mut plain = Vec::new();
    let mut slowed = Vec::new();
    for r in 0..REPS {
        plain.push(workloads::pairs::<_, false>(&plan(r), lcrq, 1, false, 1 << 16).ops_per_s);
        slowed.push(
            workloads::pairs::<_, false>(&plan(r), || twins::Slowed(lcrq()), 1, false, 1 << 16)
                .ops_per_s,
        );
    }
    let v = report::verdict(&plain, &slowed, report::Better::Higher, bound);
    let caught = v == Verdict::Worse;
    println!(
        "{:<28} ops_per_s {:.4e} -> {:.4e}, bound {bound}: {v:?} ({})",
        "slowed (+30 ns) on solo_pairs",
        stats::median(&plain),
        stats::median(&slowed),
        if caught { "caught" } else { "ESCAPED" }
    );
    escaped += usize::from(!caught);
    if escaped > 0 {
        println!("selftest FAILED: {escaped} twin(s) escaped");
        return Ok(ExitCode::FAILURE);
    }
    println!("selftest ok: every twin was caught");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match argv.first().map(String::as_str) {
        Some("run" | "compare" | "selftest") => argv.remove(0),
        _ => String::new(),
    };
    clock::calibrate();
    let args = Args(argv);
    let done = match command.as_str() {
        "run" => run_all(args),
        "compare" => compare(args),
        "selftest" => selftest(args),
        _ => driver(args),
    };
    match done {
        Ok(code) => code,
        Err(message) => {
            eprintln!("lcrq-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

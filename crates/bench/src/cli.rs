//! A tiny `--flag value` argument parser shared by the harness binaries
//! (keeping the workspace dependency-free beyond the approved dev tools).

use std::collections::HashMap;

/// Parsed command-line flags.
#[derive(Debug, Default)]
pub struct Cli {
    flags: HashMap<String, String>,
    switches: Vec<String>,
}

impl Cli {
    /// Parses `std::env::args()` (skipping the binary name). `--key value`
    /// becomes a flag; a `--key` followed by another `--…` (or nothing) is a
    /// boolean switch.
    pub fn from_env() -> Self {
        Self::parse_args(std::env::args().skip(1))
    }

    /// Parses an explicit argument list (for tests).
    pub fn parse_args(args: impl IntoIterator<Item = String>) -> Self {
        let mut cli = Cli::default();
        let args: Vec<String> = args.into_iter().collect();
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            if let Some(key) = a.strip_prefix("--") {
                if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                    cli.flags.insert(key.to_string(), args[i + 1].clone());
                    i += 2;
                } else {
                    cli.switches.push(key.to_string());
                    i += 1;
                }
            } else {
                i += 1;
            }
        }
        cli
    }

    /// Value of `--key`, parsed, or `default`.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.flags
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Raw string value of `--key`.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(|s| s.as_str())
    }

    /// Whether the boolean switch `--key` was given.
    pub fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key) || self.flags.contains_key(key)
    }

    /// Parses a comma-separated list flag, e.g. `--threads 1,2,4,8`.
    pub fn get_list(&self, key: &str, default: &[usize]) -> Vec<usize> {
        match self.flags.get(key) {
            Some(v) => v.split(',').filter_map(|p| p.trim().parse().ok()).collect(),
            None => default.to_vec(),
        }
    }

    /// Whether `--smoke` was given. Every harness binary honors it by
    /// shrinking its defaults to a seconds-long configuration — ci.sh runs
    /// each bin once in smoke mode so bench code cannot bit-rot between
    /// release benchmarking sessions. Explicit flags still win over the
    /// smoke defaults.
    pub fn smoke(&self) -> bool {
        self.has("smoke")
    }

    /// Like [`get`](Cli::get), but defaulting to `smoke_default` when
    /// `--smoke` is set (and `--key` is absent).
    pub fn get_smoke<T: std::str::FromStr>(&self, key: &str, default: T, smoke_default: T) -> T {
        let d = if self.smoke() { smoke_default } else { default };
        self.get(key, d)
    }

    /// Like [`get_list`](Cli::get_list), but defaulting to `smoke_default`
    /// when `--smoke` is set (and `--key` is absent).
    pub fn get_list_smoke(
        &self,
        key: &str,
        default: &[usize],
        smoke_default: &[usize],
    ) -> Vec<usize> {
        let d = if self.smoke() { smoke_default } else { default };
        self.get_list(key, d)
    }

    /// Arms the scheduler adversary from `--preempt-ppm` (default 0): every
    /// `Site::Preempt` visit yields with probability N per million
    /// (DESIGN.md P6). Returns the line a bin prints first: `# real, N
    /// hardware threads` or `# adversarial, preempt_ppm=N`. Only this
    /// crate's `fault-injection` feature compiles the registry in; without
    /// it a non-zero rate exits with an error instead of running unarmed.
    pub fn arm_preemption(&self) -> String {
        let ppm = self.get("preempt-ppm", 0u32).min(1_000_000);
        if ppm == 0 {
            let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
            return format!("# real, {threads} hardware threads");
        }
        #[cfg(feature = "fault-injection")]
        {
            use lcrq_util::fault::{FaultAction, Scenario, Site};
            Scenario::new(lcrq_util::rng::test_seed(0x853C_49E6_748F_EA9B))
                .with(Site::Preempt, ppm, FaultAction::Yield)
                .arm();
            format!("# adversarial, preempt_ppm={ppm}")
        }
        #[cfg(not(feature = "fault-injection"))]
        {
            eprintln!(
                "--preempt-ppm {ppm} needs the scheduler adversary, which this build \
                 leaves out: rebuild with `cargo build --release -p lcrq-bench \
                 --features fault-injection`"
            );
            std::process::exit(2);
        }
    }
}

/// Prints a markdown table row.
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Cli {
        Cli::parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_flags_and_switches() {
        let c = cli(&["--pairs", "5000", "--oversubscribed", "--ring-order", "14"]);
        assert_eq!(c.get("pairs", 0u64), 5000);
        assert_eq!(c.get("ring-order", 0u32), 14);
        assert!(c.has("oversubscribed"));
        assert!(!c.has("missing"));
        assert_eq!(c.get("missing", 7u32), 7);
    }

    #[test]
    fn parses_lists() {
        let c = cli(&["--threads", "1,2, 4,8"]);
        assert_eq!(c.get_list("threads", &[]), vec![1, 2, 4, 8]);
        assert_eq!(c.get_list("absent", &[3]), vec![3]);
    }

    #[test]
    fn bad_values_fall_back_to_default() {
        let c = cli(&["--pairs", "abc"]);
        assert_eq!(c.get("pairs", 42u64), 42);
    }

    #[test]
    fn no_preemption_labels_the_run_real() {
        let label = cli(&["--preempt-ppm", "0"]).arm_preemption();
        assert!(label.starts_with("# real, ") && label.ends_with(" hardware threads"));
    }

    #[test]
    fn smoke_swaps_defaults_but_never_explicit_flags() {
        let quiet = cli(&["--pairs", "777"]);
        assert!(!quiet.smoke());
        assert_eq!(quiet.get_smoke("pairs", 10_000u64, 100), 777);
        assert_eq!(quiet.get_smoke("runs", 3usize, 1), 3);

        let smoke = cli(&["--smoke", "--pairs", "777"]);
        assert!(smoke.smoke());
        assert_eq!(smoke.get_smoke("pairs", 10_000u64, 100), 777, "flag wins");
        assert_eq!(smoke.get_smoke("runs", 3usize, 1), 1, "smoke default");
        assert_eq!(smoke.get_list_smoke("threads", &[8, 16], &[2]), vec![2]);
        assert_eq!(
            cli(&["--smoke", "--threads", "4"]).get_list_smoke("threads", &[8], &[2]),
            vec![4]
        );
    }
}

//! The metric catalogue, the folding of repetitions into reported values,
//! the result line the driver reads, and `compare`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Json;
use crate::stats;
use crate::workloads::Rep;

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Higher => "higher",
            Lower => "lower",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// Measured with tracing off, printed by every untraced run of every
/// workload. `BENCHMARK.json` adds the regression bound of each.
pub const END_TO_END: [Metric; 5] = [
    m("ops_per_s", "1/s", Higher),
    m("handoff_p50_ns", "ns", Lower),
    m("consumer_cpu_share", "ratio", Lower),
    m("heap_live_bytes", "B", Lower),
    m("setup_s", "s", Lower),
];

/// Printed by every traced run of every workload: the ledger rows first
/// (they do not depend on the workload), then what the trace and the
/// counters saw on the workload itself.
pub const PER_LAYER: [Metric; 54] = [
    m("atomic.faa_ns", "ns", Lower),
    m("atomic.cas2_ns", "ns", Lower),
    m("core.crq.op_ns", "ns", Lower),
    m("core.lcrq.op_ns", "ns", Lower),
    m("core.lcrq.self_ns", "ns", Lower),
    m("core.lscq.op_ns", "ns", Lower),
    m("core.wcq.op_ns", "ns", Lower),
    m("core.typed.op_ns", "ns", Lower),
    m("core.typed.self_ns", "ns", Lower),
    m("channel.try_op_ns", "ns", Lower),
    m("channel.self_ns", "ns", Lower),
    m("core.sharded.op_ns", "ns", Lower),
    m("core.sharded.self_ns", "ns", Lower),
    m("core.lcrq.empty_deq_ns", "ns", Lower),
    m("channel.empty_try_recv_ns", "ns", Lower),
    m("bench.delay_ns", "ns", Lower),
    m("atomic.faa_duo_ns", "ns", Lower),
    m("core.crq.duo_ns", "ns", Lower),
    m("core.lcrq.duo_ns", "ns", Lower),
    m("core.typed.duo_ns", "ns", Lower),
    m("channel.duo_ns", "ns", Lower),
    m("core.sharded.duo_ns", "ns", Lower),
    m("call.put_ns_p50", "ns", Lower),
    m("call.put_ns_p99", "ns", Lower),
    m("call.take_ns_p50", "ns", Lower),
    m("call.take_ns_p99", "ns", Lower),
    m("producer.ns_per_op", "ns", Lower),
    m("consumer.ns_per_op", "ns", Lower),
    m("producer.cpu_share", "ratio", Lower),
    m("consumer.cpu_share", "ratio", Lower),
    m("handoff_p90_ns", "ns", Lower),
    m("handoff_p99_ns", "ns", Lower),
    m("handoff_p999_ns", "ns", Lower),
    m("handoff_max_ns", "ns", Lower),
    m("sojourn_p50_ns", "ns", Lower),
    m("sojourn_p99_ns", "ns", Lower),
    m("gen.late_share", "ratio", Lower),
    m("gen.max_late_ns", "ns", Lower),
    m("atomic.faa_per_op", "count", Lower),
    m("atomic.cas2_per_op", "count", Lower),
    m("atomic.cas2_fail_share", "ratio", Lower),
    m("core.crq.empty_transitions_per_mop", "count", Lower),
    m("core.crq.unsafe_transitions_per_mop", "count", Lower),
    m("core.crq.closes_per_mop", "count", Lower),
    m("core.crq.spin_waits_per_op", "count", Lower),
    m("core.lcrq.rings_per_mop", "count", Lower),
    m("core.lcrq.ring_count_peak", "count", Lower),
    m("core.pool.reuse_share", "ratio", Higher),
    m("hazard.scans_per_mop", "count", Lower),
    m("channel.parks_per_kop", "count", Lower),
    m("channel.unparks_per_kop", "count", Lower),
    m("channel.spurious_wake_share", "ratio", Lower),
    m("alloc.allocs_per_kop", "count", Lower),
    m("trace.overhead_share", "ratio", Lower),
];

/// One reported metric: its value in every repetition and their median.
pub struct Stat {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub values: Vec<f64>,
}

impl Stat {
    pub fn value(&self) -> f64 {
        let v = stats::median(&self.values);
        if v.is_finite() {
            v
        } else {
            0.0
        }
    }
}

/// Everything one run of one workload reports.
pub struct Outcome {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub stats: Vec<Stat>,
    pub attempted: u64,
    pub failed: u64,
    /// Fewest samples behind any repetition's `handoff_*` percentiles.
    pub handoff_samples: u64,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

type Named = Vec<(&'static str, f64)>;

fn end_to_end_of(rep: &Rep) -> Named {
    vec![
        ("ops_per_s", rep.ops_per_s),
        ("handoff_p50_ns", rep.handoff.percentile(0.50)),
        ("consumer_cpu_share", rep.consumer_cpu_share),
        ("heap_live_bytes", rep.heap_live_bytes),
        ("setup_s", rep.setup_s),
    ]
}

/// What the spans and the counters of one traced repetition say.
fn per_layer_of(rep: &Rep) -> Named {
    // An op is one call into the program: a put or a take.
    let ops = 2 * rep.items;
    let n = |name: &str| rep.counts.get(name).copied().unwrap_or(0);
    let per = |name: &str, scale: f64| ratio(n(name), ops) * scale;
    let rings = n("ring_alloc") + n("ring_reuse");
    vec![
        ("call.put_ns_p50", rep.put_ns.percentile(0.50)),
        ("call.put_ns_p99", rep.put_ns.percentile(0.99)),
        ("call.take_ns_p50", rep.take_ns.percentile(0.50)),
        ("call.take_ns_p99", rep.take_ns.percentile(0.99)),
        ("producer.ns_per_op", rep.producer_ns_per_op),
        ("consumer.ns_per_op", rep.consumer_ns_per_op),
        ("producer.cpu_share", rep.producer_cpu_share),
        ("consumer.cpu_share", rep.consumer_cpu_share),
        ("handoff_p90_ns", rep.handoff.percentile(0.90)),
        ("handoff_p99_ns", rep.handoff.percentile(0.99)),
        ("handoff_p999_ns", rep.handoff.percentile(0.999)),
        ("handoff_max_ns", rep.handoff.max() as f64),
        ("sojourn_p50_ns", rep.sojourn.percentile(0.50)),
        ("sojourn_p99_ns", rep.sojourn.percentile(0.99)),
        ("gen.late_share", rep.late_share),
        ("gen.max_late_ns", rep.max_late_ns as f64),
        ("atomic.faa_per_op", per("faa", 1.0)),
        ("atomic.cas2_per_op", per("cas2_attempt", 1.0)),
        (
            "atomic.cas2_fail_share",
            ratio(n("cas2_failure"), n("cas2_attempt")),
        ),
        (
            "core.crq.empty_transitions_per_mop",
            per("empty_transition", 1e6),
        ),
        (
            "core.crq.unsafe_transitions_per_mop",
            per("unsafe_transition", 1e6),
        ),
        ("core.crq.closes_per_mop", per("crq_closed", 1e6)),
        ("core.crq.spin_waits_per_op", per("spin_wait", 1.0)),
        ("core.lcrq.rings_per_mop", ratio(rings, ops) * 1e6),
        ("core.lcrq.ring_count_peak", rep.ring_count_peak as f64),
        ("core.pool.reuse_share", ratio(n("ring_reuse"), rings)),
        ("hazard.scans_per_mop", per("hazard_scan", 1e6)),
        ("channel.parks_per_kop", per("park", 1e3)),
        ("channel.unparks_per_kop", per("unpark", 1e3)),
        (
            "channel.spurious_wake_share",
            ratio(n("wake_spurious"), n("park")),
        ),
        ("alloc.allocs_per_kop", ratio(rep.allocs, ops) * 1e3),
    ]
}

/// Share of the untraced figure that tracing costs: throughput lost on a
/// closed loop, median handoff added on an open one.
fn trace_overhead(workload: &str, reps: &[Rep]) -> f64 {
    let open_loop = workload.starts_with("openloop");
    let side = |traced: bool| -> f64 {
        let v: Vec<f64> = reps
            .iter()
            .filter(|r| r.traced == traced)
            .map(|r| {
                if open_loop {
                    r.handoff.percentile(0.5)
                } else {
                    r.ops_per_s
                }
            })
            .collect();
        stats::median(&v)
    };
    let (off, with) = (side(false), side(true));
    match (open_loop, off > 0.0) {
        (_, false) => 0.0,
        (false, true) => 1.0 - with / off,
        (true, true) => with / off - 1.0,
    }
}

/// Folds a run's repetitions into an `Outcome`. A traced run alternates
/// untraced and traced repetitions; only the traced ones feed the per-layer
/// values, and the two groups together give `trace.overhead_share`.
pub fn fold(
    workload: &str,
    seed: u64,
    traced: bool,
    reps: &[Rep],
    ledger: &[(&'static str, f64)],
) -> Outcome {
    let mut check = crate::payload::Check::default();
    for r in reps {
        check.merge(&r.check);
    }
    // Every value of every metric, by name; the catalogue then fixes the
    // order and must name exactly what was measured.
    let mut values: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut add = |rows: Named| {
        for (name, v) in rows {
            values.entry(name).or_default().push(v);
        }
    };
    let catalogue: &[Metric] = if traced {
        add(ledger.to_vec());
        reps.iter()
            .filter(|r| r.traced)
            .for_each(|r| add(per_layer_of(r)));
        add(vec![(
            "trace.overhead_share",
            trace_overhead(workload, reps),
        )]);
        &PER_LAYER
    } else {
        reps.iter().for_each(|r| add(end_to_end_of(r)));
        &END_TO_END
    };
    let stats: Vec<Stat> = catalogue
        .iter()
        .map(|m| Stat {
            name: m.name,
            unit: m.unit,
            better: m.better,
            values: values
                .remove(m.name)
                .unwrap_or_else(|| panic!("{} is in the catalogue but was not measured", m.name)),
        })
        .collect();
    assert!(
        values.is_empty(),
        "measured but not in the catalogue: {:?}",
        values.keys()
    );
    Outcome {
        workload: workload.to_string(),
        seed,
        traced,
        stats,
        attempted: check.attempted.max(1),
        failed: check.failed(),
        handoff_samples: reps.iter().map(|r| r.handoff.count()).min().unwrap_or(0),
    }
}

impl Outcome {
    /// The table a person reads: every metric by name with its unit, the
    /// median over repetitions, their quartiles and how many there were.
    pub fn print_table(&self) {
        println!(
            "{:<16} {:<36} {:>16} {:<6} {:<6} {:>16} {:>16} {:>3}  [each repetition]",
            "workload", "metric", "median", "unit", "better", "q1", "q3", "n"
        );
        for s in &self.stats {
            let (q1, _, q3) = stats::quartiles(&s.values);
            let each: Vec<String> = s.values.iter().map(|v| format!("{v:.5e}")).collect();
            println!(
                "{:<16} {:<36} {:>16.4} {:<6} {:<6} {:>16.4} {:>16.4} {:>3}  [{}]",
                self.workload,
                s.name,
                s.value(),
                s.unit,
                s.better.as_str(),
                q1,
                q3,
                s.values.len(),
                each.join(" ")
            );
        }
        println!(
            "{:<16} {:<36} {:>16.3e} {:<6} {:<6} ({} wrong or missing of {} attempted; {} handoff samples per repetition)",
            self.workload,
            "failed_share",
            self.failed as f64 / self.attempted as f64,
            "ratio",
            "zero",
            self.failed,
            self.attempted,
            self.handoff_samples
        );
    }

    /// The one-line JSON object the driver reads from the last line.
    pub fn result_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, st) in self.stats.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                st.name,
                st.value(),
                st.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// `result_line` with the workload, seed and mode in front: one line of
    /// the files `compare` reads.
    pub fn record_line(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, {}",
            self.workload,
            self.seed,
            u8::from(self.traced),
            &self.result_line()[1..]
        )
    }
}

// -------------------------------------------------------------- compare

/// Bound and direction of each end-to-end metric, from `BENCHMARK.json`.
pub fn read_bounds(text: &str) -> Result<Vec<(String, Better, f64)>, String> {
    let j = Json::parse(text)?;
    let list = j
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|e| {
            let name = e
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let better = match e.get("better").and_then(Json::as_str) {
                Some("higher") => Higher,
                Some("lower") => Lower,
                _ => return Err(format!("{name}: better must be higher or lower")),
            };
            let bound = e
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or(format!("{name}: no bound"))?;
            Ok((name.to_string(), better, bound))
        })
        .collect()
}

/// (workload, metric) → the value each untraced run in a results file gave.
pub type Runs = BTreeMap<(String, String), Vec<f64>>;

pub fn read_runs(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let j = Json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        if j.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let workload = j
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("line {}: no workload", n + 1))?;
        let metrics = j
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or(format!("line {}: no metrics", n + 1))?;
        for (name, v) in metrics {
            let value = v
                .get("value")
                .and_then(Json::as_f64)
                .ok_or(format!("line {}: {name} has no value", n + 1))?;
            runs.entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(runs)
}

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Verdict {
    Same,
    Worse,
    Unresolved,
}

/// Judges set `b` against set `a` by the rule of the choosing-metrics
/// guide: worse when b's median is worse than a's by more than the bound;
/// unresolved when either set's quartile distance exceeds the bound, unless
/// every run of one set beats every run of the other; same otherwise.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (stats::median(a), stats::median(b));
    // Positive = b is worse, as a share of a's median.
    let worse_by = match better {
        Higher => (ma - mb) / ma.abs(),
        Lower => (mb - ma) / ma.abs(),
    };
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let separated = max(a) < min(b) || max(b) < min(a);
    let spread = stats::relative_iqr(a).max(stats::relative_iqr(b));
    if spread > bound && !separated {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

/// Prints one row per (metric, workload) and returns how many rows were
/// judged worse and how many unresolved.
pub fn compare(bounds: &[(String, Better, f64)], a: &Runs, b: &Runs) -> (usize, usize) {
    println!(
        "{:<16} {:<20} {:>14} {:>22} {:>14} {:>22} {:>6} {:>7} {:>3} {:>3}  verdict",
        "workload",
        "metric",
        "median A",
        "quartiles A",
        "median B",
        "quartiles B",
        "bound",
        "spread",
        "nA",
        "nB"
    );
    let (mut worse, mut unresolved) = (0, 0);
    for ((workload, metric), va) in a {
        let Some(vb) = b.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let Some((_, better, bound)) = bounds.iter().find(|(n, _, _)| n == metric) else {
            continue;
        };
        let v = verdict(va, vb, *better, *bound);
        match v {
            Verdict::Worse => worse += 1,
            Verdict::Unresolved => unresolved += 1,
            Verdict::Same => {}
        }
        let (a1, am, a3) = stats::quartiles(va);
        let (b1, bm, b3) = stats::quartiles(vb);
        println!(
            "{:<16} {:<20} {:>14.5e} {:>22} {:>14.5e} {:>22} {:>6.3} {:>7.4} {:>3} {:>3}  {}",
            workload,
            metric,
            am,
            format!("{a1:.4e}..{a3:.4e}"),
            bm,
            format!("{b1:.4e}..{b3:.4e}"),
            bound,
            stats::relative_iqr(va).max(stats::relative_iqr(vb)),
            va.len(),
            vb.len(),
            match v {
                Verdict::Same => "same",
                Verdict::Worse => "worse",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    (worse, unresolved)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let j = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<(String, String, String)> {
            j.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|e| {
                    let s = |k: &str| e.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let ours = |list: &[Metric]| -> Vec<(String, String, String)> {
            list.iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        m.unit.to_string(),
                        m.better.as_str().to_string(),
                    )
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), ours(&END_TO_END));
        assert_eq!(names("per_layer"), ours(&PER_LAYER));
        let workloads: Vec<String> = j
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }

    #[test]
    fn verdict_follows_the_guide() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [80.0, 81.0, 79.0, 80.5, 79.5];
        assert_eq!(verdict(&a, &a, Higher, 0.05), Verdict::Same);
        assert_eq!(verdict(&a, &slower, Higher, 0.05), Verdict::Worse);
        assert_eq!(verdict(&a, &slower, Lower, 0.05), Verdict::Same);
        let noisy = [60.0, 140.0, 100.0, 75.0, 125.0];
        assert_eq!(verdict(&a, &noisy, Higher, 0.05), Verdict::Unresolved);
        // Wide, but every run of b is worse than every run of a.
        let wide_slow = [30.0, 60.0, 45.0, 50.0, 40.0];
        assert_eq!(verdict(&a, &wide_slow, Higher, 0.05), Verdict::Worse);
    }
}

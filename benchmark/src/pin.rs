//! Worker placement. The allowed-CPU mask is captured once, on the unpinned
//! main thread, before any worker exists: `affinity::pin_round_robin`
//! re-reads the mask on every call, so a thread spawned by an already
//! pinned parent silently lands on the parent's CPU (a prototype lost 99 %
//! of its SPSC throughput that way). The main thread is never pinned.

use crate::adapter;

pub struct Cpus(Vec<usize>);

impl Cpus {
    /// Reads the process's CPU mask. Fails when fewer than two CPUs are
    /// available: every two-thread workload needs two real CPUs.
    pub fn capture() -> Result<Cpus, String> {
        let cpus = adapter::allowed_cpus();
        if cpus.len() < 2 {
            return Err(format!(
                "the benchmark needs 2 CPUs for its worker threads, the affinity mask allows {} ({:?})",
                cpus.len(),
                cpus
            ));
        }
        Ok(Cpus(cpus))
    }

    /// Pins the calling worker to the CPU of `slot` and returns the CPU the
    /// thread reports afterwards.
    pub fn pin_worker(&self, slot: usize) -> usize {
        let cpu = self.0[slot % self.0.len()];
        if let Err(e) = adapter::pin_to_cpu(cpu) {
            panic!("cannot pin worker {slot} to cpu {cpu}: {e}");
        }
        match adapter::allowed_cpus().as_slice() {
            [only] => *only,
            other => panic!("worker {slot} pinned to cpu {cpu} but reports mask {other:?}"),
        }
    }
}

/// Aborts the run when two workers share a CPU.
pub fn assert_distinct(reported: &[usize]) {
    for (i, a) in reported.iter().enumerate() {
        assert!(
            !reported[..i].contains(a),
            "workers share cpu {a} (reported {reported:?}): results would measure the scheduler"
        );
    }
}

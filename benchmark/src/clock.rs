//! Time sources of the benchmark: a monotonic nanosecond clock per
//! repetition, the calling thread's CPU time, and a counted spin delay.

use std::hint::black_box;
use std::io::Read;
use std::sync::OnceLock;
use std::time::Instant;

/// Origin of one repetition's nanosecond timestamps. Payloads carry the low
/// 32 bits of these, so an epoch is taken fresh for every repetition.
#[derive(Clone, Copy)]
pub struct Epoch(Instant);

impl Epoch {
    pub fn start() -> Self {
        Epoch(Instant::now())
    }
    #[inline]
    pub fn ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Nanoseconds the calling thread has spent on a CPU: the first field of
/// `/proc/thread-self/schedstat`. Panics where the kernel does not provide
/// it, since `consumer_cpu_share` would silently read 0.
pub fn thread_cpu_ns() -> u64 {
    const PATH: &str = "/proc/thread-self/schedstat";
    let mut buf = [0u8; 96];
    let read = std::fs::File::open(PATH).and_then(|mut f| f.read(&mut buf));
    let n = read.unwrap_or_else(|e| panic!("cannot read {PATH}: {e}"));
    std::str::from_utf8(&buf[..n])
        .ok()
        .and_then(|text| text.split_ascii_whitespace().next()?.parse().ok())
        .unwrap_or_else(|| panic!("{PATH} does not start with a number"))
}

/// Busy-waits for `iters` turns of an empty counted loop, touching neither
/// shared memory nor the clock: the think time of `duo_pairs`, after the
/// paper's §5. Counted, not timed, so the same seed asks for the same work
/// on every run; `bench.delay_ns` reports how long it really took.
#[inline(never)]
pub fn spin(iters: u32) {
    // Each turn depends on the one before, so the loop cannot be unrolled
    // into independent work and a turn costs about one cycle.
    let mut left = iters;
    while left > 0 {
        left = black_box(left) - 1;
    }
}

static CLOCK_COST_NS: OnceLock<f64> = OnceLock::new();

/// Measures the cost of one clock read. Called once from `main` before any
/// worker starts; the workers only read it.
pub fn calibrate() {
    CLOCK_COST_NS.get_or_init(|| {
        const READS: u32 = 1 << 14;
        let costs: Vec<f64> = (0..9)
            .map(|_| {
                let e = Epoch::start();
                let t = Instant::now();
                for _ in 0..READS {
                    black_box(e.ns());
                }
                t.elapsed().as_nanos() as f64 / READS as f64
            })
            .collect();
        crate::stats::median(&costs)
    });
}

/// Cost of one `Epoch::ns()` read, subtracted from intervals that contain
/// exactly one read more than the interval they stand for.
pub fn clock_cost_ns() -> f64 {
    *CLOCK_COST_NS
        .get()
        .expect("clock::calibrate() runs first in main")
}

//! Small fast pseudo-random number generators for workload generation.
//!
//! The paper's methodology inserts a random pause of up to 100 ns between
//! queue operations to avoid artificial "long run" scenarios (§5). That RNG
//! sits on the measurement path, so it must be branch-light and allocation
//! free; `xorshift64*` fits in three shifts and one multiply.

/// A `xorshift64*` generator (Vigna, 2016): 64 bits of state, period 2^64-1.
///
/// Not cryptographically secure; used only for workload jitter and test-input
/// shuffling.
///
/// ```
/// use lcrq_util::XorShift64Star;
/// let mut rng = XorShift64Star::new(42);
/// let a = rng.next_u64();
/// let b = rng.next_u64();
/// assert_ne!(a, b);
/// ```
#[derive(Debug, Clone)]
pub struct XorShift64Star {
    state: u64,
}

impl XorShift64Star {
    /// Creates a generator from `seed`. A zero seed is remapped to a fixed
    /// non-zero constant (xorshift state must never be zero).
    pub const fn new(seed: u64) -> Self {
        let state = if seed == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            seed
        };
        Self { state }
    }

    /// Returns the next 64-bit pseudo-random value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Returns a value uniformly distributed in `[0, bound)` using the
    /// widening-multiply trick (Lemire, 2019). `bound` must be non-zero.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Returns `true` with probability `num / den`.
    #[inline]
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_below(den) < num
    }
}

/// The SplitMix64 finalizer (Steele et al., 2014): a cheap bijective
/// mixer. Used to derive decorrelated per-thread stream seeds from a
/// shared base seed and a thread ordinal — unlike raw xorshift seeding,
/// nearby inputs (ordinals 1, 2, 3, ...) produce statistically unrelated
/// outputs.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Resolves the seed a randomized test harness should run with: the value
/// of the `LCRQ_TEST_SEED` environment variable when set (decimal, or hex
/// with a `0x` prefix), otherwise `default`.
///
/// Failing property/stress harnesses print their effective seed in the
/// panic message; exporting it through `LCRQ_TEST_SEED` replays every
/// randomized round with exactly that seed, turning a red CI run into a
/// deterministic local reproduction. Unparsable values fall back to
/// `default` rather than failing, so a typo degrades to a normal run.
pub fn test_seed(default: u64) -> u64 {
    match std::env::var("LCRQ_TEST_SEED") {
        Ok(s) => parse_seed(&s).unwrap_or(default),
        Err(_) => default,
    }
}

/// Parses a seed string: decimal, or hex with a `0x`/`0X` prefix.
fn parse_seed(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_seed_is_remapped() {
        let mut a = XorShift64Star::new(0);
        // Would loop forever on zero state; just check it produces values.
        assert_ne!(a.next_u64(), a.next_u64());
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = XorShift64Star::new(7);
        let mut b = XorShift64Star::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn distinct_seeds_diverge() {
        let mut a = XorShift64Star::new(7);
        let mut b = XorShift64Star::new(8);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = XorShift64Star::new(123);
        for bound in [1u64, 2, 3, 17, 100, u64::MAX] {
            for _ in 0..200 {
                assert!(rng.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn next_below_covers_small_range_roughly_uniformly() {
        let mut rng = XorShift64Star::new(99);
        let mut counts = [0u32; 4];
        for _ in 0..40_000 {
            counts[rng.next_below(4) as usize] += 1;
        }
        for &c in &counts {
            // Each bucket should get ~10_000; allow generous slack.
            assert!((8_000..12_000).contains(&c), "counts={counts:?}");
        }
    }

    #[test]
    fn test_seed_parses_decimal_and_hex_and_tolerates_junk() {
        // The env var is process-global: poke the parser directly instead
        // of racing other tests over set_var.
        assert_eq!(parse_seed("12345"), Some(12345));
        assert_eq!(parse_seed("0xBEEF"), Some(0xBEEF));
        assert_eq!(parse_seed("0XbeeF"), Some(0xBEEF));
        assert_eq!(parse_seed(" 42 "), Some(42));
        assert_eq!(parse_seed("not-a-seed"), None);
        // And the real resolver honors the default when the var is unset.
        if std::env::var("LCRQ_TEST_SEED").is_err() {
            assert_eq!(test_seed(99), 99);
        }
    }
}

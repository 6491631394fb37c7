//! The benchmark's own seeded generator (xorshift64*, seeded through
//! splitmix64): the program under test never sees it, only what it makes.

pub struct Rng(u64);

impl Rng {
    /// Stream `stream` of seed `seed`; different streams are decorrelated.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut z = seed
            .wrapping_add(stream.wrapping_mul(0xA076_1D64_78BD_642F))
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (`n` > 0).
    #[inline]
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next_u64() >> 32) * n as u64) >> 32) as u32
    }

    /// Think time between two calls of `duo_pairs`, in turns of
    /// `clock::spin`: 130–390, which is the 50–150 ns of the paper's §5 on
    /// the reference host.
    #[inline]
    pub fn think_iters(&mut self) -> u32 {
        130 + self.below(260)
    }
}

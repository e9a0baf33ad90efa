//! The benchmark's own PRNG and content hash.
//!
//! Inputs must not depend on any program crate (not even the `rand`
//! shim), so that a program change can never alter the load: the
//! generator is splitmix64, the pool fingerprint is FNV-1a.

/// splitmix64 — small, seedable, and good enough for input synthesis.
pub struct Rng(u64);

impl Rng {
    /// An independent stream per `(seed, purpose)`: one workload's
    /// inputs never shift because another stream drew more numbers.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` for `n < 2³²` (multiply-shift; the bias is
    /// below `n / 2³²`).
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 32) * n as u64) >> 32) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64) < p * (1u64 << 53) as f64
    }

    /// One uniform base code (A, C, G, T = 0..=3).
    pub fn base(&mut self) -> u8 {
        (self.next_u64() >> 62) as u8
    }
}

/// FNV-1a over everything a workload feeds the program; printed in
/// every report so "same seed ⇒ same inputs" is checkable.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

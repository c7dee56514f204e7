//! Tiny deterministic RNG for hot paths.
//!
//! Workload generators use `rand::StdRng` for rich distributions; inner loops
//! that just need a fast, reproducible stream (sampling responsibilities
//! during RQ-RMI training, hash seeds) use this SplitMix64, which is two
//! instructions-ish per draw and has no crate-version drift in its output.
//! RQ-RMI training gives each submodel its own stream, seeded by a draw
//! from a generator seeded with the submodel's stage and index.

/// SplitMix64 — the classic 64-bit mixer (Steele et al., used to seed
/// xoshiro). Deterministic across platforms and releases.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

/// What every draw adds to the state (the golden-ratio increment).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

impl SplitMix64 {
    /// Creates a generator from a seed.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`. Uses the widening-multiply trick
    /// (Lemire); bias is negligible for our workloads. Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform value in the inclusive range `[lo, hi]`.
    #[inline]
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.below(span + 1)
    }

    /// Uniform f64 in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        // The published SplitMix64 stream from seed 0.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xe220_a839_7b1d_cdaf);
        r.next_u64();
        assert_eq!(r.next_u64(), 0x06c4_5d18_8009_454f, "third draw");
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SplitMix64::new(1);
        for _ in 0..10_000 {
            assert!(r.below(7) < 7);
        }
    }

    #[test]
    fn range_inclusive_hits_endpoints() {
        let mut r = SplitMix64::new(3);
        let (mut saw_lo, mut saw_hi) = (false, false);
        for _ in 0..10_000 {
            let v = r.range_inclusive(5, 8);
            assert!((5..=8).contains(&v));
            saw_lo |= v == 5;
            saw_hi |= v == 8;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn f64_unit_interval() {
        let mut r = SplitMix64::new(9);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = r.f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        // Mean should be close to 0.5.
        assert!((sum / 10_000.0 - 0.5).abs() < 0.02);
    }
}

//! Fast non-cryptographic hashing for tuple tables.
//!
//! This is the FxHash mix (Firefox / rustc): one rotate, one xor, one
//! multiply per word — plenty of diffusion for masked header fields, fully
//! deterministic across runs and platforms. The multiply comes last, so the
//! *top* bits of a hash are its best; tables index with those.

/// Multiplicative constant from FxHash (64-bit).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Non-zero initial state so a stream of zero words still advances the hash
/// (with a zero start, `(0 ^ 0) * SEED == 0` absorbs any number of zeros).
pub(crate) const INIT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Mixes one word into a hash state (start from [`INIT`]).
#[inline]
pub(crate) fn mix(state: u64, v: u64) -> u64 {
    (state.rotate_left(5) ^ v).wrapping_mul(SEED)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hashes a slice of masked field values.
    fn hash_fields(vals: &[u64]) -> u64 {
        vals.iter().fold(INIT, |h, &v| mix(h, v))
    }

    #[test]
    fn deterministic_and_sensitive() {
        assert_eq!(hash_fields(&[1, 2, 3]), hash_fields(&[1, 2, 3]));
        assert_ne!(hash_fields(&[1, 2, 3]), hash_fields(&[1, 2, 4]));
        assert_ne!(hash_fields(&[1, 2, 3]), hash_fields(&[3, 2, 1]));
        assert_ne!(hash_fields(&[0]), hash_fields(&[0, 0]));
    }

    #[test]
    fn distribution_is_reasonable() {
        // 4K sequential keys into 64 buckets: no bucket > 4x the mean.
        let mut counts = [0u32; 64];
        for i in 0..4096u64 {
            counts[(hash_fields(&[i]) % 64) as usize] += 1;
        }
        let mean = 4096 / 64;
        assert!(counts.iter().all(|&c| c < mean * 4), "{counts:?}");
    }
}

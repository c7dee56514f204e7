//! Inclusive `u64` intervals — the atom every rule field lowers to.
//!
//! Prefixes (`10.10.0.0/16`), port ranges (`1024–65535`), exact values and
//! wildcards are all represented as a closed interval `[lo, hi]`. Keeping a
//! single representation lets the iSet partitioner, the RQ-RMI trainer and
//! every baseline share one overlap/containment vocabulary.

/// An inclusive interval `[lo, hi]` over a `u64` field domain.
///
/// Invariant: `lo <= hi`. Constructors uphold it; [`FieldRange::new`] panics
/// on violation so corrupted rules never propagate silently.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FieldRange {
    /// Inclusive lower bound.
    pub lo: u64,
    /// Inclusive upper bound.
    pub hi: u64,
}

impl core::fmt::Debug for FieldRange {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

impl FieldRange {
    /// Creates `[lo, hi]`. Panics if `lo > hi`.
    #[inline]
    pub fn new(lo: u64, hi: u64) -> Self {
        assert!(lo <= hi, "FieldRange requires lo <= hi, got [{lo}, {hi}]");
        Self { lo, hi }
    }

    /// A range matching exactly one value.
    #[inline]
    pub fn exact(v: u64) -> Self {
        Self { lo: v, hi: v }
    }

    /// The full domain of a `bits`-wide field (a wildcard).
    #[inline]
    pub fn wildcard(bits: u8) -> Self {
        Self { lo: 0, hi: domain_max(bits) }
    }

    /// Builds a range from a prefix: `value/prefix_len` over a `bits`-wide
    /// field. `prefix_len == 0` is the wildcard; `prefix_len == bits` is an
    /// exact match.
    ///
    /// Bits of `value` below the prefix are ignored, so
    /// `from_prefix(0x0a0a_0000, 16, 32)` and `from_prefix(0x0a0a_ffff, 16, 32)`
    /// produce the same range.
    #[inline]
    pub fn from_prefix(value: u64, prefix_len: u8, bits: u8) -> Self {
        assert!(prefix_len <= bits, "prefix_len {prefix_len} > field width {bits}");
        assert!(bits <= 64);
        if prefix_len == 0 {
            return Self::wildcard(bits);
        }
        let host_bits = bits - prefix_len;
        let base = if host_bits >= 64 { 0 } else { (value >> host_bits) << host_bits };
        let hi = base | low_mask(host_bits);
        Self { lo: base, hi }
    }

    /// Number of values covered; saturates at `u64::MAX` for the full 64-bit
    /// domain (which has 2^64 values).
    #[inline]
    pub fn width(&self) -> u64 {
        (self.hi - self.lo).saturating_add(1)
    }

    /// True iff `v` lies inside the interval.
    #[inline(always)]
    pub fn contains(&self, v: u64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// True iff the two intervals share at least one value.
    #[inline(always)]
    pub fn overlaps(&self, other: &FieldRange) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    /// True iff `other` is fully inside `self`.
    #[inline]
    pub fn covers(&self, other: &FieldRange) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// True iff the range is the whole `bits`-wide domain.
    #[inline]
    pub fn is_wildcard(&self, bits: u8) -> bool {
        self.lo == 0 && self.hi == domain_max(bits)
    }

    /// The "longest covering prefix" of the range: the longest prefix length
    /// `p` such that one aligned `p`-block covers the whole range. Always
    /// exists (`p == 0` covers everything). Hash classifiers use this to file
    /// non-prefix ranges under a coarser tuple.
    pub fn covering_prefix(&self, bits: u8) -> (u64, u8) {
        // Find the number of host bits needed so one block spans [lo, hi].
        let mut host = 0u8;
        while host < bits {
            let base = (self.lo >> host) << host;
            let hi = base | low_mask(host);
            if hi >= self.hi {
                return (base, bits - host);
            }
            host += 1;
        }
        (0, 0)
    }
}

/// The largest value of a `bits`-wide domain (`2^bits - 1`).
#[inline]
pub fn domain_max(bits: u8) -> u64 {
    debug_assert!(bits <= 64);
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// A mask with the low `n` bits set.
#[inline]
fn low_mask(n: u8) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_and_wildcard() {
        let e = FieldRange::exact(7);
        assert!(e.contains(7) && !e.contains(8));
        assert_eq!(e.width(), 1);
        let w = FieldRange::wildcard(16);
        assert_eq!(w.lo, 0);
        assert_eq!(w.hi, 65535);
        assert!(w.is_wildcard(16));
        assert!(!w.is_wildcard(17));
    }

    #[test]
    fn from_prefix_basic() {
        // 10.10.0.0/16
        let ip = (10u64 << 24) | (10 << 16);
        let r = FieldRange::from_prefix(ip, 16, 32);
        assert_eq!(r.lo, ip);
        assert_eq!(r.hi, ip | 0xffff);
        // low bits of value are ignored
        let r2 = FieldRange::from_prefix(ip | 0xabcd, 16, 32);
        assert_eq!(r, r2);
        // /0 is the wildcard
        assert!(FieldRange::from_prefix(1234, 0, 32).is_wildcard(32));
        // /32 is exact
        assert_eq!(FieldRange::from_prefix(ip, 32, 32), FieldRange::exact(ip));
    }

    #[test]
    fn overlap_and_intersect() {
        let a = FieldRange::new(10, 20);
        let b = FieldRange::new(20, 30);
        let c = FieldRange::new(21, 30);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(FieldRange::new(0, 100).covers(&a));
        assert!(!a.covers(&FieldRange::new(10, 21)));
    }

    #[test]
    fn covering_prefix_spans_range() {
        for (lo, hi) in [(1u64, 14u64), (0, 255), (100, 101), (77, 77)] {
            let r = FieldRange::new(lo, hi);
            let (base, plen) = r.covering_prefix(8);
            let block = FieldRange::from_prefix(base, plen, 8);
            assert!(block.covers(&r), "({lo},{hi}) -> {base}/{plen}");
        }
        // An exact value is covered by the full-length prefix.
        assert_eq!(FieldRange::exact(9).covering_prefix(8), (9, 8));
    }

    #[test]
    fn domain_helpers() {
        assert_eq!(domain_max(0), 0);
        assert_eq!(domain_max(8), 255);
        assert_eq!(domain_max(64), u64::MAX);
        assert_eq!(low_mask(0), 0);
        assert_eq!(low_mask(64), u64::MAX);
    }

    #[test]
    #[should_panic]
    fn new_rejects_inverted() {
        let _ = FieldRange::new(5, 4);
    }
}

//! Tuple computation: from a rule's box to its per-field mask lengths.

use nm_common::range::FieldRange;
use nm_common::ruleset::FieldsSpec;

/// A tuple: the number of significant (masked-in) top bits per field.
///
/// Tuple Space Search files every rule under its *natural* tuple; TupleMerge
/// relaxes tuples so several natural tuples share a table.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Tuple(pub Vec<u8>);

impl Tuple {
    /// The natural tuple of a rule: per field, the covering-prefix length of
    /// its range (exact value → full width, wildcard → 0, arbitrary range →
    /// longest aligned block containing it).
    pub fn natural(fields: &[FieldRange], spec: &FieldsSpec) -> Tuple {
        Tuple(fields.iter().enumerate().map(|(d, r)| r.covering_prefix(spec.bits(d)).1).collect())
    }

    /// [`Tuple::natural`] of a box stored flat, `lo, hi` per field.
    pub(crate) fn natural_of_bounds(bounds: &[u64], spec: &FieldsSpec) -> Tuple {
        let field =
            |(d, b): (usize, &[u64])| FieldRange::new(b[0], b[1]).covering_prefix(spec.bits(d)).1;
        Tuple(bounds.chunks_exact(2).enumerate().map(field).collect())
    }

    /// TupleMerge relaxation: IP-like fields (> 16 bits) are rounded down to
    /// a multiple of 4, port-like fields (9–16 bits) collapse to
    /// exact-or-wildcard, small fields (≤ 8 bits) keep their natural length.
    /// This caps the number of distinct tables at a few dozen for 5-tuple
    /// sets while keeping masks conservative (a table mask is always ≤ the
    /// natural length, so bucket lookups stay correct).
    pub fn relaxed(&self, spec: &FieldsSpec) -> Tuple {
        Tuple(
            self.0
                .iter()
                .enumerate()
                .map(|(d, &len)| {
                    let bits = spec.bits(d);
                    if bits > 16 {
                        len & !3
                    } else if bits > 8 {
                        if len == bits {
                            bits
                        } else {
                            0
                        }
                    } else {
                        len
                    }
                })
                .collect(),
        )
    }

    /// True when a rule with natural tuple `self` can live in a table with
    /// mask lengths `table`: the table masks no more bits than the rule
    /// guarantees are significant.
    pub fn fits_in(&self, table: &Tuple) -> bool {
        self.0.iter().zip(&table.0).all(|(&nat, &tab)| tab <= nat)
    }

    /// Masks a concrete key value for field `d` down to the tuple's top
    /// bits.
    #[inline]
    pub fn mask_value(&self, d: usize, v: u64, bits: u8) -> u64 {
        let len = self.0[d];
        if len == 0 {
            0
        } else {
            v >> (bits - len)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_common::FieldsSpec;

    #[test]
    fn natural_tuple_five_tuple() {
        let spec = FieldsSpec::five_tuple();
        let fields = vec![
            FieldRange::from_prefix(0x0a0a_0000, 16, 32), // /16
            FieldRange::wildcard(32),                     // /0
            FieldRange::wildcard(16),                     // port wildcard
            FieldRange::exact(443),                       // exact port
            FieldRange::exact(6),                         // exact proto
        ];
        let t = Tuple::natural(&fields, &spec);
        assert_eq!(t.0, vec![16, 0, 0, 16, 8]);
    }

    #[test]
    fn natural_tuple_arbitrary_range_uses_covering_prefix() {
        let spec = FieldsSpec::five_tuple();
        let mut fields = vec![
            FieldRange::wildcard(32),
            FieldRange::wildcard(32),
            FieldRange::wildcard(16),
            FieldRange::new(1024, 65535), // covering prefix: /0
            FieldRange::wildcard(8),
        ];
        assert_eq!(Tuple::natural(&fields, &spec).0[3], 0);
        fields[3] = FieldRange::new(1024, 2047); // exactly the /6 block
        assert_eq!(Tuple::natural(&fields, &spec).0[3], 6);
    }

    #[test]
    fn relaxation_rounds_ips_and_collapses_ports() {
        let spec = FieldsSpec::five_tuple();
        let t = Tuple(vec![18, 31, 16, 9, 8]);
        let r = t.relaxed(&spec);
        assert_eq!(r.0, vec![16, 28, 16, 0, 8]);
        assert!(t.fits_in(&r));
    }

    #[test]
    fn mask_value_takes_top_bits() {
        let t = Tuple(vec![8]);
        assert_eq!(t.mask_value(0, 0xAB00_0000, 32), 0xAB);
        let w = Tuple(vec![0]);
        assert_eq!(w.mask_value(0, 0xAB00_0000, 32), 0);
    }

    #[test]
    fn keys_in_rule_range_mask_identically() {
        // The invariant table lookups rely on: every value inside a rule's
        // range masks to the rule's own masked value under any table tuple
        // the rule fits in.
        let spec = FieldsSpec::five_tuple();
        let r = FieldRange::new(1024, 2047);
        let fields = vec![
            FieldRange::wildcard(32),
            FieldRange::wildcard(32),
            FieldRange::wildcard(16),
            r,
            FieldRange::wildcard(8),
        ];
        let nat = Tuple::natural(&fields, &spec);
        let table = nat.relaxed(&spec);
        let rule_masked = table.mask_value(3, r.lo, 16);
        for v in [1024u64, 1500, 2047] {
            assert_eq!(table.mask_value(3, v, 16), rule_masked);
        }
    }
}

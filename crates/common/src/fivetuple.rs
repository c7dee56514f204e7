//! 5-tuple conventions and convenience builders.
//!
//! The classic classification 5-tuple — src-ip, dst-ip, src-port, dst-port,
//! protocol — is the schema of every ClassBench-style rule-set. This module
//! fixes the field order once and provides readable rule constructors so the
//! generators, parsers and examples never disagree on dimension indices.

use crate::range::FieldRange;
use crate::rule::{Priority, Rule, RuleId};

/// Dimension index of the source IP (32 bits).
pub const SRC_IP: usize = 0;
/// Dimension index of the destination IP (32 bits).
pub const DST_IP: usize = 1;
/// Dimension index of the source port (16 bits).
pub const SRC_PORT: usize = 2;
/// Dimension index of the destination port (16 bits).
pub const DST_PORT: usize = 3;
/// Dimension index of the protocol (8 bits).
pub const PROTO: usize = 4;
/// Number of fields in the 5-tuple schema.
pub const FIVE_TUPLE_FIELDS: usize = 5;

/// Builder for 5-tuple rules with prefix/range/exact syntax.
///
/// ```
/// use nm_common::FiveTuple;
/// // ACL-style: 10.10.0.0/16 -> anywhere, dst-port 80, TCP
/// let rule = FiveTuple::new()
///     .src_prefix([10, 10, 0, 0], 16)
///     .dst_port_exact(80)
///     .proto_exact(6)
///     .into_rule(0, 0);
/// assert!(rule.matches(&[0x0a0a_1234, 99, 7777, 80, 6]));
/// ```
#[derive(Clone, Debug)]
pub struct FiveTuple {
    fields: [FieldRange; FIVE_TUPLE_FIELDS],
}

impl Default for FiveTuple {
    fn default() -> Self {
        Self::new()
    }
}

impl FiveTuple {
    /// Starts from the all-wildcard rule.
    pub fn new() -> Self {
        Self {
            fields: [
                FieldRange::wildcard(32),
                FieldRange::wildcard(32),
                FieldRange::wildcard(16),
                FieldRange::wildcard(16),
                FieldRange::wildcard(8),
            ],
        }
    }

    /// Sets the source IP to `a.b.c.d/len`.
    pub fn src_prefix(mut self, octets: [u8; 4], len: u8) -> Self {
        self.fields[SRC_IP] = FieldRange::from_prefix(ipv4(octets), len, 32);
        self
    }

    /// Sets the destination IP to `a.b.c.d/len`.
    pub fn dst_prefix(mut self, octets: [u8; 4], len: u8) -> Self {
        self.fields[DST_IP] = FieldRange::from_prefix(ipv4(octets), len, 32);
        self
    }

    /// Sets the source IP from a raw `u32` and prefix length.
    pub fn src_prefix_raw(mut self, value: u32, len: u8) -> Self {
        self.fields[SRC_IP] = FieldRange::from_prefix(value as u64, len, 32);
        self
    }

    /// Sets the destination IP from a raw `u32` and prefix length.
    pub fn dst_prefix_raw(mut self, value: u32, len: u8) -> Self {
        self.fields[DST_IP] = FieldRange::from_prefix(value as u64, len, 32);
        self
    }

    /// Sets an arbitrary source-port range.
    pub fn src_port_range(mut self, lo: u16, hi: u16) -> Self {
        self.fields[SRC_PORT] = FieldRange::new(lo as u64, hi as u64);
        self
    }

    /// Sets an arbitrary destination-port range.
    pub fn dst_port_range(mut self, lo: u16, hi: u16) -> Self {
        self.fields[DST_PORT] = FieldRange::new(lo as u64, hi as u64);
        self
    }

    /// Sets an exact source port.
    pub fn src_port_exact(self, p: u16) -> Self {
        self.src_port_range(p, p)
    }

    /// Sets an exact destination port.
    pub fn dst_port_exact(self, p: u16) -> Self {
        self.dst_port_range(p, p)
    }

    /// Sets an exact protocol (6 = TCP, 17 = UDP, ...).
    pub fn proto_exact(mut self, p: u8) -> Self {
        self.fields[PROTO] = FieldRange::exact(p as u64);
        self
    }

    /// Finishes the rule with the given id and priority.
    pub fn into_rule(self, id: RuleId, priority: Priority) -> Rule {
        Rule::new(id, priority, self.fields.to_vec())
    }
}

/// Packs dotted-quad octets into the `u64` key value.
#[inline]
pub fn ipv4(octets: [u8; 4]) -> u64 {
    ((octets[0] as u64) << 24)
        | ((octets[1] as u64) << 16)
        | ((octets[2] as u64) << 8)
        | octets[3] as u64
}

/// Formats a `u64` key value as dotted-quad (for reports).
pub fn format_ipv4(v: u64) -> String {
    format!("{}.{}.{}.{}", (v >> 24) & 255, (v >> 16) & 255, (v >> 8) & 255, v & 255)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_expected_box() {
        let r = FiveTuple::new()
            .src_prefix([192, 168, 0, 0], 16)
            .dst_prefix([10, 0, 0, 1], 32)
            .src_port_range(1024, 65535)
            .dst_port_exact(443)
            .proto_exact(6)
            .into_rule(5, 1);
        assert_eq!(r.id, 5);
        assert!(r.matches(&[ipv4([192, 168, 3, 4]), ipv4([10, 0, 0, 1]), 5000, 443, 6]));
        assert!(!r.matches(&[ipv4([192, 169, 3, 4]), ipv4([10, 0, 0, 1]), 5000, 443, 6]));
        assert!(!r.matches(&[ipv4([192, 168, 3, 4]), ipv4([10, 0, 0, 1]), 80, 443, 6]));
    }

    #[test]
    fn ipv4_roundtrip() {
        let v = ipv4([10, 20, 30, 40]);
        assert_eq!(format_ipv4(v), "10.20.30.40");
    }

    #[test]
    fn default_is_wildcard() {
        let r = FiveTuple::new().into_rule(0, 0);
        assert!(r.matches(&[0, 0, 0, 0, 0]));
        assert!(r.matches(&[u32::MAX as u64, u32::MAX as u64, 65535, 65535, 255]));
    }
}

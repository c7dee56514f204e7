//! Property test of the update-in-place layout: random interleavings of
//! insert / modify / remove / re-insert-same-id, with priorities duplicated
//! on purpose, checked after every batch against [`LinearSearch`] over the
//! same live rules — on every lookup entry point — and against the layout's
//! own invariants. Address prefixes vary in their top 12 bits and straddle
//! the /8 and /12 lines, so the comparison also covers the table filter:
//! rules that span several rows, stale bits after removals, a split table's
//! column reset, and the recompute.

use crate::engine::TupleMergeConfig;
use crate::TupleMerge;
use nm_common::{
    BatchUpdatable, Classifier, FieldsSpec, FiveTuple, LinearSearch, MatchResult, Priority, Rule,
    RuleId, RuleSet, UpdateBatch,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A rule whose shape, masked value and priority all come from small pools,
/// so buckets fill up, priorities tie and tuples get shared.
fn rule(id: RuleId, x: u64) -> Rule {
    let priority = match x % 11 {
        10 => Priority::MAX,
        p => (p % 5) as Priority,
    };
    let (a, b) = (x / 11 % 13, x / 143);
    let ft = match x % 4 {
        // One dst-port table, few distinct ports: long same-key runs.
        0 => FiveTuple::new().dst_port_exact(1_000 + a as u16),
        // Many distinct ports: the same table's slot array has to grow.
        1 => FiveTuple::new().dst_port_exact(b as u16).proto_exact(6),
        // Nested prefixes: refinable, so an overflowing bucket can split.
        // Few top bytes, bits 20–23 varied under them, and lengths on both
        // sides of a byte and of 12 bits: tables that set every filter row,
        // rules that set up to 16 rows and rules that set one, and the lines
        // between them — on one address or on both.
        2 => {
            const LENS: [u8; 17] = [0, 4, 7, 8, 9, 10, 11, 12, 13, 14, 16, 18, 20, 24, 27, 28, 32];
            let ip = |n: u64| {
                ([0x0a, 0x0b, 0xc0, 0xc1][n as usize % 4] << 24 | (n / 4 % 16) << 20 | n << 8)
                    as u32
            };
            let len = |i: u64| LENS[i as usize % LENS.len()];
            let ft = FiveTuple::new().src_prefix_raw(ip(b), len(x / 11));
            match b % 3 {
                0 => ft,
                _ => ft.dst_prefix_raw(ip(b / 3), len(x / 11 + b)),
            }
        }
        // A range whose covering prefix is short: lives in a coarse table.
        _ => FiveTuple::new().dst_port_range(a as u16 * 900, a as u16 * 900 + b as u16),
    };
    ft.into_rule(id, priority)
}

/// Asserts every lookup entry point of `tm` agrees with the oracle on `keys`.
fn assert_lookups_agree(tm: &TupleMerge, oracle: &LinearSearch, keys: &[[u64; 5]]) {
    let want: Vec<Option<MatchResult>> = keys.iter().map(|k| oracle.classify(k)).collect();
    let floored = |m: Option<MatchResult>, f: Priority| m.filter(|m| m.priority < f);
    for (key, &want) in keys.iter().zip(&want) {
        assert_eq!(tm.classify(key), want, "classify {key:?}");
        for floor in [0, 3, Priority::MAX] {
            let got = tm.classify_with_floor(key, floor);
            assert_eq!(got, floored(want, floor), "floor {floor} {key:?}");
        }
    }
    // Batch floors: `MAX` is the "no floor" sentinel, not a filter.
    let floors: Vec<Priority> = (0..keys.len()).map(|i| [Priority::MAX, 3, 0, 1][i % 4]).collect();
    let want_floored: Vec<_> = (want.iter().zip(&floors))
        .map(|(&m, &f)| if f == Priority::MAX { m } else { floored(m, f) })
        .collect();
    let flat: Vec<u64> = keys.iter().flatten().copied().collect();
    for batch in [1usize, 2, 63, 64, 65, 128] {
        let (mut out, mut out_floored) = (vec![None; keys.len()], vec![None; keys.len()]);
        for lo in (0..keys.len()).step_by(batch) {
            let hi = (lo + batch).min(keys.len());
            tm.classify_batch(&flat[lo * 5..hi * 5], 5, &mut out[lo..hi]);
            let dst = &mut out_floored[lo..hi];
            tm.classify_batch_with_floors(&flat[lo * 5..hi * 5], 5, &floors[lo..hi], dst);
        }
        assert_eq!(out, want, "classify_batch at batch {batch}");
        assert_eq!(out_floored, want_floored, "classify_batch_with_floors at batch {batch}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    #[test]
    fn in_place_updates_match_linear_search(
        ops in collection::vec((0u64..4, 0u32..160, 0u64..40_000), 300..700),
        batch_len in 1usize..24,
        probes in collection::vec((0u64..1 << 32, 0u64..16_000, 0u64..256), 65),
    ) {
        // A low collision limit makes buckets overflow (and tables split)
        // within a few hundred ops.
        let cfg = TupleMergeConfig { collision_limit: 6, relax: true };
        let empty = RuleSet::new(FieldsSpec::five_tuple(), vec![]).unwrap();
        let mut tm = TupleMerge::with_config(&empty, cfg);
        let mut live: BTreeMap<RuleId, Rule> = BTreeMap::new();
        for chunk in ops.chunks(batch_len) {
            let mut batch = UpdateBatch::new();
            for &(kind, id, x) in chunk {
                batch = match kind {
                    0 => {
                        live.remove(&id);
                        batch.remove(id)
                    }
                    1 => {
                        live.insert(id, rule(id, x));
                        batch.modify(rule(id, x))
                    }
                    // Inserts outnumber removes; with 160 ids most of them
                    // re-insert a live id.
                    _ => {
                        live.insert(id, rule(id, x));
                        batch.insert(rule(id, x))
                    }
                };
            }
            tm.apply(&batch);
            tm.assert_invariants();
            let mut exported = tm.export_rules();
            exported.sort_by_key(|r| r.id);
            prop_assert_eq!(&exported, &live.values().cloned().collect::<Vec<_>>());
            // Probe a point inside a live rule and an arbitrary key per
            // probe: 130 keys cover a full 128-sweep plus a tail.
            let inside = probes.iter().zip(live.values().cycle()).map(|(&(ip, port, proto), r)| {
                let offset = [ip, ip >> 7, port, port + proto, proto];
                std::array::from_fn(|d| r.fields[d].lo + offset[d] % (r.fields[d].hi - r.fields[d].lo + 1))
            });
            let mut keys: Vec<[u64; 5]> = inside.collect();
            keys.extend(probes.iter().map(|&(ip, port, proto)| [ip, ip.rotate_left(9) & 0xffff_ffff, port, port, proto]));
            let oracle = LinearSearch::from_rules(exported);
            assert_lookups_agree(&tm, &oracle, &keys);
        }
        prop_assert!(tm.num_tables() >= 3, "the op mix no longer spreads over tables");
    }
}

//! Batch-size equivalence: every engine implements one lookup hook,
//! `Classifier::batch_lookup`, and a key's verdict must not depend on the
//! size of the batch it arrives in — `classify` is the hook on one key, and
//! the engines whose batched walk costs more on one key (TupleMerge, the
//! tree forest, the iSets) serve it with their per-key walk, so batch 1
//! against batch 128 compares two real implementations. Verdicts are
//! checked against LinearSearch over the same rules. See
//! `crates/core/src/rqrmi/simd.rs` module docs for why the cross-packet
//! kernels cannot change classification results, and `nm_cutsplit::batched`
//! for the level-synchronous tree-descent invariants checked here.

use nm_classbench::{generate, AppKind};
use nm_common::rule::Priority;
use nm_common::{Classifier, FieldRange, FieldsSpec, LinearSearch, MatchResult, RuleSet};
use nm_cutsplit::{CutSplit, NeuroCuts, NeuroCutsConfig};
use nm_trace::{uniform_trace, zipf_trace};
use nm_tuplemerge::{TupleMerge, TupleSpaceSearch};
use nuevomatch::rqrmi::{train_rqrmi, CompiledRqRmi, Isa, RqRmi};
use nuevomatch::{NuevoMatch, NuevoMatchConfig, RqRmiParams};
use proptest::prelude::*;

fn reachable_isas() -> Vec<Isa> {
    [Isa::Scalar, Isa::Sse, Isa::Avx, Isa::AvxFma].into_iter().filter(|i| i.available()).collect()
}

fn fast_cfg(early_termination: bool) -> NuevoMatchConfig {
    NuevoMatchConfig {
        rqrmi: RqRmiParams { samples_init: 256, max_attempts: 2, ..Default::default() },
        min_iset_coverage: 0.0,
        early_termination,
        ..Default::default()
    }
}

/// What a verdict must share with LinearSearch's: all of it, or only its
/// priority where the trait's tie note lets an engine over decision trees
/// (`trees`) return another rule of the same priority.
fn seen(m: Option<MatchResult>, trees: bool) -> Option<MatchResult> {
    m.map(|m| if trees { MatchResult::new(0, m.priority) } else { m })
}

/// Asserts that every batch size returns LinearSearch's verdicts over `set`
/// and the same verdicts as batch 1, in several ragged batch sizes
/// (covering the 8-lane SIMD groups, their tails, and whole-trace calls).
fn assert_batch_equivalent(
    c: &dyn Classifier,
    set: &RuleSet,
    trees: bool,
    trace: &nm_common::TraceBuf,
) {
    let stride = trace.stride();
    let raw = trace.raw();
    let n = trace.len();
    let oracle = LinearSearch::build(set);
    let expect: Vec<_> = trace.iter().map(|k| seen(oracle.classify(k), trees)).collect();
    let mut first: Option<Vec<_>> = None;
    for batch in [1usize, 5, 8, 32, 127, 128, n] {
        let mut out = vec![None; n];
        let mut lo = 0;
        while lo < n {
            let hi = (lo + batch).min(n);
            c.classify_batch(&raw[lo * stride..hi * stride], stride, &mut out[lo..hi]);
            lo = hi;
        }
        let got: Vec<_> = out.iter().map(|&m| seen(m, trees)).collect();
        assert_eq!(got, expect, "{} diverged from LinearSearch at batch {batch}", c.name());
        let first = first.get_or_insert_with(|| out.clone());
        assert_eq!(&out, first, "{} diverged from batch 1 at batch {batch}", c.name());
    }
}

#[test]
fn every_engine_batch_matches_per_key() {
    for (app, seed) in [(AppKind::Acl, 11u64), (AppKind::Fw, 22), (AppKind::Ipc, 33)] {
        let set = generate(app, 300, seed);
        let trace = uniform_trace(&set, 2_000, seed * 7 + 1);
        let engines: Vec<(Box<dyn Classifier>, bool)> = vec![
            (Box::new(LinearSearch::build(&set)), false),
            (Box::new(TupleMerge::build(&set)), false),
            (Box::new(CutSplit::build(&set)), true),
            (
                Box::new(NeuroCuts::with_config(
                    &set,
                    NeuroCutsConfig { iterations: 4, sample: 512 },
                )),
                true,
            ),
        ];
        for (engine, trees) in &engines {
            assert_batch_equivalent(engine.as_ref(), &set, *trees, &trace);
        }
    }
}

#[test]
fn nuevomatch_batch_matches_per_key_all_remainders() {
    let set = generate(AppKind::Acl, 400, 5);
    let uni = uniform_trace(&set, 2_000, 99);
    let skew = zipf_trace(&set, 2_000, 1.1, 77);
    for et in [true, false] {
        let cfg = fast_cfg(et);
        let nm_tm = NuevoMatch::build(&set, &cfg, TupleMerge::build).unwrap();
        let nm_cs = NuevoMatch::build(&set, &cfg, CutSplit::build).unwrap();
        let nm_ls = NuevoMatch::build(&set, &cfg, LinearSearch::build).unwrap();
        for trace in [&uni, &skew] {
            assert_batch_equivalent(&nm_tm, &set, false, trace);
            assert_batch_equivalent(&nm_cs, &set, true, trace);
            assert_batch_equivalent(&nm_ls, &set, false, trace);
        }
    }
}

#[test]
fn batch_with_floors_matches_per_key_dispatch() {
    let set = generate(AppKind::Fw, 300, 8);
    let trace = uniform_trace(&set, 1_500, 21);
    // Each engine with whether it is a tree engine (see `seen`).
    let engines: Vec<(Box<dyn Classifier>, bool)> = vec![
        (Box::new(TupleMerge::build(&set)), false), // table-major probe
        (Box::new(CutSplit::build(&set)), true),    // level-synchronous descent
        (
            // level-synchronous descent, searched trees
            Box::new(NeuroCuts::with_config(&set, NeuroCutsConfig { iterations: 4, sample: 512 })),
            true,
        ),
        // Phase pipeline with caller floors folded into the remainder's
        // batch-wide early termination.
        (Box::new(NuevoMatch::build(&set, &fast_cfg(true), TupleMerge::build).unwrap()), false),
        (Box::new(LinearSearch::build(&set)), false), // floor-aware scan
    ];
    let oracle = LinearSearch::build(&set);
    let stride = trace.stride();
    let raw = trace.raw();
    let n = trace.len();
    // Floors cycle through no-floor, permissive, and aggressive pruning.
    let floors: Vec<Priority> = (0..n as u32)
        .map(|i| match i % 4 {
            0 => Priority::MAX,
            1 => 500,
            2 => 10,
            _ => 0,
        })
        .collect();
    for (engine, trees) in &engines {
        let mut out = vec![None; n];
        engine.classify_batch_with_floors(raw, stride, &floors, &mut out);
        for (i, key) in trace.iter().enumerate() {
            let expect = if floors[i] == Priority::MAX {
                oracle.classify(key)
            } else {
                oracle.classify_with_floor(key, floors[i])
            };
            assert_eq!(
                seen(out[i], *trees),
                seen(expect, *trees),
                "{} diverged at packet {i}",
                engine.name()
            );
        }
    }
}

/// Regression: rules at `Priority::MAX` are served by every engine, per key
/// and batched, and only an explicit `Priority::MAX` floor (strict) excludes
/// them. The tree engines used to start a key's walk with the bound
/// `Priority::MAX`, so a tree whose best rule sat at `MAX` was never walked.
#[test]
fn priority_max_rules_are_served_by_every_engine() {
    use nm_common::FiveTuple;
    let rules = vec![
        FiveTuple::new().dst_port_exact(80).into_rule(9, Priority::MAX),
        FiveTuple::new().src_prefix([10, 0, 0, 0], 8).into_rule(4, Priority::MAX),
    ];
    let set = RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap();
    let oracle = LinearSearch::build(&set);
    let nc = |s: &RuleSet| NeuroCuts::with_config(s, NeuroCutsConfig { iterations: 2, sample: 64 });
    let mut engines: Vec<(String, Box<dyn Classifier>, bool)> = vec![
        ("linear".into(), Box::new(LinearSearch::build(&set)), false),
        ("tm".into(), Box::new(TupleMerge::build(&set)), false),
        ("tss".into(), Box::new(TupleSpaceSearch::build(&set)), false),
        ("cs".into(), Box::new(CutSplit::build(&set)), true),
        ("nc".into(), Box::new(nc(&set)), true),
    ];
    // NuevoMatch over each remainder: the rules in iSets, and forced into
    // the remainder (no iSets), with early termination on and off.
    for (max_isets, et) in [(4, true), (0, true), (0, false)] {
        let cfg = NuevoMatchConfig { max_isets, ..fast_cfg(et) };
        let what = format!("max_isets {max_isets} et {et}");
        let nm_ls = NuevoMatch::build(&set, &cfg, LinearSearch::build).unwrap();
        let nm_tm = NuevoMatch::build(&set, &cfg, TupleMerge::build).unwrap();
        let nm_cs = NuevoMatch::build(&set, &cfg, CutSplit::build).unwrap();
        let nm_nc = NuevoMatch::build(&set, &cfg, nc).unwrap();
        if max_isets == 0 {
            assert_eq!(nm_tm.remainder().num_rules(), 2, "{what}: all rules in the remainder");
        }
        engines.push((format!("nm/linear {what}"), Box::new(nm_ls), false));
        engines.push((format!("nm/tm {what}"), Box::new(nm_tm), false));
        engines.push((format!("nm/cs {what}"), Box::new(nm_cs), true));
        engines.push((format!("nm/nc {what}"), Box::new(nm_nc), true));
    }
    // Rule 9 alone, both rules (4 wins on id), rule 4 alone, neither.
    let keys: Vec<u64> = [
        [1, 2, 3, 80, 6],
        [0x0a00_0001, 2, 3, 80, 6],
        [0x0a00_0001, 2, 3, 81, 6],
        [1, 2, 3, 81, 6],
    ]
    .concat();
    let want: Vec<_> = keys.chunks_exact(5).map(|k| oracle.classify(k)).collect();
    assert_eq!(want[0], Some(MatchResult::new(9, Priority::MAX)));
    assert_eq!(want[1], Some(MatchResult::new(4, Priority::MAX)));
    for (name, engine, trees) in &engines {
        let want: Vec<_> = want.iter().map(|&m| seen(m, *trees)).collect();
        for (i, key) in keys.chunks_exact(5).enumerate() {
            assert_eq!(seen(engine.classify(key), *trees), want[i], "{name} per key, key {i}");
            let floored = engine.classify_with_floor(key, Priority::MAX);
            assert_eq!(floored, None, "{name}: a MAX floor is strict, key {i}");
        }
        let mut out = vec![None; want.len()];
        engine.classify_batch(&keys, 5, &mut out);
        let got: Vec<_> = out.iter().map(|&m| seen(m, *trees)).collect();
        assert_eq!(got, want, "{name} batched");
        // A `Priority::MAX` batch floor is the "no floor" sentinel.
        engine.classify_batch_with_floors(&keys, 5, &[Priority::MAX; 4], &mut out);
        let got: Vec<_> = out.iter().map(|&m| seen(m, *trees)).collect();
        assert_eq!(got, want, "{name} batched under MAX floors");
    }
}

/// Regression: an iSet candidate and a remainder rule of the *same*
/// priority. The remainder used to be handed the candidate's priority as a
/// strict floor, so the tie was pruned and the iSet's rule won whatever its
/// id; `LinearSearch` and `MatchResult::better` break ties toward the
/// smaller id. The floor now admits ties, scalar and batched.
#[test]
fn nuevomatch_equal_priority_tie_resolves_by_id() {
    use nm_common::FiveTuple;
    // 40 disjoint src /16s form the (single) iSet; rule 2 overlaps them all
    // on src, so it has to live in the TupleMerge remainder.
    let mut rules: Vec<_> = (0..40u32)
        .map(|i| FiveTuple::new().src_prefix([10, 10 + i as u8, 0, 0], 16).into_rule(100 + i, 1))
        .collect();
    rules.push(FiveTuple::new().dst_prefix([11, 11, 0, 0], 16).into_rule(2, 1));
    let set = RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap();
    let nm = NuevoMatch::build(
        &set,
        &NuevoMatchConfig { max_isets: 1, ..fast_cfg(true) },
        TupleMerge::build,
    )
    .unwrap();
    assert_eq!(nm.remainder().num_rules(), 1, "rule 2 must be the remainder");
    let oracle = LinearSearch::build(&set);
    // Keys inside both an iSet rule and rule 2, one iSet rule per key.
    let keys: Vec<u64> =
        (0..40u64).flat_map(|i| [0x0a0a_0001 + (i << 16), 0x0b0b_0101, 7, 7, 6]).collect();
    let mut out = vec![None; 40];
    nm.classify_batch(&keys, 5, &mut out);
    for (i, key) in keys.chunks_exact(5).enumerate() {
        let want = oracle.classify(key);
        assert_eq!(want.map(|m| m.rule), Some(2));
        assert_eq!(nm.classify(key), want, "per-key, key {i}");
        assert_eq!(out[i], want, "batched, key {i}");
    }
}

/// The single-key walk (`predict`) and the batched walk (`predict_batch`,
/// on groups whose keys route to different leaves) must produce the same
/// *search outcome* for every key on every reachable ISA: same containing
/// range for covered keys, no range for uncovered keys.
#[test]
fn batched_and_single_key_walks_agree_on_search_outcome() {
    let ranges: Vec<FieldRange> = (0..400u64)
        .map(|i| FieldRange::new(i * 150, i * 150 + 99)) // gaps: uncovered keys exist
        .collect();
    let model = train_rqrmi(&ranges, 16, &RqRmiParams::default()).unwrap();
    assert!(model.leaf_error_bounds().len() > 1, "need a multi-leaf model for divergence");
    // Emulates `TrainedISet::search` over the sorted ranges.
    let search = |pred: usize, err: u32, v: u64| -> Option<usize> {
        let lo = pred.saturating_sub(err as usize);
        let hi = (pred + err as usize).min(ranges.len() - 1);
        let off = ranges[lo..=hi].partition_point(|r| r.hi < v);
        let pos = lo + off;
        (pos <= hi && ranges[pos].lo <= v).then_some(pos)
    };
    // Shuffled covered keys (each 8-group spans distant leaves)
    // interleaved with uncovered gap keys.
    let keys: Vec<u64> = (0..800usize)
        .map(|i| {
            let r = &ranges[(i * 131) % ranges.len()];
            if i % 3 == 0 {
                r.hi + 25 // in the gap after the range
            } else {
                r.lo + (i as u64 % 100)
            }
        })
        .collect();
    for isa in reachable_isas() {
        let compiled = CompiledRqRmi::with_isa(&model, isa);
        let mut preds = vec![0usize; keys.len()];
        let mut errs = vec![0u32; keys.len()];
        compiled.predict_batch(&keys, &mut preds, &mut errs);
        for (i, &key) in keys.iter().enumerate() {
            let (sp, se) = compiled.predict(key);
            let batch_outcome = search(preds[i], errs[i], key);
            let scalar_outcome = search(sp, se, key);
            assert_eq!(
                batch_outcome, scalar_outcome,
                "{isa:?} key {key}: batched walk found {batch_outcome:?}, \
                 single-key walk found {scalar_outcome:?}"
            );
        }
    }
}

/// Batch lengths around every edge of the batched walk: empty, under one
/// group, one group ± 1, one 64-key chunk ± 1, a ragged second chunk, two
/// chunks, two chunks plus a tail.
const BATCH_LENGTHS: [usize; 11] = [0, 1, 7, 8, 9, 63, 64, 65, 72, 128, 130];

/// A probe key and the index of the range that covers it, if one does.
type Probe = (u64, Option<usize>);

/// One trained model per Table 4 width shape over a 24-bit field — and a
/// 50K-range one, where neighbouring boundaries share their submodels at
/// every stage — each with its probe pool: 0, the domain maximum and two
/// keys beyond the domain, then in key order every range boundary with
/// both its neighbours (the ranges leave gaps, so the outside ones are
/// uncovered).
fn shaped_models() -> &'static [(Vec<Probe>, RqRmi)] {
    static MODELS: std::sync::OnceLock<Vec<(Vec<Probe>, RqRmi)>> = std::sync::OnceLock::new();
    MODELS.get_or_init(|| {
        const BITS: u8 = 24;
        let shapes: [(&[usize], u64); 5] = [
            (&[1, 4], 400),
            (&[1, 4, 16], 2_000),
            (&[1, 4, 128], 4_000),
            (&[1, 8, 256], 6_000),
            (&[1, 4, 128], 50_000),
        ];
        shapes
            .into_iter()
            .map(|(widths, n)| {
                let step = (1u64 << BITS) / n;
                let ranges: Vec<FieldRange> =
                    (0..n).map(|i| FieldRange::new(i * step + 2, i * step + step / 2)).collect();
                let params = RqRmiParams {
                    stage_widths: Some(widths.to_vec()),
                    samples_init: 256,
                    max_attempts: 2,
                    ..Default::default()
                };
                let model = train_rqrmi(&ranges, BITS, &params).unwrap();
                assert_eq!(model.widths(), widths);
                let mut pool: Vec<Probe> = vec![
                    (0, None),
                    ((1 << BITS) - 1, None),
                    (1 << BITS, None),
                    (u64::MAX >> 12, None),
                ];
                for (i, r) in ranges.iter().enumerate() {
                    pool.extend([
                        (r.lo - 1, None),
                        (r.lo, Some(i)),
                        (r.lo + 1, Some(i)),
                        (r.hi - 1, Some(i)),
                        (r.hi, Some(i)),
                        (r.hi + 1, None),
                    ]);
                }
                (pool, model)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 160, ..ProptestConfig::default() })]

    /// Property: on every reachable ISA `predict_batch` equals per-key
    /// `predict` exactly — through whole chunks, the ragged last chunk and
    /// the `n % 8` tail alike — and puts each covered key's true index
    /// inside its window; over the four Table 4 width
    /// shapes and the 50K-range model, with keys drawn from every range
    /// boundary ± 1, 0, the domain maximum and beyond the domain — either a
    /// run of neighbours in key order, whose groups share their submodels,
    /// or scattered picks with one group of 8 equal keys and one whose keys
    /// spread over the whole model.
    #[test]
    fn predict_batch_equals_predict_over_shapes_lengths_and_boundaries(
        shape in 0usize..5,
        len_sel in 0usize..BATCH_LENGTHS.len(),
        picks in proptest::collection::vec(any::<u32>(), 130),
        neighbours in any::<bool>(),
        equal_group in any::<bool>(),
    ) {
        let (pool, model) = &shaped_models()[shape];
        let at = |i: usize| pool[i % pool.len()];
        let mut keys: Vec<Probe> = (0..BATCH_LENGTHS[len_sel])
            .map(|i| at(if neighbours { picks[0] as usize + i } else { picks[i] as usize }))
            .collect();
        if !neighbours {
            let mut groups = keys.chunks_exact_mut(8);
            if let (true, Some(group)) = (equal_group, groups.next()) {
                group.fill(group[0]);
            }
            if let Some(group) = groups.next() {
                for (l, key) in group.iter_mut().enumerate() {
                    *key = at(picks[l] as usize + l * pool.len() / 8);
                }
            }
        }
        let vals: Vec<u64> = keys.iter().map(|k| k.0).collect();
        for isa in reachable_isas() {
            let compiled = CompiledRqRmi::with_isa(model, isa);
            let (mut preds, mut errs) = (vec![0usize; vals.len()], vec![0u32; vals.len()]);
            compiled.predict_batch(&vals, &mut preds, &mut errs);
            for (i, &(key, truth)) in keys.iter().enumerate() {
                prop_assert_eq!(
                    (preds[i], errs[i]), compiled.predict(key), "{:?} key {} at {}", isa, key, i
                );
                if let Some(truth) = truth {
                    prop_assert!(
                        preds[i].abs_diff(truth) <= errs[i] as usize,
                        "{:?} widths {:?} key {}: pred {} true {} err {}",
                        isa, model.widths(), key, preds[i], truth, errs[i]
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Property: the level-synchronous batched descent is bit-identical to
    /// the per-key walk for CutSplit and NeuroCuts — arbitrary 2-field rule
    /// boxes, arbitrary probes, batch sizes 1/8/32/128, with and without
    /// per-key floors.
    #[test]
    fn tree_engines_batched_descent_bit_identical(
        boxes in proptest::collection::vec(
            (0u64..60_000, 0u64..8_000, 0u64..60_000, 0u64..8_000), 1..60),
        probes in proptest::collection::vec((0u64..65_536, 0u64..65_536), 128),
        floor_sel in proptest::collection::vec(0u8..4, 128),
    ) {
        let rows: Vec<Vec<FieldRange>> = boxes
            .iter()
            .map(|&(lo0, w0, lo1, w1)| {
                vec![
                    FieldRange::new(lo0, (lo0 + w0).min(65_535)),
                    FieldRange::new(lo1, (lo1 + w1).min(65_535)),
                ]
            })
            .collect();
        let set = RuleSet::from_ranges(FieldsSpec::uniform(2, 16), rows).unwrap();
        let mut keys = Vec::with_capacity(probes.len() * 2);
        for &(a, b) in &probes {
            keys.push(a);
            keys.push(b);
        }
        let floors: Vec<Priority> = floor_sel
            .iter()
            .map(|&s| match s {
                0 => Priority::MAX,
                1 => 40,
                2 => 5,
                _ => 0,
            })
            .collect();
        let engines: Vec<Box<dyn Classifier>> = vec![
            Box::new(CutSplit::build(&set)),
            Box::new(NeuroCuts::with_config(
                &set,
                NeuroCutsConfig { iterations: 2, sample: 64 },
            )),
        ];
        for engine in &engines {
            for batch in [1usize, 8, 32, 128] {
                let mut out = vec![None; probes.len()];
                let mut lo = 0;
                while lo < probes.len() {
                    let hi = (lo + batch).min(probes.len());
                    engine.classify_batch(&keys[lo * 2..hi * 2], 2, &mut out[lo..hi]);
                    lo = hi;
                }
                for (i, &(a, b)) in probes.iter().enumerate() {
                    prop_assert_eq!(
                        out[i],
                        engine.classify(&[a, b]),
                        "{} batch={} probe {}",
                        engine.name(), batch, i
                    );
                }
                // Floored form against the per-key dispatch.
                let mut out_f = vec![None; probes.len()];
                engine.classify_batch_with_floors(&keys, 2, &floors, &mut out_f);
                for (i, &(a, b)) in probes.iter().enumerate() {
                    let expect = if floors[i] == Priority::MAX {
                        engine.classify(&[a, b])
                    } else {
                        engine.classify_with_floor(&[a, b], floors[i])
                    };
                    prop_assert_eq!(
                        out_f[i], expect,
                        "{} floored probe {}", engine.name(), i
                    );
                }
            }
        }
    }

    /// Property: for arbitrary 2-field rule boxes and arbitrary probe keys,
    /// NuevoMatch's batched path is bit-identical to the per-key path with
    /// early termination both on and off (and both agree with linear scan).
    #[test]
    fn batch_bit_identical_on_arbitrary_boxes(
        boxes in proptest::collection::vec((0u64..60_000, 0u64..8_000, 0u64..60_000, 0u64..8_000), 1..50),
        probes in proptest::collection::vec((0u64..65_536, 0u64..65_536), 64),
    ) {
        let rows: Vec<Vec<FieldRange>> = boxes
            .iter()
            .map(|&(lo0, w0, lo1, w1)| {
                vec![
                    FieldRange::new(lo0, (lo0 + w0).min(65_535)),
                    FieldRange::new(lo1, (lo1 + w1).min(65_535)),
                ]
            })
            .collect();
        let set = RuleSet::from_ranges(FieldsSpec::uniform(2, 16), rows).unwrap();
        let oracle = LinearSearch::build(&set);
        let mut keys = Vec::with_capacity(probes.len() * 2);
        for &(a, b) in &probes {
            keys.push(a);
            keys.push(b);
        }
        for et in [true, false] {
            let nm = NuevoMatch::build(&set, &fast_cfg(et), LinearSearch::build).unwrap();
            let mut out = vec![None; probes.len()];
            nm.classify_batch(&keys, 2, &mut out);
            for (i, &(a, b)) in probes.iter().enumerate() {
                prop_assert_eq!(out[i], nm.classify(&[a, b]), "batch vs per-key, et={}", et);
                prop_assert_eq!(out[i], oracle.classify(&[a, b]), "batch vs oracle, et={}", et);
            }
        }
    }

    /// Property: nm/tm over random 5-tuple boxes whose priorities repeat
    /// across iSets, with random tombstones, equals linear search over the
    /// live rules per key and at batch sizes around the 8-lane group, the
    /// 64-key pass and the 128-key chunk — as built, after a partial
    /// retrain, and after a snapshot round trip of either.
    #[test]
    fn nuevomatch_tm_packed_layout_matches_oracle_at_ragged_batches(
        boxes in proptest::collection::vec(
            (0u64..4_000_000_000, 0u64..50_000_000, 0u64..65_000, 0u64..3_000), 30..120),
        dead in proptest::collection::vec(0usize..120, 0..30),
        probes in proptest::collection::vec((0usize..120, 0u64..3), 200),
    ) {
        use nm_common::{FiveTuple, UpdateBatch};
        let rules: Vec<_> = boxes
            .iter()
            .enumerate()
            .map(|(i, &(src, sw, port, pw))| {
                let mut rule = FiveTuple::new()
                    .dst_port_range(port as u16, (port + pw).min(65_535) as u16)
                    .into_rule(7 * i as u32, (src % 4) as u32);
                rule.fields[0] = FieldRange::new(src, (src + sw).min(u32::MAX as u64));
                rule
            })
            .collect();
        let set = RuleSet::new(FieldsSpec::five_tuple(), rules.clone()).unwrap();
        let cfg = NuevoMatchConfig {
            partial_retrain: nuevomatch::PartialRetrainPolicy::always(),
            ..fast_cfg(true)
        };
        let mut nm = NuevoMatch::build(&set, &cfg, TupleMerge::build).unwrap();
        let mut live: std::collections::BTreeMap<u32, _> =
            rules.into_iter().map(|r| (r.id, r)).collect();
        let mut batch = UpdateBatch::new();
        for d in dead {
            let id = 7 * (d % boxes.len()) as u32;
            live.remove(&id);
            batch = batch.remove(id);
        }
        nm.apply(&batch);
        // Probe the boxes' corners and interiors, live or not.
        let keys: Vec<u64> = probes
            .iter()
            .flat_map(|&(r, k)| {
                let (src, sw, port, pw) = boxes[r % boxes.len()];
                [src + sw * k / 2, 9, 9, (port + pw * k / 2).min(65_535), 6]
            })
            .collect();
        let oracle = LinearSearch::from_rules(live.values().cloned().collect());
        let want: Vec<_> = keys.chunks_exact(5).map(|k| oracle.classify(k)).collect();
        let check = |nm: &NuevoMatch<TupleMerge>, what: &str| {
            for (key, &want) in keys.chunks_exact(5).zip(&want) {
                assert_eq!(nm.classify(key), want, "{what} per-key {key:?}");
            }
            for batch in [1usize, 2, 7, 8, 9, 63, 64, 65, 128, 129] {
                let mut out = vec![None; want.len()];
                for lo in (0..want.len()).step_by(batch) {
                    let hi = (lo + batch).min(want.len());
                    nm.classify_batch(&keys[lo * 5..hi * 5], 5, &mut out[lo..hi]);
                }
                assert_eq!(out, want, "{what} batch {batch}");
            }
        };
        let builder: fn(&RuleSet) -> TupleMerge = TupleMerge::build;
        let reload = |nm: &NuevoMatch<TupleMerge>| {
            nuevomatch::load_snapshot(&nuevomatch::save_snapshot(nm, 1), &builder).unwrap().0
        };
        check(&nm, "built");
        check(&reload(&nm), "reloaded");
        if let Ok((patched, _)) = nm.partial_retrain(&cfg) {
            check(&patched, "patched");
            check(&reload(&patched), "patched + reloaded");
        }
    }

    /// Property: nm/tm under update batches that keep re-using ids and
    /// priorities (so iSet candidates and remainder rules tie constantly)
    /// stays equal to linear search over the live rules, per key and batched
    /// — the remainder being TupleMerge's update-in-place layout.
    #[test]
    fn nuevomatch_tm_updates_with_tied_priorities_match_oracle(
        ops in proptest::collection::vec((0u64..3, 0u32..90, 0u64..4_000, 0u32..4), 40..160),
        batch_len in 1usize..12,
    ) {
        use nm_common::{FiveTuple, UpdateBatch};
        // 60 disjoint dst-port rules at priorities 0..4 make the iSet.
        let base: Vec<_> = (0..60u32)
            .map(|i| {
                let lo = i as u16 * 1_000;
                FiveTuple::new().dst_port_range(lo, lo + 999).into_rule(i, i % 4)
            })
            .collect();
        let set = RuleSet::new(FieldsSpec::five_tuple(), base.clone()).unwrap();
        let mut nm = NuevoMatch::build(&set, &fast_cfg(true), TupleMerge::build).unwrap();
        let mut live: std::collections::BTreeMap<u32, _> =
            base.into_iter().map(|r| (r.id, r)).collect();
        for chunk in ops.chunks(batch_len) {
            let mut batch = UpdateBatch::new();
            for &(kind, id, x, priority) in chunk {
                // Overlaps the iSet's port ranges, in another tuple each time.
                let ft = match x % 3 {
                    0 => FiveTuple::new().dst_port_exact((x * 15) as u16),
                    1 => FiveTuple::new().src_prefix_raw((x as u32) << 20, 12),
                    _ => FiveTuple::new().dst_port_range(x as u16, (x * 16) as u16),
                };
                let rule = ft.into_rule(id, priority);
                batch = match kind {
                    0 => {
                        live.remove(&id);
                        batch.remove(id)
                    }
                    1 => {
                        live.insert(id, rule.clone());
                        batch.modify(rule)
                    }
                    _ => {
                        live.insert(id, rule.clone());
                        batch.insert(rule)
                    }
                };
            }
            nm.apply(&batch);
            let oracle = LinearSearch::from_rules(live.values().cloned().collect());
            let keys: Vec<u64> = (0..130u64)
                .flat_map(|i| [(i * 7) << 20, i, i, i * 500 % 65_536, 6])
                .collect();
            let want: Vec<_> = keys.chunks_exact(5).map(|k| oracle.classify(k)).collect();
            for (key, &want) in keys.chunks_exact(5).zip(&want) {
                prop_assert_eq!(nm.classify(key), want, "per-key {:?}", key);
            }
            for batch in [1usize, 2, 64, 128] {
                let mut out = vec![None; want.len()];
                for lo in (0..want.len()).step_by(batch) {
                    let hi = (lo + batch).min(want.len());
                    nm.classify_batch(&keys[lo * 5..hi * 5], 5, &mut out[lo..hi]);
                }
                prop_assert_eq!(&out, &want, "batch {}", batch);
            }
        }
    }
}

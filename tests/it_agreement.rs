//! The workspace's master correctness test: every engine must agree with
//! linear search on every generated workload family.
//!
//! This is the property the whole paper rests on — NuevoMatch is only an
//! *accelerator*; its classification results must be bit-identical to the
//! baseline's, which must be identical to brute force.

use nm_classbench::{generate, stanford_fib, AppKind};
use nm_common::{Classifier, LinearSearch, Priority, RuleSet, ShardPlan};
use nm_cutsplit::{CutSplit, NeuroCuts, NeuroCutsConfig};
use nm_trace::{caida_like_trace, uniform_trace, zipf_trace};
use nm_tuplemerge::{TupleMerge, TupleSpaceSearch};
use nuevomatch::{save_rqrmi, train_rqrmi, NuevoMatch, NuevoMatchConfig, RqRmiParams, TrainerKind};

fn engines(set: &RuleSet) -> Vec<(String, Box<dyn Classifier>)> {
    let nc_cfg = NeuroCutsConfig { iterations: 6, sample: 512 };
    let nm_cfg = NuevoMatchConfig {
        rqrmi: RqRmiParams { samples_init: 512, ..Default::default() },
        ..Default::default()
    };
    let nm_cfg_no_et = NuevoMatchConfig { early_termination: false, ..nm_cfg.clone() };
    vec![
        ("tss".into(), Box::new(TupleSpaceSearch::build(set))),
        ("tm".into(), Box::new(TupleMerge::build(set))),
        ("cs".into(), Box::new(CutSplit::build(set))),
        ("nc".into(), Box::new(NeuroCuts::with_config(set, nc_cfg))),
        ("nm/tm".into(), Box::new(NuevoMatch::build(set, &nm_cfg, TupleMerge::build).unwrap())),
        (
            "nm/cs-noet".into(),
            Box::new(NuevoMatch::build(set, &nm_cfg_no_et, CutSplit::build).unwrap()),
        ),
    ]
}

fn check_traces(name: &str, set: &RuleSet) {
    let oracle = LinearSearch::build(set);
    let engines = engines(set);
    let traces = [
        ("uniform", uniform_trace(set, 1_500, 1)),
        ("zipf", zipf_trace(set, 1_500, 1.2, 2)),
        ("caida-like", caida_like_trace(set, 1_500, 3)),
    ];
    for (tname, trace) in &traces {
        for key in trace.iter() {
            let want = oracle.classify(key);
            for (ename, engine) in &engines {
                assert_eq!(
                    engine.classify(key),
                    want,
                    "{ename} diverged from linear search on {name}/{tname}, key {key:?}"
                );
            }
        }
    }
}

#[test]
fn acl_profile_all_engines_agree() {
    check_traces("acl", &generate(AppKind::Acl, 1_200, 7));
}

#[test]
fn fw_profile_all_engines_agree() {
    check_traces("fw", &generate(AppKind::Fw, 1_200, 8));
}

#[test]
fn ipc_profile_all_engines_agree() {
    check_traces("ipc", &generate(AppKind::Ipc, 1_200, 9));
}

#[test]
fn stanford_fib_all_engines_agree() {
    check_traces("stanford", &stanford_fib(1_500, 10));
}

#[test]
fn low_diversity_blend_all_engines_agree() {
    let base = generate(AppKind::Acl, 1_000, 11);
    let blended = nm_classbench::blend_low_diversity(&base, 0.5, 8, 12);
    check_traces("lowdiv", &blended);
}

#[test]
fn random_misses_agree_too() {
    // Keys not drawn from rules: mostly misses; engines must agree on None.
    let set = generate(AppKind::Acl, 800, 13);
    let oracle = LinearSearch::build(&set);
    let engines = engines(&set);
    let mut rng = nm_common::SplitMix64::new(14);
    for _ in 0..2_000 {
        let key = [
            rng.next_u64() & 0xffff_ffff,
            rng.next_u64() & 0xffff_ffff,
            rng.below(65_536),
            rng.below(65_536),
            rng.below(256),
        ];
        let want = oracle.classify(&key);
        for (ename, engine) in &engines {
            assert_eq!(engine.classify(&key), want, "{ename} diverged on random key");
        }
    }
}

/// What pins a built tree engine: exact index bytes, each tree's `(nodes,
/// leaves, refs, max_depth)`, and an FNV-1a fold of its verdicts on a
/// seeded uniform trace.
type Pin = (usize, Vec<(usize, usize, usize, usize)>, u64);

fn pin(engine: &dyn Classifier, trees: &[nm_cutsplit::tree::TreeStats], set: &RuleSet) -> Pin {
    let shape = trees.iter().map(|t| (t.nodes, t.leaves, t.refs, t.max_depth)).collect();
    let verdicts =
        uniform_trace(set, 20_000, 0x901d).iter().fold(0xcbf2_9ce4_8422_2325, |h, key| {
            let v = engine.classify(key).map_or(0, |m| u64::from(m.rule) + 1);
            (h ^ v).wrapping_mul(0x0100_0000_01b3)
        });
    (engine.memory_bytes(), shape, verdicts)
}

/// The trees CutSplit and NeuroCuts build are golden: any drift in a tree
/// constant (binth, the /16 smallness threshold, cut fan-out, split
/// hand-over, node and depth caps, the search's seed and reward) changes
/// the bytes or the shape.
#[test]
fn tree_engines_build_golden_trees() {
    let cases: [(&str, RuleSet, Pin, Pin); 3] = [
        (
            "acl",
            generate(AppKind::Acl, 10_000, 29),
            (
                1_532_928,
                vec![
                    (2703, 1639, 8345, 8),
                    (53, 34, 187, 3),
                    (45, 30, 171, 3),
                    (201, 101, 1297, 9),
                ],
                0x36b4_bc0f_bf14_c35c,
            ),
            (
                1_982_496,
                vec![
                    (2685, 1715, 9960, 9),
                    (57, 35, 187, 3),
                    (55, 31, 171, 3),
                    (987, 692, 5653, 7),
                ],
                0x36b4_bc0f_bf14_c35c,
            ),
        ),
        (
            "fw",
            generate(AppKind::Fw, 10_000, 29),
            (
                1_280_864,
                vec![
                    (1925, 1250, 5968, 8),
                    (269, 177, 940, 5),
                    (337, 267, 1242, 5),
                    (137, 69, 1850, 9),
                ],
                0xb214_8748_43fa_41d6,
            ),
            (
                4_141_856,
                vec![
                    (2429, 1671, 10095, 9),
                    (271, 169, 940, 5),
                    (389, 264, 1242, 7),
                    (3871, 2737, 19404, 7),
                ],
                0xb214_8748_43fa_41d6,
            ),
        ),
        (
            "stanford",
            stanford_fib(10_000, 29),
            (557_840, vec![(3149, 1904, 9676, 7), (117, 59, 324, 6)], 0x8f46_64e2_06f7_9eaa),
            (548_872, vec![(3307, 2173, 10067, 8)], 0x8f46_64e2_06f7_9eaa),
        ),
    ];
    for (name, set, want_cs, want_nc) in cases {
        let cs = CutSplit::build(&set);
        assert_eq!(pin(&cs, &cs.stats(), &set), want_cs, "cs on {name}");
        let nc = NeuroCuts::with_config(&set, NeuroCutsConfig { iterations: 6, sample: 512 });
        assert_eq!(pin(&nc, &nc.stats(), &set), want_nc, "nc on {name}");
    }
}

/// FNV-1a over 64-bit words.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| (h ^ w).wrapping_mul(0x0100_0000_01b3))
}

/// What nobody configures is pinned instead: the Adam optimiser's
/// hyper-parameters (an Adam-trained RQ-RMI's bound and image) and early
/// stop (where a small fit settles), the CAIDA-like trace's Zipf exponent
/// and mean train length (its keys), and the shard plan's steering
/// auto-pick (the field and shard sizes it settles on for `it_parallel`'s
/// ACL set).
#[test]
fn fixed_constants_build_golden_models_traces_and_plans() {
    let set = generate(AppKind::Acl, 4_000, 61);
    let part = nuevomatch::iset::partition_isets(&set, 1, 0.0);
    let iset = &part.isets[0];
    let ranges: Vec<_> =
        iset.rule_ids.iter().take(2_000).map(|&id| set.rule(id).fields[iset.dim]).collect();
    let params = RqRmiParams {
        samples_init: 256,
        max_attempts: 2,
        trainer: TrainerKind::Adam { epochs: 40 },
        ..Default::default()
    };
    let model = train_rqrmi(&ranges, set.spec().bits(iset.dim), &params).unwrap();
    let image = save_rqrmi(&model);
    let image_hash = fnv1a(image.iter().map(|&b| b.into()));
    assert_eq!(
        (ranges.len(), model.max_error_bound(), image.len(), image_hash),
        (2_000, 302, 2_223, 0x8601_4bcf_9e18_858f),
        "Adam-trained RQ-RMI"
    );
    // Forty epochs never reach the early stop; a staircase fit with a
    // 2 000-epoch budget stops after 346.
    let stairs: Vec<(f32, f32)> = (0..256u16)
        .map(|i| f32::from(i) / 256.0)
        .map(|x| (x, [0.2, 0.5, 0.9][usize::from(x >= 0.3) + usize::from(x >= 0.7)]))
        .collect();
    let loss = nm_nn::Adam::train(&mut nm_nn::Mlp::random(8, 63), &stairs, 2_000);
    assert_eq!(loss.to_bits(), 0x3f81_4e0a_16ed_87c6, "Adam's early stop");

    let trace = caida_like_trace(&set, 5_000, 62);
    assert_eq!(fnv1a(trace.raw().iter().copied()), 0xbade_5d68_93db_2ce6, "CAIDA-like trace");

    let set = generate(AppKind::Acl, 1_200, 41);
    for (shards, want) in [(2, (1, vec![594, 600], 6)), (4, (1, vec![294, 300, 299, 300], 7))] {
        let plan = ShardPlan::build(&set, shards).unwrap();
        let homes = (0..plan.shards()).map(|s| plan.home(s).len()).collect();
        assert_eq!((plan.dim(), homes, plan.broadcast().len()), want, "{shards}-shard plan");
    }
}

/// A full build is a function of the rules and the configuration alone,
/// however many cores train it: the partition (every iSet's field and
/// rule ids, then the remainder) and the snapshot image are pinned for a
/// 20K ACL set and a 20K FIB. Each largest iSet holds over 10 000 rules, so
/// its RQ-RMI has a 128-wide leaf stage whose leaves run side by side, each
/// drawing from its own stream; the FIB's error target of 16 sends some of
/// those leaves into the Figure-5 retries, which continue that stream.
#[test]
fn full_builds_are_byte_identical_to_the_pinned_partitions_and_images() {
    let cfg = |max_isets, min_iset_coverage, error_target| NuevoMatchConfig {
        max_isets,
        min_iset_coverage,
        rqrmi: RqRmiParams { error_target, ..Default::default() },
        ..Default::default()
    };
    let cases = [
        (
            "acl",
            generate(AppKind::Acl, 20_000, 71),
            cfg(4, 0.05, 64),
            0xfbc6_a5ea_1856_b42d,
            (1_350_008, 0xe690_450d_6b86_d2d3),
        ),
        (
            "fib",
            stanford_fib(20_000, 72),
            cfg(8, 0.0, 16),
            0xa1a1_a67f_9b14_3c3b,
            (343_365, 0x76f5_e1d4_7ca8_fe03),
        ),
    ];
    for (name, set, cfg, want_partition, want_image) in cases {
        let part = nuevomatch::partition_isets(&set, cfg.max_isets, cfg.min_iset_coverage);
        assert!(part.isets[0].len() > 10_000, "{name}: the largest iSet gets 128 leaves");
        let mut words = Vec::new();
        for iset in &part.isets {
            words.extend([iset.dim as u64, iset.len() as u64]);
            words.extend(iset.rule_ids.iter().map(|&id| u64::from(id)));
        }
        words.push(part.remainder.len() as u64);
        words.extend(part.remainder.iter().map(|&id| u64::from(id)));
        assert_eq!(fnv1a(words), want_partition, "{name}: partition");

        let nm = NuevoMatch::build(&set, &cfg, TupleMerge::build).unwrap();
        let image = nuevomatch::save_snapshot(&nm, 1);
        let image_hash = fnv1a(image.iter().map(|&b| b.into()));
        assert_eq!((image.len(), image_hash), want_image, "{name}: snapshot image");
    }
}

/// The remainder engine's probe work is pinned: exact index bytes, and per
/// seeded uniform trace the tables a key reached, those the table filter
/// let through, the slots that could hold it and the boxes checked. Bare
/// TupleMerge over a 20K ACL, and NuevoMatch's TupleMerge remainder under
/// the floors its iSets hand it. A change to the filter's rows or to the
/// slot arrays' load moves them.
#[test]
fn tuplemerge_probe_counts_are_pinned() {
    let set = generate(AppKind::Acl, 20_000, 29);
    let trace = uniform_trace(&set, 20_000, 0x901d);
    let pin = |engine: &TupleMerge, floors: Option<&[Priority]>| {
        let t = engine.probe_tally(trace.raw(), trace.stride(), floors);
        (engine.memory_bytes(), t.passed_floor, t.admitted, t.slot_hits, t.box_checks)
    };
    let tm = TupleMerge::build(&set);
    assert_eq!(pin(&tm, None), (626_896, 563_041, 59_347, 24_466, 43_926), "bare tm");

    let cfg = NuevoMatchConfig {
        max_isets: 4,
        min_iset_coverage: 0.05,
        rqrmi: RqRmiParams { error_target: 64, ..Default::default() },
        ..Default::default()
    };
    let nm = NuevoMatch::build(&set, &cfg, TupleMerge::build).unwrap();
    let mut isets = vec![None; trace.len()];
    nm.classify_isets_batch(trace.raw(), trace.stride(), &mut isets);
    let floors: Vec<Priority> =
        isets.iter().map(|m| m.map_or(Priority::MAX, |m| m.priority.saturating_add(1))).collect();
    let want = (90_538, 285_529, 12_242, 4_975, 15_833);
    assert_eq!(pin(nm.remainder(), Some(&floors)), want, "nm/tm remainder");
}

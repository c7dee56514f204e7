//! RQ-RMI training (paper §3.5, Figure 5).
//!
//! Stage by stage: train the submodels of stage `i` on datasets sampled from
//! their responsibilities, compute the responsibilities of stage `i+1`
//! analytically (no key enumeration — Theorem A.1), continue. Leaves get an
//! extra loop: compute the worst-case prediction error analytically
//! (Theorem A.13); while it exceeds the target, double the sample count and
//! retrain (§3.5.6).
//!
//! ## Labels
//!
//! The paper samples uniform keys from the responsibility and keeps a sample
//! only "if there is an input rule range that matches the sampled key". For
//! sparse iSets (exact-match-heavy ACLs cover a sliver of a 2^32 domain)
//! rejection leaves datasets almost empty. We label every sampled key with
//! its **rank** — the index of the first range whose upper bound is ≥ key.
//! On covered keys the rank *is* the paper's label; on gap keys it extends
//! the staircase the model must learn anyway. This strictly enlarges the
//! training signal without touching the correctness argument (bounds are
//! computed over covered keys only). `SampleMode::Reject` keeps the literal
//! paper behaviour for comparison.
//!
//! ## One stream per submodel
//!
//! Submodel `j` of stage `s` draws from its own SplitMix64 stream, seeded
//! from `(SEED, s, j)`: its first fit and every Figure-5 retry take their
//! keys and trainer seeds from it, in a full build and in a partial
//! retrain alike. A submodel's fit is therefore a function of its
//! responsibility, the ranges and [`RqRmiParams`] alone — never of the
//! thread count, nor of which other submodels were fitted, or in what
//! order. So a stage fits its submodels side by side, each leaf running its
//! whole Figure-5 loop in `fit_leaf`, and [`retrain_leaves`] refits the
//! leaves drift touched side by side through that same function.

use nm_common::range::FieldRange;
use nm_common::{Error, SplitMix64};
use nm_nn::{fit_hinge, segments, Adam, Mlp};

use super::analyze::{
    child_responsibilities, eval_delta, responsibility_size, transitions_in_segment, KeyMap,
    Responsibility,
};
use super::model::RqRmi;
use crate::config::{RqRmiParams, TrainerKind};
use crate::par;

/// RNG seed for sampling (and Adam init), mixed with a submodel's stage and
/// index into that submodel's own stream (`submodel_rng`).
const SEED: u64 = 0x6e75_6576_6f6d; // "nuevom"

/// Sampling behaviour for training datasets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SampleMode {
    /// Label all sampled keys with their rank (default; see module docs).
    #[default]
    Rank,
    /// Paper-literal: discard samples that no range matches.
    Reject,
}

/// The ranges a model indexes, as sampling and bounding read them: their
/// ends over the key map, and how a sampled key is labelled.
struct TrainData {
    km: KeyMap,
    los: Vec<u64>,
    his: Vec<u64>,
    mode: SampleMode,
}

impl TrainData {
    /// Fails on zero ranges, or on ranges unsorted by `lo` or overlapping.
    fn new(ranges: &[FieldRange], km: KeyMap, mode: SampleMode) -> Result<Self, Error> {
        if ranges.is_empty() {
            return Err(Error::Build { msg: "cannot train an RQ-RMI on zero ranges".into() });
        }
        for w in ranges.windows(2) {
            if w[1].lo <= w[0].hi {
                return Err(Error::Build {
                    msg: format!(
                        "ranges must be sorted and non-overlapping: {:?} then {:?}",
                        w[0], w[1]
                    ),
                });
            }
        }
        let (los, his) = ranges.iter().map(|r| (r.lo, r.hi)).unzip();
        Ok(Self { km, los, his, mode })
    }
}

/// Trains an RQ-RMI over `ranges`, which must be sorted by `lo` and
/// non-overlapping (an iSet projection — `crate::iset` guarantees this).
///
/// Returns an error if the ranges are unsorted/overlapping or the field is
/// wider than the key map supports.
pub fn train_rqrmi(ranges: &[FieldRange], bits: u8, params: &RqRmiParams) -> Result<RqRmi, Error> {
    train_rqrmi_mode(ranges, bits, params, SampleMode::Rank)
}

/// [`train_rqrmi`] with an explicit [`SampleMode`].
pub fn train_rqrmi_mode(
    ranges: &[FieldRange],
    bits: u8,
    params: &RqRmiParams,
    mode: SampleMode,
) -> Result<RqRmi, Error> {
    let data = TrainData::new(ranges, KeyMap::new(bits), mode)?;
    let n = ranges.len();
    let widths = params.widths_for(n);
    let stages = widths.len();

    let mut nets: Vec<Vec<Mlp>> = Vec::with_capacity(stages);
    let mut resp: Vec<Responsibility> = vec![vec![(0, data.km.domain_max())]];
    let mut leaf_err = Vec::new();

    for s in 0..stages {
        let leaf = s + 1 == stages;
        debug_assert_eq!(resp.len(), widths[s]);
        let submodels: Vec<(usize, &Responsibility)> = resp.iter().enumerate().collect();
        let fitted = par::map(&submodels, |&(j, r)| {
            if responsibility_size(r) == 0 {
                (Mlp::zeros(Mlp::PAPER_HIDDEN), 0)
            } else if leaf {
                fit_leaf(s, j, r, &data, params)
            } else {
                // Internal stages see larger responsibilities; give them
                // more samples.
                let samples = params.samples_init * 4;
                (fit(&params.trainer, r, samples, &mut submodel_rng(s, j), &data), 0)
            }
        });
        let (stage_nets, bounds): (Vec<Mlp>, Vec<u32>) = fitted.into_iter().unzip();
        if leaf {
            leaf_err = bounds;
        } else {
            resp = next_responsibilities(&stage_nets, &resp, widths[s + 1], &data.km);
        }
        nets.push(stage_nets);
    }

    Ok(RqRmi { widths, nets, leaf_err, n_values: n, bits })
}

/// The stream submodel `j` of stage `stage` draws every fit from.
fn submodel_rng(stage: usize, j: usize) -> SplitMix64 {
    SplitMix64::new(SplitMix64::new(SEED ^ ((stage as u64) << 32 | j as u64)).next_u64())
}

/// The Figure 5 loop of leaf `j` in stage `stage`, shared by
/// [`train_rqrmi`] and [`retrain_leaves`]: fit from `samples_init` samples
/// and bound the fit analytically; while the bound misses the target and
/// attempts remain, refit from double the samples. Returns the best
/// (net, bound) pair seen — §3.5.6: a leaf that never converges keeps the
/// bound it achieved (lookups stay correct, just search further).
fn fit_leaf(
    stage: usize,
    j: usize,
    resp: &Responsibility,
    data: &TrainData,
    params: &RqRmiParams,
) -> (Mlp, u32) {
    let mut rng = submodel_rng(stage, j);
    let mut samples = params.samples_init;
    let mut best: Option<(Mlp, u32)> = None;
    for _ in 0..params.max_attempts.max(1) {
        let net = fit(&params.trainer, resp, samples, &mut rng, data);
        let bound = leaf_error_bound(&net, resp, data);
        if best.as_ref().map_or(true, |b| bound < b.1) {
            best = Some((net, bound));
        }
        if bound <= params.error_target {
            break;
        }
        samples *= 2;
    }
    best.expect("at least one attempt")
}

/// One step of the responsibility cascade: the responsibilities of the
/// `width` submodels after a trained `stage` whose submodels hold `resp`,
/// computed analytically from the weights ([`child_responsibilities`], no
/// key enumeration — Theorem A.1).
fn next_responsibilities(
    stage: &[Mlp],
    resp: &[Responsibility],
    width: usize,
    km: &KeyMap,
) -> Vec<Responsibility> {
    let mut next: Vec<Responsibility> = vec![Vec::new(); width];
    for (net, r) in stage.iter().zip(resp).filter(|(_, r)| !r.is_empty()) {
        for (k, mut ch) in child_responsibilities(net, r, width, km).into_iter().enumerate() {
            next[k].append(&mut ch);
        }
    }
    for r in &mut next {
        super::analyze::normalize(r);
    }
    next
}

/// Materialises each leaf submodel's responsibility by running the cascade
/// through the (unchanged) internal stages — exactly the computation
/// [`train_rqrmi`] performs while training, replayed from the trained
/// weights.
pub(crate) fn leaf_responsibilities(model: &RqRmi) -> Vec<Responsibility> {
    let km = model.key_map();
    let mut resp: Vec<Responsibility> = vec![vec![(0, km.domain_max())]];
    for (stage, &width) in model.nets.iter().zip(&model.widths[1..]) {
        resp = next_responsibilities(stage, &resp, width, &km);
    }
    resp
}

/// Statistics from a [`retrain_leaves`] pass (see that function).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LeafRetrainStats {
    /// Leaf submodels with a non-empty responsibility (reachable leaves).
    pub leaves: usize,
    /// Leaves re-fitted from fresh samples — the drift landed inside them.
    pub refit: usize,
    /// Leaves patched by the closed-form affine rescale (their ranges only
    /// shifted index, or the total count changed).
    pub rescaled: usize,
    /// Leaves left byte-identical (nothing in their key region changed).
    pub untouched: usize,
}

/// Incremental (partial) retraining — the §3.9 refinement: patches a trained
/// RQ-RMI from `old_ranges` to `new_ranges` by touching **only the leaf
/// stage**, leaving every internal submodel (and therefore the key→leaf
/// routing and the leaf responsibilities) bit-identical.
///
/// Per reachable leaf, against its responsibility `R`:
///
/// * **untouched** — the ranges intersecting `R` are identical in both
///   arrays, at the same indices, and the total count is unchanged: the leaf
///   net *and* its error bound carry over as-is.
/// * **rescaled** — the intersecting ranges are identical but sit at
///   uniformly shifted indices (removals/insertions happened entirely
///   outside `R`), or the total count `n` changed. The required new output
///   `(rank + s + 0.5)/n_new` is an affine map of the learned
///   `(rank + 0.5)/n_old`, so the leaf is patched in closed form
///   (`w2 *= n_old/n_new`, `b2 = b2·n_old/n_new + s/n_new`) and its error
///   bound recomputed analytically (Theorem A.13) — no sampling, no fitting.
/// * **refit** — the range *content* inside `R` changed (drift landed
///   here): the leaf runs the Figure 5 fit/bound/double loop over the new
///   ranges — `fit_leaf`, from the leaf's own stream, as a full build
///   does — side by side with the other leaves.
///
/// Fails (so callers can fall back to a full rebuild) when `new_ranges` is
/// empty/unsorted, or when more than `max_refit_fraction` of the reachable
/// leaves need refitting — drift that broad trains most of the model anyway,
/// and a full rebuild also restores the iSet partition.
///
/// The returned model honours the standard RQ-RMI contract over
/// `new_ranges`: error bounds are recomputed with the same `±delta` f32-band
/// machinery as [`train_rqrmi`], so for every covered key the true index
/// lies within `predict(key).0 ± predict(key).1`.
pub fn retrain_leaves(
    old: &RqRmi,
    old_ranges: &[FieldRange],
    new_ranges: &[FieldRange],
    params: &RqRmiParams,
    max_refit_fraction: f64,
) -> Result<(RqRmi, LeafRetrainStats), Error> {
    if old_ranges.len() != old.n_values {
        return Err(Error::Build {
            msg: format!(
                "retrain_leaves: old_ranges ({}) disagree with the model ({})",
                old_ranges.len(),
                old.n_values
            ),
        });
    }
    let new = TrainData::new(new_ranges, old.key_map(), SampleMode::Rank)?;
    let (n_old, n_new) = (old.n_values, new_ranges.len());
    let (old_los, old_his): (Vec<u64>, Vec<u64>) = old_ranges.iter().map(|r| (r.lo, r.hi)).unzip();
    let resp = leaf_responsibilities(old);
    let leaf_stage = old.nets.len() - 1;

    // Classify every reachable leaf: None = refit needed; Some(shift) =
    // clean, all intersecting ranges identical up to a uniform index shift.
    let ranges_in = |los: &[u64], his: &[u64], a: u64, b: u64| -> (usize, usize) {
        let i0 = his.partition_point(|&h| h < a);
        let i1 = los.partition_point(|&lo| lo <= b).max(i0);
        (i0, i1)
    };
    let mut plan: Vec<Option<Option<i64>>> = vec![None; old.widths[leaf_stage]];
    let mut stats = LeafRetrainStats::default();
    for (j, r) in resp.iter().enumerate() {
        if responsibility_size(r) == 0 {
            continue;
        }
        stats.leaves += 1;
        let mut shift: Option<i64> = None;
        let mut clean = true;
        for &(a, b) in r {
            let (o0, o1) = ranges_in(&old_los, &old_his, a, b);
            let (m0, m1) = ranges_in(&new.los, &new.his, a, b);
            let s = m0 as i64 - o0 as i64;
            if *shift.get_or_insert(s) != s || (o1 - o0) != (m1 - m0) {
                clean = false;
                break;
            }
            if (o0..o1).any(|i| old_ranges[i] != new_ranges[(i as i64 + s) as usize]) {
                clean = false;
                break;
            }
        }
        // Some(Some(shift)) = clean, Some(None) = refit; unreachable leaves
        // stay None.
        plan[j] = if clean { Some(Some(shift.unwrap_or(0))) } else { Some(None) };
        match plan[j] {
            Some(None) => stats.refit += 1,
            Some(Some(0)) if n_old == n_new => stats.untouched += 1,
            _ => stats.rescaled += 1,
        }
    }
    let max_refit = (max_refit_fraction * stats.leaves as f64).floor() as usize;
    if stats.refit > max_refit {
        return Err(Error::Build {
            msg: format!(
                "retrain_leaves: drift too broad — {} of {} reachable leaves need refitting \
                 (cap {max_refit})",
                stats.refit, stats.leaves
            ),
        });
    }

    let leaves: Vec<(usize, Option<Option<i64>>)> = plan.into_iter().enumerate().collect();
    let patched = par::map(&leaves, |&(j, p)| {
        let kept = (old.nets[leaf_stage][j].clone(), old.leaf_err[j]);
        match p {
            // An unreachable leaf keeps its zero net; one whose key region
            // saw no change keeps its weights and bound bit-identically.
            None => kept,
            Some(Some(0)) if n_old == n_new => kept,
            Some(Some(shift)) => {
                // Affine rescale: y' = y·(n_old/n_new) + shift/n_new maps
                // the learned (rank+0.5)/n_old onto (rank+shift+0.5)/n_new
                // exactly, so the index-space error is preserved; the bound
                // is recomputed analytically to also absorb the (slightly
                // different) f32 evaluation band of the scaled weights.
                let mut net = kept.0;
                let scale = n_old as f32 / n_new as f32;
                for w in &mut net.w2 {
                    *w *= scale;
                }
                net.b2 = net.b2 * scale + shift as f32 / n_new as f32;
                let bound = leaf_error_bound(&net, &resp[j], &new);
                if bound <= params.error_target.max(kept.1) {
                    (net, bound)
                } else {
                    // The rescale came out worse than before (pathological
                    // weights): refit this leaf instead.
                    fit_leaf(leaf_stage, j, &resp[j], &new, params)
                }
            }
            // Drift landed in this leaf: the Figure 5 loop over the new
            // ranges.
            Some(None) => fit_leaf(leaf_stage, j, &resp[j], &new, params),
        }
    });
    let (leaf_nets, leaf_err): (Vec<Mlp>, Vec<u32>) = patched.into_iter().unzip();
    let mut nets = old.nets[..leaf_stage].to_vec();
    nets.push(leaf_nets);

    Ok((
        RqRmi { widths: old.widths.clone(), nets, leaf_err, n_values: n_new, bits: old.bits },
        stats,
    ))
}

/// Trains one submodel — [`Mlp::PAPER_HIDDEN`] neurons, the width the
/// inference kernels are built for — with the configured optimiser, on
/// `samples` keys drawn from `rng` over `resp` (plus the range-start
/// anchors, [`sample_dataset`]), the trainer's seed drawn after them.
fn fit(
    trainer: &TrainerKind,
    resp: &Responsibility,
    samples: usize,
    rng: &mut SplitMix64,
    data: &TrainData,
) -> Mlp {
    let set = sample_dataset(resp, samples, rng, data);
    match trainer {
        TrainerKind::Hinge => fit_hinge(&set),
        TrainerKind::Adam { epochs } => {
            let mut net = Mlp::random(Mlp::PAPER_HIDDEN, rng.next_u64());
            Adam::train(&mut net, &set, *epochs);
            net
        }
    }
}

/// Rank of `key` among the sorted ranges: index of the first range whose
/// upper bound is ≥ key. For a covered key this is exactly the index of its
/// matching range; for a gap key it is the index of the next range.
#[inline]
pub(crate) fn rank(his: &[u64], key: u64) -> usize {
    his.partition_point(|&h| h < key)
}

/// Samples a training dataset from a responsibility (§3.5.4).
///
/// Uniform keys weighted by interval length, plus range-boundary anchors
/// (each range's `lo` inside the responsibility) that pin the staircase the
/// model must learn. All labels use the scaled mid-bucket target
/// `(v + 0.5) / n`.
fn sample_dataset(
    resp: &Responsibility,
    samples: usize,
    rng: &mut SplitMix64,
    data: &TrainData,
) -> Vec<(f32, f32)> {
    let TrainData { km, los, his, mode } = data;
    let n = los.len();
    let total = responsibility_size(resp);
    if total == 0 {
        return Vec::new();
    }
    // Every key lies between the responsibility's two ends, so its rank lies
    // between theirs: ranges before `r0` end below every key, and range `r1`
    // (if any) ends at or above every key.
    let (r0, r1) = (rank(his, resp[0].0), rank(his, resp[resp.len() - 1].1));
    let label = |key: u64| -> Option<f32> {
        let r = r0 + rank(&his[r0..r1], key);
        let covered = r < n && los[r] <= key;
        match mode {
            SampleMode::Reject if !covered => None,
            _ => {
                let v = r.min(n - 1);
                Some((v as f64 + 0.5) as f32 / n as f32)
            }
        }
    };
    let mut set = Vec::with_capacity(samples + 64);

    // Uniform samples across the responsibility.
    for _ in 0..samples {
        let mut off = rng.below(total);
        let mut key = 0;
        for &(a, b) in resp {
            let len = b - a + 1;
            if off < len {
                key = a + off;
                break;
            }
            off -= len;
        }
        if let Some(y) = label(key) {
            set.push((km.x(key), y));
        }
    }

    // Anchors: range starts within the responsibility (subsampled when the
    // responsibility holds more ranges than we want anchor points).
    let anchors_max = samples.max(64);
    for &(a, b) in resp {
        let start = rank(his, a);
        let mut i = start;
        let in_resp = los.partition_point(|&lo| lo <= b) - start;
        let step = (in_resp / anchors_max).max(1);
        while i < n && los[i] <= b {
            let key = los[i].max(a);
            if let Some(y) = label(key) {
                set.push((km.x(key), y));
            }
            i += step;
        }
    }
    set
}

/// Worst-case index prediction error of a leaf over its responsibility
/// (Theorem A.13), robust to `f32` evaluation noise.
///
/// The key space is cut at every point where either the analytic prediction
/// or the true rank can change: segment kinks, transition inputs of the
/// `⌊M·n⌋` quantisation, and range boundaries. Within each resulting key run
/// both are constant, so one evaluation per run suffices; the prediction is
/// then widened by `ceil(delta·n) + 1` to cover anything the real `f32`
/// pipeline (any summation order) can produce.
fn leaf_error_bound(net: &Mlp, resp: &Responsibility, data: &TrainData) -> u32 {
    let TrainData { km, los, his, .. } = data;
    let n = los.len();
    let delta = eval_delta(net) + 1e-9; // +interp fuzz of segment eval
    let dq = (delta * n as f64).ceil() as u64 + 1;
    let nf = n as f64;
    let mut max_err: u64 = 0;
    let mut crit: Vec<u64> = Vec::new();

    for &(ka, kb) in resp {
        let segs = segments(net, km.x64(ka), km.x64(kb));
        let mut cursor = ka;
        for seg in &segs {
            if cursor > kb {
                break;
            }
            let k_end = km.floor_key(seg.x1).min(kb);
            if k_end < cursor {
                continue;
            }
            let k_start = cursor;
            cursor = k_end + 1;

            // Critical keys inside this run.
            crit.clear();
            crit.push(k_start);
            for t in transitions_in_segment(seg, n) {
                let k = km.ceil_key(t);
                if k > k_start && k <= k_end {
                    crit.push(k);
                }
            }
            // Range boundaries (lo and hi+1) falling inside the run.
            let first = rank(his, k_start);
            let mut i = first;
            while i < n && los[i] <= k_end {
                if los[i] > k_start {
                    crit.push(los[i]);
                }
                let after = his[i].saturating_add(1);
                if after > k_start && after <= k_end {
                    crit.push(after);
                }
                i += 1;
            }
            crit.sort_unstable();
            crit.dedup();
            crit.push(k_end + 1); // sentinel

            // The windows start in increasing order, so their ranks only
            // grow: `r` walks forward from the run's first rank instead of
            // searching `his` once per window.
            let mut r = first;
            for w in crit.windows(2) {
                let (g0, g1) = (w[0], w[1] - 1);
                if g0 > g1 {
                    continue;
                }
                while r < n && his[r] < g0 {
                    r += 1;
                }
                debug_assert_eq!(r, rank(his, g0));
                // Is this run covered by a range?
                if r >= n || los[r] > g0 {
                    continue; // gap keys carry no correctness obligation
                }
                debug_assert!(his[r] >= g1, "range boundary must not split a run");
                let v = r as u64;
                let y = seg.eval(km.x64(g0)).clamp(0.0, 1.0);
                let p = ((y * nf) as u64).min(n as u64 - 1);
                let err = p.abs_diff(v) + dq;
                max_err = max_err.max(err);
            }
        }
    }
    max_err.min(n as u64) as u32
}

/// Exhaustively verifies an RQ-RMI: for **every** key covered by a range the
/// true index must lie within `predicted ± bound`. O(domain) — tests only.
pub fn verify_exhaustive(model: &RqRmi, ranges: &[FieldRange]) -> Result<(), String> {
    for (idx, r) in ranges.iter().enumerate() {
        for key in r.lo..=r.hi {
            let (pred, err) = model.predict(key);
            let dist = (pred as i64 - idx as i64).unsigned_abs();
            if dist > err as u64 {
                return Err(format!("key {key}: true index {idx}, predicted {pred}, bound {err}"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_common::range::domain_max;

    fn params() -> RqRmiParams {
        RqRmiParams { samples_init: 256, ..Default::default() }
    }

    fn random_disjoint_ranges(seed: u64, n: usize, bits: u8) -> Vec<FieldRange> {
        // Random cut points -> alternate covered/uncovered spans.
        let mut rng = SplitMix64::new(seed);
        let dm = domain_max(bits);
        let mut cuts: Vec<u64> = (0..n * 2).map(|_| rng.below(dm)).collect();
        cuts.sort_unstable();
        cuts.dedup();
        cuts.chunks_exact(2)
            .map(|c| FieldRange::new(c[0], c[1]))
            .filter({
                let mut prev_hi: Option<u64> = None;
                move |r| {
                    let ok = prev_hi.map_or(true, |p| r.lo > p);
                    if ok {
                        prev_hi = Some(r.hi);
                    }
                    ok
                }
            })
            .collect()
    }

    #[test]
    fn rejects_overlapping_input() {
        let ranges = vec![FieldRange::new(0, 10), FieldRange::new(10, 20)];
        assert!(train_rqrmi(&ranges, 16, &params()).is_err());
        assert!(train_rqrmi(&[], 16, &params()).is_err());
    }

    #[test]
    fn exhaustive_correctness_16bit() {
        // The load-bearing guarantee test: every covered key, every range.
        for seed in [1u64, 2, 3] {
            let ranges = random_disjoint_ranges(seed, 200, 16);
            assert!(ranges.len() > 50);
            let m = train_rqrmi(&ranges, 16, &params()).unwrap();
            verify_exhaustive(&m, &ranges).unwrap();
        }
    }

    #[test]
    fn exhaustive_correctness_exact_match_staircase() {
        // Dense exact values: the hardest quantisation case.
        let ranges: Vec<FieldRange> = (0..500).map(|i| FieldRange::exact(i * 131)).collect();
        let m = train_rqrmi(&ranges, 16, &params()).unwrap();
        verify_exhaustive(&m, &ranges).unwrap();
    }

    #[test]
    fn exhaustive_correctness_adam_trainer() {
        let ranges = random_disjoint_ranges(7, 100, 16);
        let p = RqRmiParams {
            samples_init: 256,
            trainer: TrainerKind::Adam { epochs: 60 },
            max_attempts: 2,
            ..Default::default()
        };
        let m = train_rqrmi(&ranges, 16, &p).unwrap();
        verify_exhaustive(&m, &ranges).unwrap();
    }

    #[test]
    fn reject_mode_also_correct() {
        let ranges = random_disjoint_ranges(11, 150, 16);
        let m = train_rqrmi_mode(&ranges, 16, &params(), SampleMode::Reject).unwrap();
        verify_exhaustive(&m, &ranges).unwrap();
    }

    #[test]
    fn bounds_shrink_with_effort() {
        let ranges = random_disjoint_ranges(5, 300, 20);
        let lazy = RqRmiParams { samples_init: 32, max_attempts: 1, ..Default::default() };
        let keen = RqRmiParams { samples_init: 2048, max_attempts: 4, ..Default::default() };
        let m_lazy = train_rqrmi(&ranges, 20, &lazy).unwrap();
        let m_keen = train_rqrmi(&ranges, 20, &keen).unwrap();
        assert!(
            m_keen.max_error_bound() <= m_lazy.max_error_bound(),
            "keen {} vs lazy {}",
            m_keen.max_error_bound(),
            m_lazy.max_error_bound()
        );
    }

    #[test]
    fn training_is_deterministic() {
        let ranges = random_disjoint_ranges(9, 100, 16);
        let a = train_rqrmi(&ranges, 16, &params()).unwrap();
        let b = train_rqrmi(&ranges, 16, &params()).unwrap();
        assert_eq!(a.leaf_err, b.leaf_err);
        for key in (0..65536u64).step_by(97) {
            assert_eq!(a.predict(key), b.predict(key));
        }
    }

    #[test]
    fn retrain_leaves_identity_is_untouched() {
        let ranges = random_disjoint_ranges(3, 200, 16);
        let m = train_rqrmi(&ranges, 16, &params()).unwrap();
        let (m2, stats) = retrain_leaves(&m, &ranges, &ranges, &params(), 1.0).unwrap();
        assert_eq!(stats.refit, 0, "identical ranges must not refit: {stats:?}");
        assert_eq!(stats.rescaled, 0);
        assert_eq!(stats.untouched, stats.leaves);
        assert_eq!(m2.leaf_err, m.leaf_err);
        for key in (0..65_536u64).step_by(97) {
            assert_eq!(m2.predict(key), m.predict(key));
        }
    }

    #[test]
    fn retrain_leaves_concentrated_removal_stays_exhaustively_correct() {
        // Remove a cluster of low-key ranges: the low leaves refit, the rest
        // only rescale (uniform index shift) — and the patched model must
        // satisfy the full RQ-RMI contract over the survivors.
        let ranges = random_disjoint_ranges(5, 300, 16);
        let m = train_rqrmi(&ranges, 16, &params()).unwrap();
        let survivors: Vec<FieldRange> = ranges[6..].to_vec();
        let (m2, stats) = retrain_leaves(&m, &ranges, &survivors, &params(), 1.0).unwrap();
        assert_eq!(m2.len(), survivors.len());
        assert!(
            stats.refit < stats.leaves,
            "concentrated drift must not dirty every leaf: {stats:?}"
        );
        verify_exhaustive(&m2, &survivors).unwrap();
    }

    #[test]
    fn retrain_leaves_admission_and_removal_mix() {
        // Drop some ranges and slot new ones into the gaps — the shape of a
        // partial retrain that re-admits drifted rules.
        let ranges = random_disjoint_ranges(7, 250, 16);
        let m = train_rqrmi(&ranges, 16, &params()).unwrap();
        let mut new_ranges: Vec<FieldRange> = ranges.clone();
        // Remove three neighbours, then insert a fresh range between two
        // survivors (random_disjoint_ranges leaves gaps by construction).
        new_ranges.drain(10..13);
        let gap_lo = new_ranges[20].hi + 2;
        let gap_hi = new_ranges[21].lo.saturating_sub(2);
        if gap_lo < gap_hi {
            new_ranges.insert(21, FieldRange::new(gap_lo, gap_hi));
        }
        let (m2, _stats) = retrain_leaves(&m, &ranges, &new_ranges, &params(), 1.0).unwrap();
        verify_exhaustive(&m2, &new_ranges).unwrap();
    }

    #[test]
    fn retrain_leaves_rejects_broad_drift() {
        // Removing every other range dirties essentially every leaf; with a
        // tight refit cap the partial path must refuse (full-rebuild
        // fallback territory).
        let ranges = random_disjoint_ranges(9, 300, 16);
        let m = train_rqrmi(&ranges, 16, &params()).unwrap();
        let survivors: Vec<FieldRange> = ranges.iter().step_by(2).copied().collect();
        let err = retrain_leaves(&m, &ranges, &survivors, &params(), 0.25);
        assert!(err.is_err(), "broad drift must be rejected at refit cap 0.25");
    }

    #[test]
    fn retrain_leaves_rejects_bad_input() {
        let ranges = random_disjoint_ranges(11, 100, 16);
        let m = train_rqrmi(&ranges, 16, &params()).unwrap();
        assert!(retrain_leaves(&m, &ranges, &[], &params(), 1.0).is_err(), "empty survivors");
        let overlapping = vec![FieldRange::new(0, 10), FieldRange::new(5, 20)];
        assert!(retrain_leaves(&m, &ranges, &overlapping, &params(), 1.0).is_err());
        assert!(
            retrain_leaves(&m, &ranges[1..], &ranges, &params(), 1.0).is_err(),
            "old_ranges must match the model"
        );
    }

    #[test]
    fn retrain_leaves_is_deterministic() {
        let ranges = random_disjoint_ranges(13, 200, 16);
        let m = train_rqrmi(&ranges, 16, &params()).unwrap();
        let survivors: Vec<FieldRange> = ranges[4..].to_vec();
        let (a, sa) = retrain_leaves(&m, &ranges, &survivors, &params(), 1.0).unwrap();
        let (b, sb) = retrain_leaves(&m, &ranges, &survivors, &params(), 1.0).unwrap();
        assert_eq!(sa, sb);
        assert_eq!(a.leaf_err, b.leaf_err);
        for key in (0..65_536u64).step_by(131) {
            assert_eq!(a.predict(key), b.predict(key));
        }
    }

    #[test]
    fn a_leaf_refit_does_not_depend_on_which_other_leaves_refit() {
        // Shrink one range inside leaf `a`, then that range and one inside
        // an earlier leaf `b`: leaf `a` refits in both retrains and must
        // come out bit-identical, whatever else refits beside it.
        let ranges = random_disjoint_ranges(5, 300, 16);
        let m = train_rqrmi(&ranges, 16, &params()).unwrap();
        // Per leaf, the first range wholly inside its responsibility.
        let inside: Vec<(usize, usize)> = leaf_responsibilities(&m)
            .iter()
            .enumerate()
            .filter_map(|(j, r)| {
                let within = |x: &FieldRange| r.iter().any(|&(a, b)| a <= x.lo && x.hi <= b);
                Some((j, ranges.iter().position(|x| x.hi > x.lo && within(x))?))
            })
            .collect();
        let (&(b, ib), &(a, ia)) = (inside.first().unwrap(), inside.last().unwrap());
        assert!(b < a, "need two leaves with a range inside: {inside:?}");
        let refit_a = |shrunk: &[usize]| {
            let mut new_ranges = ranges.clone();
            for &i in shrunk {
                new_ranges[i].hi -= 1;
            }
            let (m2, stats) = retrain_leaves(&m, &ranges, &new_ranges, &params(), 1.0).unwrap();
            let net = &m2.nets[m2.nets.len() - 1][a];
            let weights = [&net.w1, &net.b1, &net.w2, &vec![net.b2]]
                .map(|w| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
            (weights, m2.leaf_err[a], stats.refit)
        };
        let (alone, together) = (refit_a(&[ia]), refit_a(&[ib, ia]));
        assert!(together.2 > alone.2, "leaf {b} refits too: {} vs {}", together.2, alone.2);
        assert_eq!(
            (alone.0, alone.1),
            (together.0, together.1),
            "leaf {a}'s refit moved when leaf {b} refit too"
        );
    }

    /// `leaf_error_bound` as it was before the rank cursor: one binary
    /// search of `his` per window.
    fn leaf_error_bound_by_search(net: &Mlp, resp: &Responsibility, data: &TrainData) -> u32 {
        let TrainData { km, los, his, .. } = data;
        let n = los.len();
        let delta = eval_delta(net) + 1e-9;
        let dq = (delta * n as f64).ceil() as u64 + 1;
        let nf = n as f64;
        let mut max_err: u64 = 0;
        for &(ka, kb) in resp {
            let segs = segments(net, km.x64(ka), km.x64(kb));
            let mut cursor = ka;
            for seg in &segs {
                if cursor > kb {
                    break;
                }
                let k_end = km.floor_key(seg.x1).min(kb);
                if k_end < cursor {
                    continue;
                }
                let k_start = cursor;
                cursor = k_end + 1;
                let mut crit: Vec<u64> = vec![k_start];
                for t in transitions_in_segment(seg, n) {
                    let k = km.ceil_key(t);
                    if k > k_start && k <= k_end {
                        crit.push(k);
                    }
                }
                let mut i = rank(his, k_start);
                while i < n && los[i] <= k_end {
                    if los[i] > k_start {
                        crit.push(los[i]);
                    }
                    let after = his[i].saturating_add(1);
                    if after > k_start && after <= k_end {
                        crit.push(after);
                    }
                    i += 1;
                }
                crit.sort_unstable();
                crit.dedup();
                crit.push(k_end + 1);
                for w in crit.windows(2) {
                    let (g0, g1) = (w[0], w[1] - 1);
                    if g0 > g1 {
                        continue;
                    }
                    let r = rank(his, g0);
                    if r >= n || los[r] > g0 {
                        continue;
                    }
                    let y = seg.eval(km.x64(g0)).clamp(0.0, 1.0);
                    let p = ((y * nf) as u64).min(n as u64 - 1);
                    max_err = max_err.max(p.abs_diff(r as u64) + dq);
                }
            }
        }
        max_err.min(n as u64) as u32
    }

    #[test]
    fn the_rank_cursor_bounds_equal_the_binary_search_reference() {
        let mut rng = SplitMix64::new(0xb0b);
        // Adjacent ranges: no gap between one range and the next.
        let mut lo = 17;
        let adjacent: Vec<FieldRange> = (0..300)
            .map(|_| {
                let r = FieldRange::new(lo, lo + rng.below(200));
                lo = r.hi + 1;
                r
            })
            .collect();
        // One-key ranges, touching and apart, and a mix of all three.
        let single: Vec<FieldRange> = (0..400u64)
            .map(|i| FieldRange::exact(i * 3 + (i % 7 == 0) as u64 * 2 + i / 50 * 9))
            .collect();
        let mixed: Vec<FieldRange> = random_disjoint_ranges(21, 200, 16)
            .into_iter()
            .flat_map(|r| match r.hi - r.lo {
                0..=3 => vec![r],
                w => vec![FieldRange::new(r.lo, r.lo + w / 2), FieldRange::exact(r.lo + w / 2 + 1)],
            })
            .collect();
        let sets = [random_disjoint_ranges(17, 300, 16), adjacent, single, mixed];
        let trainers = [
            params(),
            RqRmiParams {
                samples_init: 128,
                trainer: TrainerKind::Adam { epochs: 20 },
                max_attempts: 1,
                ..Default::default()
            },
        ];
        for (s, ranges) in sets.iter().enumerate() {
            for p in &trainers {
                let m = train_rqrmi(ranges, 16, p).unwrap();
                let data = TrainData::new(ranges, m.key_map(), SampleMode::Rank).unwrap();
                let whole = vec![(0, data.km.domain_max())];
                let leaves = m.nets.last().unwrap();
                for (j, r) in leaf_responsibilities(&m).iter().enumerate() {
                    for resp in [r, &whole] {
                        assert_eq!(
                            leaf_error_bound(&leaves[j], resp, &data),
                            leaf_error_bound_by_search(&leaves[j], resp, &data),
                            "set {s}, {:?}, leaf {j}",
                            p.trainer
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rank_is_partition_point() {
        let his = vec![10u64, 20, 30];
        assert_eq!(rank(&his, 0), 0);
        assert_eq!(rank(&his, 10), 0);
        assert_eq!(rank(&his, 11), 1);
        assert_eq!(rank(&his, 31), 3);
    }

    #[test]
    fn single_range_trivial_model() {
        let ranges = vec![FieldRange::new(100, 200)];
        let m = train_rqrmi(&ranges, 16, &params()).unwrap();
        verify_exhaustive(&m, &ranges).unwrap();
        let (pred, err) = m.predict(150);
        assert!(pred as u32 <= err || pred == 0);
    }

    #[test]
    fn wide_32bit_field_sampled_correctness() {
        // Can't enumerate 2^32; verify on all range boundaries + random keys.
        let ranges = random_disjoint_ranges(13, 2_000, 32);
        let m = train_rqrmi(&ranges, 32, &params()).unwrap();
        let mut rng = SplitMix64::new(99);
        for (idx, r) in ranges.iter().enumerate() {
            let check = |key: u64| {
                let (pred, err) = m.predict(key);
                let dist = (pred as i64 - idx as i64).unsigned_abs();
                assert!(dist <= err as u64, "key {key} true {idx} pred {pred} err {err}");
            };
            check(r.lo);
            check(r.hi);
            check(rng.range_inclusive(r.lo, r.hi));
        }
    }
}

//! Analytic machinery behind RQ-RMI training (paper §3.5, Appendix A).
//!
//! Everything here revolves around three facts:
//!
//! 1. A clamped 1×H×1 ReLU submodel is piece-wise linear (Corollary 3.2);
//!    `nm_nn::segments` extracts the exact pieces in `f64`.
//! 2. Within one linear piece, the quantised output `⌊M(x)·W⌋` changes only
//!    at analytically solvable *transition inputs* (Definition A.6), so
//!    responsibilities (Theorem A.1) and prediction-error bounds
//!    (Theorem A.13) need only a finite set of evaluations.
//! 3. Inference runs in `f32` while analysis runs in `f64`. We bridge the gap
//!    rigorously: [`eval_delta`] bounds `|M_f32(x) − M_f64(x)|` from the
//!    weight magnitudes, every bucket decision within `delta` of a boundary
//!    is treated as *ambiguous* (the key is assigned to both adjacent
//!    buckets' responsibilities), and error bounds are computed on the
//!    `±delta` band rather than the exact analytic value. The result: bounds
//!    that hold for the real `f32` pipeline — scalar or SIMD, whatever the
//!    summation order — not just for the idealised math.

use nm_common::range::domain_max;
use nm_nn::{segments, Mlp, Segment};

/// Maps integer keys of a `bits`-wide field into model input space `[0, 1)`.
///
/// `x(key) = key / 2^bits`, computed in `f64` (exact for bits ≤ 52) and cast
/// to `f32` for inference. The cast is monotone, so key order is preserved.
#[derive(Clone, Copy, Debug)]
pub struct KeyMap {
    scale: f64,
    domain_max: u64,
}

impl KeyMap {
    /// Creates the map for a `bits`-wide field (bits ≤ 52 so `key as f64`
    /// stays exact; wider fields must be split, see
    /// [`nm_common::FieldsSpec::split_wide`]).
    pub fn new(bits: u8) -> Self {
        assert!((1..=52).contains(&bits), "KeyMap supports 1..=52-bit fields, got {bits}");
        let dm = domain_max(bits);
        Self { scale: 1.0 / (dm as f64 + 1.0), domain_max: dm }
    }

    /// Largest key of the domain.
    #[inline]
    pub fn domain_max(&self) -> u64 {
        self.domain_max
    }

    /// Model input for a key, in inference precision.
    #[inline]
    pub fn x(&self, key: u64) -> f32 {
        (key as f64 * self.scale) as f32
    }

    /// Model input for a key, in analysis precision (exact).
    #[inline]
    pub fn x64(&self, key: u64) -> f64 {
        key as f64 * self.scale
    }

    /// Smallest key whose `x64` is ≥ `t` (clamped into the domain).
    pub fn ceil_key(&self, t: f64) -> u64 {
        if t <= 0.0 {
            return 0;
        }
        if t > self.x64(self.domain_max) {
            return self.domain_max; // caller clamps; no key reaches t
        }
        let mut k = ((t / self.scale).floor() as i128).clamp(0, self.domain_max as i128) as u64;
        // Fix double-rounding drift: march to the exact boundary (≤ 2 steps).
        while k > 0 && self.x64(k - 1) >= t {
            k -= 1;
        }
        while self.x64(k) < t && k < self.domain_max {
            k += 1;
        }
        k
    }

    /// Largest key whose `x64` is ≤ `t` (clamped into the domain).
    pub fn floor_key(&self, t: f64) -> u64 {
        let k = self.ceil_key(t);
        if self.x64(k) > t {
            k.saturating_sub(1)
        } else {
            k
        }
    }
}

/// Conservative bound on `|M_f32(x) − M_f64(x)|` for `x ∈ [0, 1]`, derived
/// from weight magnitudes: each of the ~4H flops contributes at most one
/// rounding of a quantity bounded by `S = Σ|w2|·(|w1|+|b1|) + |b2|`. The
/// factor 8 covers any summation order (scalar, SSE or AVX tree) with room
/// to spare; a few extra ULPs cover the downstream `y·W` bucket multiply.
pub fn eval_delta(net: &Mlp) -> f64 {
    let mut s = net.b2.abs() as f64;
    for j in 0..net.hidden() {
        s += net.w2[j].abs() as f64 * (net.w1[j].abs() as f64 + net.b1[j].abs() as f64);
    }
    (s * 8.0 + 8.0) * f32::EPSILON as f64
}

/// Transition inputs of one linear piece: the `x` where `⌊M(x)·W⌋` changes,
/// i.e. solutions of `M(x) = m/W` for integer `m` (Definition A.6 restricted
/// to a segment, which is how Lemma A.8 computes them).
///
/// Returned sorted ascending. Constant pieces yield none (ambiguity near a
/// boundary is handled separately via [`eval_delta`] bands).
pub fn transitions_in_segment(seg: &Segment, w: usize) -> Vec<f64> {
    let wf = w as f64;
    let (ylo, yhi) = if seg.y0 <= seg.y1 { (seg.y0, seg.y1) } else { (seg.y1, seg.y0) };
    let m_lo = (ylo * wf).ceil() as i64;
    let m_hi = (yhi * wf).floor() as i64;
    if m_lo > m_hi || seg.slope() == 0.0 {
        return Vec::new();
    }
    let mut out = Vec::with_capacity((m_hi - m_lo + 1) as usize);
    for m in m_lo..=m_hi {
        if m <= 0 || m >= w as i64 {
            continue; // crossing 0 or W is clamp territory, not a bucket change
        }
        if let Some(x) = seg.solve(m as f64 / wf) {
            out.push(x);
        }
    }
    out.sort_by(f64::total_cmp);
    out
}

/// A sorted list of disjoint, inclusive key intervals — a submodel
/// *responsibility* (Definition A.3) materialised in key space.
pub type Responsibility = Vec<(u64, u64)>;

/// Total number of keys covered by a responsibility.
pub fn responsibility_size(resp: &Responsibility) -> u64 {
    resp.iter().map(|&(a, b)| b - a + 1).sum()
}

/// Computes the responsibilities of the `w_next` submodels of the following
/// stage from a trained submodel and its own responsibility (Theorem A.1).
///
/// Keys whose analytic bucket decision lies within the `f32` evaluation
/// uncertainty of a boundary are assigned to **both** adjacent buckets: a
/// superset responsibility is always safe (extra training samples, error
/// bounds over a superset of reachable keys), whereas a missed key could
/// invalidate the correctness guarantee.
pub fn child_responsibilities(
    net: &Mlp,
    resp: &Responsibility,
    w_next: usize,
    km: &KeyMap,
) -> Vec<Responsibility> {
    let mut out: Vec<Responsibility> = vec![Vec::new(); w_next];
    let delta = eval_delta(net);
    let wf = w_next as f64;

    let mut push = |bucket: i64, a: u64, b: u64| {
        if bucket < 0 || bucket >= w_next as i64 || a > b {
            return;
        }
        out[bucket as usize].push((a, b));
    };

    for &(ka, kb) in resp {
        let segs = segments(net, km.x64(ka), km.x64(kb));
        let mut cursor = ka;
        for seg in &segs {
            if cursor > kb {
                break;
            }
            // Keys whose x lies in this piece.
            let k_end = km.floor_key(seg.x1).min(kb);
            if k_end < cursor {
                continue;
            }
            let k_start = cursor;
            cursor = k_end + 1;

            let slope = seg.slope();
            if slope == 0.0 {
                // Constant piece: one bucket, or two when hugging a boundary.
                let b = (seg.y0 * wf).floor() as i64;
                push(b.min(w_next as i64 - 1), k_start, k_end);
                let lo_b = ((seg.y0 - delta) * wf).floor() as i64;
                let hi_b = ((seg.y0 + delta) * wf).floor() as i64;
                if lo_b != b {
                    push(lo_b, k_start, k_end);
                }
                if hi_b != b {
                    push(hi_b.min(w_next as i64 - 1), k_start, k_end);
                }
                continue;
            }

            // Split the key run at each transition.
            let ts = transitions_in_segment(seg, w_next);
            let mut run_start = k_start;
            let mut boundaries: Vec<u64> = ts.iter().map(|&t| km.ceil_key(t)).collect();
            boundaries.sort_unstable();
            boundaries.dedup();
            for &bk in &boundaries {
                if bk > k_end || bk <= run_start {
                    // Transition falls outside / before the remaining run;
                    // the ambiguity band below still covers its fringe.
                    continue;
                }
                let (a, b) = (run_start, bk - 1);
                let mid = a + (b - a) / 2;
                let y = seg.eval(km.x64(mid));
                push(((y * wf).floor() as i64).min(w_next as i64 - 1), a, b);
                run_start = bk;
            }
            if run_start <= k_end {
                let mid = run_start + (k_end - run_start) / 2;
                let y = seg.eval(km.x64(mid));
                push(((y * wf).floor() as i64).min(w_next as i64 - 1), run_start, k_end);
            }

            // Ambiguity bands: keys within delta (in M units) of a boundary
            // go to both buckets.
            let r_x = delta / slope.abs();
            for &t in &ts {
                let a = km.ceil_key(t - r_x).max(k_start);
                let b = km.floor_key(t + r_x).min(k_end);
                if a > b {
                    continue;
                }
                let y = seg.eval(t);
                let m = (y * wf).round() as i64; // t solves M = m/W
                push(m - 1, a, b);
                push(m.min(w_next as i64 - 1), a, b);
            }
        }
    }

    for r in &mut out {
        normalize(r);
    }
    out
}

/// Sorts and merges overlapping/adjacent intervals in place.
pub fn normalize(resp: &mut Responsibility) {
    if resp.is_empty() {
        return;
    }
    resp.sort_unstable();
    let mut w = 0;
    for i in 1..resp.len() {
        let (a, b) = resp[i];
        let (_, ref mut pb) = resp[w];
        if a <= pb.saturating_add(1) {
            *pb = (*pb).max(b);
        } else {
            w += 1;
            resp[w] = (a, b);
        }
    }
    resp.truncate(w + 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rqrmi::model::bucket;

    #[test]
    fn keymap_roundtrips() {
        let km = KeyMap::new(16);
        assert_eq!(km.domain_max(), 65535);
        for key in [0u64, 1, 77, 65535] {
            let t = km.x64(key);
            assert_eq!(km.ceil_key(t), key);
            assert_eq!(km.floor_key(t), key);
        }
        // Between two representable x's.
        let t = (km.x64(100) + km.x64(101)) / 2.0;
        assert_eq!(km.ceil_key(t), 101);
        assert_eq!(km.floor_key(t), 100);
        // Out-of-range requests clamp.
        assert_eq!(km.ceil_key(-0.5), 0);
        assert_eq!(km.floor_key(2.0), 65535);
    }

    #[test]
    fn keymap_x_is_monotone() {
        let km = KeyMap::new(32);
        let mut prev = km.x(0);
        for key in (0u64..(1 << 32)).step_by(7_919_777) {
            let x = km.x(key);
            assert!(x >= prev);
            prev = x;
        }
    }

    #[test]
    #[should_panic]
    fn keymap_rejects_wide_fields() {
        let _ = KeyMap::new(53);
    }

    #[test]
    fn transitions_match_quantisation_changes() {
        // M rises linearly 0 -> 1 over [0,1]; W = 4 -> transitions at .25, .5, .75.
        let seg = Segment { x0: 0.0, x1: 1.0, y0: 0.0, y1: 1.0 };
        let ts = transitions_in_segment(&seg, 4);
        assert_eq!(ts.len(), 3);
        assert!((ts[0] - 0.25).abs() < 1e-12);
        assert!((ts[2] - 0.75).abs() < 1e-12);
        // Constant segment: none.
        let flat = Segment { x0: 0.0, x1: 1.0, y0: 0.5, y1: 0.5 };
        assert!(transitions_in_segment(&flat, 4).is_empty());
    }

    #[test]
    fn normalize_merges() {
        let mut r = vec![(10, 20), (0, 5), (21, 30), (4, 12)];
        normalize(&mut r);
        assert_eq!(r, vec![(0, 30)]);
        let mut r2 = vec![(0, 1), (3, 4)];
        normalize(&mut r2);
        assert_eq!(r2, vec![(0, 1), (3, 4)]);
    }

    /// The load-bearing test: child responsibilities must cover the actual
    /// f32 routing for every key, for many random nets.
    #[test]
    fn responsibilities_cover_real_routing() {
        let km = KeyMap::new(16);
        for seed in 0..10u64 {
            let net = Mlp::random(8, seed);
            let resp: Responsibility = vec![(0, km.domain_max())];
            for w_next in [4usize, 16, 256] {
                let children = child_responsibilities(&net, &resp, w_next, &km);
                // Spot-check every 13th key exhaustively-ish.
                for key in (0..=km.domain_max()).step_by(13) {
                    // The bucket the inference walk routes `key` to.
                    let b = bucket(net.forward_clamped(km.x(key)), w_next);
                    let covered = children[b].iter().any(|&(a, z)| a <= key && key <= z);
                    assert!(
                        covered,
                        "seed {seed} W {w_next}: key {key} routed to bucket {b} not covered"
                    );
                }
            }
        }
    }

    #[test]
    fn responsibilities_partition_without_much_overlap() {
        // Superset is allowed, but the overlap should be a sliver.
        let km = KeyMap::new(16);
        let net = Mlp::random(8, 3);
        let children = child_responsibilities(&net, &vec![(0, km.domain_max())], 16, &km);
        let total: u64 = children.iter().map(responsibility_size).sum();
        let dom = km.domain_max() + 1;
        assert!(total >= dom, "children must cover the domain");
        assert!(total < dom + dom / 10, "overlap too large: {total} vs {dom}");
    }

    #[test]
    fn eval_delta_scales_with_weights() {
        let small = Mlp::random(8, 1);
        let mut big = small.clone();
        for w in &mut big.w2 {
            *w *= 1000.0;
        }
        assert!(eval_delta(&big) > eval_delta(&small) * 100.0);
    }
}

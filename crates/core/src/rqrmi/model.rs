//! The trained RQ-RMI model: staged submodels + per-leaf error bounds.

use super::analyze::KeyMap;
use nm_nn::Mlp;

/// A trained Range-Query Recursive Model Index over one field.
///
/// Indexes `n_values` sorted, non-overlapping ranges. [`RqRmi::predict`]
/// returns a predicted array index plus the worst-case error bound of the
/// leaf that produced it; the true index of any key *covered by a range* is
/// guaranteed to lie within `predicted ± bound` (paper Theorem A.13 — see
/// `train.rs` for how the bound is made robust to `f32` evaluation noise).
#[derive(Clone, Debug)]
pub struct RqRmi {
    /// Stage widths; `widths[0] == 1`.
    pub(crate) widths: Vec<usize>,
    /// `nets[s][j]` = submodel `m_{s,j}`. Untrained (unreachable) submodels
    /// are all-zero networks.
    pub(crate) nets: Vec<Vec<Mlp>>,
    /// Worst-case index prediction error per leaf submodel.
    pub(crate) leaf_err: Vec<u32>,
    /// Number of indexed ranges (the value-array size, `W_n` in the paper).
    pub(crate) n_values: usize,
    /// Field width in bits (reconstructs the key map; not serialised state).
    pub(crate) bits: u8,
}

impl RqRmi {
    /// Number of indexed ranges.
    #[inline]
    pub fn len(&self) -> usize {
        self.n_values
    }

    /// True when the model indexes nothing.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n_values == 0
    }

    /// Stage widths (Table 4 shape).
    pub fn widths(&self) -> &[usize] {
        &self.widths
    }

    /// The key-to-input map for this model's field.
    #[inline]
    pub fn key_map(&self) -> KeyMap {
        KeyMap::new(self.bits)
    }

    /// Worst error bound across all leaves — the paper's `ϵ` when quoted as
    /// a single number (§5.3.4).
    pub fn max_error_bound(&self) -> u32 {
        self.leaf_err.iter().copied().max().unwrap_or(0)
    }

    /// Predicts the index of the range matching `key`. Returns
    /// `(predicted_index, error_bound)`; the caller performs the secondary
    /// search in `[pred − bound, pred + bound]`.
    #[inline]
    pub fn predict(&self, key: u64) -> (usize, u32) {
        let km = self.key_map();
        let x = km.x(key);
        self.predict_x(x)
    }

    /// Like [`RqRmi::predict`] but takes the already-scaled `f32` input
    /// (hot path for batched lookups that hoist the scaling).
    #[inline]
    pub fn predict_x(&self, x: f32) -> (usize, u32) {
        let idx = self.leaf_of(x);
        // Final multiply in f64: n_values can exceed f32's integer range of
        // exact products, and the error-bound analysis assumes this exact
        // quantisation of the f32 output.
        let y = self.nets[self.nets.len() - 1][idx].forward_clamped(x) as f64;
        let pred = ((y * self.n_values as f64) as usize).min(self.n_values - 1);
        (pred, self.leaf_err[idx])
    }

    /// The leaf submodel index `key` routes to (diagnostics / tests).
    pub fn route(&self, key: u64) -> usize {
        self.leaf_of(self.key_map().x(key))
    }

    /// The stage walk: the leaf the internal stages route input `x` to.
    #[inline]
    fn leaf_of(&self, x: f32) -> usize {
        let mut idx = 0usize;
        for s in 0..self.nets.len() - 1 {
            idx = bucket(self.nets[s][idx].forward_clamped(x), self.widths[s + 1]);
        }
        idx
    }

    /// Bytes of model state: weights plus per-leaf error bounds — what the
    /// RQ-RMI contributes to the Figure 13 memory footprint.
    pub fn memory_bytes(&self) -> usize {
        let weights: usize = self.nets.iter().flatten().map(Mlp::weight_bytes).sum();
        weights
            + self.leaf_err.len() * std::mem::size_of::<u32>()
            + self.widths.len() * std::mem::size_of::<usize>()
    }

    /// Per-leaf error bounds (diagnostics; Figure 15 reporting).
    pub fn leaf_error_bounds(&self) -> &[u32] {
        &self.leaf_err
    }
}

/// One routing step of the inference walk: the submodel of a `w`-wide stage
/// that a clamped output `y` selects.
#[inline]
pub(crate) fn bucket(y: f32, w: usize) -> usize {
    ((y * w as f32) as usize).min(w - 1)
}

#[cfg(test)]
mod tests {
    use crate::config::RqRmiParams;
    use crate::rqrmi::train::train_rqrmi;
    use nm_common::FieldRange;

    fn ranges_grid(n: u64, gap: u64, width: u64) -> Vec<FieldRange> {
        (0..n).map(|i| FieldRange::new(i * gap, i * gap + width - 1)).collect()
    }

    #[test]
    fn memory_is_kilobytes_not_megabytes() {
        // 256 ranges on a 16-bit field; tiny model.
        let ranges = ranges_grid(256, 256, 16);
        let m = train_rqrmi(&ranges, 16, &RqRmiParams::default()).unwrap();
        assert!(m.memory_bytes() < 64 * 1024, "model is {} bytes", m.memory_bytes());
        assert_eq!(m.len(), 256);
        assert!(!m.is_empty());
    }

    #[test]
    fn predict_within_bound_everywhere() {
        let ranges = ranges_grid(128, 512, 100);
        let m = train_rqrmi(&ranges, 16, &RqRmiParams::default()).unwrap();
        for (true_idx, r) in ranges.iter().enumerate() {
            for key in [r.lo, (r.lo + r.hi) / 2, r.hi] {
                let (pred, err) = m.predict(key);
                let dist = (pred as i64 - true_idx as i64).unsigned_abs();
                assert!(dist <= err as u64, "key {key}: true {true_idx} pred {pred} err {err}");
            }
        }
    }
}

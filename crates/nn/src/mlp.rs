//! The 1×H×1 ReLU MLP (paper Definition 3.1).

use nm_common::SplitMix64;

/// Largest `f32` strictly below 1.0. The paper's `H(·)` trims the submodel
/// output into `[0, 1)`; clamping to this value guarantees
/// `floor(M(x) · W) ≤ W − 1` for any stage width `W` that fits in f32.
pub const ONE_MINUS_EPS: f32 = 0.999_999_94;

/// A fully-connected 1 → `H` → 1 network with ReLU activation.
///
/// `N(x) = Σ_j w2[j] · relu(w1[j]·x + b1[j]) + b2`, and the submodel output
/// is `M(x) = clamp(N(x), 0, 1⁻)` ([`Mlp::forward_clamped`]).
///
/// Weights are `f32` — the paper stores single-precision weights so eight
/// hidden neurons fit one AVX register (§4 "Vectorization").
#[derive(Clone, Debug, PartialEq)]
pub struct Mlp {
    /// Hidden-layer weights, one per neuron.
    pub w1: Vec<f32>,
    /// Hidden-layer biases, one per neuron.
    pub b1: Vec<f32>,
    /// Output-layer weights, one per neuron.
    pub w2: Vec<f32>,
    /// Output bias.
    pub b2: f32,
}

impl Mlp {
    /// Number of hidden neurons used by the paper's submodels.
    pub const PAPER_HIDDEN: usize = 8;

    /// Creates a zero-initialised network with `hidden` neurons.
    pub fn zeros(hidden: usize) -> Self {
        Self { w1: vec![0.0; hidden], b1: vec![0.0; hidden], w2: vec![0.0; hidden], b2: 0.0 }
    }

    /// He-style random initialisation, deterministic in `seed`. Used by the
    /// pure-Adam ("paper-faithful") training mode.
    pub fn random(hidden: usize, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut draw = |scale: f32| (rng.f64() as f32 * 2.0 - 1.0) * scale;
        let s1 = (2.0f32).sqrt(); // fan_in = 1
        let s2 = (2.0f32 / hidden as f32).sqrt();
        Self {
            w1: (0..hidden).map(|_| draw(s1)).collect(),
            b1: (0..hidden).map(|_| draw(0.5)).collect(),
            w2: (0..hidden).map(|_| draw(s2)).collect(),
            b2: 0.0,
        }
    }

    /// Hidden width.
    #[inline]
    pub fn hidden(&self) -> usize {
        self.w1.len()
    }

    /// Raw (un-clamped) network output `N(x)` in `f32` — the reference
    /// inference semantics. SIMD kernels must match this within rounding.
    #[inline]
    pub fn forward(&self, x: f32) -> f32 {
        let mut acc = 0.0f32;
        for j in 0..self.w1.len() {
            let pre = self.w1[j] * x + self.b1[j];
            if pre > 0.0 {
                acc += self.w2[j] * pre;
            }
        }
        acc + self.b2
    }

    /// The submodel output `M(x) = H(N(x))`, clamped into `[0, 1)`.
    #[inline]
    pub fn forward_clamped(&self, x: f32) -> f32 {
        self.forward(x).clamp(0.0, ONE_MINUS_EPS)
    }

    /// `N(x)` evaluated in `f64` from the widened `f32` weights. The
    /// piece-wise-linear analysis runs in `f64` to locate kinks and
    /// transitions precisely; correctness never depends on this matching the
    /// `f32` path exactly (error bounds re-evaluate the real `f32` pipeline
    /// at integer keys and add slack).
    #[inline]
    pub fn forward_f64(&self, x: f64) -> f64 {
        let mut acc = 0.0f64;
        for j in 0..self.w1.len() {
            let pre = self.w1[j] as f64 * x + self.b1[j] as f64;
            if pre > 0.0 {
                acc += self.w2[j] as f64 * pre;
            }
        }
        acc + self.b2 as f64
    }

    /// `M(x)` in `f64` (clamped into `[0, 1)`).
    #[inline]
    pub fn forward_clamped_f64(&self, x: f64) -> f64 {
        self.forward_f64(x).clamp(0.0, ONE_MINUS_EPS as f64)
    }

    /// Mean-squared error against a dataset of `(x, y)` pairs.
    pub fn mse(&self, data: &[(f32, f32)]) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let sum: f64 = data
            .iter()
            .map(|&(x, y)| {
                let d = (self.forward(x) - y) as f64;
                d * d
            })
            .sum();
        sum / data.len() as f64
    }

    /// Bytes of weight storage — what an RQ-RMI contributes to the memory
    /// footprint (Figure 13). `4·(3H + 1)` bytes: 25 floats × 4 for H = 8.
    pub fn weight_bytes(&self) -> usize {
        (self.w1.len() + self.b1.len() + self.w2.len() + 1) * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-computable network: one neuron, identity-ish.
    fn tiny() -> Mlp {
        Mlp { w1: vec![1.0], b1: vec![-0.25], w2: vec![2.0], b2: 0.1 }
    }

    #[test]
    fn forward_matches_hand_calculation() {
        let m = tiny();
        // x = 0.5: pre = 0.25, relu = 0.25, out = 2*0.25 + 0.1 = 0.6
        assert!((m.forward(0.5) - 0.6).abs() < 1e-6);
        // x = 0.1: pre = -0.15 -> relu 0 -> out = 0.1
        assert!((m.forward(0.1) - 0.1).abs() < 1e-6);
    }

    #[test]
    fn clamp_trims_into_unit_interval() {
        let m = Mlp { w1: vec![1.0], b1: vec![0.0], w2: vec![10.0], b2: -0.5 };
        assert_eq!(m.forward_clamped(1.0), ONE_MINUS_EPS); // raw 9.5
        assert_eq!(m.forward_clamped(0.0), 0.0); // raw -0.5
        assert!(m.forward_clamped(0.06) > 0.0 && m.forward_clamped(0.06) < 1.0);
        assert!((ONE_MINUS_EPS as f64) < 1.0);
    }

    #[test]
    fn f64_path_tracks_f32_path() {
        let m = Mlp::random(8, 7);
        for i in 0..1000 {
            let x = i as f32 / 1000.0;
            let a = m.forward(x) as f64;
            let b = m.forward_f64(x as f64);
            assert!((a - b).abs() < 1e-5, "x={x}: f32 {a} vs f64 {b}");
        }
    }

    #[test]
    fn random_is_deterministic() {
        assert_eq!(Mlp::random(8, 42), Mlp::random(8, 42));
        assert_ne!(Mlp::random(8, 42), Mlp::random(8, 43));
    }

    #[test]
    fn weight_bytes_paper_size() {
        // 8 hidden neurons -> 25 f32 = 100 bytes per submodel.
        assert_eq!(Mlp::zeros(8).weight_bytes(), 100);
    }

    #[test]
    fn mse_zero_on_perfect_fit() {
        let m = tiny();
        let data: Vec<(f32, f32)> = (0..10)
            .map(|i| {
                let x = i as f32 / 10.0;
                (x, m.forward(x))
            })
            .collect();
        assert_eq!(m.mse(&data), 0.0);
        assert!(m.mse(&[(0.5, 0.0)]) > 0.0);
    }
}

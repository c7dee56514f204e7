//! Adam optimizer with full-batch MSE gradients (paper §3.5.5).
//!
//! RQ-RMI submodels are trained "using supervised learning and Adam optimizer
//! with a mean squared error loss function". Datasets are small (hundreds to
//! a few thousand sampled key-index pairs), so full-batch gradients are both
//! simpler and faster than mini-batching at this scale.

use crate::mlp::Mlp;

/// Step size: aggressive, but fine for 25 parameters.
const LR: f32 = 0.01;
/// First-moment decay.
const BETA1: f32 = 0.9;
/// Second-moment decay.
const BETA2: f32 = 0.999;
/// Numerical fuzz.
const EPS: f32 = 1e-8;
/// [`Adam::train`] stops early once an epoch improves the loss by less than
/// this fraction.
const TOL: f64 = 1e-7;

/// Adam state for one [`Mlp`]. Parameters are flattened as
/// `[w1.., b1.., w2.., b2]`.
pub struct Adam {
    m: Vec<f32>,
    v: Vec<f32>,
    t: i32,
}

impl Adam {
    /// Creates optimizer state for a network with `hidden` neurons.
    pub fn new(hidden: usize) -> Self {
        let n = 3 * hidden + 1;
        Self { m: vec![0.0; n], v: vec![0.0; n], t: 0 }
    }

    /// Runs up to `epochs` full-batch steps of `net` on `data`, stopping
    /// early once the loss stops improving, and returns the final MSE.
    ///
    /// `data` must be non-empty; an empty dataset returns 0 and leaves the
    /// network untouched (the RQ-RMI trainer handles empty responsibilities
    /// upstream).
    pub fn train(net: &mut Mlp, data: &[(f32, f32)], epochs: usize) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let mut opt = Adam::new(net.hidden());
        let mut prev = f64::INFINITY;
        let mut loss = net.mse(data);
        for _ in 0..epochs {
            opt.step(net, data);
            loss = net.mse(data);
            if prev.is_finite() {
                let improve = (prev - loss).abs() / prev.max(1e-30);
                if improve < TOL {
                    break;
                }
            }
            prev = loss;
        }
        loss
    }

    /// One full-batch gradient step.
    pub fn step(&mut self, net: &mut Mlp, data: &[(f32, f32)]) {
        let h = net.hidden();
        let mut grad = vec![0.0f32; 3 * h + 1];
        let scale = 2.0 / data.len() as f32;
        for &(x, y) in data {
            // Forward, keeping pre-activations.
            let mut out = net.b2;
            for j in 0..h {
                let pre = net.w1[j] * x + net.b1[j];
                if pre > 0.0 {
                    out += net.w2[j] * pre;
                }
            }
            let dy = scale * (out - y);
            // Backward.
            for j in 0..h {
                let pre = net.w1[j] * x + net.b1[j];
                if pre > 0.0 {
                    grad[2 * h + j] += dy * pre; // dw2
                    let dh = dy * net.w2[j];
                    grad[j] += dh * x; // dw1
                    grad[h + j] += dh; // db1
                }
            }
            grad[3 * h] += dy; // db2
        }
        self.apply(net, &grad);
    }

    fn apply(&mut self, net: &mut Mlp, grad: &[f32]) {
        let h = net.hidden();
        self.t += 1;
        let b1c = 1.0 - BETA1.powi(self.t);
        let b2c = 1.0 - BETA2.powi(self.t);
        let mut upd = |idx: usize, g: f32, p: &mut f32| {
            self.m[idx] = BETA1 * self.m[idx] + (1.0 - BETA1) * g;
            self.v[idx] = BETA2 * self.v[idx] + (1.0 - BETA2) * g * g;
            let mhat = self.m[idx] / b1c;
            let vhat = self.v[idx] / b2c;
            *p -= LR * mhat / (vhat.sqrt() + EPS);
        };
        for (j, w) in net.w1.iter_mut().enumerate() {
            upd(j, grad[j], w);
        }
        for (j, b) in net.b1.iter_mut().enumerate() {
            upd(h + j, grad[h + j], b);
        }
        for (j, w) in net.w2.iter_mut().enumerate() {
            upd(2 * h + j, grad[2 * h + j], w);
        }
        upd(3 * h, grad[3 * h], &mut net.b2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every one of `epochs` steps, with no early stop; the final MSE.
    fn train_every_epoch(net: &mut Mlp, data: &[(f32, f32)], epochs: usize) -> f64 {
        let mut opt = Adam::new(net.hidden());
        for _ in 0..epochs {
            opt.step(net, data);
        }
        net.mse(data)
    }

    fn linear_data(n: usize) -> Vec<(f32, f32)> {
        (0..n)
            .map(|i| {
                let x = i as f32 / n as f32;
                (x, 0.25 + 0.5 * x)
            })
            .collect()
    }

    #[test]
    fn learns_a_line() {
        let data = linear_data(64);
        let mut net = Mlp::random(8, 1);
        let loss = train_every_epoch(&mut net, &data, 2000);
        assert!(loss < 1e-4, "final loss {loss}");
    }

    #[test]
    fn learns_a_step_like_cdf() {
        // A staircase CDF — the shape RQ-RMI leaves actually face.
        let data: Vec<(f32, f32)> = (0..256)
            .map(|i| {
                let x = i as f32 / 256.0;
                let y = if x < 0.3 {
                    0.2
                } else if x < 0.7 {
                    0.5
                } else {
                    0.9
                };
                (x, y)
            })
            .collect();
        let mut net = Mlp::random(8, 2);
        let before = net.mse(&data);
        let loss = train_every_epoch(&mut net, &data, 3000);
        // The target has jump discontinuities, so a continuous model bottoms
        // out near the quantisation floor — just require the rough shape.
        assert!(loss < 2e-2, "final loss {loss}");
        assert!(loss < before / 4.0, "no real progress: {before} -> {loss}");
    }

    #[test]
    fn loss_decreases() {
        let data = linear_data(32);
        let mut net = Mlp::random(8, 3);
        let before = net.mse(&data);
        train_every_epoch(&mut net, &data, 50);
        let after = net.mse(&data);
        assert!(after < before, "loss went {before} -> {after}");
    }

    #[test]
    fn empty_dataset_is_noop() {
        let mut net = Mlp::random(8, 4);
        let copy = net.clone();
        let loss = Adam::train(&mut net, &[], 400);
        assert_eq!(loss, 0.0);
        assert_eq!(net, copy);
    }
}

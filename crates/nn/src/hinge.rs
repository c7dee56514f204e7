//! Closed-form hinge least-squares fitting.
//!
//! A 1×H×1 ReLU MLP with positive unit input weights is exactly a linear
//! spline with `H` knots: `f(x) = b2 + Σ_j w2[j]·relu(x − q_j)`. For the
//! CDF-like targets RQ-RMI submodels learn, fixing the knots `q_j` at input
//! quantiles and solving the output layer by ridge least squares gives an
//! excellent fit *deterministically* and orders of magnitude faster than
//! iterative training. The result is a perfectly ordinary [`Mlp`]: the
//! analysis and inference paths cannot tell how it was trained.

use crate::mlp::Mlp;

/// Fits a `hidden`-neuron MLP to `(x, y)` data with knots at input quantiles
/// and a ridge least-squares output layer.
///
/// Returns a zero network for empty data. `data` does not need to be sorted.
///
/// The ridge term (`lambda = 1e-6`) keeps the normal equations well-posed
/// when several knots collapse onto the same x (heavily duplicated inputs).
pub fn fit_hinge(hidden: usize, data: &[(f32, f32)]) -> Mlp {
    if data.is_empty() {
        return Mlp::zeros(hidden);
    }
    let mut xs: Vec<f32> = data.iter().map(|&(x, _)| x).collect();
    xs.sort_by(f32::total_cmp);
    let x_min = xs[0];

    // Knots: q_0 at the left edge carries the global linear term
    // (relu(x - x_min) == x - x_min over the whole responsibility);
    // the rest sit at interior quantiles.
    let mut knots = Vec::with_capacity(hidden);
    knots.push(x_min);
    for j in 1..hidden {
        let frac = j as f64 / hidden as f64;
        let idx = ((xs.len() - 1) as f64 * frac).round() as usize;
        knots.push(xs[idx]);
    }
    knots.dedup();
    let k = knots.len();

    // Design matrix columns: [relu(x - q_0), ..., relu(x - q_{k-1}), 1].
    let cols = k + 1;
    let mut ata = vec![0.0f64; cols * cols];
    let mut atb = vec![0.0f64; cols];
    let mut row = vec![0.0f64; cols];
    for &(x, y) in data {
        for (j, &q) in knots.iter().enumerate() {
            row[j] = f64::max((x - q) as f64, 0.0);
        }
        row[k] = 1.0;
        for i in 0..cols {
            if row[i] == 0.0 {
                continue;
            }
            for j in i..cols {
                ata[i * cols + j] += row[i] * row[j];
            }
            atb[i] += row[i] * y as f64;
        }
    }
    // Mirror + ridge.
    for i in 0..cols {
        for j in 0..i {
            ata[i * cols + j] = ata[j * cols + i];
        }
        ata[i * cols + i] += 1e-6;
    }

    let coef = solve_cholesky(&mut ata, &atb, cols);

    let mut net = Mlp::zeros(hidden);
    for (j, &q) in knots.iter().enumerate() {
        net.w1[j] = 1.0;
        net.b1[j] = -q;
        net.w2[j] = coef[j] as f32;
    }
    // Unused neurons (deduped knots) stay at zero weight: w1 = 0, b1 = 0
    // yields pre-activation 0 which ReLU kills for every x.
    net.b2 = coef[k] as f32;
    net
}

/// Solves `A·x = b` for symmetric positive-definite `A` (size `n×n`,
/// row-major, destroyed in place) by Cholesky decomposition.
fn solve_cholesky(a: &mut [f64], b: &[f64], n: usize) -> Vec<f64> {
    // Decompose A = L·Lᵀ, storing L in the lower triangle.
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[i * n + j];
            for p in 0..j {
                sum -= a[i * n + p] * a[j * n + p];
            }
            if i == j {
                a[i * n + j] = sum.max(1e-30).sqrt();
            } else {
                a[i * n + j] = sum / a[j * n + j];
            }
        }
    }
    // Forward substitution L·y = b.
    let mut y = vec![0.0f64; n];
    for i in 0..n {
        let mut sum = b[i];
        for p in 0..i {
            sum -= a[i * n + p] * y[p];
        }
        y[i] = sum / a[i * n + i];
    }
    // Back substitution Lᵀ·x = y.
    let mut x = vec![0.0f64; n];
    for i in (0..n).rev() {
        let mut sum = y[i];
        for p in (i + 1)..n {
            sum -= a[p * n + i] * x[p];
        }
        x[i] = sum / a[i * n + i];
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_on_linear_target() {
        let data: Vec<(f32, f32)> = (0..100)
            .map(|i| {
                let x = i as f32 / 100.0;
                (x, 0.1 + 0.8 * x)
            })
            .collect();
        let net = fit_hinge(8, &data);
        assert!(net.mse(&data) < 1e-10, "mse {}", net.mse(&data));
    }

    #[test]
    fn exact_on_piecewise_linear_target() {
        // Target with a kink at 0.5 — needs at least one interior knot.
        let data: Vec<(f32, f32)> = (0..200)
            .map(|i| {
                let x = i as f32 / 200.0;
                let y = if x < 0.5 { 0.2 * x } else { 0.1 + 0.9 * (x - 0.5) };
                (x, y)
            })
            .collect();
        let net = fit_hinge(8, &data);
        assert!(net.mse(&data) < 1e-5, "mse {}", net.mse(&data));
    }

    #[test]
    fn good_on_cdf_staircase() {
        // The real workload: a monotone staircase (scaled rank of x).
        let data: Vec<(f32, f32)> = (0..512)
            .map(|i| {
                let x = i as f32 / 512.0;
                let y = (x * x * 0.9) + 0.05; // convex monotone curve
                (x, y)
            })
            .collect();
        let net = fit_hinge(8, &data);
        assert!(net.mse(&data) < 1e-5, "mse {}", net.mse(&data));
    }

    #[test]
    fn handles_duplicate_inputs() {
        let data = vec![(0.5f32, 0.3f32); 50];
        let net = fit_hinge(8, &data);
        assert!((net.forward(0.5) - 0.3).abs() < 1e-3);
    }

    #[test]
    fn empty_gives_zeros() {
        let net = fit_hinge(8, &[]);
        assert_eq!(net.forward(0.3), 0.0);
    }

    #[test]
    fn single_point() {
        let net = fit_hinge(8, &[(0.2, 0.7)]);
        assert!((net.forward(0.2) - 0.7).abs() < 1e-4);
    }

    #[test]
    fn deterministic() {
        let data: Vec<(f32, f32)> =
            (0..64).map(|i| (i as f32 / 64.0, (i as f32 / 64.0).sqrt())).collect();
        let a = fit_hinge(8, &data);
        let b = fit_hinge(8, &data);
        assert_eq!(a, b);
    }
}

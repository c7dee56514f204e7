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

/// Hidden width of every fitted network: the paper's, the width the
/// inference kernels are built for.
const H: usize = Mlp::PAPER_HIDDEN;

/// Columns of the accumulated normal-equation block: `H` knot slots, then
/// the bias.
const COLS: usize = H + 1;

/// Fits a [`Mlp::PAPER_HIDDEN`]-neuron MLP to `(x, y)` data with knots at
/// input quantiles and a ridge least-squares output layer.
///
/// Returns a zero network for empty data. `data` does not need to be sorted.
///
/// The ridge term (`lambda = 1e-6`) keeps the normal equations well-posed
/// when several knots collapse onto the same x (heavily duplicated inputs).
pub fn fit_hinge(data: &[(f32, f32)]) -> Mlp {
    if data.is_empty() {
        return Mlp::zeros(H);
    }
    let mut xs: Vec<f32> = data.iter().map(|&(x, _)| x).collect();
    let mut knots = knots(&mut xs, H);
    knots.dedup();
    let k = knots.len();

    let cols = k + 1;
    let (mut ata, atb) = normal_equations(&knots, data);
    for i in 0..cols {
        ata[i * cols + i] += 1e-6;
    }

    let coef = solve_cholesky(&mut ata, &atb, cols);

    let mut net = Mlp::zeros(H);
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

/// The normal equations `(AᵀA, Aᵀy)` of the design matrix whose columns are
/// `[relu(x - q_0), ..., relu(x - q_{k-1}), 1]` over `knots` (`k ≤ H`,
/// deduplicated): `AᵀA` row-major and symmetric, `(k+1)×(k+1)`.
///
/// The kernel accumulates a fixed `COLS × COLS` block, branch-free: the
/// bias sits in the last slot, and the `H − k` slots no knot fills sit at
/// `+inf`, where `relu(x − inf)` is 0 for every x — an all-zero column.
/// Each cell sums its products in sample order, with a separate multiply
/// and add, so for finite data it holds exactly the bits of a sum that
/// skips the zero products: adding ±0 to a sum that starts at +0 never
/// changes it. Products commute bit for bit, so the block is symmetric.
fn normal_equations(knots: &[f32], data: &[(f32, f32)]) -> (Vec<f64>, Vec<f64>) {
    let k = knots.len();
    let mut q = [f32::INFINITY; H];
    q[..k].copy_from_slice(knots);
    let mut block = [[0.0f64; COLS]; COLS];
    let mut aty = [0.0f64; COLS];
    for &(x, y) in data {
        let mut row = [1.0f64; COLS];
        for (r, &q) in row.iter_mut().zip(&q) {
            *r = f64::max((x - q) as f64, 0.0);
        }
        for i in 0..COLS {
            for j in 0..COLS {
                block[i][j] += row[i] * row[j];
            }
            aty[i] += row[i] * y as f64;
        }
    }
    // Column `c` of the design matrix is slot `c` for a knot, the last
    // slot for the bias.
    let slot = |c: usize| if c < k { c } else { H };
    let cols = k + 1;
    let ata = (0..cols * cols).map(|c| block[slot(c / cols)][slot(c % cols)]).collect();
    let atb = (0..cols).map(|c| aty[slot(c)]).collect();
    (ata, atb)
}

/// The knots before deduplication: `q_0` at the smallest input carries the
/// global linear term (`relu(x - q_0) == x - q_0` over the whole
/// responsibility); `q_j` for `j ≥ 1` sits at the input quantile `j/hidden`
/// — index `round((len - 1)·j/hidden)` of the inputs sorted by
/// [`f32::total_cmp`].
///
/// Only those `hidden` order statistics are needed, so instead of sorting
/// every input one recursive pass selects them ([`select`]). Values equal
/// under `total_cmp` are equal bit for bit, so the knots are exactly a
/// full sort's. `xs` is left permuted.
fn knots(xs: &mut [f32], hidden: usize) -> Vec<f32> {
    let at: Vec<usize> = (0..hidden)
        .map(|j| ((xs.len() - 1) as f64 * (j as f64 / hidden as f64)).round() as usize)
        .collect();
    let mut knots = vec![0.0; hidden];
    select(xs, 0, &at, &mut knots);
    knots
}

/// Sets `out[t]` to the input of sorted index `at[t]`, for `at`
/// non-decreasing; `xs` holds the inputs of sorted indices `base..` and
/// every `at[t]` lies among them. The middle index splits `xs` in place,
/// and each side selects its own indices.
fn select(xs: &mut [f32], base: usize, at: &[usize], out: &mut [f32]) {
    let Some(&m) = at.get(at.len() / 2) else { return };
    let (left, q, right) = xs.select_nth_unstable_by(m - base, f32::total_cmp);
    let (lo, hi) = (at.partition_point(|&i| i < m), at.partition_point(|&i| i <= m));
    out[lo..hi].fill(*q);
    select(left, base, &at[..lo], &mut out[..lo]);
    select(right, m + 1, &at[hi..], &mut out[hi..]);
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
    use nm_common::SplitMix64;

    #[test]
    fn exact_on_linear_target() {
        let data: Vec<(f32, f32)> = (0..100)
            .map(|i| {
                let x = i as f32 / 100.0;
                (x, 0.1 + 0.8 * x)
            })
            .collect();
        let net = fit_hinge(&data);
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
        let net = fit_hinge(&data);
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
        let net = fit_hinge(&data);
        assert!(net.mse(&data) < 1e-5, "mse {}", net.mse(&data));
    }

    #[test]
    fn handles_duplicate_inputs() {
        let data = vec![(0.5f32, 0.3f32); 50];
        let net = fit_hinge(&data);
        assert!((net.forward(0.5) - 0.3).abs() < 1e-3);
    }

    #[test]
    fn empty_gives_zeros() {
        let net = fit_hinge(&[]);
        assert_eq!(net.forward(0.3), 0.0);
    }

    #[test]
    fn single_point() {
        let net = fit_hinge(&[(0.2, 0.7)]);
        assert!((net.forward(0.2) - 0.7).abs() < 1e-4);
    }

    /// The knots as a full sort places them.
    fn knots_by_sorting(xs: &[f32], hidden: usize) -> Vec<f32> {
        let mut sorted = xs.to_vec();
        sorted.sort_by(f32::total_cmp);
        (0..hidden)
            .map(|j| {
                let frac = j as f64 / hidden as f64;
                sorted[((sorted.len() - 1) as f64 * frac).round() as usize]
            })
            .collect()
    }

    #[test]
    fn selected_knots_equal_a_full_sort_bit_for_bit() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut draw = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for len in [1usize, 2, 3, 7, 8, 9, 64, 1_000, 4_097] {
            // Few distinct values, so duplicates abound, with both zeros,
            // negatives, and the odd subnormal.
            let pool = [-1.5f32, -0.0, 0.0, 0.25, 0.25, 1e-40, 0.5, 0.75, 1.0];
            let xs: Vec<f32> = (0..len).map(|_| pool[(draw() % 9) as usize]).collect();
            for hidden in [1, 2, 8, 16] {
                let want = knots_by_sorting(&xs, hidden);
                let got = knots(&mut xs.clone(), hidden);
                assert_eq!(bits(&got), bits(&want), "len {len}, hidden {hidden}");
            }
        }
        // -0.0 sorts before +0.0: the smallest knot keeps its sign.
        let got = knots(&mut [0.0, -0.0, 0.0], 2);
        assert_eq!(bits(&got), bits(&[-0.0, 0.0]));
    }

    /// The accumulation `fit_hinge` ran before the fixed-block kernel: a
    /// triangular loop of runtime width that skips every zero entry of a
    /// row, mirrored afterwards.
    fn triangular_normal_equations(knots: &[f32], data: &[(f32, f32)]) -> (Vec<f64>, Vec<f64>) {
        let k = knots.len();
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
        for i in 0..cols {
            for j in 0..i {
                ata[i * cols + j] = ata[j * cols + i];
            }
        }
        (ata, atb)
    }

    /// `fit_hinge` over the triangular accumulation and fully sorted knots.
    fn reference_fit(data: &[(f32, f32)]) -> Mlp {
        if data.is_empty() {
            return Mlp::zeros(H);
        }
        let xs: Vec<f32> = data.iter().map(|&(x, _)| x).collect();
        let mut knots = knots_by_sorting(&xs, H);
        knots.dedup();
        let (k, cols) = (knots.len(), knots.len() + 1);
        let (mut ata, atb) = triangular_normal_equations(&knots, data);
        for i in 0..cols {
            ata[i * cols + i] += 1e-6;
        }
        let coef = solve_cholesky(&mut ata, &atb, cols);
        let mut net = Mlp::zeros(H);
        for (j, &q) in knots.iter().enumerate() {
            net.w1[j] = 1.0;
            net.b1[j] = -q;
            net.w2[j] = coef[j] as f32;
        }
        net.b2 = coef[k] as f32;
        net
    }

    #[test]
    fn the_block_kernel_equals_the_triangular_reference_bit_for_bit() {
        let bits64 = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let net_bits = |m: &Mlp| {
            [&m.w1[..], &m.b1, &m.w2, &[m.b2]]
                .concat()
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>()
        };
        let mut rng = SplitMix64::new(0x4b1d);
        let mut datasets: Vec<Vec<(f32, f32)>> = vec![Vec::new(), vec![(0.2, 0.7)]];
        for (i, len) in [2usize, 7, 50, 1_000, 1_024, 4_096, 8_192, 32_768].into_iter().enumerate()
        {
            // Keys in [0, 1) as a leaf samples them; every other set draws
            // from a few values (k < 8 knots after the dedup), with a
            // negative, both zeros and a subnormal among them.
            let pool = [-0.5f32, -0.0, 0.0, 1e-40, 0.25, 0.75];
            let x = |rng: &mut SplitMix64| match i % 2 {
                0 => rng.f64() as f32,
                _ => pool[rng.below(pool.len() as u64) as usize],
            };
            datasets.push((0..len).map(|_| (x(&mut rng), rng.f64() as f32 * 2.0 - 0.5)).collect());
        }
        for data in &datasets {
            let len = data.len();
            let mut knots = match len {
                0 => Vec::new(),
                _ => knots_by_sorting(&data.iter().map(|&(x, _)| x).collect::<Vec<_>>(), H),
            };
            knots.dedup();
            let (ata, atb) = normal_equations(&knots, data);
            let (want_ata, want_atb) = triangular_normal_equations(&knots, data);
            assert_eq!(
                bits64(&ata),
                bits64(&want_ata),
                "AᵀA, {len} samples, {} knots",
                knots.len()
            );
            assert_eq!(
                bits64(&atb),
                bits64(&want_atb),
                "Aᵀy, {len} samples, {} knots",
                knots.len()
            );
            assert_eq!(net_bits(&fit_hinge(data)), net_bits(&reference_fit(data)), "{len} samples");
        }
        // The pooled sets really exercise the all-zero columns.
        let mut pooled = datasets[3].iter().map(|&(x, _)| x).collect::<Vec<_>>();
        let mut knots = knots(&mut pooled, H);
        knots.dedup();
        assert!(knots.len() < H, "{knots:?}");
    }

    #[test]
    fn deterministic() {
        let data: Vec<(f32, f32)> =
            (0..64).map(|i| (i as f32 / 64.0, (i as f32 / 64.0).sqrt())).collect();
        let a = fit_hinge(&data);
        let b = fit_hinge(&data);
        assert_eq!(a, b);
    }
}

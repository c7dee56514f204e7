//! Configuration for RQ-RMI training and the NuevoMatch system.

/// How submodels are optimised. The model family (1×H×1 ReLU MLP) and the
/// analytic correctness machinery are identical in all modes; only the weight
/// search differs.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum TrainerKind {
    /// Closed-form hinge least squares (deterministic, fastest; default).
    #[default]
    Hinge,
    /// Paper-faithful: random init + Adam with MSE loss (§3.5.5), at most
    /// `epochs` full-batch steps per submodel. The optimiser's own
    /// hyper-parameters are `nm_nn::Adam`'s constants.
    Adam {
        /// Epoch budget; training stops earlier once the loss settles.
        epochs: usize,
    },
}

/// RQ-RMI structure and training parameters.
#[derive(Clone, Debug)]
pub struct RqRmiParams {
    /// Stage widths, first must be 1. `None` selects the paper's Table 4
    /// configuration from the number of indexed ranges.
    pub stage_widths: Option<Vec<usize>>,
    /// Target worst-case index prediction error for leaf submodels. The
    /// Figure 5 loop retrains leaves (doubling samples) until they meet it
    /// or `max_attempts` is exhausted (§3.5.6).
    pub error_target: u32,
    /// Initial number of uniform samples per leaf dataset.
    pub samples_init: usize,
    /// Maximum training attempts per leaf (sample count doubles each time).
    pub max_attempts: usize,
    /// Weight optimiser.
    pub trainer: TrainerKind,
}

impl Default for RqRmiParams {
    fn default() -> Self {
        Self {
            stage_widths: None,
            error_target: 64,
            samples_init: 1 << 10,
            max_attempts: 6,
            trainer: TrainerKind::default(),
        }
    }
}

impl RqRmiParams {
    /// The paper's Table 4: stage widths per rule count.
    ///
    /// | rules          | stages | widths        |
    /// |----------------|--------|---------------|
    /// | < 1 000        | 2      | [1, 4]        |
    /// | 1 000–10 000   | 3      | [1, 4, 16]    |
    /// | 10 000–100 000 | 3      | [1, 4, 128]   |
    /// | > 100 000      | 3      | [1, 8, 256] or [1, 8, 512] |
    fn table4_widths(n_ranges: usize) -> Vec<usize> {
        if n_ranges < 1_000 {
            vec![1, 4]
        } else if n_ranges < 10_000 {
            vec![1, 4, 16]
        } else if n_ranges < 100_000 {
            vec![1, 4, 128]
        } else if n_ranges < 300_000 {
            vec![1, 8, 256]
        } else {
            vec![1, 8, 512]
        }
    }

    /// Resolves the effective stage widths for `n_ranges`.
    pub fn widths_for(&self, n_ranges: usize) -> Vec<usize> {
        match &self.stage_widths {
            Some(w) => {
                assert!(!w.is_empty() && w[0] == 1, "first stage width must be 1");
                w.clone()
            }
            None => Self::table4_widths(n_ranges),
        }
    }
}

/// Policy for incremental (leaf-level) retraining — the §3.9 refinement
/// that re-fits only the drifted leaf submodels of an iSet's RQ-RMI instead
/// of rebuilding every iSet from scratch, cutting the publish period and
/// hence the drift floor.
///
/// `ClassifierHandle::retrain` consults this policy: when the drift is
/// concentrated enough to satisfy both gates, it takes the partial path and
/// falls back to a full rebuild otherwise (or when validation fails).
#[derive(Clone, Copy, Debug)]
pub struct PartialRetrainPolicy {
    /// Whether the automatic retrain path may go partial at all. Forced
    /// calls (`retrain_partial`) ignore this switch but keep the gates.
    pub enabled: bool,
    /// Maximum fraction of an iSet's reachable leaf submodels that may need
    /// re-fitting before the drift counts as "too broad" and the partial
    /// path bails (full-rebuild fallback). `1.0` never bails on breadth.
    pub max_refit_fraction: f64,
    /// Minimum fraction of the drifted remainder rules (those that left an
    /// iSet through updates) a partial retrain must be able to re-admit for
    /// it to be worth publishing; below this the drift floor would barely
    /// move and a full rebuild serves better. `0.0` never bails on yield.
    pub min_readmit_fraction: f64,
}

impl Default for PartialRetrainPolicy {
    fn default() -> Self {
        Self { enabled: true, max_refit_fraction: 0.5, min_readmit_fraction: 0.5 }
    }
}

impl PartialRetrainPolicy {
    /// A policy that always takes the partial path when structurally
    /// possible (tests and forced benchmarking).
    pub fn always() -> Self {
        Self { enabled: true, max_refit_fraction: 1.0, min_readmit_fraction: 0.0 }
    }

    /// A policy that never goes partial (the pre-refinement behaviour).
    pub fn never() -> Self {
        Self { enabled: false, ..Self::default() }
    }
}

/// NuevoMatch system parameters (§3.6–§3.8, §4).
#[derive(Clone, Debug)]
pub struct NuevoMatchConfig {
    /// Maximum number of iSets to build before dumping the rest into the
    /// remainder. The paper finds 1–2 best for CutSplit/NeuroCuts remainders
    /// and 4 for TupleMerge (§5.3.2).
    pub max_isets: usize,
    /// Minimum fraction of the input rules an iSet must cover to be kept
    /// (paper: 0.25 vs cs/nc, 0.05 vs tm).
    pub min_iset_coverage: f64,
    /// RQ-RMI training parameters shared by every iSet.
    pub rqrmi: RqRmiParams,
    /// Query the remainder only when the iSets' best candidate can still be
    /// beaten, and let the remainder prune by priority (§4 "early
    /// termination"). Single-core mode in the paper.
    pub early_termination: bool,
    /// Incremental (leaf-level) retraining policy (§3.9 refinement).
    pub partial_retrain: PartialRetrainPolicy,
}

impl Default for NuevoMatchConfig {
    fn default() -> Self {
        Self {
            max_isets: 4,
            min_iset_coverage: 0.05,
            rqrmi: RqRmiParams::default(),
            early_termination: true,
            partial_retrain: PartialRetrainPolicy::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_matches_paper() {
        assert_eq!(RqRmiParams::table4_widths(500), vec![1, 4]);
        assert_eq!(RqRmiParams::table4_widths(5_000), vec![1, 4, 16]);
        assert_eq!(RqRmiParams::table4_widths(50_000), vec![1, 4, 128]);
        assert_eq!(RqRmiParams::table4_widths(150_000), vec![1, 8, 256]);
        assert_eq!(RqRmiParams::table4_widths(500_000), vec![1, 8, 512]);
    }

    #[test]
    fn explicit_widths_win() {
        let p = RqRmiParams { stage_widths: Some(vec![1, 2, 4]), ..Default::default() };
        assert_eq!(p.widths_for(1_000_000), vec![1, 2, 4]);
    }

    #[test]
    #[should_panic]
    fn widths_must_start_at_one() {
        let p = RqRmiParams { stage_widths: Some(vec![2, 4]), ..Default::default() };
        let _ = p.widths_for(10);
    }
}

//! Range-Query Recursive Model Index (the paper's §3.3–§3.5 and Appendix A).
//!
//! * [`RqRmi`] — the trained model: stages of 1×8×1 ReLU submodels plus
//!   per-leaf worst-case error bounds.
//! * [`train_rqrmi`] — the training pipeline (Figure 5): sample, fit,
//!   propagate responsibilities analytically, bound errors analytically,
//!   retrain leaves that miss the target.
//! * [`CompiledRqRmi`] — the model lowered to padded SIMD kernels for the
//!   lookup hot path (Table 1's Serial/SSE/AVX).
//!
//! The correctness contract: for any key covered by one of the indexed
//! ranges, the true range index lies within `predict(key).0 ±
//! predict(key).1`. `train::verify_exhaustive` checks it key-by-key in
//! tests.

pub mod analyze;
pub mod model;
pub mod simd;
pub mod train;

pub use analyze::KeyMap;
pub use model::RqRmi;
pub use simd::{detect, CompiledRqRmi, Isa};
pub use train::{
    retrain_leaves, train_rqrmi, train_rqrmi_mode, verify_exhaustive, LeafRetrainStats, SampleMode,
};

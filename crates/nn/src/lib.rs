//! # nm-nn — the neural-network substrate for RQ-RMI
//!
//! The paper's RQ-RMI submodels are 3-layer fully-connected networks with one
//! input, one output, and 8 hidden ReLU neurons (§3.4, Definition 3.1):
//!
//! ```text
//! N(x) = A(x·w1 + b1) × w2 + b2        A = element-wise ReLU
//! M(x) = H(N(x))                        H clamps the output into [0, 1)
//! ```
//!
//! The paper trains these with TensorFlow + Adam; this crate implements the
//! same model family and optimizer from scratch (TensorFlow is famously a
//! poor fit for 25-parameter models — the authors say so themselves in §4),
//! plus two things TensorFlow does not give you:
//!
//! * **Closed-form hinge fitting** ([`hinge`]): ReLU kinks placed at input
//!   quantiles + ridge least-squares for the output layer. Deterministic and
//!   ~100× faster than iterative training for these model sizes (the
//!   "paper-faithful" mode trains with [`Adam`] from a random init instead:
//!   fixed hyper-parameters, the caller picks only the epoch budget).
//! * **Piece-wise-linear analysis** ([`piecewise`]): exact extraction of the
//!   clamped model's linear segments, the foundation of the paper's analytic
//!   trigger-input / transition-input / error-bound machinery (§3.5,
//!   Appendix A).
//!
//! The scalar [`Mlp::forward`] is the *reference semantics*: the SIMD kernels
//! in the `nuevomatch` crate must agree with it to within one float ULP
//! cascade, and the RQ-RMI error bounds add a unit of slack to absorb exactly
//! that (see `nuevomatch::rqrmi`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adam;
pub mod hinge;
pub mod mlp;
pub mod piecewise;

pub use adam::Adam;
pub use hinge::fit_hinge;
pub use mlp::{Mlp, ONE_MINUS_EPS};
pub use piecewise::{segments, Segment};

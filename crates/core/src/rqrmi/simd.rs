//! Vectorised submodel inference (paper §4 "Vectorization", Table 1).
//!
//! A submodel forward pass is one fused multiply-add over the 8 hidden
//! neurons, a ReLU, and a dot product — a handful of vector instructions.
//! The paper reports 126 ns serial, 62 ns SSE (4 floats/op), 49 ns AVX
//! (8 floats/op) per inference; the Table 1 bench regenerates that
//! comparison with these kernels, plus an **FMA column** the paper's 2016-era
//! Xeon lacked: `avx2+fma` fuses the `w1·x + b1` and accumulate steps into
//! single `vfmadd` instructions, halving the arithmetic chain of both the
//! per-packet and the cross-packet kernels below.
//!
//! ## Three axes of vectorization
//!
//! * **Within a packet** ([`Kernel::forward_clamped`]): the 8 hidden neurons
//!   of one submodel fill one 256-bit register; a single packet's input is
//!   broadcast across lanes. This is the paper's Table 1 kernel.
//! * **Across packets, shared submodel** ([`Kernel::forward_batch8`]): one
//!   AVX *lane per packet*, 8 packets evaluated against one submodel per
//!   instruction sequence. Stage 0 of every RQ-RMI has a single root
//!   submodel shared by all keys, so a batched lookup pipeline feeds whole
//!   batches through this kernel — 8× the per-instruction work of the
//!   broadcast kernel with no horizontal reduction at all (the per-packet
//!   kernel spends ~half its instructions summing lanes). Deeper shared
//!   stages use it opportunistically whenever all 8 lanes agree on the
//!   submodel index.
//! * **Across packets, divergent stages** ([`LeafSoa::forward_leaf_gather8`]):
//!   when the 8 packets of a group route to *different* submodels of a
//!   stage, a lane-per-packet pass is still possible if each lane can fetch
//!   its own submodel's parameters. [`LeafSoa`] keeps a transposed
//!   (structure-of-arrays) copy of a stage — all submodels' `w1[j]`
//!   contiguous per neuron `j`, all `b2` contiguous — so
//!   `_mm256_i32gather_ps` (AVX2) pulls 8 divergent submodels' parameters
//!   into registers, one gather per coefficient, and the stage finishes in
//!   the same FMA pass as the shared kernel. The AVX2+FMA walk carries one
//!   copy per stage and gathers on *any* divergent stage, internal or leaf
//!   (uniform traffic over a 500K-rule model diverges at both). See the
//!   `LeafSoa` docs for when gather wins.
//!
//! ## Dispatch
//!
//! [`CompiledRqRmi`] picks the instruction set **once at compile time**
//! ([`detect`] or an explicit [`CompiledRqRmi::with_isa`]) and stores
//! monomorphized function pointers for the whole staged walk. The hot path
//! pays one indirect call per prediction (or per 8-packet group) instead of
//! the per-stage `match isa` branch the scalar path used to take, and each
//! monomorphized body carries its ISA's `#[target_feature]`, so the kernels
//! inline into their own staged loop.
//!
//! The AVX2+FMA 8-packet walk (`predict8_mono_fma`) stays **in registers**
//! from the 8 inputs to the stored predictions: the routing index is an
//! `epi32` vector (`cvttps_epi32` + `min_epi32`, lane for lane the scalar
//! `((y * w) as usize).min(w - 1)`), uniformity is one compare + movemask,
//! the stage is the shared kernel or the gather kernel, the final index is
//! computed in `f64` (`cvtps_pd`, `mul_pd`, `cvttpd_epi32`) exactly like
//! `RqRmi::predict_x`, and the error bounds are one `i32gather_epi32`. The
//! other ISAs share one macro-generated walk over scalar index arrays whose
//! divergent stages fall back to per-lane broadcast passes.
//!
//! Correctness note: the SIMD summation order differs from the scalar loop,
//! so results can differ in the last ULPs; FMA additionally skips the
//! intermediate rounding of `w1·x` (one rounding per fused op instead of
//! two, i.e. *smaller* deviation from the `f64` reference). The RQ-RMI error
//! bounds are computed over a `±delta` band that covers any summation order
//! and any per-flop rounding at most one ULP of the running magnitude (see
//! `analyze::eval_delta`), which includes every fused variant, so every
//! kernel here is safe to use for lookups: a batched lookup may route a
//! boundary key to a neighbouring leaf, but both leaves' error bounds cover
//! such keys (the trainer assigns boundary-band keys to both children), so
//! the secondary search still finds the same range and classification
//! results stay bit-identical.

use nm_nn::{Mlp, ONE_MINUS_EPS};

/// Instruction set used for submodel inference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Isa {
    /// Plain scalar loop (the portable reference).
    Scalar,
    /// SSE: two 4-float halves.
    Sse,
    /// AVX: all 8 neurons (or 8 packets) in one 256-bit register.
    Avx,
    /// AVX2 + FMA: as [`Isa::Avx`] with fused multiply-adds.
    AvxFma,
}

impl Isa {
    /// True when the running CPU can execute this instruction set.
    pub fn available(self) -> bool {
        match self {
            Isa::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Sse => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx => std::arch::is_x86_feature_detected!("avx"),
            #[cfg(target_arch = "x86_64")]
            Isa::AvxFma => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }
}

/// Best instruction set available on this CPU.
pub fn detect() -> Isa {
    #[cfg(target_arch = "x86_64")]
    {
        if Isa::AvxFma.available() {
            return Isa::AvxFma;
        }
        if Isa::Avx.available() {
            return Isa::Avx;
        }
        // SSE2 is part of the x86_64 baseline.
        return Isa::Sse;
    }
    #[allow(unreachable_code)]
    Isa::Scalar
}

/// A submodel compiled for vector execution: weights padded to 8 lanes.
///
/// Padding lanes have `w1 = b1 = w2 = 0`, so they contribute
/// `relu(0)·0 = 0` on every path.
#[derive(Clone, Debug)]
#[repr(C, align(32))]
pub struct Kernel {
    w1: [f32; 8],
    b1: [f32; 8],
    w2: [f32; 8],
    b2: f32,
}

impl Kernel {
    /// Compiles an [`Mlp`] (hidden width ≤ 8) into a padded kernel.
    pub fn from_mlp(net: &Mlp) -> Self {
        assert!(net.hidden() <= 8, "kernels support up to 8 hidden neurons");
        let mut k = Kernel { w1: [0.0; 8], b1: [0.0; 8], w2: [0.0; 8], b2: net.b2 };
        k.w1[..net.hidden()].copy_from_slice(&net.w1);
        k.b1[..net.hidden()].copy_from_slice(&net.b1);
        k.w2[..net.hidden()].copy_from_slice(&net.w2);
        k
    }

    /// Clamped forward pass with the requested instruction set.
    #[inline]
    pub fn forward_clamped(&self, x: f32, isa: Isa) -> f32 {
        debug_assert!(isa.available(), "{isa:?} not supported by this CPU");
        let y = match isa {
            Isa::Scalar => self.forward_scalar(x),
            // SAFETY: SSE2 is part of the x86_64 baseline target, so the
            // target-feature requirement of `forward_sse` always holds.
            #[cfg(target_arch = "x86_64")]
            Isa::Sse => unsafe { self.forward_sse(x) },
            // SAFETY: callers obtain `Isa` from `detect()`/`available()`
            // (asserted above in debug builds), so AVX is supported.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx => unsafe { self.forward_avx(x) },
            // SAFETY: as above — `detect()` only yields `AvxFma` when the
            // CPU reports both AVX2 and FMA.
            #[cfg(target_arch = "x86_64")]
            Isa::AvxFma => unsafe { self.forward_fma(x) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => self.forward_scalar(x),
        };
        y.clamp(0.0, ONE_MINUS_EPS)
    }

    /// Clamped cross-packet forward pass: evaluates **8 packets** against
    /// this one submodel, one lane per packet (see the module docs). Outputs
    /// are clamped into `[0, 1)` like [`Kernel::forward_clamped`].
    #[inline]
    pub fn forward_batch8(&self, xs: &[f32; 8], isa: Isa) -> [f32; 8] {
        debug_assert!(isa.available(), "{isa:?} not supported by this CPU");
        match isa {
            Isa::Scalar => self.batch8_scalar(xs),
            // SAFETY: SSE2 is part of the x86_64 baseline target, so the
            // target-feature requirement of `batch8_sse` always holds.
            #[cfg(target_arch = "x86_64")]
            Isa::Sse => unsafe { self.batch8_sse(xs) },
            // SAFETY: callers obtain `Isa` from `detect()`/`available()`
            // (asserted above in debug builds), so AVX is supported.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx => unsafe { self.batch8_avx(xs) },
            // SAFETY: as above — `detect()` only yields `AvxFma` when the
            // CPU reports both AVX2 and FMA.
            #[cfg(target_arch = "x86_64")]
            Isa::AvxFma => unsafe { self.batch8_fma(xs) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => self.batch8_scalar(xs),
        }
    }

    /// Scalar reference over the padded lanes.
    #[inline]
    pub fn forward_scalar(&self, x: f32) -> f32 {
        let mut acc = 0.0f32;
        for j in 0..8 {
            let pre = self.w1[j] * x + self.b1[j];
            if pre > 0.0 {
                acc += self.w2[j] * pre;
            }
        }
        acc + self.b2
    }

    /// Scalar reference for the cross-packet pass (clamped).
    #[inline]
    fn batch8_scalar(&self, xs: &[f32; 8]) -> [f32; 8] {
        std::array::from_fn(|l| self.forward_scalar(xs[l]).clamp(0.0, ONE_MINUS_EPS))
    }

    /// SSE path: two 4-lane halves.
    ///
    /// # Safety
    /// Requires SSE (always present on x86_64).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn forward_sse(&self, x: f32) -> f32 {
        // SAFETY: the function's `# Safety` contract guarantees the enabled target features; every pointer load/store below stays within the bounds of the fixed-size parameter arrays.
        unsafe {
            use std::arch::x86_64::*;
            let xv = _mm_set1_ps(x);
            let zero = _mm_setzero_ps();
            let mut acc = zero;
            for half in 0..2 {
                let off = half * 4;
                let w1 = _mm_loadu_ps(self.w1.as_ptr().add(off));
                let b1 = _mm_loadu_ps(self.b1.as_ptr().add(off));
                let w2 = _mm_loadu_ps(self.w2.as_ptr().add(off));
                let pre = _mm_add_ps(_mm_mul_ps(w1, xv), b1);
                let hid = _mm_max_ps(pre, zero);
                acc = _mm_add_ps(acc, _mm_mul_ps(hid, w2));
            }
            // Horizontal sum of 4 lanes.
            let shuf = _mm_movehdup_ps(acc);
            let sums = _mm_add_ps(acc, shuf);
            let shuf2 = _mm_movehl_ps(shuf, sums);
            let total = _mm_add_ss(sums, shuf2);
            _mm_cvtss_f32(total) + self.b2
        }
    }

    /// AVX path: all 8 lanes at once.
    ///
    /// # Safety
    /// Requires AVX; dispatch through [`detect`].
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx")]
    #[inline]
    unsafe fn forward_avx(&self, x: f32) -> f32 {
        // SAFETY: the function's `# Safety` contract guarantees the enabled target features; every pointer load/store below stays within the bounds of the fixed-size parameter arrays.
        unsafe {
            use std::arch::x86_64::*;
            let xv = _mm256_set1_ps(x);
            let w1 = _mm256_loadu_ps(self.w1.as_ptr());
            let b1 = _mm256_loadu_ps(self.b1.as_ptr());
            let w2 = _mm256_loadu_ps(self.w2.as_ptr());
            let pre = _mm256_add_ps(_mm256_mul_ps(w1, xv), b1);
            let hid = _mm256_max_ps(pre, _mm256_setzero_ps());
            let prod = _mm256_mul_ps(hid, w2);
            // Horizontal sum of 8 lanes.
            let hi = _mm256_extractf128_ps(prod, 1);
            let lo = _mm256_castps256_ps128(prod);
            let sum4 = _mm_add_ps(lo, hi);
            let shuf = _mm_movehdup_ps(sum4);
            let sums = _mm_add_ps(sum4, shuf);
            let shuf2 = _mm_movehl_ps(shuf, sums);
            let total = _mm_add_ss(sums, shuf2);
            _mm_cvtss_f32(total) + self.b2
        }
    }

    /// FMA path: as [`Kernel::forward_avx`] with the multiply-add fused.
    ///
    /// # Safety
    /// Requires AVX2 + FMA; dispatch through [`detect`].
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn forward_fma(&self, x: f32) -> f32 {
        // SAFETY: the function's `# Safety` contract guarantees the enabled target features; every pointer load/store below stays within the bounds of the fixed-size parameter arrays.
        unsafe {
            use std::arch::x86_64::*;
            let xv = _mm256_set1_ps(x);
            let w1 = _mm256_loadu_ps(self.w1.as_ptr());
            let b1 = _mm256_loadu_ps(self.b1.as_ptr());
            let w2 = _mm256_loadu_ps(self.w2.as_ptr());
            let pre = _mm256_fmadd_ps(w1, xv, b1);
            let hid = _mm256_max_ps(pre, _mm256_setzero_ps());
            let prod = _mm256_mul_ps(hid, w2);
            let hi = _mm256_extractf128_ps(prod, 1);
            let lo = _mm256_castps256_ps128(prod);
            let sum4 = _mm_add_ps(lo, hi);
            let shuf = _mm_movehdup_ps(sum4);
            let sums = _mm_add_ps(sum4, shuf);
            let shuf2 = _mm_movehl_ps(shuf, sums);
            let total = _mm_add_ss(sums, shuf2);
            _mm_cvtss_f32(total) + self.b2
        }
    }

    /// SSE cross-packet pass: 8 packets as two 4-lane halves, clamped.
    ///
    /// # Safety
    /// Requires SSE (always present on x86_64).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn batch8_sse(&self, xs: &[f32; 8]) -> [f32; 8] {
        // SAFETY: the function's `# Safety` contract guarantees the enabled target features; every pointer load/store below stays within the bounds of the fixed-size parameter arrays.
        unsafe {
            use std::arch::x86_64::*;
            let zero = _mm_setzero_ps();
            let one_minus = _mm_set1_ps(ONE_MINUS_EPS);
            let mut out = [0.0f32; 8];
            for half in 0..2 {
                let xv = _mm_loadu_ps(xs.as_ptr().add(half * 4));
                let mut acc = _mm_set1_ps(self.b2);
                for j in 0..8 {
                    let w1 = _mm_set1_ps(self.w1[j]);
                    let b1 = _mm_set1_ps(self.b1[j]);
                    let w2 = _mm_set1_ps(self.w2[j]);
                    let pre = _mm_add_ps(_mm_mul_ps(w1, xv), b1);
                    let hid = _mm_max_ps(pre, zero);
                    acc = _mm_add_ps(acc, _mm_mul_ps(hid, w2));
                }
                let y = _mm_min_ps(_mm_max_ps(acc, zero), one_minus);
                _mm_storeu_ps(out.as_mut_ptr().add(half * 4), y);
            }
            out
        }
    }

    /// AVX cross-packet pass: 8 packets, one lane each, clamped. No
    /// horizontal reduction — the neuron loop accumulates vertically.
    ///
    /// # Safety
    /// Requires AVX; dispatch through [`detect`].
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx")]
    #[inline]
    unsafe fn batch8_avx(&self, xs: &[f32; 8]) -> [f32; 8] {
        // SAFETY: the function's `# Safety` contract guarantees the enabled target features; every pointer load/store below stays within the bounds of the fixed-size parameter arrays.
        unsafe {
            use std::arch::x86_64::*;
            let xv = _mm256_loadu_ps(xs.as_ptr());
            let zero = _mm256_setzero_ps();
            let mut acc = _mm256_set1_ps(self.b2);
            for j in 0..8 {
                let w1 = _mm256_set1_ps(self.w1[j]);
                let b1 = _mm256_set1_ps(self.b1[j]);
                let w2 = _mm256_set1_ps(self.w2[j]);
                let pre = _mm256_add_ps(_mm256_mul_ps(w1, xv), b1);
                let hid = _mm256_max_ps(pre, zero);
                acc = _mm256_add_ps(acc, _mm256_mul_ps(hid, w2));
            }
            let y = _mm256_min_ps(_mm256_max_ps(acc, zero), _mm256_set1_ps(ONE_MINUS_EPS));
            let mut out = [0.0f32; 8];
            _mm256_storeu_ps(out.as_mut_ptr(), y);
            out
        }
    }

    /// FMA cross-packet pass: as [`Kernel::batch8_avx`] with both the
    /// pre-activation and the accumulate fused.
    ///
    /// # Safety
    /// Requires AVX2 + FMA; dispatch through [`detect`].
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn batch8_fma(&self, xs: &[f32; 8]) -> [f32; 8] {
        // SAFETY: the function's `# Safety` contract guarantees the enabled target features; the load and the store cover exactly the two 8-float arrays.
        unsafe {
            use std::arch::x86_64::*;
            let mut out = [0.0f32; 8];
            _mm256_storeu_ps(out.as_mut_ptr(), self.batch8_fma_v(_mm256_loadu_ps(xs.as_ptr())));
            out
        }
    }

    /// [`Kernel::batch8_fma`] register to register (the staged walk never
    /// leaves registers between stages).
    ///
    /// # Safety
    /// Requires AVX2 + FMA; dispatch through [`detect`].
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn batch8_fma_v(&self, xv: std::arch::x86_64::__m256) -> std::arch::x86_64::__m256 {
        use std::arch::x86_64::*;
        let zero = _mm256_setzero_ps();
        let mut acc = _mm256_set1_ps(self.b2);
        for j in 0..8 {
            let w1 = _mm256_set1_ps(self.w1[j]);
            let b1 = _mm256_set1_ps(self.b1[j]);
            let w2 = _mm256_set1_ps(self.w2[j]);
            let pre = _mm256_fmadd_ps(w1, xv, b1);
            let hid = _mm256_max_ps(pre, zero);
            acc = _mm256_fmadd_ps(hid, w2, acc);
        }
        _mm256_min_ps(_mm256_max_ps(acc, zero), _mm256_set1_ps(ONE_MINUS_EPS))
    }

    /// Kernel weight bytes (same as the source submodel plus padding).
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }

    /// Runs a *dependent chain* of `iters` forward passes (each input
    /// derived from the previous output) and returns the final value — the
    /// Table 1 latency measurement.
    ///
    /// The loop lives inside a `#[target_feature]` function per ISA so the
    /// vector kernels inline into their own loop; calling `forward_clamped`
    /// from generic code cannot inline across the feature boundary and
    /// would time the call overhead instead of the kernel.
    pub fn latency_chain(&self, x0: f32, iters: usize, isa: Isa) -> f32 {
        debug_assert!(isa.available(), "{isa:?} not supported by this CPU");
        match isa {
            Isa::Scalar => self.chain_scalar(x0, iters),
            // SAFETY: SSE2 is part of the x86_64 baseline target.
            #[cfg(target_arch = "x86_64")]
            Isa::Sse => unsafe { self.chain_sse(x0, iters) },
            // SAFETY: callers obtain `Isa` from `detect()`/`available()`
            // (asserted above in debug builds), so AVX is supported.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx => unsafe { self.chain_avx(x0, iters) },
            // SAFETY: as above — `detect()` only yields `AvxFma` when the
            // CPU reports both AVX2 and FMA.
            #[cfg(target_arch = "x86_64")]
            Isa::AvxFma => unsafe { self.chain_fma(x0, iters) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => self.chain_scalar(x0, iters),
        }
    }

    /// Like [`Kernel::latency_chain`] but for the cross-packet kernel: a
    /// dependent chain of 8-packet groups (each group's inputs derived from
    /// the previous outputs). Returns ns-comparable work for Table 1's
    /// batched column; divide the measured time by `8 · iters` for the
    /// per-packet cost.
    pub fn latency_chain_batch8(&self, x0: f32, iters: usize, isa: Isa) -> f32 {
        let mut xs = [0.0f32; 8];
        for (l, x) in xs.iter_mut().enumerate() {
            *x = (x0 + l as f32 * 0.11).fract();
        }
        debug_assert!(isa.available(), "{isa:?} not supported by this CPU");
        match isa {
            Isa::Scalar => self.chain8_scalar(xs, iters),
            // SAFETY: SSE2 is part of the x86_64 baseline target.
            #[cfg(target_arch = "x86_64")]
            Isa::Sse => unsafe { self.chain8_sse(xs, iters) },
            // SAFETY: callers obtain `Isa` from `detect()`/`available()`
            // (asserted above in debug builds), so AVX is supported.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx => unsafe { self.chain8_avx(xs, iters) },
            // SAFETY: as above — `detect()` only yields `AvxFma` when the
            // CPU reports both AVX2 and FMA.
            #[cfg(target_arch = "x86_64")]
            Isa::AvxFma => unsafe { self.chain8_fma(xs, iters) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => self.chain8_scalar(xs, iters),
        }
    }

    fn chain_scalar(&self, mut x: f32, iters: usize) -> f32 {
        for _ in 0..iters {
            let y = self.forward_scalar(x).clamp(0.0, ONE_MINUS_EPS);
            // Golden-ratio hop: inputs sweep the whole domain so ReLU
            // branches stay unpredictable (a fixpoint chain would let the
            // scalar path win on branch prediction alone).
            x = (y + 0.618_034).fract();
        }
        x
    }

    /// # Safety
    /// Requires SSE2 (x86_64 baseline).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "sse2")]
    unsafe fn chain_sse(&self, mut x: f32, iters: usize) -> f32 {
        // SAFETY: the function's `# Safety` contract guarantees the enabled target features; every pointer load/store below stays within the bounds of the fixed-size parameter arrays.
        unsafe {
            for _ in 0..iters {
                let y = self.forward_sse(x).clamp(0.0, ONE_MINUS_EPS);
                x = (y + 0.618_034).fract();
            }
            x
        }
    }

    /// # Safety
    /// Requires AVX; dispatch through [`detect`].
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx")]
    unsafe fn chain_avx(&self, mut x: f32, iters: usize) -> f32 {
        // SAFETY: the function's `# Safety` contract guarantees the enabled target features; every pointer load/store below stays within the bounds of the fixed-size parameter arrays.
        unsafe {
            for _ in 0..iters {
                let y = self.forward_avx(x).clamp(0.0, ONE_MINUS_EPS);
                x = (y + 0.618_034).fract();
            }
            x
        }
    }

    /// # Safety
    /// Requires AVX2 + FMA; dispatch through [`detect`].
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn chain_fma(&self, mut x: f32, iters: usize) -> f32 {
        // SAFETY: the function's `# Safety` contract guarantees the enabled target features; every pointer load/store below stays within the bounds of the fixed-size parameter arrays.
        unsafe {
            for _ in 0..iters {
                let y = self.forward_fma(x).clamp(0.0, ONE_MINUS_EPS);
                x = (y + 0.618_034).fract();
            }
            x
        }
    }

    fn chain8_scalar(&self, mut xs: [f32; 8], iters: usize) -> f32 {
        for _ in 0..iters {
            let ys = self.batch8_scalar(&xs);
            for l in 0..8 {
                xs[l] = (ys[l] + 0.618_034).fract();
            }
        }
        xs[0]
    }

    /// # Safety
    /// Requires SSE2 (x86_64 baseline).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "sse2")]
    unsafe fn chain8_sse(&self, mut xs: [f32; 8], iters: usize) -> f32 {
        // SAFETY: the function's `# Safety` contract guarantees the enabled target features; every pointer load/store below stays within the bounds of the fixed-size parameter arrays.
        unsafe {
            for _ in 0..iters {
                let ys = self.batch8_sse(&xs);
                for l in 0..8 {
                    xs[l] = (ys[l] + 0.618_034).fract();
                }
            }
            xs[0]
        }
    }

    /// # Safety
    /// Requires AVX; dispatch through [`detect`].
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx")]
    unsafe fn chain8_avx(&self, mut xs: [f32; 8], iters: usize) -> f32 {
        // SAFETY: the function's `# Safety` contract guarantees the enabled target features; every pointer load/store below stays within the bounds of the fixed-size parameter arrays.
        unsafe {
            for _ in 0..iters {
                let ys = self.batch8_avx(&xs);
                for l in 0..8 {
                    xs[l] = (ys[l] + 0.618_034).fract();
                }
            }
            xs[0]
        }
    }

    /// # Safety
    /// Requires AVX2 + FMA; dispatch through [`detect`].
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn chain8_fma(&self, mut xs: [f32; 8], iters: usize) -> f32 {
        // SAFETY: the function's `# Safety` contract guarantees the enabled target features; every pointer load/store below stays within the bounds of the fixed-size parameter arrays.
        unsafe {
            for _ in 0..iters {
                let ys = self.batch8_fma(&xs);
                for l in 0..8 {
                    xs[l] = (ys[l] + 0.618_034).fract();
                }
            }
            xs[0]
        }
    }
}

/// Transposed (structure-of-arrays) copy of one stage (historically the
/// leaf stage, hence the name) for the divergent-stage gather kernel.
///
/// ## Layout
///
/// The per-leaf [`Kernel`]s are AoS: one leaf's `{w1[8], b1[8], w2[8], b2}`
/// contiguous. Gathering 8 *different* leaves' `w1[j]` from that layout
/// would need 8 scalar loads per coefficient. This copy is neuron-major:
/// `w1[j * n + i]` is leaf `i`'s hidden weight `j`, so all leaves' `j`-th
/// coefficient is contiguous and one `_mm256_i32gather_ps` with the 8 lane
/// indices fetches it for 8 divergent leaves at once (same for `b1`/`w2`;
/// `b2` is a flat `n`-vector). 25 gathers finish the whole stage.
///
/// ## When gather wins
///
/// The gather kernel does the *same* lane-per-packet FMA pass as
/// [`Kernel::forward_batch8`], so against the per-packet broadcast fallback
/// (8 separate forward passes + horizontal sums) it trades 8 horizontal
/// reductions for 25 gathers. Gathers cost a few cycles each even from L1,
/// so the win grows with divergence: at 8 distinct leaves it is clearly
/// ahead, at ≥ 4 it still wins (measured by `nm-bench batch`'s
/// divergent-leaf microbench), and when all 8 lanes agree the shared
/// [`Kernel::forward_batch8`] kernel beats both — which is why
/// [`CompiledRqRmi`]'s AVX2+FMA walk auto-selects at every stage: shared
/// kernel when the group routes uniformly, gather only on divergence. The
/// gather kernel and the shared kernel execute the identical per-lane
/// op sequence (`acc = b2; acc = fma(relu(fma(w1,x,b1)), w2, acc)`), so
/// auto-selection cannot change even the last ULP of a prediction.
///
/// Pre-AVX2 ISAs never gather in the staged walk (divergent stages take
/// their per-lane broadcast kernels); for them
/// [`LeafSoa::forward_leaf_gather8`] is the scalar reference, bit-identical
/// to `Kernel::forward_scalar` per lane.
#[derive(Clone, Debug, Default)]
pub struct LeafSoa {
    /// `w1[j * n + i]` = leaf `i`'s hidden weight `j` (neuron-major).
    w1: Vec<f32>,
    /// Hidden biases, same layout as `w1`.
    b1: Vec<f32>,
    /// Output weights, same layout as `w1`.
    w2: Vec<f32>,
    /// Output biases, one per leaf.
    b2: Vec<f32>,
    /// Number of leaves (the gather stride).
    n: usize,
}

impl LeafSoa {
    /// Transposes a stage of padded kernels into gather layout.
    pub fn from_kernels(leaves: &[Kernel]) -> Self {
        let n = leaves.len();
        let mut soa = LeafSoa {
            w1: vec![0.0; 8 * n],
            b1: vec![0.0; 8 * n],
            w2: vec![0.0; 8 * n],
            b2: vec![0.0; n],
            n,
        };
        for (i, k) in leaves.iter().enumerate() {
            for j in 0..8 {
                soa.w1[j * n + i] = k.w1[j];
                soa.b1[j * n + i] = k.b1[j];
                soa.w2[j * n + i] = k.w2[j];
            }
            soa.b2[i] = k.b2;
        }
        soa
    }

    /// Number of leaves in the transposed stage.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the stage holds no leaves.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Clamped divergent-leaf forward pass: evaluates packet `l` against
    /// leaf `idx[l]` for all 8 lanes at once. AVX2+FMA takes the gather
    /// kernel; every other ISA takes the scalar gather reference.
    ///
    /// Panics (debug) / reads out of bounds (release, AVX2 path) unless
    /// every `idx[l] < self.len()`.
    #[inline]
    pub fn forward_leaf_gather8(&self, xs: &[f32; 8], idx: &[usize; 8], isa: Isa) -> [f32; 8] {
        match isa {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: requires AVX2+FMA; callers pick the ISA through
            // `detect` (or knowingly via `CompiledRqRmi::with_isa`).
            Isa::AvxFma => unsafe { self.gather8_fma(xs, idx) },
            _ => self.gather8_scalar(xs, idx),
        }
    }

    /// Scalar gather reference: per lane, exactly
    /// [`Kernel::forward_scalar`] + clamp on the lane's own leaf, reading
    /// the transposed arrays.
    #[inline]
    fn gather8_scalar(&self, xs: &[f32; 8], idx: &[usize; 8]) -> [f32; 8] {
        std::array::from_fn(|l| {
            let i = idx[l];
            let mut acc = 0.0f32;
            for j in 0..8 {
                let pre = self.w1[j * self.n + i] * xs[l] + self.b1[j * self.n + i];
                if pre > 0.0 {
                    acc += self.w2[j * self.n + i] * pre;
                }
            }
            (acc + self.b2[i]).clamp(0.0, ONE_MINUS_EPS)
        })
    }

    /// AVX2 gather kernel: 25 gathers (8 × `w1`/`b1`/`w2` + `b2`) fetch 8
    /// divergent leaves' parameters, then the same vertical FMA pass as
    /// [`Kernel::batch8_fma`] finishes the stage — no horizontal reduction.
    ///
    /// # Safety
    /// Requires AVX2 + FMA, and every `idx[l] < self.len()`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn gather8_fma(&self, xs: &[f32; 8], idx: &[usize; 8]) -> [f32; 8] {
        // SAFETY: the function's `# Safety` contract guarantees the enabled target features and that every lane index is in range; the two loads and the store cover exactly the three 8-element arrays.
        unsafe {
            use std::arch::x86_64::*;
            debug_assert!(idx.iter().all(|&i| i < self.n), "leaf index out of range");
            let iv = idx.map(|i| i as i32);
            let iv = _mm256_loadu_si256(iv.as_ptr() as *const __m256i);
            let mut out = [0.0f32; 8];
            _mm256_storeu_ps(
                out.as_mut_ptr(),
                self.gather8_fma_v(_mm256_loadu_ps(xs.as_ptr()), iv),
            );
            out
        }
    }

    /// [`LeafSoa::gather8_fma`] register to register.
    ///
    /// # Safety
    /// Requires AVX2 + FMA, and every lane of `iv` in `0..self.len()`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn gather8_fma_v(
        &self,
        xv: std::arch::x86_64::__m256,
        iv: std::arch::x86_64::__m256i,
    ) -> std::arch::x86_64::__m256 {
        // SAFETY: the function's `# Safety` contract bounds every lane of `iv` by `n`, and each gather's base is `j * n` words into an `8 * n`-word array (`b2`: word 0 of an `n`-word array), so every gathered word is in bounds.
        unsafe {
            use std::arch::x86_64::*;
            let zero = _mm256_setzero_ps();
            let mut acc = _mm256_i32gather_ps::<4>(self.b2.as_ptr(), iv);
            for j in 0..8 {
                let base = j * self.n;
                let w1 = _mm256_i32gather_ps::<4>(self.w1.as_ptr().add(base), iv);
                let b1 = _mm256_i32gather_ps::<4>(self.b1.as_ptr().add(base), iv);
                let w2 = _mm256_i32gather_ps::<4>(self.w2.as_ptr().add(base), iv);
                let pre = _mm256_fmadd_ps(w1, xv, b1);
                let hid = _mm256_max_ps(pre, zero);
                acc = _mm256_fmadd_ps(hid, w2, acc);
            }
            _mm256_min_ps(_mm256_max_ps(acc, zero), _mm256_set1_ps(ONE_MINUS_EPS))
        }
    }

    /// Transposed-copy bytes (counted by [`CompiledRqRmi::memory_bytes`]).
    pub fn memory_bytes(&self) -> usize {
        (self.w1.len() + self.b1.len() + self.w2.len() + self.b2.len()) * std::mem::size_of::<f32>()
    }
}

/// Divergent-leaf microbench, gather side: a dependent chain of `iters`
/// 8-packet groups through [`LeafSoa::forward_leaf_gather8`], each group's
/// inputs derived from the previous outputs and each lane pinned to
/// `idx[lane]`. The loop lives behind the ISA's `#[target_feature]` so the
/// kernel inlines (same methodology as [`Kernel::latency_chain_batch8`]).
pub fn leaf_chain_gather8(soa: &LeafSoa, idx: &[usize; 8], x0: f32, iters: usize, isa: Isa) -> f32 {
    let mut xs = [0.0f32; 8];
    for (l, x) in xs.iter_mut().enumerate() {
        *x = (x0 + l as f32 * 0.11).fract();
    }
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2+FMA required; callers dispatch through `detect`.
        Isa::AvxFma => unsafe { chain_gather_fma(soa, idx, xs, iters) },
        _ => {
            for _ in 0..iters {
                let ys = soa.gather8_scalar(&xs, idx);
                for l in 0..8 {
                    xs[l] = (ys[l] + 0.618_034).fract();
                }
            }
            xs[0]
        }
    }
}

/// # Safety
/// Requires AVX2 + FMA; dispatch through [`detect`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn chain_gather_fma(soa: &LeafSoa, idx: &[usize; 8], mut xs: [f32; 8], iters: usize) -> f32 {
    // SAFETY: the function's `# Safety` contract guarantees the enabled target features; every pointer load/store below stays within the bounds of the fixed-size parameter arrays.
    unsafe {
        for _ in 0..iters {
            let ys = soa.gather8_fma(&xs, idx);
            for l in 0..8 {
                xs[l] = (ys[l] + 0.618_034).fract();
            }
        }
        xs[0]
    }
}

/// Divergent-leaf microbench, broadcast side: the pre-gather fallback —
/// per packet, a full broadcast forward pass against its own leaf kernel
/// (horizontal reduction included). Chain structure identical to
/// [`leaf_chain_gather8`] so the two are directly comparable.
pub fn leaf_chain_broadcast8(
    leaves: &[Kernel],
    idx: &[usize; 8],
    x0: f32,
    iters: usize,
    isa: Isa,
) -> f32 {
    let mut xs = [0.0f32; 8];
    for (l, x) in xs.iter_mut().enumerate() {
        *x = (x0 + l as f32 * 0.11).fract();
    }
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2+FMA required; callers dispatch through `detect`.
        Isa::AvxFma => unsafe { chain_broadcast_fma(leaves, idx, xs, iters) },
        _ => {
            for _ in 0..iters {
                for l in 0..8 {
                    let y = leaves[idx[l]].forward_clamped(xs[l], isa);
                    xs[l] = (y + 0.618_034).fract();
                }
            }
            xs[0]
        }
    }
}

/// # Safety
/// Requires AVX2 + FMA; dispatch through [`detect`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn chain_broadcast_fma(
    leaves: &[Kernel],
    idx: &[usize; 8],
    mut xs: [f32; 8],
    iters: usize,
) -> f32 {
    // SAFETY: the function's `# Safety` contract guarantees the enabled target features; every pointer load/store below stays within the bounds of the fixed-size parameter arrays.
    unsafe {
        for _ in 0..iters {
            for l in 0..8 {
                let y = leaves[idx[l]].forward_fma(xs[l]).clamp(0.0, ONE_MINUS_EPS);
                xs[l] = (y + 0.618_034).fract();
            }
        }
        xs[0]
    }
}

/// Monomorphized staged walks: one `(predict, predict8)` pair per ISA, each
/// carrying its `#[target_feature]` so the kernels inline into the loop and
/// the per-stage ISA `match` disappears from the hot path.
///
/// The 8-packet walk generated here serves the ISAs without a gather
/// instruction: a stage whose lanes agree takes the shared lane-per-packet
/// kernel, a divergent one falls back to per-lane broadcast passes.
/// AVX2+FMA takes only the single-key walk from this macro; its 8-packet
/// walk is [`predict8_mono_fma`].
macro_rules! mono_staged {
    (@predict $( #[$attr:meta] )* ($predict:ident, $fwd:ident)) => {
        $( #[$attr] )*
        // The scalar instantiation substitutes a *safe* $fwd, which would
        // make the uniform `unsafe {}` call blocks below spuriously unused.
        #[allow(unused_unsafe)]
        unsafe fn $predict(m: &CompiledRqRmi, x: f32) -> (usize, u32) {
            let nstages = m.stages.len();
            let mut idx = 0usize;
            for s in 0..nstages - 1 {
                // SAFETY: $fwd carries the same target-feature contract as
                // this fn; the caller upheld it to call $predict at all.
                let y = unsafe { m.stages[s][idx].$fwd(x) }.clamp(0.0, ONE_MINUS_EPS);
                let w_next = m.widths[s + 1];
                idx = ((y * w_next as f32) as usize).min(w_next - 1);
            }
            // SAFETY: as above — $fwd shares this fn's feature contract.
            let y = unsafe { m.stages[nstages - 1][idx].$fwd(x) }.clamp(0.0, ONE_MINUS_EPS) as f64;
            let pred = ((y * m.n_values as f64) as usize).min(m.n_values - 1);
            (pred, m.leaf_err[idx])
        }
    };
    ($( #[$attr:meta] )* ($predict:ident, $predict8:ident, $fwd:ident, $fwd8:ident)) => {
        mono_staged!(@predict $( #[$attr] )* ($predict, $fwd));
        $( #[$attr] )*
        // As in @predict: the scalar instantiation's kernels are safe fns.
        #[allow(unused_unsafe)]
        unsafe fn $predict8(
            m: &CompiledRqRmi,
            xs: &[f32; 8],
            preds: &mut [usize; 8],
            errs: &mut [u32; 8],
        ) {
            let nstages = m.stages.len();
            let mut idx = [0usize; 8];
            let mut ys = [0.0f32; 8];
            for s in 0..nstages {
                // Stage 0 always shares the root submodel; deeper stages
                // share whenever the batch routes uniformly.
                if idx.iter().all(|&i| i == idx[0]) {
                    // SAFETY: $fwd8 shares this fn's target-feature
                    // contract; the caller upheld it to call $predict8.
                    ys = unsafe { m.stages[s][idx[0]].$fwd8(xs) };
                } else {
                    for l in 0..8 {
                        // SAFETY: as above — $fwd shares the contract.
                        let y = unsafe { m.stages[s][idx[l]].$fwd(xs[l]) };
                        ys[l] = y.clamp(0.0, ONE_MINUS_EPS);
                    }
                }
                if s + 1 < nstages {
                    let w_next = m.widths[s + 1];
                    for l in 0..8 {
                        idx[l] = ((ys[l] * w_next as f32) as usize).min(w_next - 1);
                    }
                }
            }
            for l in 0..8 {
                // Final multiply in f64, matching `RqRmi::predict_x`.
                let y = ys[l] as f64;
                preds[l] = ((y * m.n_values as f64) as usize).min(m.n_values - 1);
                errs[l] = m.leaf_err[idx[l]];
            }
        }
    };
}

mono_staged!((predict_mono_scalar, predict8_mono_scalar, forward_scalar, batch8_scalar));

#[cfg(target_arch = "x86_64")]
mono_staged!(
    #[target_feature(enable = "sse2")]
    (predict_mono_sse, predict8_mono_sse, forward_sse, batch8_sse)
);

#[cfg(target_arch = "x86_64")]
mono_staged!(
    #[target_feature(enable = "avx")]
    (predict_mono_avx, predict8_mono_avx, forward_avx, batch8_avx)
);

#[cfg(target_arch = "x86_64")]
mono_staged!(@predict
    #[target_feature(enable = "avx2,fma")]
    (predict_mono_fma, forward_fma)
);

/// The AVX2+FMA 8-packet staged walk, in registers from the inputs to the
/// stored predictions: route with `cvttps_epi32` + `min_epi32` (lane for
/// lane the scalar `((y * w) as usize).min(w - 1)`), test uniformity with
/// one compare + movemask, take the shared kernel when the lanes agree and
/// the transposed gather kernel on *any* divergent stage (the two are
/// bit-identical per lane), finish in `f64` like `RqRmi::predict_x`
/// (`cvtps_pd`, `mul_pd`, `cvttpd_epi32`) and gather the error bounds.
///
/// # Safety
/// Requires AVX2 + FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn predict8_mono_fma(
    m: &CompiledRqRmi,
    xs: &[f32; 8],
    preds: &mut [usize; 8],
    errs: &mut [u32; 8],
) {
    use std::arch::x86_64::*;
    // The predictions are stored as two vectors of four 64-bit lanes.
    const _: () = assert!(std::mem::size_of::<usize>() == 8);
    // SAFETY: the function's `# Safety` contract guarantees the target features. Every lane of `idx` addresses its stage: it starts at 0, and each routing step clamps it into `0..widths[s + 1]` (`ys` is clamped to `[0, 1)`, so the product is non-negative and far below `i32::MAX`), while `with_isa` asserted that stage `s` holds `widths[s]` kernels, transposed into `soa[s]`, and that `leaf_err` has one entry per leaf. The loads and stores cover exactly the three 8-element arrays.
    unsafe {
        let xv = _mm256_loadu_ps(xs.as_ptr());
        let mut idx = _mm256_setzero_si256();
        let mut ys = _mm256_setzero_ps();
        for (s, (stage, soa)) in m.stages.iter().zip(&m.soa).enumerate() {
            let first = _mm256_castsi256_si128(idx);
            let same = _mm256_cmpeq_epi32(idx, _mm256_broadcastd_epi32(first));
            ys = if _mm256_movemask_epi8(same) == -1 {
                stage[_mm_cvtsi128_si32(first) as usize].batch8_fma_v(xv)
            } else {
                soa.gather8_fma_v(xv, idx)
            };
            if let Some(&w_next) = m.widths.get(s + 1) {
                let routed = _mm256_cvttps_epi32(_mm256_mul_ps(ys, _mm256_set1_ps(w_next as f32)));
                idx = _mm256_min_epi32(routed, _mm256_set1_epi32(w_next as i32 - 1));
            }
        }
        let (n, last) = (_mm256_set1_pd(m.n_values as f64), _mm_set1_epi32(m.n_values as i32 - 1));
        for (half, ys) in
            [_mm256_castps256_ps128(ys), _mm256_extractf128_ps::<1>(ys)].into_iter().enumerate()
        {
            let pred =
                _mm_min_epi32(_mm256_cvttpd_epi32(_mm256_mul_pd(_mm256_cvtps_pd(ys), n)), last);
            let at = preds.as_mut_ptr().add(4 * half) as *mut __m256i;
            _mm256_storeu_si256(at, _mm256_cvtepu32_epi64(pred));
        }
        let err = _mm256_i32gather_epi32::<4>(m.leaf_err.as_ptr() as *const i32, idx);
        _mm256_storeu_si256(errs.as_mut_ptr() as *mut __m256i, err);
    }
}

/// Signature of a monomorphized single-key staged walk.
type PredictFn = unsafe fn(&CompiledRqRmi, f32) -> (usize, u32);
/// Signature of a monomorphized 8-packet staged walk.
type Predict8Fn = unsafe fn(&CompiledRqRmi, &[f32; 8], &mut [usize; 8], &mut [u32; 8]);

/// An [`super::RqRmi`] compiled for the hot path: padded kernels per stage,
/// one ISA chosen up front, the staged walk monomorphized per ISA.
#[derive(Clone, Debug)]
pub struct CompiledRqRmi {
    stages: Vec<Vec<Kernel>>,
    /// Transposed copy of every stage for the gather kernel (see
    /// [`LeafSoa`]); redundant with `stages` by design. Empty unless
    /// compiled for [`Isa::AvxFma`], the only walk that gathers.
    soa: Vec<LeafSoa>,
    widths: Vec<usize>,
    leaf_err: Vec<u32>,
    n_values: usize,
    scale: f64,
    isa: Isa,
    /// Monomorphized single-key walk for `isa`; see [`mono_staged`].
    predict_fn: PredictFn,
    /// Monomorphized 8-packet walk for `isa`.
    predict8_fn: Predict8Fn,
}

impl CompiledRqRmi {
    /// Compiles a trained model with the best detected instruction set.
    pub fn new(model: &super::RqRmi) -> Self {
        Self::with_isa(model, detect())
    }

    /// Compiles with an explicit instruction set (Table 1 sweeps this).
    pub fn with_isa(model: &super::RqRmi, isa: Isa) -> Self {
        let stages: Vec<Vec<Kernel>> =
            model.nets.iter().map(|st| st.iter().map(Kernel::from_mlp).collect()).collect();
        // What `predict8_mono_fma`'s gathers rely on: each stage as wide
        // as `widths` says, one error bound per leaf, and every index and
        // prediction representable in an `i32` lane.
        assert!(
            stages.iter().map(Vec::len).eq(model.widths.iter().copied())
                && model.widths.last() == Some(&model.leaf_err.len())
                && model.widths.iter().all(|&w| (1..1 << 24).contains(&w))
                && i32::try_from(model.n_values).is_ok(),
            "CompiledRqRmi: inconsistent model shape"
        );
        // The transposed copies feed the gather kernel, which only the
        // AVX2+FMA staged walk dispatches — don't carry (or count) them for
        // ISAs whose divergent path is the per-lane broadcast.
        let soa = if isa == Isa::AvxFma {
            stages.iter().map(|st| LeafSoa::from_kernels(st)).collect()
        } else {
            Vec::new()
        };
        let km = model.key_map();
        #[cfg(target_arch = "x86_64")]
        let (predict_fn, predict8_fn): (PredictFn, Predict8Fn) = match isa {
            Isa::Scalar => (predict_mono_scalar, predict8_mono_scalar),
            Isa::Sse => (predict_mono_sse, predict8_mono_sse),
            Isa::Avx => (predict_mono_avx, predict8_mono_avx),
            Isa::AvxFma => (predict_mono_fma, predict8_mono_fma),
        };
        #[cfg(not(target_arch = "x86_64"))]
        let (predict_fn, predict8_fn): (PredictFn, Predict8Fn) =
            (predict_mono_scalar, predict8_mono_scalar);
        Self {
            stages,
            soa,
            widths: model.widths.clone(),
            leaf_err: model.leaf_err.clone(),
            n_values: model.n_values,
            scale: 1.0 / (km.domain_max() as f64 + 1.0),
            isa,
            predict_fn,
            predict8_fn,
        }
    }

    /// The instruction set in use.
    pub fn isa(&self) -> Isa {
        self.isa
    }

    /// Number of indexed ranges.
    pub fn len(&self) -> usize {
        self.n_values
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.n_values == 0
    }

    /// Predicted index + error bound for `key` (same contract as
    /// [`super::RqRmi::predict`]). An empty model predicts `(0, 0)` — there
    /// is nothing to search.
    #[inline]
    pub fn predict(&self, key: u64) -> (usize, u32) {
        if self.n_values == 0 {
            return (0, 0);
        }
        let x = (key as f64 * self.scale) as f32;
        // SAFETY: predict_fn was selected for `self.isa` at construction;
        // callers pick the ISA through `detect` (or knowingly via with_isa).
        unsafe { (self.predict_fn)(self, x) }
    }

    /// Batched prediction: fills `preds[i]`/`errs[i]` for `keys[i]`.
    ///
    /// Keys are processed in groups of 8 through the cross-packet kernel
    /// (see the module docs); the tail shorter than 8 goes through the
    /// single-key walk. Every `(pred, err)` obeys the same containment
    /// contract as [`CompiledRqRmi::predict`] — batch and scalar predictions
    /// may differ in the last ULPs near leaf boundaries but both windows are
    /// guaranteed to contain the true index.
    ///
    /// Panics unless `keys.len() == preds.len() == errs.len()`.
    pub fn predict_batch(&self, keys: &[u64], preds: &mut [usize], errs: &mut [u32]) {
        assert_eq!(keys.len(), preds.len(), "predict_batch: preds length mismatch");
        assert_eq!(keys.len(), errs.len(), "predict_batch: errs length mismatch");
        if self.n_values == 0 {
            preds.fill(0);
            errs.fill(0);
            return;
        }
        let n = keys.len();
        let groups = n / 8;
        // nm-lint: hotpath
        for g in 0..groups {
            let base = g * 8;
            let xs: [f32; 8] = std::array::from_fn(|l| (keys[base + l] as f64 * self.scale) as f32);
            let mut p8 = [0usize; 8];
            let mut e8 = [0u32; 8];
            // SAFETY: as in `predict` — the fn matches `self.isa`.
            unsafe { (self.predict8_fn)(self, &xs, &mut p8, &mut e8) };
            preds[base..base + 8].copy_from_slice(&p8);
            errs[base..base + 8].copy_from_slice(&e8);
        }
        for i in groups * 8..n {
            let (p, e) = self.predict(keys[i]);
            preds[i] = p;
            errs[i] = e;
        }
        // nm-lint: end-hotpath
    }

    /// Kernel memory (Figure 13 accounting mirrors [`super::RqRmi::memory_bytes`]),
    /// including the transposed copies the gather kernel reads.
    pub fn memory_bytes(&self) -> usize {
        self.stages.iter().flatten().map(Kernel::memory_bytes).sum::<usize>()
            + self.soa.iter().map(LeafSoa::memory_bytes).sum::<usize>()
            + self.leaf_err.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn testable_isas() -> Vec<Isa> {
        [Isa::Scalar, Isa::Sse, Isa::Avx, Isa::AvxFma]
            .into_iter()
            .filter(|i| i.available())
            .collect()
    }

    #[test]
    fn kernels_match_scalar_reference() {
        for seed in 0..20u64 {
            let net = Mlp::random(8, seed);
            let k = Kernel::from_mlp(&net);
            for i in 0..200 {
                let x = i as f32 / 200.0;
                let reference = net.forward_clamped(x);
                let scalar = k.forward_clamped(x, Isa::Scalar);
                assert!((reference - scalar).abs() <= 1e-6, "scalar kernel diverged at x={x}");
                for isa in testable_isas() {
                    let v = k.forward_clamped(x, isa);
                    assert!(
                        (reference - v).abs() <= 1e-5,
                        "{isa:?} diverged at x={x}: {reference} vs {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn batch8_matches_scalar_reference_within_delta() {
        // The module docs promise every kernel stays inside the ±delta band
        // of `analyze::eval_delta`; the 1e-5 tolerance used here is far
        // below the band for random weights of this magnitude.
        for seed in 0..20u64 {
            let net = Mlp::random(8, seed);
            let k = Kernel::from_mlp(&net);
            for base in 0..25 {
                let xs: [f32; 8] = std::array::from_fn(|l| (base * 8 + l) as f32 / 200.0);
                for isa in testable_isas() {
                    let ys = k.forward_batch8(&xs, isa);
                    for l in 0..8 {
                        let reference = k.forward_scalar(xs[l]).clamp(0.0, ONE_MINUS_EPS);
                        assert!(
                            (reference - ys[l]).abs() <= 1e-5,
                            "{isa:?} lane {l} diverged at x={}: {reference} vs {}",
                            xs[l],
                            ys[l]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn padding_lanes_are_inert() {
        let net = Mlp { w1: vec![1.0; 3], b1: vec![-0.1; 3], w2: vec![0.5; 3], b2: 0.2 };
        let k = Kernel::from_mlp(&net);
        for i in 0..50 {
            let x = i as f32 / 50.0;
            assert!((net.forward_clamped(x) - k.forward_clamped(x, Isa::Scalar)).abs() < 1e-6);
            let ys = k.forward_batch8(&[x; 8], Isa::Scalar);
            assert!((net.forward_clamped(x) - ys[7]).abs() < 1e-6);
        }
    }

    #[test]
    fn detect_never_scalar_on_x86_64() {
        #[cfg(target_arch = "x86_64")]
        {
            assert_ne!(detect(), Isa::Scalar);
            assert!(detect().available());
        }
    }

    #[test]
    fn compiled_model_agrees_with_reference_within_bounds() {
        use crate::config::RqRmiParams;
        use crate::rqrmi::train::train_rqrmi;
        use nm_common::FieldRange;
        let ranges: Vec<FieldRange> =
            (0..300).map(|i| FieldRange::new(i * 200, i * 200 + 99)).collect();
        let m = train_rqrmi(&ranges, 16, &RqRmiParams::default()).unwrap();
        let compiled = CompiledRqRmi::new(&m);
        for (idx, r) in ranges.iter().enumerate() {
            for key in [r.lo, r.hi] {
                let (pred, err) = compiled.predict(key);
                let dist = (pred as i64 - idx as i64).unsigned_abs();
                assert!(dist <= err as u64, "key {key}: pred {pred} true {idx} err {err}");
            }
        }
    }

    #[test]
    fn predict_batch_within_bounds_for_every_isa() {
        use crate::config::RqRmiParams;
        use crate::rqrmi::train::train_rqrmi;
        use nm_common::FieldRange;
        let ranges: Vec<FieldRange> =
            (0..300).map(|i| FieldRange::new(i * 200, i * 200 + 99)).collect();
        let m = train_rqrmi(&ranges, 16, &RqRmiParams::default()).unwrap();
        // Probe lo/mid/hi of every range, deliberately not a multiple of 8
        // so the tail path is exercised too.
        let keys: Vec<u64> = ranges.iter().flat_map(|r| [r.lo, (r.lo + r.hi) / 2, r.hi]).collect();
        let true_idx: Vec<usize> = (0..ranges.len()).flat_map(|i| [i, i, i]).collect();
        for isa in testable_isas() {
            let compiled = CompiledRqRmi::with_isa(&m, isa);
            let mut preds = vec![0usize; keys.len()];
            let mut errs = vec![0u32; keys.len()];
            compiled.predict_batch(&keys, &mut preds, &mut errs);
            for i in 0..keys.len() {
                let dist = (preds[i] as i64 - true_idx[i] as i64).unsigned_abs();
                assert!(
                    dist <= errs[i] as u64,
                    "{isa:?} key {}: pred {} true {} err {}",
                    keys[i],
                    preds[i],
                    true_idx[i],
                    errs[i]
                );
            }
        }
    }

    #[test]
    fn leaf_gather_matches_broadcast_reference() {
        // Divergent index patterns over 32 random leaves: the gather kernel
        // must agree with the per-packet broadcast pass on every reachable
        // ISA (ULP-level tolerance; both sit inside the ±delta band).
        let leaves: Vec<Kernel> =
            (0..32u64).map(|s| Kernel::from_mlp(&Mlp::random(8, s))).collect();
        let soa = LeafSoa::from_kernels(&leaves);
        assert_eq!(soa.len(), 32);
        assert!(!soa.is_empty());
        for seed in 0..20usize {
            let idx: [usize; 8] = std::array::from_fn(|l| (seed * 7 + l * 5) % 32);
            let xs: [f32; 8] =
                std::array::from_fn(|l| (seed as f32 * 0.037 + l as f32 * 0.113).fract());
            for isa in testable_isas() {
                let g = soa.forward_leaf_gather8(&xs, &idx, isa);
                for l in 0..8 {
                    let reference = leaves[idx[l]].forward_clamped(xs[l], Isa::Scalar);
                    assert!(
                        (g[l] - reference).abs() <= 1e-5,
                        "{isa:?} lane {l} (leaf {}): {reference} vs {}",
                        idx[l],
                        g[l]
                    );
                }
            }
        }
    }

    #[test]
    fn gather_and_shared_kernel_bit_identical_on_fma() {
        // Auto-selection safety: when all 8 lanes share a leaf, the shared
        // batch8 kernel and the gather kernel execute the same per-lane op
        // sequence on AVX2+FMA, so switching between them cannot change a
        // single bit of the stage output.
        if !Isa::AvxFma.available() {
            return;
        }
        let leaves: Vec<Kernel> =
            (0..16u64).map(|s| Kernel::from_mlp(&Mlp::random(8, s + 100))).collect();
        let soa = LeafSoa::from_kernels(&leaves);
        for (i, leaf) in leaves.iter().enumerate() {
            let xs: [f32; 8] = std::array::from_fn(|l| (i as f32 * 0.07 + l as f32 * 0.11).fract());
            let gathered = soa.forward_leaf_gather8(&xs, &[i; 8], Isa::AvxFma);
            let shared = leaf.forward_batch8(&xs, Isa::AvxFma);
            assert_eq!(gathered, shared, "leaf {i}: gather vs shared kernel diverged in bits");
        }
    }

    #[test]
    fn predict_batch_divergent_groups_within_bounds_every_isa() {
        use crate::config::RqRmiParams;
        use crate::rqrmi::train::train_rqrmi;
        use nm_common::FieldRange;
        // A 3-stage model, so a group can diverge at the internal stage as
        // well as at the leaf.
        let ranges: Vec<FieldRange> =
            (0..3_000).map(|i| FieldRange::new(i * 300, i * 300 + 199)).collect();
        let params = RqRmiParams { stage_widths: Some(vec![1, 4, 16]), ..Default::default() };
        let m = train_rqrmi(&ranges, 20, &params).unwrap();
        assert_eq!(m.widths(), [1, 4, 16]);
        // Every range boundary, strided across the whole domain so the 8
        // lanes of a group land in widely separated submodels.
        let order: Vec<usize> =
            (0..2 * ranges.len()).map(|i| (i * 751) % (2 * ranges.len())).collect();
        let keys: Vec<u64> = order
            .iter()
            .map(|&b| if b % 2 == 0 { ranges[b / 2].lo } else { ranges[b / 2].hi })
            .collect();
        // The groups do diverge at the internal stage (routing as the
        // scalar walk computes it), not only at the leaf.
        let reference = CompiledRqRmi::with_isa(&m, Isa::Scalar);
        let internal = |key: u64| {
            let y = reference.stages[0][0]
                .forward_clamped((key as f64 * reference.scale) as f32, Isa::Scalar);
            ((y * 4.0) as usize).min(3)
        };
        assert!(keys.chunks_exact(8).all(|g| g.iter().any(|&k| internal(k) != internal(g[0]))));
        assert!(keys.chunks_exact(8).all(|g| g.iter().any(|&k| m.route(k) != m.route(g[0]))));
        for isa in testable_isas() {
            let compiled = CompiledRqRmi::with_isa(&m, isa);
            let mut preds = vec![0usize; keys.len()];
            let mut errs = vec![0u32; keys.len()];
            compiled.predict_batch(&keys, &mut preds, &mut errs);
            for (k, &b) in order.iter().enumerate() {
                assert!(
                    preds[k].abs_diff(b / 2) <= errs[k] as usize,
                    "{isa:?} key {}: pred {} true {} err {}",
                    keys[k],
                    preds[k],
                    b / 2,
                    errs[k]
                );
            }
        }
        // Auto-selection safety at every stage, internal ones included: on
        // AVX2+FMA the transposed gather kernel and the shared kernel agree
        // in every bit, so which of the two a group takes cannot matter.
        if Isa::AvxFma.available() {
            let compiled = CompiledRqRmi::with_isa(&m, Isa::AvxFma);
            assert_eq!(compiled.soa.len(), compiled.stages.len());
            for (stage, soa) in compiled.stages.iter().zip(&compiled.soa) {
                for (i, kernel) in stage.iter().enumerate() {
                    let xs: [f32; 8] =
                        std::array::from_fn(|l| (i as f32 * 0.07 + l as f32 * 0.11).fract());
                    assert_eq!(
                        soa.forward_leaf_gather8(&xs, &[i; 8], Isa::AvxFma),
                        kernel.forward_batch8(&xs, Isa::AvxFma),
                        "submodel {i} of a {}-wide stage",
                        stage.len()
                    );
                }
            }
        }
    }

    #[test]
    fn leaf_chains_run_and_stay_in_domain() {
        let leaves: Vec<Kernel> =
            (0..8u64).map(|s| Kernel::from_mlp(&Mlp::random(8, s + 7))).collect();
        let soa = LeafSoa::from_kernels(&leaves);
        let idx: [usize; 8] = std::array::from_fn(|l| l % leaves.len());
        for isa in testable_isas() {
            let g = leaf_chain_gather8(&soa, &idx, 0.3, 64, isa);
            let b = leaf_chain_broadcast8(&leaves, &idx, 0.3, 64, isa);
            assert!((0.0..1.0).contains(&g), "{isa:?} gather chain left [0,1): {g}");
            assert!((0.0..1.0).contains(&b), "{isa:?} broadcast chain left [0,1): {b}");
        }
    }

    #[test]
    fn empty_model_predicts_nothing() {
        use crate::rqrmi::RqRmi;
        // Hand-build an empty model (training rejects empty inputs).
        let m = RqRmi {
            widths: vec![1],
            nets: vec![vec![Mlp::zeros(8)]],
            leaf_err: vec![0],
            n_values: 0,
            bits: 16,
        };
        let compiled = CompiledRqRmi::new(&m);
        assert!(compiled.is_empty());
        assert_eq!(compiled.predict(1234), (0, 0));
        let keys = [1u64, 2, 3, 4, 5, 6, 7, 8, 9];
        let mut preds = [7usize; 9];
        let mut errs = [7u32; 9];
        compiled.predict_batch(&keys, &mut preds, &mut errs);
        assert_eq!(preds, [0; 9]);
        assert_eq!(errs, [0; 9]);
    }
}

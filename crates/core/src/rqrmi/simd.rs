//! Vectorised submodel inference (paper §4 "Vectorization", Table 1).
//!
//! A submodel forward pass is one fused multiply-add over the 8 hidden
//! neurons, a ReLU, and a dot product — a handful of vector instructions.
//! The paper reports 126 ns serial, 62 ns SSE (4 floats/op), 49 ns AVX
//! (8 floats/op) per inference; `nm-bench table1` regenerates that
//! comparison by timing the walk the data plane runs —
//! [`CompiledRqRmi::predict`], compiled per instruction set — plus an **FMA
//! row** the paper's 2016-era Xeon lacked: `avx2+fma` fuses the `w1·x + b1`
//! and `w2·h + b2` steps into single `vfmadd` instructions. No kernel here
//! is one that only a benchmark calls.
//!
//! ## Two axes of vectorization
//!
//! * **Within a key** (the kernel of [`CompiledRqRmi::predict`]): the 8
//!   hidden neurons of one submodel fill one 256-bit register; the key's
//!   input is broadcast across lanes and the 8 products are summed
//!   horizontally. This is the paper's Table 1 kernel, and the only kernel
//!   shape there is: lane = hidden neuron, on every ISA.
//! * **Across keys** ([`CompiledRqRmi::predict_batch`]): a chunk of ≤ 64
//!   keys is walked **stage by stage** — every key finishes stage `s`, on
//!   *its own* submodel, whichever one the previous stage routed it to,
//!   before any key starts `s + 1`. A key's walk is a dependency chain of
//!   one kernel per stage; walking the chunk stage-synchronously keeps up
//!   to 64 independent chains in flight where a key-at-a-time walk has one,
//!   and costs the same whether the keys share a submodel or spread over
//!   the whole stage. `Scalar`/`Sse`/`Avx` run the single-key kernel once
//!   per key; AVX2+FMA runs eight keys' kernels side by side and sums their
//!   products with one transposed `hadd` tree that leaves one lane per key
//!   (`forward8_fma`) — per key the same additions in the same order.
//!
//! ## Dispatch
//!
//! [`CompiledRqRmi`] picks the instruction set **once at compile time**
//! ([`detect`] or an explicit [`CompiledRqRmi::with_isa`]) and stores
//! monomorphized function pointers for the whole staged walk. The hot path
//! pays one indirect call per prediction (or per chunk) instead of a
//! per-stage `match isa`, and each monomorphized body carries its ISA's
//! `#[target_feature]`, so the kernels inline into their own staged loop.
//!
//! The AVX2+FMA chunk walk keeps the routing index an `epi32` vector
//! (`cvttps_epi32` + `min_epi32`, lane for lane the other walks' `route`),
//! computes the final index in `f64` (`cvtps_pd`, `mul_pd`, `cvttpd_epi32`)
//! exactly like `RqRmi::predict_x`, and fetches the error bounds with one
//! `i32gather_epi32` per group.
//!
//! ## Correctness note
//!
//! *Between* ISAs the summation order differs, so results can differ in the
//! last bits; FMA additionally skips the intermediate rounding of `w1·x`
//! and `w2·h` (one rounding per fused op instead of two, i.e. *smaller*
//! deviation from the `f64` reference). The RQ-RMI error bounds are computed
//! over a `±delta` band that covers any summation order and any per-flop
//! rounding at most one ULP of the running magnitude (see
//! `analyze::eval_delta`), which includes every fused variant, so every
//! kernel here is safe to use for lookups: two ISAs may route a boundary
//! key to neighbouring leaves, but both leaves' error bounds cover such
//! keys (the trainer assigns boundary-band keys to both children), so the
//! secondary search still finds the same range and classification results
//! stay bit-identical.
//!
//! *Within* an ISA there is one walk: the chunk walk performs, per key,
//! exactly the single-key walk's operations in the same order, so
//! `predict_batch(keys)[i] == predict(keys[i])` for every key, and whatever
//! is validated through [`CompiledRqRmi::predict`] (the boundary check of
//! `TrainedISet::partial_retrain`) is validated for the batched data plane
//! too.

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
/// `relu(0)·0 = 0` on every path. 128 bytes at a 64-byte boundary: exactly
/// two cache lines, and each weight vector an aligned 256-bit load.
#[derive(Clone, Debug)]
#[repr(C, align(64))]
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

    /// Scalar reference over the padded lanes. The ReLU selects a value
    /// instead of branching around the accumulate: for finite weights the
    /// two differ only in the sign of a zero term, which neither the clamp
    /// nor the routing cast can see, and in a walk over many submodels the
    /// branch mispredicts on every other neuron.
    #[inline]
    fn forward_scalar(&self, x: f32) -> f32 {
        let mut acc = 0.0f32;
        for j in 0..8 {
            let pre = self.w1[j] * x + self.b1[j];
            acc += self.w2[j] * if pre > 0.0 { pre } else { 0.0 };
        }
        acc + self.b2
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
            // Horizontal sum of 4 lanes. The odd-lane duplicate is a plain
            // SSE shuffle: `movehdup` is SSE3, outside this fn's features.
            let shuf = _mm_shuffle_ps::<0b11_11_01_01>(acc, acc);
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

    /// The eight terms whose sum is this submodel's raw output for the
    /// input broadcast in `xv`: lane `j` is `w2[j]·relu(w1[j]·x + b1[j])`,
    /// with `b2` fused into lane 0's multiply-add.
    ///
    /// # Safety
    /// Requires AVX2 + FMA.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn terms_fma(&self, xv: std::arch::x86_64::__m256) -> std::arch::x86_64::__m256 {
        // SAFETY: the function's `# Safety` contract guarantees the enabled target features; the three vector loads cover exactly the three 8-float arrays, which `repr(C, align(64))` puts at 32-byte offsets, and the scalar load reads `b2`.
        unsafe {
            use std::arch::x86_64::*;
            let w1 = _mm256_load_ps(self.w1.as_ptr());
            let b1 = _mm256_load_ps(self.b1.as_ptr());
            let w2 = _mm256_load_ps(self.w2.as_ptr());
            let b2 = _mm256_zextps128_ps256(_mm_load_ss(&self.b2));
            let hid = _mm256_max_ps(_mm256_fmadd_ps(w1, xv, b1), _mm256_setzero_ps());
            _mm256_fmadd_ps(hid, w2, b2)
        }
    }

    /// FMA path: as [`Kernel::forward_avx`] with both multiply-adds fused,
    /// summed pairwise — `((t0+t1)+(t2+t3)) + ((t4+t5)+(t6+t7))`, the order
    /// [`forward8_fma`]'s transposed tree gives every key, so the single-key
    /// and the batched walk agree bit for bit.
    ///
    /// # Safety
    /// Requires AVX2 + FMA; dispatch through [`detect`].
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn forward_fma(&self, x: f32) -> f32 {
        use std::arch::x86_64::*;
        // SAFETY: `terms_fma` shares this fn's target-feature contract.
        let terms = unsafe { self.terms_fma(_mm256_set1_ps(x)) };
        let pairs = _mm256_hadd_ps(terms, terms);
        let quads = _mm256_hadd_ps(pairs, pairs);
        let (lo, hi) = (_mm256_castps256_ps128(quads), _mm256_extractf128_ps::<1>(quads));
        _mm_cvtss_f32(_mm_add_ss(lo, hi))
    }

    /// Kernel weight bytes (same as the source submodel plus padding).
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

/// The 8-key kernel of the AVX2+FMA walk: key `l` runs against its own
/// submodel `stage[idx[l]]` — three aligned loads, lane = hidden neuron
/// ([`Kernel::terms_fma`]) — and one transposed `hadd` tree sums the eight
/// keys' terms at once, leaving key `l`'s output, clamped into `[0, 1)`, in
/// lane `l`. Per key the additions are exactly [`Kernel::forward_fma`]'s.
///
/// # Safety
/// Requires AVX2 + FMA, and every `idx[l]` in `0..stage.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
unsafe fn forward8_fma(
    stage: &[Kernel],
    idx: &[i32; 8],
    xs: &[f32; 8],
) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    let mut t = [_mm256_setzero_ps(); 8];
    for l in 0..8 {
        debug_assert!((idx[l] as usize) < stage.len(), "submodel index out of range");
        let xv = _mm256_broadcast_ss(&xs[l]);
        // SAFETY: the function's `# Safety` contract puts `idx[l]` inside `stage` and guarantees the target features `terms_fma` needs.
        t[l] = unsafe { stage.get_unchecked(idx[l] as usize).terms_fma(xv) };
    }
    // Lane l of `lo`/`hi`: the sum of key l's terms 0..4 / 4..8.
    let a = _mm256_hadd_ps(_mm256_hadd_ps(t[0], t[1]), _mm256_hadd_ps(t[2], t[3]));
    let b = _mm256_hadd_ps(_mm256_hadd_ps(t[4], t[5]), _mm256_hadd_ps(t[6], t[7]));
    let (lo, hi) = (_mm256_permute2f128_ps::<0x20>(a, b), _mm256_permute2f128_ps::<0x31>(a, b));
    // `max` returns its second operand when the first is NaN, so a lane is
    // in `[0, 1)` whatever the weights are.
    let y = _mm256_max_ps(_mm256_add_ps(lo, hi), _mm256_setzero_ps());
    _mm256_min_ps(y, _mm256_set1_ps(ONE_MINUS_EPS))
}

/// The routing step of every walk: the submodel of a `w`-wide stage that a
/// clamped output `y` selects. `y · w` lies in `[0, 2²⁴)` (`with_isa` bounds
/// the widths) or is NaN, which the cast sends to 0, so the narrow cast
/// loses nothing — and spares the two-conversion sequence a saturating
/// `f32 → usize` cast compiles to.
#[inline(always)]
fn route(y: f32, w: usize) -> usize {
    ((y * w as f32) as i32 as usize).min(w - 1)
}

/// Monomorphized staged walks: one `(predict, chunk)` pair per ISA, each
/// carrying its `#[target_feature]` so the kernels inline into the loop and
/// the per-stage ISA `match` disappears from the hot path.
///
/// The chunk walk generated here is the single-key walk run
/// **stage-synchronously** over the chunk: keys converted once, every key
/// through stage `s` with the same `$fwd` before any key starts `s + 1`
/// (the keys' chains are independent, so they overlap), then the `f64`
/// finish. AVX2+FMA takes only the single-key walk from this macro; its
/// chunk walk, [`predict_chunk_fma`], has the same shape eight keys a step.
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
                idx = route(y, m.widths[s + 1]);
            }
            // SAFETY: as above — $fwd shares this fn's feature contract.
            let y = unsafe { m.stages[nstages - 1][idx].$fwd(x) }.clamp(0.0, ONE_MINUS_EPS) as f64;
            let pred = ((y * m.n_values as f64) as usize).min(m.n_values - 1);
            (pred, m.leaf_err[idx])
        }
    };
    ($( #[$attr:meta] )* ($predict:ident, $chunk:ident, $fwd:ident)) => {
        mono_staged!(@predict $( #[$attr] )* ($predict, $fwd));
        $( #[$attr] )*
        // As in @predict: the scalar instantiation's kernel is a safe fn.
        #[allow(unused_unsafe)]
        unsafe fn $chunk(m: &CompiledRqRmi, keys: &[u64], preds: &mut [usize], errs: &mut [u32]) {
            let n = keys.len();
            let mut xs = [0.0f32; CHUNK];
            for (x, &key) in xs.iter_mut().zip(keys) {
                *x = (key as f64 * m.scale) as f32;
            }
            let mut idx = [0usize; CHUNK];
            let mut ys = [0.0f32; CHUNK];
            for (s, stage) in m.stages.iter().enumerate() {
                let w_next = m.widths.get(s + 1).copied();
                for l in 0..n {
                    // SAFETY: $fwd shares this fn's target-feature
                    // contract; the caller upheld it to call $chunk.
                    ys[l] = unsafe { stage[idx[l]].$fwd(xs[l]) }.clamp(0.0, ONE_MINUS_EPS);
                    if let Some(w) = w_next {
                        idx[l] = route(ys[l], w);
                    }
                }
            }
            for l in 0..n {
                // Final multiply in f64, matching `RqRmi::predict_x`.
                let y = ys[l] as f64;
                preds[l] = ((y * m.n_values as f64) as usize).min(m.n_values - 1);
                errs[l] = m.leaf_err[idx[l]];
            }
        }
    };
}

mono_staged!((predict_mono_scalar, predict_chunk_scalar, forward_scalar));

#[cfg(target_arch = "x86_64")]
mono_staged!(
    #[target_feature(enable = "sse2")]
    (predict_mono_sse, predict_chunk_sse, forward_sse)
);

#[cfg(target_arch = "x86_64")]
mono_staged!(
    #[target_feature(enable = "avx")]
    (predict_mono_avx, predict_chunk_avx, forward_avx)
);

#[cfg(target_arch = "x86_64")]
mono_staged!(@predict
    #[target_feature(enable = "avx2,fma")]
    (predict_mono_fma, forward_fma)
);

/// Keys per chunk walk: what [`CompiledRqRmi::predict_batch`] hands a
/// [`PredictChunkFn`] at most, and the size of a walk's on-stack state.
const CHUNK: usize = 64;

/// The AVX2+FMA chunk walk, **stage-synchronous**: the chunk's keys are
/// converted once, then every 8-key group runs stage `s` through
/// [`forward8_fma`] before any group starts stage `s + 1`, so up to eight
/// independent chains are in flight instead of one group's chain through
/// all stages. Routing is `cvttps_epi32` + `min_epi32` (lane for lane
/// [`route`]), the final index is computed in `f64` like
/// `RqRmi::predict_x` (`cvtps_pd`, `mul_pd`, `cvttpd_epi32`) and the error
/// bounds are gathered by leaf index.
///
/// # Safety
/// Requires AVX2 + FMA, and `m` built by [`CompiledRqRmi::with_isa`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn predict_chunk_fma(
    m: &CompiledRqRmi,
    keys: &[u64],
    preds: &mut [usize],
    errs: &mut [u32],
) {
    use std::arch::x86_64::*;
    // The predictions are stored as two vectors of four 64-bit lanes.
    const _: () = assert!(std::mem::size_of::<usize>() == 8);
    // nm-lint: hotpath
    let mut xs = [[0.0f32; 8]; CHUNK / 8];
    for (i, &key) in keys.iter().enumerate() {
        xs[i / 8][i % 8] = (key as f64 * m.scale) as f32;
    }
    let mut idx = [[0i32; 8]; CHUNK / 8];
    let mut ys = [_mm256_setzero_ps(); CHUNK / 8];
    for (s, stage) in m.stages.iter().enumerate() {
        let route = m
            .widths
            .get(s + 1)
            .map(|&w| (_mm256_set1_ps(w as f32), _mm256_set1_epi32(w as i32 - 1)));
        for g in 0..keys.len() / 8 {
            // SAFETY: the function's `# Safety` contract guarantees the target features. Every `idx[g][l]` addresses `stage`: it starts at 0, and each routing step clamps it into `0..widths[s + 1]` (`forward8_fma` returns lanes in `[0, 1)`, so the product is non-negative and far below `i32::MAX`), while `with_isa` asserted that stage `s` holds `widths[s]` kernels. The store covers exactly the 8-lane array.
            unsafe {
                ys[g] = forward8_fma(stage, &idx[g], &xs[g]);
                if let Some((w, last)) = route {
                    let routed = _mm256_cvttps_epi32(_mm256_mul_ps(ys[g], w));
                    let to = idx[g].as_mut_ptr() as *mut __m256i;
                    _mm256_storeu_si256(to, _mm256_min_epi32(routed, last));
                }
            }
        }
    }
    let (n, last) = (_mm256_set1_pd(m.n_values as f64), _mm_set1_epi32(m.n_values as i32 - 1));
    for (g, (preds, errs)) in preds.chunks_exact_mut(8).zip(errs.chunks_exact_mut(8)).enumerate() {
        let halves = [_mm256_castps256_ps128(ys[g]), _mm256_extractf128_ps::<1>(ys[g])];
        // SAFETY: each store covers half of, or all of, an 8-element chunk, and the load all of `idx[g]`. Every lane of `idx[g]` is by now a leaf index (see the routing step above) and `with_isa` asserted that `leaf_err` has one entry per leaf, so the gather stays inside it.
        unsafe {
            for (half, y) in halves.into_iter().enumerate() {
                let pred = _mm256_cvttpd_epi32(_mm256_mul_pd(_mm256_cvtps_pd(y), n));
                let to = preds.as_mut_ptr().add(4 * half) as *mut __m256i;
                _mm256_storeu_si256(to, _mm256_cvtepu32_epi64(_mm_min_epi32(pred, last)));
            }
            let leaf = _mm256_loadu_si256(idx[g].as_ptr() as *const __m256i);
            let err = _mm256_i32gather_epi32::<4>(m.leaf_err.as_ptr() as *const i32, leaf);
            _mm256_storeu_si256(errs.as_mut_ptr() as *mut __m256i, err);
        }
    }
    // nm-lint: end-hotpath
}

/// Signature of a monomorphized single-key staged walk.
type PredictFn = unsafe fn(&CompiledRqRmi, f32) -> (usize, u32);
/// Signature of a monomorphized chunk walk: predictions and error bounds
/// for `keys`, a multiple of 8 and at most [`CHUNK`] of them, into slices
/// of the same length.
type PredictChunkFn = unsafe fn(&CompiledRqRmi, &[u64], &mut [usize], &mut [u32]);

/// An [`super::RqRmi`] compiled for the hot path: padded kernels per stage,
/// one ISA chosen up front, the staged walk monomorphized per ISA.
#[derive(Clone, Debug)]
pub struct CompiledRqRmi {
    stages: Vec<Vec<Kernel>>,
    widths: Vec<usize>,
    leaf_err: Vec<u32>,
    n_values: usize,
    scale: f64,
    isa: Isa,
    /// Monomorphized single-key walk for `isa`; see [`mono_staged`].
    predict_fn: PredictFn,
    /// Monomorphized chunk walk for `isa`.
    predict_chunk_fn: PredictChunkFn,
}

impl CompiledRqRmi {
    /// Compiles a trained model with the best detected instruction set.
    pub fn new(model: &super::RqRmi) -> Self {
        Self::with_isa(model, detect())
    }

    /// Compiles with an explicit instruction set (Table 1 sweeps this).
    ///
    /// Panics when this CPU cannot execute `isa`.
    pub fn with_isa(model: &super::RqRmi, isa: Isa) -> Self {
        // The walks installed below are `unsafe fn`s whose one requirement
        // is their ISA; every later call relies on this check.
        assert!(isa.available(), "CompiledRqRmi: {isa:?} is not supported by this CPU");
        let stages: Vec<Vec<Kernel>> =
            model.nets.iter().map(|st| st.iter().map(Kernel::from_mlp).collect()).collect();
        // What `predict_chunk_fma`'s unchecked indexing relies on: each
        // stage as wide as `widths` says, one error bound per leaf, and
        // every index and prediction representable in an `i32` lane.
        assert!(
            stages.iter().map(Vec::len).eq(model.widths.iter().copied())
                && model.widths.last() == Some(&model.leaf_err.len())
                && model.widths.iter().all(|&w| (1..1 << 24).contains(&w))
                && i32::try_from(model.n_values).is_ok(),
            "CompiledRqRmi: inconsistent model shape"
        );
        let km = model.key_map();
        #[cfg(target_arch = "x86_64")]
        let (predict_fn, predict_chunk_fn): (PredictFn, PredictChunkFn) = match isa {
            Isa::Scalar => (predict_mono_scalar, predict_chunk_scalar),
            Isa::Sse => (predict_mono_sse, predict_chunk_sse),
            Isa::Avx => (predict_mono_avx, predict_chunk_avx),
            Isa::AvxFma => (predict_mono_fma, predict_chunk_fma),
        };
        #[cfg(not(target_arch = "x86_64"))]
        let (predict_fn, predict_chunk_fn): (PredictFn, PredictChunkFn) =
            (predict_mono_scalar, predict_chunk_scalar);
        Self {
            stages,
            widths: model.widths.clone(),
            leaf_err: model.leaf_err.clone(),
            n_values: model.n_values,
            scale: 1.0 / (km.domain_max() as f64 + 1.0),
            isa,
            predict_fn,
            predict_chunk_fn,
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
        // SAFETY: predict_fn was selected for `self.isa` at construction,
        // where `with_isa` asserted that this CPU executes it.
        unsafe { (self.predict_fn)(self, x) }
    }

    /// Batched prediction: fills `preds[i]`/`errs[i]` for `keys[i]`.
    ///
    /// Whole groups of 8 keys go through the ISA's chunk walk, at most 64
    /// keys a call (see the module docs); the tail shorter than 8 goes
    /// through the single-key walk. Every `(pred, err)` equals
    /// `predict(keys[i])` exactly, on every ISA.
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
        let whole = keys.len() / 8 * 8;
        // nm-lint: hotpath
        let chunks = keys[..whole]
            .chunks(CHUNK)
            .zip(preds[..whole].chunks_mut(CHUNK))
            .zip(errs[..whole].chunks_mut(CHUNK));
        for ((keys, preds), errs) in chunks {
            // SAFETY: as in `predict` — the fn matches `self.isa`, which
            // `with_isa` found available — and `self` comes from `with_isa`.
            unsafe { (self.predict_chunk_fn)(self, keys, preds, errs) };
        }
        for i in whole..keys.len() {
            (preds[i], errs[i]) = self.predict(keys[i]);
        }
        // nm-lint: end-hotpath
    }

    /// Kernel memory (Figure 13 accounting mirrors [`super::RqRmi::memory_bytes`]).
    pub fn memory_bytes(&self) -> usize {
        self.stages.iter().flatten().map(Kernel::memory_bytes).sum::<usize>()
            + self.leaf_err.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 300 ranges of 100 keys, 100 apart, over a 16-bit field, and their
    /// trained model.
    fn trained_300() -> (Vec<nm_common::FieldRange>, crate::rqrmi::RqRmi) {
        use crate::rqrmi::train::train_rqrmi;
        let ranges: Vec<_> =
            (0..300).map(|i| nm_common::FieldRange::new(i * 200, i * 200 + 99)).collect();
        let m = train_rqrmi(&ranges, 16, &crate::config::RqRmiParams::default()).unwrap();
        (ranges, m)
    }

    fn testable_isas() -> Vec<Isa> {
        [Isa::Scalar, Isa::Sse, Isa::Avx, Isa::AvxFma]
            .into_iter()
            .filter(|i| i.available())
            .collect()
    }

    /// One kernel's clamped output on `isa` — the per-ISA `$fwd` of the
    /// staged walks, called directly.
    fn forward_clamped(k: &Kernel, x: f32, isa: Isa) -> f32 {
        assert!(isa.available(), "{isa:?} not supported by this CPU");
        let y = match isa {
            Isa::Scalar => k.forward_scalar(x),
            // SAFETY: SSE2 is part of the x86_64 baseline target.
            #[cfg(target_arch = "x86_64")]
            Isa::Sse => unsafe { k.forward_sse(x) },
            // SAFETY: `isa.available()` was asserted above.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx => unsafe { k.forward_avx(x) },
            // SAFETY: as above — AVX2 and FMA are both reported.
            #[cfg(target_arch = "x86_64")]
            Isa::AvxFma => unsafe { k.forward_fma(x) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => k.forward_scalar(x),
        };
        y.clamp(0.0, ONE_MINUS_EPS)
    }

    #[test]
    fn kernels_match_scalar_reference() {
        for seed in 0..20u64 {
            let net = Mlp::random(8, seed);
            let k = Kernel::from_mlp(&net);
            for i in 0..200 {
                let x = i as f32 / 200.0;
                let reference = net.forward_clamped(x);
                let scalar = forward_clamped(&k, x, Isa::Scalar);
                assert!((reference - scalar).abs() <= 1e-6, "scalar kernel diverged at x={x}");
                for isa in testable_isas() {
                    let v = forward_clamped(&k, x, isa);
                    assert!(
                        (reference - v).abs() <= 1e-5,
                        "{isa:?} diverged at x={x}: {reference} vs {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn kernels_stay_within_delta_of_the_f64_evaluation() {
        // The band the correctness argument relies on (see the module
        // docs): every ISA's kernel within `analyze::eval_delta` of the
        // `f64` evaluation, for random weights of every hidden width.
        use crate::rqrmi::analyze::eval_delta;
        for seed in 0..40u64 {
            let net = Mlp::random(1 + (seed as usize % 8), seed);
            let (k, delta) = (Kernel::from_mlp(&net), eval_delta(&net));
            for i in 0..200 {
                let x = i as f32 / 200.0;
                let reference = net.forward_clamped_f64(x as f64);
                for isa in testable_isas() {
                    let y = forward_clamped(&k, x, isa);
                    assert!(
                        (reference - y as f64).abs() <= delta,
                        "{isa:?} left the ±{delta} band at x={x}: {reference} vs {y}"
                    );
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn forward8_fma_on_divergent_lanes_equals_forward_fma_within_delta() {
        // Eight keys on eight different submodels: each lane of the 8-key
        // kernel equals the single-key kernel on that lane's own submodel
        // in every bit, and sits inside that submodel's ±delta band.
        use crate::rqrmi::analyze::eval_delta;
        if !Isa::AvxFma.available() {
            return;
        }
        let nets: Vec<Mlp> = (0..32u64).map(|s| Mlp::random(1 + (s as usize % 8), s)).collect();
        let stage: Vec<Kernel> = nets.iter().map(Kernel::from_mlp).collect();
        for seed in 0..200usize {
            let idx: [i32; 8] = std::array::from_fn(|l| ((seed * 7 + l * 5) % 32) as i32);
            let xs: [f32; 8] =
                std::array::from_fn(|l| (seed as f32 * 0.037 + l as f32 * 0.113).fract());
            let mut ys = [0.0f32; 8];
            // SAFETY: AVX2+FMA checked above; every index is below 32; the
            // store covers exactly the 8-float array.
            unsafe {
                use std::arch::x86_64::_mm256_storeu_ps;
                _mm256_storeu_ps(ys.as_mut_ptr(), forward8_fma(&stage, &idx, &xs));
            }
            for l in 0..8 {
                let i = idx[l] as usize;
                assert_eq!(ys[l], forward_clamped(&stage[i], xs[l], Isa::AvxFma), "lane {l}");
                let reference = nets[i].forward_clamped_f64(xs[l] as f64);
                assert!((reference - ys[l] as f64).abs() <= eval_delta(&nets[i]), "lane {l}");
            }
        }
    }

    #[test]
    fn padding_lanes_are_inert() {
        let net = Mlp { w1: vec![1.0; 3], b1: vec![-0.1; 3], w2: vec![0.5; 3], b2: 0.2 };
        let k = Kernel::from_mlp(&net);
        for i in 0..50 {
            let x = i as f32 / 50.0;
            assert!((net.forward_clamped(x) - forward_clamped(&k, x, Isa::Scalar)).abs() < 1e-6);
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
        let (ranges, m) = trained_300();
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
        let (ranges, m) = trained_300();
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
            let y = forward_clamped(
                &reference.stages[0][0],
                (key as f64 * reference.scale) as f32,
                Isa::Scalar,
            );
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
    }

    #[test]
    fn with_isa_checks_availability_in_every_build() {
        let (ranges, m) = trained_300();
        for isa in [Isa::Scalar, Isa::Sse, Isa::Avx, Isa::AvxFma] {
            let compiled = std::panic::catch_unwind(|| CompiledRqRmi::with_isa(&m, isa));
            if isa.available() {
                let compiled = compiled.expect("an available ISA compiles");
                assert_eq!(compiled.isa(), isa);
                let (pred, err) = compiled.predict(ranges[150].lo);
                assert!(pred.abs_diff(150) <= err as usize, "{isa:?}: {pred} ± {err}");
            } else {
                let panic = compiled.expect_err("an unavailable ISA must be refused");
                let msg = panic.downcast_ref::<String>().expect("assert! message");
                assert!(msg.contains("not supported by this CPU"), "{isa:?}: {msg}");
            }
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

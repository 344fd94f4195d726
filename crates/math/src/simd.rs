//! The float reduction kernels under [`crate::vecs::l2_sq`] and
//! [`crate::vecs::dot`]: one **canonical reduction order**, computed by a
//! portable reference and by an AVX2 kernel that are `to_bits()`-equal on
//! every input.
//!
//! A float sum depends on its order, so — unlike the integer fastscan
//! kernels of `rabitq-core`, which agree across ISAs because they add the
//! same integers — these kernels agree only because every one of them
//! performs the same additions in the same order:
//!
//! 1. 32 virtual lanes, all starting at `+0.0`. Element `i` of each whole
//!    32-block adds its term (`(a−b)²` or `a·b`) to lane `i`. In the AVX2
//!    kernel the lanes are four 8-lane accumulators.
//! 2. Each whole 8-chunk of what is left adds to lanes `0..8`.
//! 3. The lanes fold by a fixed tree: `(l[i] + l[8+i]) + (l[16+i] + l[24+i])`
//!    leaves 8, then `v[i] + v[i+4]` leaves 4, `w[i] + w[i+2]` leaves 2,
//!    and `x[0] + x[1]` is the sum.
//! 4. The last `< 8` elements add to that sum one by one, in order.
//!
//! Multiply and add stay separate instructions — no FMA — so a host
//! without FMA rounds exactly as one with it.
//!
//! The kernel is chosen once per process ([`active_kernel`]): AVX2 when the
//! CPU has it, else the portable form; `RABITQ_FORCE_KERNEL=scalar` (the
//! variable that pins the fastscan kernels) pins the portable form. There
//! is no 512-bit kernel, for the reason the fastscan dispatch prefers AVX2
//! (downclocking loses end to end), and no hand-written NEON one yet:
//! aarch64 takes the portable form, which autovectorises.
//!
//! All `unsafe` of the float kernels lives in this module.

use std::sync::OnceLock;

/// A float-reduction kernel the running CPU can execute.
///
/// The field is private and every constructor checks the CPU, so holding a
/// `Kernel` is the proof [`l2_sq`] and [`dot`] need to run it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Kernel(Isa);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Isa {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Kernel {
    /// The portable reference; runs everywhere and defines the result.
    pub const PORTABLE: Kernel = Kernel(Isa::Portable);

    /// `"portable"` or `"avx2"`.
    pub fn name(self) -> &'static str {
        match self.0 {
            Isa::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => "avx2",
        }
    }
}

/// Every kernel compiled into this binary that this CPU can run; the
/// portable reference is first.
pub fn supported_kernels() -> Vec<Kernel> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return vec![Kernel::PORTABLE, Kernel(Isa::Avx2)];
    }
    vec![Kernel::PORTABLE]
}

/// The process-wide kernel, resolved once on first use: the portable
/// reference under `RABITQ_FORCE_KERNEL=scalar`, else the last of
/// [`supported_kernels`]. Any other value of the variable names a fastscan
/// kernel (validated by `rabitq_core::fastscan`) and leaves this choice
/// automatic.
#[inline]
pub fn active_kernel() -> Kernel {
    static ACTIVE: OnceLock<Kernel> = OnceLock::new();
    *ACTIVE.get_or_init(|| match std::env::var("RABITQ_FORCE_KERNEL") {
        Ok(name) if name.trim() == "scalar" => Kernel::PORTABLE,
        _ => supported_kernels().pop().unwrap_or(Kernel::PORTABLE),
    })
}

/// `‖a − b‖²` by `kernel`, in the canonical order.
///
/// # Panics
/// If the lengths differ.
pub fn l2_sq(kernel: Kernel, a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "l2_sq: vector lengths differ");
    match kernel.0 {
        Isa::Portable => portable(a, b, squared_diff),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an `Isa::Avx2` value is only built by `supported_kernels`,
        // after `is_x86_feature_detected!("avx2")`.
        Isa::Avx2 => unsafe { avx2::l2_sq(a, b) },
    }
}

/// `⟨a, b⟩` by `kernel`, in the canonical order.
///
/// # Panics
/// If the lengths differ, as [`l2_sq`].
pub fn dot(kernel: Kernel, a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot: vector lengths differ");
    match kernel.0 {
        Isa::Portable => portable(a, b, |x, y| x * y),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `l2_sq`, AVX2 was detected when the value was built.
        Isa::Avx2 => unsafe { avx2::dot(a, b) },
    }
}

/// One term of `l2_sq`; shared so both kernels round it the same way.
#[inline(always)]
fn squared_diff(x: f32, y: f32) -> f32 {
    let d = x - y;
    d * d
}

/// The reference: `Σ term(a[i], b[i])` in the canonical order, written over
/// `[f32; 32]` so the compiler can keep the lanes in vector registers.
#[inline(always)]
fn portable(a: &[f32], b: &[f32], term: impl Fn(f32, f32) -> f32) -> f32 {
    let mut lanes = [0.0f32; 32];
    let (blocks_a, rest_a) = a.as_chunks::<32>();
    let (blocks_b, rest_b) = b.as_chunks::<32>();
    for (xa, xb) in blocks_a.iter().zip(blocks_b) {
        for ((lane, &x), &y) in lanes.iter_mut().zip(xa).zip(xb) {
            *lane += term(x, y);
        }
    }
    let (chunks_a, tail_a) = rest_a.as_chunks::<8>();
    let (chunks_b, tail_b) = rest_b.as_chunks::<8>();
    for (xa, xb) in chunks_a.iter().zip(chunks_b) {
        for ((lane, &x), &y) in lanes.iter_mut().zip(xa).zip(xb) {
            *lane += term(x, y);
        }
    }
    let mut sum = fold(&lanes);
    for (&x, &y) in tail_a.iter().zip(tail_b) {
        sum += term(x, y);
    }
    sum
}

/// The fixed tree of the module comment, 32 lanes to one.
///
/// Not inlined on purpose: with the 2-wide end of this tree in the same
/// function, LLVM's SLP vectoriser seeds on it and packs the whole
/// accumulation loop into 2-lane halves (8-byte loads, 4.2 against 6.8
/// elements/ns on the SSE2 baseline). Behind a call the lanes are stored,
/// and the loop vectorises at the full register width.
#[inline(never)]
fn fold(lanes: &[f32; 32]) -> f32 {
    let v: [f32; 8] =
        std::array::from_fn(|i| (lanes[i] + lanes[8 + i]) + (lanes[16 + i] + lanes[24 + i]));
    let w: [f32; 4] = std::array::from_fn(|i| v[i] + v[i + 4]);
    let x = [w[0] + w[2], w[1] + w[3]];
    x[0] + x[1]
}

/// The same order in 256-bit registers: lanes `8j..8j + 8` of the reference
/// are accumulator `j`.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// `‖a − b‖²`; the caller has checked the lengths are equal.
    #[target_feature(enable = "avx2")]
    pub(super) fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
        let squared_diff8 = |x, y| {
            let d = _mm256_sub_ps(x, y);
            _mm256_mul_ps(d, d)
        };
        reduce(a, b, squared_diff8, super::squared_diff)
    }

    /// `⟨a, b⟩`; the caller has checked the lengths are equal.
    #[target_feature(enable = "avx2")]
    pub(super) fn dot(a: &[f32], b: &[f32]) -> f32 {
        reduce(a, b, |x, y| _mm256_mul_ps(x, y), |x, y| x * y)
    }

    /// `term8` maps 8 pairs of inputs to their 8 terms, `term` one pair.
    /// Every load is of one `[f32; 8]`, so a length mismatch the caller
    /// missed would shorten the sum, not read out of bounds.
    #[target_feature(enable = "avx2")]
    fn reduce(
        a: &[f32],
        b: &[f32],
        term8: impl Fn(__m256, __m256) -> __m256,
        term: impl Fn(f32, f32) -> f32,
    ) -> f32 {
        let mut acc = [_mm256_setzero_ps(); 4];
        let (blocks_a, rest_a) = a.as_chunks::<32>();
        let (blocks_b, rest_b) = b.as_chunks::<32>();
        for (xa, xb) in blocks_a.iter().zip(blocks_b) {
            let (xa, xb) = (xa.as_chunks::<8>().0, xb.as_chunks::<8>().0);
            for ((acc, xa), xb) in acc.iter_mut().zip(xa).zip(xb) {
                *acc = _mm256_add_ps(*acc, term8(load8(xa), load8(xb)));
            }
        }
        let (chunks_a, tail_a) = rest_a.as_chunks::<8>();
        let (chunks_b, tail_b) = rest_b.as_chunks::<8>();
        for (xa, xb) in chunks_a.iter().zip(chunks_b) {
            acc[0] = _mm256_add_ps(acc[0], term8(load8(xa), load8(xb)));
        }
        let v = _mm256_add_ps(_mm256_add_ps(acc[0], acc[1]), _mm256_add_ps(acc[2], acc[3]));
        // w[i] = v[i] + v[i + 4], x[i] = w[i] + w[i + 2], sum = x[0] + x[1].
        let w = _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
        let x = _mm_add_ps(w, _mm_movehl_ps(w, w));
        let mut sum = _mm_cvtss_f32(_mm_add_ss(x, _mm_shuffle_ps(x, x, 0b01)));
        for (&x, &y) in tail_a.iter().zip(tail_b) {
            sum += term(x, y);
        }
        sum
    }

    #[target_feature(enable = "avx2")]
    fn load8(chunk: &[f32; 8]) -> __m256 {
        // SAFETY: `chunk` is 8 readable `f32`s, exactly what the load
        // reads, and `loadu` has no alignment requirement.
        unsafe { _mm256_loadu_ps(chunk.as_ptr()) }
    }
}

//! Every SIMD kernel of the workspace, under one dispatch: the float
//! reductions under [`crate::vecs::l2_sq`] and [`crate::vecs::dot`], the
//! coarse-probe screen's 7-bit integer kernels, and the fast-scan nibble
//! scan of `rabitq-core` and the PQ baseline. Each has a portable
//! reference and SIMD forms that write the same bits on every input.
//!
//! A float sum depends on its order, so the float kernels agree only
//! because every one of them performs the same additions in the same
//! order:
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
//! The integer kernels agree whatever order they add in, because they sum
//! integers. [`quantise_u7`] maps floats to 7-bit codes with one `f32`
//! operation per step, in a fixed order; [`l2_sq_u7`] takes the squared
//! distance from one code vector to each row of a block (both screen the
//! coarse probe in `rabitq_kmeans`). [`scan_nibbles`] is the fast scan of
//! the paper's batch estimator (Section 3.3.2): a byte shuffle gathers
//! 16-entry `u8` tables for 32 codes at once. Its SIMD forms sum in `u16`,
//! so it runs them over at most 256 segments per pass and adds the passes
//! in `u32`; no LUT can wrap a sum.
//!
//! The kernel is chosen once per process ([`active_kernel`]): AVX2 on an
//! x86-64 CPU that has it, NEON on aarch64, else the portable form.
//! `RABITQ_FORCE_KERNEL=scalar` pins the portable form, and is the only
//! value the variable takes. NEON has only the nibble scan; the float
//! and screen kernels run portable under it, and autovectorise. There is
//! no 512-bit kernel: on the measured hosts each 512-bit burst
//! downclocked the surrounding scalar work, and AVX2 won end to end.
//!
//! Every `unsafe` of the workspace's SIMD code lives in this module.

use std::sync::OnceLock;

/// A kernel the running CPU can execute.
///
/// The field is private and every constructor checks the CPU, so holding a
/// `Kernel` is the proof [`l2_sq`], [`dot`], [`l2_sq_u7`], [`quantise_u7`]
/// and [`scan_nibbles`] need to run it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Kernel(Isa);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Isa {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "aarch64")]
    Neon,
}

impl Kernel {
    /// The portable reference; runs everywhere and defines the result.
    pub const SCALAR: Kernel = Kernel(Isa::Scalar);

    /// `"scalar"`, `"avx2"` or `"neon"`.
    pub fn name(self) -> &'static str {
        match self.0 {
            Isa::Scalar => "scalar",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => "avx2",
            #[cfg(target_arch = "aarch64")]
            Isa::Neon => "neon",
        }
    }
}

/// Every kernel compiled into this binary that this CPU can run; the
/// portable reference is first.
pub fn supported_kernels() -> Vec<Kernel> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return vec![Kernel::SCALAR, Kernel(Isa::Avx2)];
    }
    #[cfg(target_arch = "aarch64")]
    if std::arch::is_aarch64_feature_detected!("neon") {
        return vec![Kernel::SCALAR, Kernel(Isa::Neon)];
    }
    vec![Kernel::SCALAR]
}

/// The process-wide kernel, resolved once on first use: the portable
/// reference under `RABITQ_FORCE_KERNEL=scalar`, else the last of
/// [`supported_kernels`].
///
/// # Panics
/// If `RABITQ_FORCE_KERNEL` holds any other value: a pin that silently
/// fell back would defeat the forced test pass it exists for.
#[inline]
pub fn active_kernel() -> Kernel {
    static ACTIVE: OnceLock<Kernel> = OnceLock::new();
    *ACTIVE.get_or_init(|| match std::env::var_os("RABITQ_FORCE_KERNEL") {
        None => supported_kernels().pop().unwrap_or(Kernel::SCALAR),
        Some(name) if name.to_str().map(str::trim) == Some("scalar") => Kernel::SCALAR,
        Some(name) => panic!("RABITQ_FORCE_KERNEL={name:?}: the only accepted value is `scalar`"),
    })
}

/// `‖a − b‖²` by `kernel`, in the canonical order.
///
/// # Panics
/// If the lengths differ.
pub fn l2_sq(kernel: Kernel, a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "l2_sq: vector lengths differ");
    match kernel.0 {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an `Isa::Avx2` value is only built by `supported_kernels`,
        // after `is_x86_feature_detected!("avx2")`.
        Isa::Avx2 => unsafe { avx2::l2_sq(a, b) },
        _ => portable(a, b, squared_diff),
    }
}

/// `⟨a, b⟩` by `kernel`, in the canonical order.
///
/// # Panics
/// If the lengths differ, as [`l2_sq`].
pub fn dot(kernel: Kernel, a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot: vector lengths differ");
    match kernel.0 {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `l2_sq`, AVX2 was detected when the value was built.
        Isa::Avx2 => unsafe { avx2::dot(a, b) },
        _ => portable(a, b, |x, y| x * y),
    }
}

/// `sums[r] = Σ (a[i] − rows[r·len + i])²` over 7-bit codes by `kernel`,
/// for every row of the flat `sums.len() × len` buffer `rows`, where
/// `len = a.len()`. One call takes a block of rows, so the per-call cost is
/// paid once per block, not once per row. Every byte must be at most 127;
/// the sum of larger bytes is unspecified (but memory-safe). A sum wraps
/// modulo 2³², which it cannot do below 266 305 elements. Every kernel
/// writes the same sums on every 7-bit input.
///
/// # Panics
/// If `rows.len()` is not `sums.len() · a.len()`.
#[inline]
pub fn l2_sq_u7(kernel: Kernel, a: &[u8], rows: &[u8], sums: &mut [u32]) {
    assert_eq!(
        rows.len(),
        sums.len() * a.len(),
        "l2_sq_u7: rows are not sums.len() × a.len() bytes"
    );
    if a.is_empty() {
        sums.fill(0);
        return;
    }
    match kernel.0 {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `l2_sq`, AVX2 was detected when the value was built.
        Isa::Avx2 => unsafe { avx2::l2_sq_u7(a, rows, sums) },
        _ => {
            for (sum, b) in sums.iter_mut().zip(rows.chunks_exact(a.len())) {
                *sum = a
                    .iter()
                    .zip(b)
                    .map(|(&x, &y)| squared_diff_u7(x, y))
                    .fold(0u32, u32::wrapping_add);
            }
        }
    }
}

/// Quantises `x` onto the 7-bit grid `lo + code / inv_step` by `kernel`:
/// `code[i]` is `t = (x[i] − lo)·inv_step + 0.5`, raised to 0 (a NaN
/// too), lowered to 127 and truncated. Each step is one `f32` operation
/// in that order, so every kernel writes the same codes; no libm call.
///
/// # Panics
/// If the lengths differ.
#[inline]
pub fn quantise_u7(kernel: Kernel, x: &[f32], lo: f32, inv_step: f32, code: &mut [u8]) {
    assert_eq!(x.len(), code.len(), "quantise_u7: vector lengths differ");
    match kernel.0 {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `l2_sq`, AVX2 was detected when the value was built.
        Isa::Avx2 => unsafe { avx2::quantise_u7(x, lo, inv_step, code) },
        _ => {
            for (q, &v) in code.iter_mut().zip(x) {
                *q = quantise_one(v, lo, inv_step);
            }
        }
    }
}

/// Codes in one packed fast-scan block.
pub const NIBBLE_BLOCK: usize = 32;

/// Segments one SIMD pass of [`scan_nibbles`] sums in `u16`:
/// `256 · 255 = 65 280` fits, whatever the table entries.
const NIBBLE_PASS: usize = 256;

/// The fast scan of one packed block of 32 codes by `kernel`:
/// `out[j] = Σ_s lut[16s + c_j(s)]`, where `c_j(s)` is code `j`'s 4-bit
/// value at segment `s`.
///
/// Both slices hold 16 bytes per segment. In `block`, byte `i` of segment
/// `s` packs `c_i(s)` in its low nibble and `c_{16+i}(s)` in its high one;
/// in `lut`, the 16 bytes of segment `s` are its table. Every kernel
/// writes the same sums for every input, at every segment count.
///
/// # Panics
/// If the slices differ in length or are not whole segments.
#[inline]
pub fn scan_nibbles(kernel: Kernel, block: &[u8], lut: &[u8], out: &mut [u32; NIBBLE_BLOCK]) {
    assert!(
        block.len() == lut.len() && lut.len().is_multiple_of(16),
        "scan_nibbles: block and LUT are not the same whole segments"
    );
    match kernel.0 {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `l2_sq`, AVX2 was detected when the value was built.
        Isa::Avx2 => in_passes(block, lut, out, |b, l, o| unsafe {
            avx2::scan_nibbles(b, l, o)
        }),
        #[cfg(target_arch = "aarch64")]
        // SAFETY: an `Isa::Neon` value is only built by `supported_kernels`,
        // after `is_aarch64_feature_detected!("neon")`.
        Isa::Neon => in_passes(block, lut, out, |b, l, o| unsafe {
            neon::scan_nibbles(b, l, o)
        }),
        Isa::Scalar => {
            out.fill(0);
            add_nibbles(block, lut, out);
        }
    }
}

/// Runs `pass` over runs of at most [`NIBBLE_PASS`] segments and sums the
/// runs into `out`: one call when the block fits one pass.
#[inline(always)]
fn in_passes(
    block: &[u8],
    lut: &[u8],
    out: &mut [u32; NIBBLE_BLOCK],
    pass: impl Fn(&[u8], &[u8], &mut [u32; NIBBLE_BLOCK]),
) {
    const BYTES: usize = NIBBLE_PASS * 16;
    if lut.len() <= BYTES {
        return pass(block, lut, out);
    }
    out.fill(0);
    let mut part = [0u32; NIBBLE_BLOCK];
    for (b, l) in block.chunks(BYTES).zip(lut.chunks(BYTES)) {
        pass(b, l, &mut part);
        for (o, p) in out.iter_mut().zip(part) {
            *o += p;
        }
    }
}

/// Adds every segment's table entries into `out`, one code at a time.
#[inline]
fn add_nibbles(block: &[u8], lut: &[u8], out: &mut [u32; NIBBLE_BLOCK]) {
    for (codes, table) in block
        .as_chunks::<16>()
        .0
        .iter()
        .zip(lut.as_chunks::<16>().0)
    {
        for (j, &byte) in codes.iter().enumerate() {
            out[j] += table[(byte & 0x0F) as usize] as u32;
            out[j + 16] += table[(byte >> 4) as usize] as u32;
        }
    }
}

/// One term of `l2_sq_u7`.
#[inline(always)]
fn squared_diff_u7(x: u8, y: u8) -> u32 {
    let d = x.abs_diff(y) as u32;
    d * d
}

/// One code of `quantise_u7`. The two clamps select as `maxps` and
/// `minps` do, so the AVX2 kernel clamps (and sends NaN to 0) the same
/// way.
#[inline(always)]
fn quantise_one(v: f32, lo: f32, inv_step: f32) -> u8 {
    let t = (v - lo) * inv_step + 0.5;
    let t = if t > 0.0 { t } else { 0.0 };
    let t = if t < 127.0 { t } else { 127.0 };
    t as u8
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

/// The AVX2 kernels. The float reductions keep the reference's order in
/// 256-bit registers: lanes `8j..8j + 8` of the reference are accumulator
/// `j`.
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

    /// The sums of `super::l2_sq_u7`; the caller has checked the shapes
    /// and that `a` is not empty. `|a − b| ≤ 127` fits the signed operand
    /// of `maddubs`, whose pair sums (≤ 2·127²) fit an `i16`.
    #[target_feature(enable = "avx2")]
    pub(super) fn l2_sq_u7(a: &[u8], rows: &[u8], sums: &mut [u32]) {
        let ones = _mm256_set1_epi16(1);
        let squares = |x, y| {
            let d = _mm256_or_si256(_mm256_subs_epu8(x, y), _mm256_subs_epu8(y, x));
            _mm256_madd_epi16(_mm256_maddubs_epi16(d, d), ones)
        };
        let (blocks_a, rest_a) = a.as_chunks::<64>();
        let (chunks_a, tail_a) = rest_a.as_chunks::<32>();
        for (sum, b) in sums.iter_mut().zip(rows.chunks_exact(a.len())) {
            // Two accumulators over 64-byte blocks, then one 32-byte block.
            let mut acc = [_mm256_setzero_si256(); 2];
            let (blocks_b, rest_b) = b.as_chunks::<64>();
            for (xa, xb) in blocks_a.iter().zip(blocks_b) {
                let (xa, xb) = (xa.as_chunks::<32>().0, xb.as_chunks::<32>().0);
                for ((acc, xa), xb) in acc.iter_mut().zip(xa).zip(xb) {
                    *acc = _mm256_add_epi32(*acc, squares(load32(xa), load32(xb)));
                }
            }
            let (chunks_b, tail_b) = rest_b.as_chunks::<32>();
            for (xa, xb) in chunks_a.iter().zip(chunks_b) {
                acc[0] = _mm256_add_epi32(acc[0], squares(load32(xa), load32(xb)));
            }
            let v = _mm256_add_epi32(acc[0], acc[1]);
            let w = _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
            let x = _mm_add_epi32(w, _mm_shuffle_epi32(w, 0b01_00_11_10));
            let x = _mm_add_epi32(x, _mm_shuffle_epi32(x, 0b10_11_00_01));
            *sum = tail_a
                .iter()
                .zip(tail_b)
                .map(|(&x, &y)| super::squared_diff_u7(x, y))
                .fold(_mm_cvtsi128_si32(x) as u32, u32::wrapping_add);
        }
    }

    /// The codes of `super::quantise_u7`, 32 at a time; the caller has
    /// checked the lengths are equal. `max_ps(t, 0)` returns 0 for a NaN
    /// `t`, as the reference's `t > 0.0` test does.
    #[target_feature(enable = "avx2")]
    pub(super) fn quantise_u7(x: &[f32], lo: f32, inv_step: f32, code: &mut [u8]) {
        let (lo8, inv8) = (_mm256_set1_ps(lo), _mm256_set1_ps(inv_step));
        let (half, zero, top) = (
            _mm256_set1_ps(0.5),
            _mm256_setzero_ps(),
            _mm256_set1_ps(127.0),
        );
        // `packs` / `packus` interleave the 128-bit lanes; this puts the
        // four groups of eight codes back in order.
        let order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
        let (blocks_x, tail_x) = x.as_chunks::<32>();
        let (blocks_q, tail_q) = code.as_chunks_mut::<32>();
        for (bx, bq) in blocks_x.iter().zip(blocks_q) {
            let q: [__m256i; 4] = std::array::from_fn(|j| {
                let v = load8(bx[8 * j..8 * j + 8].try_into().unwrap());
                let t = _mm256_add_ps(_mm256_mul_ps(_mm256_sub_ps(v, lo8), inv8), half);
                _mm256_cvttps_epi32(_mm256_min_ps(_mm256_max_ps(t, zero), top))
            });
            let bytes = _mm256_packus_epi16(
                _mm256_packs_epi32(q[0], q[1]),
                _mm256_packs_epi32(q[2], q[3]),
            );
            let bytes = _mm256_permutevar8x32_epi32(bytes, order);
            // SAFETY: `bq` is 32 writable bytes, exactly what the store
            // writes, and `storeu` has no alignment requirement.
            unsafe { _mm256_storeu_si256(bq.as_mut_ptr().cast(), bytes) };
        }
        for (q, &v) in tail_q.iter_mut().zip(tail_x) {
            *q = super::quantise_one(v, lo, inv_step);
        }
    }

    /// The sums of `super::scan_nibbles`, two segments per step; the
    /// caller has checked the shapes and keeps a block to 256 segments.
    /// A 32-byte load covers segments `2p` and `2p + 1`, one per 128-bit
    /// lane, and `shuffle_epi8` gathers both tables lane-wise. The bytes
    /// widen into four `u16 × 16` accumulators (codes 0–7, 8–15, 16–23,
    /// 24–31; even segments in lane 0, odd in lane 1), whose lanes add at
    /// the end. No partial can wrap: a whole sum is at most 256 · 255.
    #[target_feature(enable = "avx2")]
    pub(super) fn scan_nibbles(block: &[u8], lut: &[u8], out: &mut [u32; 32]) {
        let low_mask = _mm256_set1_epi8(0x0F);
        let zero = _mm256_setzero_si256();
        let mut acc = [zero; 4];
        let (pairs_b, tail_b) = block.as_chunks::<32>();
        let (pairs_l, tail_l) = lut.as_chunks::<32>();
        for (codes, table) in pairs_b.iter().zip(pairs_l) {
            let (codes, table) = (load32(codes), load32(table));
            let lo = _mm256_shuffle_epi8(table, _mm256_and_si256(codes, low_mask));
            let hi = _mm256_shuffle_epi8(
                table,
                _mm256_and_si256(_mm256_srli_epi16(codes, 4), low_mask),
            );
            acc[0] = _mm256_add_epi16(acc[0], _mm256_unpacklo_epi8(lo, zero));
            acc[1] = _mm256_add_epi16(acc[1], _mm256_unpackhi_epi8(lo, zero));
            acc[2] = _mm256_add_epi16(acc[2], _mm256_unpacklo_epi8(hi, zero));
            acc[3] = _mm256_add_epi16(acc[3], _mm256_unpackhi_epi8(hi, zero));
        }
        for (eight, acc) in out.as_chunks_mut::<8>().0.iter_mut().zip(acc) {
            let sum = _mm_add_epi16(
                _mm256_castsi256_si128(acc),
                _mm256_extracti128_si256(acc, 1),
            );
            // SAFETY: `eight` is 8 writable `u32`s, exactly what the store
            // writes, and `storeu` has no alignment requirement.
            unsafe { _mm256_storeu_si256(eight.as_mut_ptr().cast(), _mm256_cvtepu16_epi32(sum)) };
        }
        // An odd segment count leaves one segment.
        if !tail_b.is_empty() {
            super::add_nibbles(tail_b, tail_l, out);
        }
    }

    #[target_feature(enable = "avx2")]
    fn load32(chunk: &[u8; 32]) -> __m256i {
        // SAFETY: `chunk` is 32 readable bytes, exactly what the load
        // reads, and `loadu` has no alignment requirement.
        unsafe { _mm256_loadu_si256(chunk.as_ptr().cast()) }
    }

    #[target_feature(enable = "avx2")]
    fn load8(chunk: &[f32; 8]) -> __m256 {
        // SAFETY: `chunk` is 8 readable `f32`s, exactly what the load
        // reads, and `loadu` has no alignment requirement.
        unsafe { _mm256_loadu_ps(chunk.as_ptr()) }
    }
}

/// The nibble scan on aarch64; the other kernels run portable there.
#[cfg(target_arch = "aarch64")]
mod neon {
    use std::arch::aarch64::*;

    /// The sums of `super::scan_nibbles`, one segment per step; the caller
    /// has checked the shapes and keeps a block to 256 segments. Two
    /// `vqtbl1q_u8` lookups gather the low and high nibbles' entries
    /// (codes 0–15 and 16–31), and widening adds sum them into four
    /// `u16 × 8` accumulators, which cannot wrap below 257 segments.
    #[target_feature(enable = "neon")]
    pub(super) fn scan_nibbles(block: &[u8], lut: &[u8], out: &mut [u32; 32]) {
        let low_mask = vdupq_n_u8(0x0F);
        let mut acc = [vdupq_n_u16(0); 4];
        for (codes, table) in block
            .as_chunks::<16>()
            .0
            .iter()
            .zip(lut.as_chunks::<16>().0)
        {
            // SAFETY: each is 16 readable bytes, exactly what `vld1q_u8`
            // reads, and the load has no alignment requirement.
            let (codes, table) = unsafe { (vld1q_u8(codes.as_ptr()), vld1q_u8(table.as_ptr())) };
            let lo = vqtbl1q_u8(table, vandq_u8(codes, low_mask));
            let hi = vqtbl1q_u8(table, vshrq_n_u8::<4>(codes));
            acc[0] = vaddw_u8(acc[0], vget_low_u8(lo));
            acc[1] = vaddw_high_u8(acc[1], lo);
            acc[2] = vaddw_u8(acc[2], vget_low_u8(hi));
            acc[3] = vaddw_high_u8(acc[3], hi);
        }
        for (eight, acc) in out.as_chunks_mut::<8>().0.iter_mut().zip(acc) {
            let (low, high) = eight.split_at_mut(4);
            // SAFETY: `low` and `high` are 4 writable `u32`s each, exactly
            // what each `vst1q_u32` writes.
            unsafe {
                vst1q_u32(low.as_mut_ptr(), vmovl_u16(vget_low_u16(acc)));
                vst1q_u32(high.as_mut_ptr(), vmovl_high_u16(acc));
            }
        }
    }
}

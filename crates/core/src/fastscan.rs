//! Fast-scan batch kernel (Section 3.3.2, "implementation (batch)").
//!
//! RaBitQ reduces `⟨x̄_b, q̄_u⟩` to exactly the computation shape of PQ fast
//! scan (André et al., VLDB'15): split the `B`-bit code into `B/4` 4-bit
//! segments, precompute a 16-entry look-up table per segment (the inner
//! products between a 4-bit pattern and the corresponding 4 quantized query
//! entries), pack 32 codes into a register-transposed layout, and gather
//! LUT entries with byte shuffles.
//!
//! Unlike PQ — whose LUTs hold *quantized floats* and therefore lose
//! accuracy in the u8 conversion — RaBitQ's LUT entries are small exact
//! integers (≤ 4·(2^B_q − 1) = 60 for the default B_q = 4), so every batch
//! kernel returns **bit-identical** results to the single-code bitwise
//! kernel. That exactness is asserted by differential tests here and in the
//! integration suite, and it is what makes multiple ISA back ends safe: the
//! kernels sum the same integers, so there is no per-ISA drift to manage.
//!
//! Four kernels share one packed layout, selected once per process by a
//! cached dispatch (see [`raw::active_kernel`]):
//! * a portable scalar kernel (always available, the reference);
//! * an AVX2 kernel (`_mm256_shuffle_epi8`, two segments per iteration);
//! * an AVX-512BW kernel (`_mm512_shuffle_epi8`, four segments per
//!   iteration);
//! * a NEON kernel (`vqtbl1q_u8`) for aarch64 hosts.
//!
//! The environment variable `RABITQ_FORCE_KERNEL=scalar|avx2|avx512|neon`
//! overrides the automatic choice (differential tests and benches use it);
//! forcing a kernel the host cannot run panics at first use. `scalar` also
//! pins the float `l2_sq` / `dot` kernels of `rabitq_math::simd` to their
//! portable reference.

use crate::code::CodeSet;
use crate::query::QuantizedQuery;

pub use raw::Kernel;

/// Number of codes per packed block.
pub const BLOCK: usize = 32;

/// Maximum value of a RaBitQ `u8` LUT entry: `4·(2^B_q − 1)` with
/// `B_q ≤ 4`. The kernels' u16 accumulator overflow guard multiplies this
/// by the segment count.
pub const MAX_U8_LUT_ENTRY: u32 = 60;

/// Codes re-laid-out for the fast-scan kernel.
///
/// Block `b` stores, for each 4-bit segment `s`, 16 bytes where byte `j`
/// packs the segment nibble of code `32b + j` (low half) and of code
/// `32b + 16 + j` (high half). A block therefore occupies `16 · B/4 = 4B`
/// bytes — exactly the same space as the unpacked codes.
#[derive(Clone, Debug)]
pub struct PackedCodes {
    padded_dim: usize,
    n: usize,
    segments: usize,
    blocks: Vec<u8>,
}

impl PackedCodes {
    /// Packs every code of `set` into the transposed block layout. The last
    /// block is padded with all-zero codes (whose inner product is 0).
    pub fn pack(set: &CodeSet) -> Self {
        let padded_dim = set.padded_dim();
        assert!(
            padded_dim.is_multiple_of(4),
            "code length must be a multiple of 4"
        );
        let segments = padded_dim / 4;
        let n = set.len();
        // A nibble never straddles a u64 boundary because 4 | 64.
        let blocks = raw::pack_nibbles(n, segments, |i, s| {
            let bit = s * 4;
            ((set.code_bits(i)[bit / 64] >> (bit % 64)) & 0xF) as u8
        });
        Self {
            padded_dim,
            n,
            segments,
            blocks,
        }
    }

    /// Number of codes packed (excluding padding).
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the pack is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Code length in bits.
    #[inline]
    pub fn padded_dim(&self) -> usize {
        self.padded_dim
    }

    /// Number of packed 32-code blocks.
    #[inline]
    pub fn n_blocks(&self) -> usize {
        if self.segments == 0 {
            0
        } else {
            self.blocks.len() / (self.segments * 16)
        }
    }

    /// Binds `lut` to this layout and resolves the scan kernel **once**,
    /// returning a scanner whose per-block calls go straight through a
    /// function pointer — the block loop pays no repeated feature
    /// detection or LUT-width branching.
    pub fn scanner<'a>(&'a self, lut: &'a Lut) -> BlockScanner<'a> {
        assert_eq!(lut.segments, self.segments, "LUT built for another layout");
        let kind = match &lut.data {
            LutData::U8(entries) => {
                // The rebuild invariant: LUT storage is exactly one 16-entry
                // table per segment. Kernels trust slice lengths, so an
                // oversized buffer carried over from a larger-dim query
                // would silently read stale tail tables.
                assert_eq!(
                    entries.len(),
                    self.segments * 16,
                    "LUT storage out of sync with its segment count"
                );
                let (kernel, f) = raw::select_scan_u8_tagged(self.segments, MAX_U8_LUT_ENTRY);
                ScanKind::U8 { kernel, f, entries }
            }
            LutData::U16(entries) => {
                assert_eq!(
                    entries.len(),
                    self.segments * 16,
                    "LUT storage out of sync with its segment count"
                );
                ScanKind::U16 { entries }
            }
        };
        BlockScanner { packed: self, kind }
    }

    /// Computes `⟨x̄_b, q̄_u⟩` for the 32 codes of block `b` into `out`.
    /// Entries past `len() − 32b` correspond to padding codes and are 0.
    ///
    /// One-shot convenience; loops should hoist [`PackedCodes::scanner`].
    pub fn scan_block(&self, b: usize, lut: &Lut, out: &mut [u32; BLOCK]) {
        self.scanner(lut).scan_block(b, out);
    }

    /// Computes `⟨x̄_b, q̄_u⟩` for every code into `out` (resized to `len()`).
    pub fn scan_all(&self, lut: &Lut, out: &mut Vec<u32>) {
        // Single resize, then overwrite: a reused `out` at steady state is
        // already the right length, so no element is touched twice (the
        // old clear()+resize() re-zeroed the whole buffer first).
        out.resize(self.n, 0);
        if self.n == 0 {
            return;
        }
        let scanner = self.scanner(lut);
        let mut buf = [0u32; BLOCK];
        for b in 0..self.n_blocks() {
            scanner.scan_block(b, &mut buf);
            let start = b * BLOCK;
            let take = BLOCK.min(self.n - start);
            out[start..start + take].copy_from_slice(&buf[..take]);
        }
    }
}

/// A [`PackedCodes`] + [`Lut`] pair with the kernel resolved up front.
/// Created by [`PackedCodes::scanner`]; lives for one scan pass.
pub struct BlockScanner<'a> {
    packed: &'a PackedCodes,
    kind: ScanKind<'a>,
}

enum ScanKind<'a> {
    U8 {
        kernel: Kernel,
        f: raw::ScanU8Fn,
        entries: &'a [u8],
    },
    /// `B_q > 4` LUT entries exceed `u8`; the scalar u16 kernel runs (this
    /// path is off the paper's recommended operating point).
    U16 { entries: &'a [u16] },
}

impl BlockScanner<'_> {
    /// [`PackedCodes::scan_block`] through the pre-resolved kernel.
    #[inline]
    pub fn scan_block(&self, b: usize, out: &mut [u32; BLOCK]) {
        let segments = self.packed.segments;
        let base = b * segments * 16;
        let block = &self.packed.blocks[base..base + segments * 16];
        match &self.kind {
            // SAFETY: `f` came from `select_scan_u8`, which only hands out
            // pointers to kernels the running CPU supports and applies the
            // u16 accumulator overflow guard.
            ScanKind::U8 { f, entries, .. } => unsafe { f(block, entries, segments, out) },
            ScanKind::U16 { entries } => raw::scan_u16(block, entries, segments, out),
        }
    }

    /// The kernel this scanner resolved to (`None` for the u16 LUT path,
    /// which is always scalar).
    pub fn kernel(&self) -> Option<Kernel> {
        match &self.kind {
            ScanKind::U8 { kernel, .. } => Some(*kernel),
            ScanKind::U16 { .. } => None,
        }
    }
}

/// Per-segment 16-entry look-up tables for one quantized query.
#[derive(Clone, Debug)]
pub struct Lut {
    segments: usize,
    data: LutData,
}

#[derive(Clone, Debug)]
enum LutData {
    /// `B_q ≤ 4`: entries fit in `u8` (≤ 60), enabling the SIMD kernels.
    U8(Vec<u8>),
    /// `B_q > 4`: entries up to 1020 need `u16`; scalar kernel only.
    U16(Vec<u16>),
}

impl Lut {
    /// An empty table shell; [`Lut::rebuild`] fills it. Exists so query
    /// scratch state can own a `Lut` whose storage is reused across probes.
    pub fn empty() -> Self {
        Self {
            segments: 0,
            data: LutData::U8(Vec::new()),
        }
    }

    /// Builds the tables from a quantized query: entry `m` of segment `s`
    /// is `Σ_{t: bit t of m set} q̄_u[4s + t]`.
    pub fn build(query: &QuantizedQuery) -> Self {
        let mut lut = Self::empty();
        lut.rebuild(query);
        lut
    }

    /// [`Lut::build`] into `self`, reusing the table storage. After the
    /// first call with a given shape and `B_q` class this performs no heap
    /// allocation; `fill_lut` overwrites every entry, so no clear is
    /// needed.
    ///
    /// Shrinking reuse (a smaller-dim query on a scratch built for a
    /// larger dim) truncates the table to exactly `segments · 16` entries —
    /// kernels read table extents from slice lengths, so a stale oversized
    /// tail must never survive a rebuild. The invariant is asserted here
    /// and re-checked by [`PackedCodes::scanner`].
    pub fn rebuild(&mut self, query: &QuantizedQuery) {
        let segments = query.padded_dim() / 4;
        let qu = query.qu();
        self.segments = segments;
        if query.bq() <= 4 {
            if !matches!(self.data, LutData::U8(_)) {
                self.data = LutData::U8(Vec::new());
            }
            let LutData::U8(data) = &mut self.data else {
                unreachable!()
            };
            data.resize(segments * 16, 0);
            fill_lut(qu, data);
            debug_assert_eq!(data.len(), segments * 16);
        } else {
            if !matches!(self.data, LutData::U16(_)) {
                self.data = LutData::U16(Vec::new());
            }
            let LutData::U16(data) = &mut self.data else {
                unreachable!()
            };
            data.resize(segments * 16, 0);
            fill_lut(qu, data);
            debug_assert_eq!(data.len(), segments * 16);
        }
    }

    /// Number of 4-dimension segments covered.
    #[inline]
    pub fn segments(&self) -> usize {
        self.segments
    }
}

/// Fills one 16-entry table per 4 quantized entries: entry `m` is the sum
/// of the entries selected by the bits of `m`, built by the subset-sum
/// recurrence `t[m] = t[m & (m − 1)] + v[trailing_zeros(m)]` (one add per
/// entry). The caller guarantees the sums fit `T` (`B_q ≤ 4` for `u8`).
fn fill_lut<T>(qu: &[u8], tables: &mut [T])
where
    T: Copy + Default + From<u8> + std::ops::Add<Output = T>,
{
    for (vals, t) in qu.chunks_exact(4).zip(tables.chunks_exact_mut(16)) {
        t[0] = T::default();
        for m in 1usize..16 {
            t[m] = t[m & (m - 1)] + T::from(vals[m.trailing_zeros() as usize]);
        }
    }
}

/// Layout-level scan primitives shared with the PQ baseline (`rabitq-pq`),
/// which uses the identical packed-nibble layout and byte-shuffle kernels —
/// mirroring the paper, where RaBitQ and PQ share one fast-scan
/// implementation.
pub mod raw {
    use super::BLOCK;
    use std::sync::OnceLock;

    /// A fast-scan kernel back end. Variants exist on every architecture
    /// (so tools can name them uniformly); whether one can *run* here is
    /// answered by [`supported_kernels`].
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    pub enum Kernel {
        /// Portable scalar reference — always available.
        Scalar,
        /// x86-64 AVX2: 256-bit `pshufb`, two segments per iteration.
        Avx2,
        /// x86-64 AVX-512BW: 512-bit `pshufb`, four segments per iteration.
        Avx512,
        /// aarch64 NEON: `vqtbl1q_u8` table lookups.
        Neon,
    }

    impl Kernel {
        /// The name accepted by `RABITQ_FORCE_KERNEL`.
        pub fn name(self) -> &'static str {
            match self {
                Kernel::Scalar => "scalar",
                Kernel::Avx2 => "avx2",
                Kernel::Avx512 => "avx512",
                Kernel::Neon => "neon",
            }
        }

        /// Inverse of [`Kernel::name`].
        fn from_name(s: &str) -> Option<Self> {
            match s {
                "scalar" => Some(Kernel::Scalar),
                "avx2" => Some(Kernel::Avx2),
                "avx512" => Some(Kernel::Avx512),
                "neon" => Some(Kernel::Neon),
                _ => None,
            }
        }
    }

    /// Kernels compiled into this binary, in ascending ISA-capability
    /// order (the automatic dispatch preference is [`active_kernel`]'s,
    /// which is not simply "most capable").
    fn compiled_kernels() -> &'static [Kernel] {
        #[cfg(target_arch = "x86_64")]
        {
            &[Kernel::Scalar, Kernel::Avx2, Kernel::Avx512]
        }
        #[cfg(target_arch = "aarch64")]
        {
            &[Kernel::Scalar, Kernel::Neon]
        }
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        {
            &[Kernel::Scalar]
        }
    }

    /// Whether the running CPU can execute `kernel`.
    fn kernel_supported(kernel: Kernel) -> bool {
        match kernel {
            Kernel::Scalar => true,
            Kernel::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    std::arch::is_x86_feature_detected!("avx2")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
            Kernel::Avx512 => {
                #[cfg(target_arch = "x86_64")]
                {
                    std::arch::is_x86_feature_detected!("avx512f")
                        && std::arch::is_x86_feature_detected!("avx512bw")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
            Kernel::Neon => {
                #[cfg(target_arch = "aarch64")]
                {
                    std::arch::is_aarch64_feature_detected!("neon")
                }
                #[cfg(not(target_arch = "aarch64"))]
                {
                    false
                }
            }
        }
    }

    /// Kernels both compiled in and runnable on this CPU, ascending
    /// ISA-capability order (always starts with [`Kernel::Scalar`]).
    pub fn supported_kernels() -> Vec<Kernel> {
        compiled_kernels()
            .iter()
            .copied()
            .filter(|&k| kernel_supported(k))
            .collect()
    }

    /// The process-wide kernel choice, resolved **once** on first use:
    /// `RABITQ_FORCE_KERNEL` if set (panicking on an unknown name or a
    /// kernel this host cannot run — a forced kernel silently degrading
    /// would defeat its testing purpose), otherwise the automatic pick.
    ///
    /// The automatic pick prefers **AVX2 over AVX-512** when both run.
    /// The 512-bit kernel wins pure-throughput microbenches
    /// (the perf ledger's `core.fastscan_codes_per_s` under each forced
    /// kernel), but search interleaves short scan
    /// bursts with scalar/float estimator work, and on many parts each
    /// 512-bit burst downclocks the surrounding pipeline — measured here
    /// as a net end-to-end QPS loss. Hosts where AVX-512 wins end to end
    /// can force it.
    pub fn active_kernel() -> Kernel {
        static ACTIVE: OnceLock<Kernel> = OnceLock::new();
        *ACTIVE.get_or_init(|| match std::env::var("RABITQ_FORCE_KERNEL") {
            Ok(name) => {
                let k = Kernel::from_name(name.trim()).unwrap_or_else(|| {
                    panic!(
                        "RABITQ_FORCE_KERNEL={name}: unknown kernel \
                         (expected scalar|avx2|avx512|neon)"
                    )
                });
                assert!(
                    kernel_supported(k),
                    "RABITQ_FORCE_KERNEL={name}: kernel not runnable on this host \
                     (supported: {:?})",
                    supported_kernels()
                );
                k
            }
            Err(_) => {
                let supported = supported_kernels();
                if supported.contains(&Kernel::Avx2) {
                    Kernel::Avx2
                } else {
                    *supported.last().unwrap_or(&Kernel::Scalar)
                }
            }
        })
    }

    /// Signature shared by every u8-LUT block kernel.
    ///
    /// # Safety
    /// The callee may use SIMD instructions of its ISA extension; callers
    /// must only invoke pointers for kernels the running CPU supports
    /// (guaranteed when obtained via [`select_scan_u8`] or
    /// [`scan_u8_with`]). `block` and `lut` must each hold at least
    /// `segments · 16` bytes, and `segments · max_lut_entry` must fit in
    /// `u16` for the SIMD variants.
    pub type ScanU8Fn = unsafe fn(&[u8], &[u8], usize, &mut [u32; BLOCK]);

    /// `scan_u8_scalar` behind the common kernel signature.
    unsafe fn scan_u8_scalar_raw(
        block: &[u8],
        lut: &[u8],
        segments: usize,
        out: &mut [u32; BLOCK],
    ) {
        scan_u8_scalar(block, lut, segments, out);
    }

    fn kernel_fn(kernel: Kernel) -> ScanU8Fn {
        match kernel {
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => scan_u8_avx2,
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512 => scan_u8_avx512,
            #[cfg(target_arch = "aarch64")]
            Kernel::Neon => scan_u8_neon,
            _ => scan_u8_scalar_raw,
        }
    }

    /// Resolves the u8-LUT scan function for a whole scan pass: the active
    /// kernel, demoted to scalar when `segments · max_entry` would
    /// overflow the SIMD kernels' u16 accumulators. Call **once per scan**,
    /// not per block — this is the dispatch point.
    #[inline]
    pub fn select_scan_u8(segments: usize, max_entry: u32) -> ScanU8Fn {
        select_for(active_kernel(), segments, max_entry).1
    }

    /// [`select_scan_u8`] plus the [`Kernel`] the pointer belongs to.
    #[inline]
    pub(super) fn select_scan_u8_tagged(segments: usize, max_entry: u32) -> (Kernel, ScanU8Fn) {
        select_for(active_kernel(), segments, max_entry)
    }

    #[inline]
    fn select_for(kernel: Kernel, segments: usize, max_entry: u32) -> (Kernel, ScanU8Fn) {
        if kernel == Kernel::Scalar || segments as u64 * max_entry as u64 > u16::MAX as u64 {
            (Kernel::Scalar, scan_u8_scalar_raw as ScanU8Fn)
        } else {
            (kernel, kernel_fn(kernel))
        }
    }

    /// Scans one block with an explicitly chosen kernel — the entry point
    /// for differential tests and the kernel bench, bypassing the cached
    /// process-wide dispatch.
    ///
    /// # Panics
    /// Panics if the host cannot run `kernel`.
    pub fn scan_u8_with(
        kernel: Kernel,
        block: &[u8],
        lut: &[u8],
        segments: usize,
        max_entry: u32,
        out: &mut [u32; BLOCK],
    ) {
        assert!(
            kernel_supported(kernel),
            "kernel {:?} not runnable on this host",
            kernel
        );
        let (_, f) = select_for(kernel, segments, max_entry);
        // SAFETY: runtime support was just asserted and `select_for`
        // applied the u16 accumulator overflow guard.
        unsafe { f(block, lut, segments, out) }
    }

    /// Packs per-code 4-bit values into the transposed 32-code block
    /// layout. `nibble(i, s)` must return the 4-bit value of code `i` at
    /// segment `s` (only the low 4 bits are used). Returns
    /// `n_blocks · segments · 16` bytes with zero-padding codes at the tail.
    pub fn pack_nibbles(
        n: usize,
        segments: usize,
        mut nibble: impl FnMut(usize, usize) -> u8,
    ) -> Vec<u8> {
        let n_blocks = n.div_ceil(BLOCK);
        let mut blocks = vec![0u8; n_blocks * segments * 16];
        for i in 0..n {
            let base = (i / BLOCK) * segments * 16;
            let lane = i % BLOCK;
            for s in 0..segments {
                let v = nibble(i, s) & 0x0F;
                let byte = &mut blocks[base + s * 16 + (lane % 16)];
                if lane < 16 {
                    *byte |= v;
                } else {
                    *byte |= v << 4;
                }
            }
        }
        blocks
    }

    /// Scans one block against `u8` LUTs through the process-wide kernel
    /// dispatch. One-shot convenience — loops should resolve
    /// [`select_scan_u8`] once instead.
    #[inline]
    pub fn scan_u8(
        block: &[u8],
        lut: &[u8],
        segments: usize,
        max_entry: u32,
        out: &mut [u32; BLOCK],
    ) {
        let f = select_scan_u8(segments, max_entry);
        // SAFETY: `select_scan_u8` only returns runtime-supported kernels
        // with the overflow guard applied.
        unsafe { f(block, lut, segments, out) }
    }

    /// Portable scalar scan against `u8` LUTs.
    pub fn scan_u8_scalar(block: &[u8], lut: &[u8], segments: usize, out: &mut [u32; BLOCK]) {
        out.fill(0);
        for s in 0..segments {
            let codes = &block[s * 16..s * 16 + 16];
            let table = &lut[s * 16..s * 16 + 16];
            for (j, &byte) in codes.iter().enumerate() {
                out[j] += table[(byte & 0x0F) as usize] as u32;
                out[j + 16] += table[(byte >> 4) as usize] as u32;
            }
        }
    }

    /// Portable scalar scan against `u16` LUTs (wide query quantization).
    pub(super) fn scan_u16(block: &[u8], lut: &[u16], segments: usize, out: &mut [u32; BLOCK]) {
        out.fill(0);
        for s in 0..segments {
            let codes = &block[s * 16..s * 16 + 16];
            let table = &lut[s * 16..s * 16 + 16];
            for (j, &byte) in codes.iter().enumerate() {
                out[j] += table[(byte & 0x0F) as usize] as u32;
                out[j + 16] += table[(byte >> 4) as usize] as u32;
            }
        }
    }

    /// Adds one segment's LUT contributions into `out` — the scalar tail
    /// step the widened SIMD kernels use for segments beyond their stride.
    #[inline]
    fn add_segment_scalar(codes: &[u8], table: &[u8], out: &mut [u32; BLOCK]) {
        for (j, &byte) in codes.iter().enumerate().take(16) {
            out[j] += table[(byte & 0x0F) as usize] as u32;
            out[j + 16] += table[(byte >> 4) as usize] as u32;
        }
    }

    /// AVX2 kernel, two segments per iteration: a 32-byte load covers the
    /// packed nibbles of segments `2p` and `2p+1` (one per 128-bit lane),
    /// `_mm256_shuffle_epi8` gathers both tables lane-wise, and the u8
    /// values are zero-extended into four u16×16 accumulators (codes
    /// 0–7 / 8–15 / 16–23 / 24–31, with even-segment partial sums in lane
    /// 0 and odd-segment partials in lane 1). The final cross-lane add
    /// cannot overflow: the dispatch guard bounds the *total* per-code sum
    /// by `u16::MAX`, and every partial is ≤ the total.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn scan_u8_avx2(block: &[u8], lut: &[u8], segments: usize, out: &mut [u32; BLOCK]) {
        use std::arch::x86_64::*;
        debug_assert!(block.len() >= segments * 16);
        debug_assert!(lut.len() >= segments * 16);
        let low_mask = _mm256_set1_epi8(0x0F);
        let zero = _mm256_setzero_si256();
        let mut acc_ll = zero; // u16 partials, codes 0..8
        let mut acc_lh = zero; // codes 8..16
        let mut acc_hl = zero; // codes 16..24
        let mut acc_hh = zero; // codes 24..32
        let pairs = segments / 2;
        for p in 0..pairs {
            let codes = _mm256_loadu_si256(block.as_ptr().add(p * 32) as *const __m256i);
            let table = _mm256_loadu_si256(lut.as_ptr().add(p * 32) as *const __m256i);
            let lo_idx = _mm256_and_si256(codes, low_mask);
            let hi_idx = _mm256_and_si256(_mm256_srli_epi16(codes, 4), low_mask);
            let lo_vals = _mm256_shuffle_epi8(table, lo_idx);
            let hi_vals = _mm256_shuffle_epi8(table, hi_idx);
            acc_ll = _mm256_add_epi16(acc_ll, _mm256_unpacklo_epi8(lo_vals, zero));
            acc_lh = _mm256_add_epi16(acc_lh, _mm256_unpackhi_epi8(lo_vals, zero));
            acc_hl = _mm256_add_epi16(acc_hl, _mm256_unpacklo_epi8(hi_vals, zero));
            acc_hh = _mm256_add_epi16(acc_hh, _mm256_unpackhi_epi8(hi_vals, zero));
        }
        // Merge even/odd-segment lanes, widen u16 → u32, store.
        let mut fold = |acc: __m256i, at: usize| {
            let sum = _mm_add_epi16(
                _mm256_castsi256_si128(acc),
                _mm256_extracti128_si256(acc, 1),
            );
            _mm256_storeu_si256(
                out.as_mut_ptr().add(at) as *mut __m256i,
                _mm256_cvtepu16_epi32(sum),
            );
        };
        fold(acc_ll, 0);
        fold(acc_lh, 8);
        fold(acc_hl, 16);
        fold(acc_hh, 24);
        if segments % 2 == 1 {
            let s = segments - 1;
            add_segment_scalar(&block[s * 16..s * 16 + 16], &lut[s * 16..s * 16 + 16], out);
        }
    }

    /// AVX-512BW kernel, four segments per iteration: the 512-bit shuffle
    /// gathers four 16-entry tables at once (one per 128-bit lane); the
    /// same unpack trick as AVX2 yields u16 accumulators whose four lanes
    /// hold per-residue partial sums, merged once at the end. Overflow
    /// safety is the same argument as the AVX2 kernel.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn scan_u8_avx512(block: &[u8], lut: &[u8], segments: usize, out: &mut [u32; BLOCK]) {
        use std::arch::x86_64::*;
        debug_assert!(block.len() >= segments * 16);
        debug_assert!(lut.len() >= segments * 16);
        let low_mask = _mm512_set1_epi8(0x0F);
        let zero = _mm512_setzero_si512();
        let mut acc_ll = zero; // u16 partials, codes 0..8
        let mut acc_lh = zero; // codes 8..16
        let mut acc_hl = zero; // codes 16..24
        let mut acc_hh = zero; // codes 24..32
        let quads = segments / 4;
        for p in 0..quads {
            let codes = _mm512_loadu_si512(block.as_ptr().add(p * 64) as *const __m512i);
            let table = _mm512_loadu_si512(lut.as_ptr().add(p * 64) as *const __m512i);
            let lo_idx = _mm512_and_si512(codes, low_mask);
            let hi_idx = _mm512_and_si512(_mm512_srli_epi16(codes, 4), low_mask);
            let lo_vals = _mm512_shuffle_epi8(table, lo_idx);
            let hi_vals = _mm512_shuffle_epi8(table, hi_idx);
            acc_ll = _mm512_add_epi16(acc_ll, _mm512_unpacklo_epi8(lo_vals, zero));
            acc_lh = _mm512_add_epi16(acc_lh, _mm512_unpackhi_epi8(lo_vals, zero));
            acc_hl = _mm512_add_epi16(acc_hl, _mm512_unpacklo_epi8(hi_vals, zero));
            acc_hh = _mm512_add_epi16(acc_hh, _mm512_unpackhi_epi8(hi_vals, zero));
        }
        // Merge the four per-lane partials, widen u16 → u32, store.
        let mut fold = |acc: __m512i, at: usize| {
            let a = _mm512_extracti32x4_epi32(acc, 0);
            let b = _mm512_extracti32x4_epi32(acc, 1);
            let c = _mm512_extracti32x4_epi32(acc, 2);
            let d = _mm512_extracti32x4_epi32(acc, 3);
            let sum = _mm_add_epi16(_mm_add_epi16(a, b), _mm_add_epi16(c, d));
            _mm256_storeu_si256(
                out.as_mut_ptr().add(at) as *mut __m256i,
                _mm256_cvtepu16_epi32(sum),
            );
        };
        fold(acc_ll, 0);
        fold(acc_lh, 8);
        fold(acc_hl, 16);
        fold(acc_hh, 24);
        for s in quads * 4..segments {
            add_segment_scalar(&block[s * 16..s * 16 + 16], &lut[s * 16..s * 16 + 16], out);
        }
    }

    /// NEON kernel: per segment, one 16-byte load, two `vqtbl1q_u8` table
    /// lookups (low/high nibbles → codes 0–15 / 16–31), and widening adds
    /// into u16×8 accumulators. The dispatch guard bounds the per-code sum
    /// by `u16::MAX`, so the widening adds cannot wrap.
    #[cfg(target_arch = "aarch64")]
    #[target_feature(enable = "neon")]
    unsafe fn scan_u8_neon(block: &[u8], lut: &[u8], segments: usize, out: &mut [u32; BLOCK]) {
        use std::arch::aarch64::*;
        debug_assert!(block.len() >= segments * 16);
        debug_assert!(lut.len() >= segments * 16);
        let low_mask = vdupq_n_u8(0x0F);
        let mut acc_ll = vdupq_n_u16(0); // codes 0..8
        let mut acc_lh = vdupq_n_u16(0); // codes 8..16
        let mut acc_hl = vdupq_n_u16(0); // codes 16..24
        let mut acc_hh = vdupq_n_u16(0); // codes 24..32
        for s in 0..segments {
            let codes = vld1q_u8(block.as_ptr().add(s * 16));
            let table = vld1q_u8(lut.as_ptr().add(s * 16));
            let lo_idx = vandq_u8(codes, low_mask);
            let hi_idx = vshrq_n_u8::<4>(codes);
            let lo_vals = vqtbl1q_u8(table, lo_idx);
            let hi_vals = vqtbl1q_u8(table, hi_idx);
            acc_ll = vaddw_u8(acc_ll, vget_low_u8(lo_vals));
            acc_lh = vaddw_high_u8(acc_lh, lo_vals);
            acc_hl = vaddw_u8(acc_hl, vget_low_u8(hi_vals));
            acc_hh = vaddw_high_u8(acc_hh, hi_vals);
        }
        vst1q_u32(out.as_mut_ptr(), vmovl_u16(vget_low_u16(acc_ll)));
        vst1q_u32(out.as_mut_ptr().add(4), vmovl_high_u16(acc_ll));
        vst1q_u32(out.as_mut_ptr().add(8), vmovl_u16(vget_low_u16(acc_lh)));
        vst1q_u32(out.as_mut_ptr().add(12), vmovl_high_u16(acc_lh));
        vst1q_u32(out.as_mut_ptr().add(16), vmovl_u16(vget_low_u16(acc_hl)));
        vst1q_u32(out.as_mut_ptr().add(20), vmovl_high_u16(acc_hl));
        vst1q_u32(out.as_mut_ptr().add(24), vmovl_u16(vget_low_u16(acc_hh)));
        vst1q_u32(out.as_mut_ptr().add(28), vmovl_high_u16(acc_hh));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::ip_code_query;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_set(n: usize, padded_dim: usize, seed: u64) -> CodeSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut set = CodeSet::new(padded_dim);
        let words = padded_dim / 64;
        for _ in 0..n {
            let code: Vec<u64> = (0..words).map(|_| rng.gen()).collect();
            set.push(&code, 1.0, 0.8);
        }
        set
    }

    fn random_query(padded_dim: usize, bq: u8, seed: u64) -> QuantizedQuery {
        let mut rng = StdRng::seed_from_u64(seed);
        let residual = rabitq_math::rng::standard_normal_vec(&mut rng, padded_dim);
        QuantizedQuery::from_rotated_residual(&residual, bq, &mut rng)
    }

    #[test]
    fn packed_scan_matches_bitwise_kernel_exactly() {
        for &(n, dim) in &[
            (1usize, 64usize),
            (31, 128),
            (32, 128),
            (33, 192),
            (100, 448),
        ] {
            let set = random_set(n, dim, n as u64);
            let query = random_query(dim, 4, dim as u64);
            let packed = PackedCodes::pack(&set);
            let lut = Lut::build(&query);
            let mut got = Vec::new();
            packed.scan_all(&lut, &mut got);
            assert_eq!(got.len(), n);
            for (i, &g) in got.iter().enumerate() {
                let want = ip_code_query(set.code_bits(i), &query);
                assert_eq!(g, want, "n={n} dim={dim} code {i}");
            }
        }
    }

    #[test]
    fn u16_lut_path_matches_bitwise_kernel_for_large_bq() {
        let set = random_set(40, 128, 5);
        let query = random_query(128, 7, 6);
        let packed = PackedCodes::pack(&set);
        let lut = Lut::build(&query);
        let mut got = Vec::new();
        packed.scan_all(&lut, &mut got);
        for (i, &g) in got.iter().enumerate() {
            assert_eq!(g, ip_code_query(set.code_bits(i), &query));
        }
    }

    #[test]
    fn every_supported_kernel_matches_scalar() {
        // Odd segment counts exercise the widened kernels' tail handling
        // (dim 192 → 48 segments, dim 320 → 80, dim 64+4? not possible:
        // dims are multiples of 64 → segments multiple of 16, so force odd
        // tails through raw packing instead).
        for &segments in &[1usize, 2, 3, 5, 7, 16, 17, 31, 48, 240] {
            let mut rng = StdRng::seed_from_u64(segments as u64);
            let block: Vec<u8> = (0..segments * 16).map(|_| rng.gen()).collect();
            let lut: Vec<u8> = (0..segments * 16).map(|_| rng.gen_range(0..=60)).collect();
            let mut want = [0u32; BLOCK];
            raw::scan_u8_scalar(&block, &lut, segments, &mut want);
            for kernel in raw::supported_kernels() {
                let mut got = [0xFFFF_FFFFu32; BLOCK];
                raw::scan_u8_with(kernel, &block, &lut, segments, 60, &mut got);
                assert_eq!(got, want, "kernel {kernel:?} segments {segments}");
            }
        }
    }

    #[test]
    fn scanner_reports_active_kernel_and_matches_dispatch() {
        let set = random_set(64, 256, 9);
        let query = random_query(256, 4, 10);
        let packed = PackedCodes::pack(&set);
        let lut = Lut::build(&query);
        let scanner = packed.scanner(&lut);
        assert_eq!(scanner.kernel(), Some(raw::active_kernel()));
        let mut via_scanner = [0u32; BLOCK];
        scanner.scan_block(0, &mut via_scanner);
        let mut via_scalar = [0u32; BLOCK];
        let block = &packed.blocks[..packed.segments * 16];
        match &lut.data {
            LutData::U8(e) => raw::scan_u8_scalar(block, e, packed.segments, &mut via_scalar),
            LutData::U16(e) => raw::scan_u16(block, e, packed.segments, &mut via_scalar),
        }
        assert_eq!(via_scanner, via_scalar);
    }

    #[test]
    fn forced_kernel_env_controls_dispatch_when_set() {
        // The suite may run under RABITQ_FORCE_KERNEL (CI does a full pass
        // with `scalar`); when it does, the cached dispatch must obey it.
        if let Ok(name) = std::env::var("RABITQ_FORCE_KERNEL") {
            assert_eq!(raw::active_kernel().name(), name.trim());
        } else {
            let supported = raw::supported_kernels();
            // Automatic policy: AVX2 when runnable (AVX-512 is opt-in),
            // otherwise the most capable remaining kernel.
            let expected = if supported.contains(&Kernel::Avx2) {
                Kernel::Avx2
            } else {
                *supported.last().unwrap()
            };
            assert_eq!(raw::active_kernel(), expected);
        }
    }

    #[test]
    fn lut_rebuild_shrinks_storage_to_segment_count() {
        // Reusing one scratch Lut for a smaller dim must not carry stale
        // tail tables: kernels size their reads from the slice length.
        let big = random_query(1024, 4, 31);
        let small = random_query(64, 4, 32);
        let mut lut = Lut::build(&big);
        lut.rebuild(&small);
        assert_eq!(lut.segments(), 16);
        let LutData::U8(data) = &lut.data else {
            panic!("expected u8 LUT");
        };
        assert_eq!(data.len(), 16 * 16);
        // And the shrunk LUT still scans exactly.
        let set = random_set(40, 64, 33);
        let packed = PackedCodes::pack(&set);
        let mut got = Vec::new();
        packed.scan_all(&lut, &mut got);
        for (i, &g) in got.iter().enumerate() {
            assert_eq!(g, ip_code_query(set.code_bits(i), &small));
        }
    }

    #[test]
    fn padding_codes_scan_to_zero() {
        let set = random_set(5, 64, 11);
        let query = random_query(64, 4, 12);
        let packed = PackedCodes::pack(&set);
        let lut = Lut::build(&query);
        let mut buf = [0u32; BLOCK];
        packed.scan_block(0, &lut, &mut buf);
        for &v in &buf[5..] {
            assert_eq!(v, 0);
        }
    }

    #[test]
    fn empty_set_packs_and_scans() {
        let set = CodeSet::new(64);
        let packed = PackedCodes::pack(&set);
        assert_eq!(packed.len(), 0);
        assert_eq!(packed.n_blocks(), 0);
        let query = random_query(64, 4, 13);
        let lut = Lut::build(&query);
        let mut out = Vec::new();
        packed.scan_all(&lut, &mut out);
        assert!(out.is_empty());
    }

    /// The definition, as the nest `fill_lut` replaced: entry `m` of
    /// segment `s` sums the entries whose bit is set in `m`.
    fn lut_reference(qu: &[u8]) -> Vec<u16> {
        let mut out = Vec::with_capacity(qu.len() * 4);
        for vals in qu.chunks_exact(4) {
            for m in 0u16..16 {
                let mut acc = 0u16;
                for (t, &v) in vals.iter().enumerate() {
                    if (m >> t) & 1 == 1 {
                        acc += v as u16;
                    }
                }
                out.push(acc);
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Both table widths (`B_q ≤ 4` → u8, above → u16) through one
        /// reused `Lut`, so width switches and shrinking are covered too.
        #[test]
        fn lut_entries_match_definition(
            shapes in proptest::collection::vec((1usize..=32, 1u8..=8), 1..4),
            seed in 0u64..10_000,
        ) {
            let mut lut = Lut::empty();
            for (i, &(words, bq)) in shapes.iter().enumerate() {
                let query = random_query(words * 64, bq, seed + i as u64);
                lut.rebuild(&query);
                let want = lut_reference(query.qu());
                let got: Vec<u16> = match &lut.data {
                    LutData::U8(e) => e.iter().map(|&v| v as u16).collect(),
                    LutData::U16(e) => e.clone(),
                };
                prop_assert_eq!(matches!(lut.data, LutData::U8(_)), bq <= 4);
                prop_assert_eq!(got, want, "B = {} bq = {}", words * 64, bq);
            }
        }
    }
}

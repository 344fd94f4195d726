//! Fast-scan batch layout (Section 3.3.2, "implementation (batch)").
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
//! integers (≤ 4·(2^B_q − 1): 60 at the paper's B_q = 4, 252 at the
//! B_q = 6 of the engine's shared query plan), so every batch kernel
//! returns **bit-identical** results to the single-code bitwise kernel.
//! That exactness is asserted by differential tests here and in the
//! integration suite.
//!
//! This module holds the layout: [`PackedCodes`], [`Lut`], the nibble
//! packing ([`pack_nibbles`], shared with the PQ baseline) and the scalar
//! `u16` table path for `B_q > 6`. The `u8` scan itself is
//! [`rabitq_math::simd::scan_nibbles`], under the workspace's one kernel
//! dispatch; a [`BlockScanner`] resolves that kernel once per scan.

use crate::code::CodeSet;
use crate::query::QuantizedQuery;
use rabitq_math::simd::{self, Kernel};

/// Number of codes per packed block.
pub const BLOCK: usize = simd::NIBBLE_BLOCK;

/// Largest query quantization the `u8` LUT admits: `B_q ≤ 6`, whose
/// largest entry is `4·(2^6 − 1) = 252`.
pub const MAX_U8_LUT_BQ: u8 = 6;

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
        let blocks = pack_nibbles(n, segments, |i, s| {
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
    /// so the block loop pays no repeated feature detection or LUT-width
    /// branching.
    pub fn scanner<'a>(&'a self, lut: &'a Lut) -> BlockScanner<'a> {
        assert_eq!(lut.segments, self.segments, "LUT built for another layout");
        let (kind, entries) = match &lut.data {
            LutData::U8(entries) => (
                ScanKind::U8 {
                    kernel: simd::active_kernel(),
                    entries,
                },
                entries.len(),
            ),
            LutData::U16(entries) => (ScanKind::U16 { entries }, entries.len()),
        };
        // The rebuild invariant: LUT storage is exactly one 16-entry table
        // per segment. Kernels read table extents from slice lengths, so
        // an oversized buffer carried over from a larger-dim query would
        // silently read stale tail tables.
        assert_eq!(
            entries,
            self.segments * 16,
            "LUT storage out of sync with its segment count"
        );
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
        entries: &'a [u8],
    },
    /// `B_q > 6` LUT entries exceed `u8`; the scalar u16 kernel runs (this
    /// path is off every operating point the engine uses).
    U16 {
        entries: &'a [u16],
    },
}

impl BlockScanner<'_> {
    /// [`PackedCodes::scan_block`] through the pre-resolved kernel.
    #[inline]
    pub fn scan_block(&self, b: usize, out: &mut [u32; BLOCK]) {
        let segments = self.packed.segments;
        let base = b * segments * 16;
        let block = &self.packed.blocks[base..base + segments * 16];
        match &self.kind {
            ScanKind::U8 { kernel, entries } => simd::scan_nibbles(*kernel, block, entries, out),
            ScanKind::U16 { entries } => scan_u16(block, entries, out),
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
    /// `B_q ≤ 6`: entries fit in `u8` (≤ 252), enabling the SIMD kernels.
    U8(Vec<u8>),
    /// `B_q > 6`: entries up to 1020 need `u16`; scalar kernel only.
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
        if query.bq() <= MAX_U8_LUT_BQ {
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
/// entry). The caller guarantees the sums fit `T` (`B_q ≤ 6` for `u8`).
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

/// Packs per-code 4-bit values into the transposed 32-code block layout.
/// `nibble(i, s)` must return the 4-bit value of code `i` at segment `s`
/// (only the low 4 bits are used). Returns `n_blocks · segments · 16`
/// bytes with zero-padding codes at the tail.
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

/// The scalar scan against `u16` LUTs (`B_q > 6`): the sums of
/// [`simd::scan_nibbles`] with wider table entries.
fn scan_u16(block: &[u8], lut: &[u16], out: &mut [u32; BLOCK]) {
    out.fill(0);
    for (codes, table) in block.chunks_exact(16).zip(lut.chunks_exact(16)) {
        for (j, &byte) in codes.iter().enumerate() {
            out[j] += table[(byte & 0x0F) as usize] as u32;
            out[j + 16] += table[(byte >> 4) as usize] as u32;
        }
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
    fn bq6_scans_through_the_active_kernel_at_every_code_length() {
        // 2048 bits at B_q = 6 is 512 segments · 252 > u16::MAX: the scan
        // runs in chunks through the SIMD kernel, never the u16 path.
        for dim in [128usize, 1024, 2048] {
            let set = random_set(70, dim, dim as u64 + 1);
            let query = random_query(dim, 6, dim as u64 + 2);
            let packed = PackedCodes::pack(&set);
            let lut = Lut::build(&query);
            assert_eq!(packed.scanner(&lut).kernel(), Some(simd::active_kernel()));
            let mut got = Vec::new();
            packed.scan_all(&lut, &mut got);
            for (i, &g) in got.iter().enumerate() {
                assert_eq!(
                    g,
                    ip_code_query(set.code_bits(i), &query),
                    "D {dim} code {i}"
                );
            }
        }
    }

    #[test]
    fn scanner_reports_active_kernel_and_matches_the_scalar_kernel() {
        for bq in [4u8, 7] {
            let set = random_set(64, 256, 9);
            let query = random_query(256, bq, 10);
            let packed = PackedCodes::pack(&set);
            let lut = Lut::build(&query);
            let scanner = packed.scanner(&lut);
            let want_kernel = (bq <= MAX_U8_LUT_BQ).then(simd::active_kernel);
            assert_eq!(scanner.kernel(), want_kernel);
            let mut via_scanner = [0u32; BLOCK];
            scanner.scan_block(0, &mut via_scanner);
            let mut via_scalar = [0u32; BLOCK];
            let block = &packed.blocks[..packed.segments * 16];
            match &lut.data {
                LutData::U8(e) => simd::scan_nibbles(Kernel::SCALAR, block, e, &mut via_scalar),
                LutData::U16(e) => scan_u16(block, e, &mut via_scalar),
            }
            assert_eq!(via_scanner, via_scalar, "B_q {bq}");
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

        /// Both table widths (`B_q ≤ 6` → u8, above → u16) through one
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
                prop_assert_eq!(matches!(lut.data, LutData::U8(_)), bq <= MAX_U8_LUT_BQ);
                prop_assert_eq!(got, want, "B = {} bq = {}", words * 64, bq);
            }
        }
    }
}

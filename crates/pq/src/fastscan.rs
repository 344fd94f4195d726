//! PQ fast scan (`PQx4fs`): the SIMD batch kernel of André et al.
//! (VLDB'15 / ICMR'17), reusing the packed-nibble layout of `rabitq-core`
//! and the nibble scan of `rabitq_math::simd`, as RaBitQ's fast scan does.
//!
//! The distance LUTs hold *floating-point* squared distances, so to fit 16
//! entries in a shuffle register they must be quantized to `u8`:
//!
//! ```text
//! bias  = Σ_seg min_j lut[seg][j]
//! scale = max_seg (max_j lut[seg][j] − min_j lut[seg][j]) / 255
//! lut_q[seg][j] = round((lut[seg][j] − min_j) / scale)  clamped to 255
//! est   = bias + scale · Σ_seg lut_q[seg][code[seg]]
//! ```
//!
//! One global `scale` is shared by all segments (a register holds no
//! per-lane scale). When one segment's distance range dwarfs the others' —
//! the MSong situation, heterogeneous per-dimension variances — the small
//! segments lose all resolution and the estimate degrades disastrously.
//! This is the failure mode Section 5.2.1/5.2.3 of the RaBitQ paper
//! documents; RaBitQ is immune because its LUT entries are small exact
//! integers.

use crate::pq::{PqCodes, ProductQuantizer};
use rabitq_core::fastscan::{pack_nibbles, BLOCK};
use rabitq_math::simd;

/// PQ codes re-packed for the fast-scan kernel (requires `k = 4`).
#[derive(Clone, Debug)]
pub struct PqPacked {
    m: usize,
    n: usize,
    blocks: Vec<u8>,
}

impl PqPacked {
    /// Packs 4-bit PQ codes into the transposed 32-code block layout.
    ///
    /// # Panics
    /// Panics if any code value exceeds 15 (i.e. the quantizer was not
    /// trained with `k = 4`).
    pub fn pack(codes: &PqCodes) -> Self {
        assert!(
            codes.codes.iter().all(|&c| c < 16),
            "fast scan requires 4-bit codes"
        );
        let n = codes.len();
        let blocks = pack_nibbles(n, codes.m, |i, s| codes.code(i)[s]);
        Self {
            m: codes.m,
            n,
            blocks,
        }
    }

    /// Number of packed codes.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the pack is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of 32-code blocks.
    #[inline]
    pub fn n_blocks(&self) -> usize {
        self.n.div_ceil(BLOCK)
    }

    /// Scans all codes against quantized LUTs, producing one estimated
    /// squared distance per code.
    pub fn scan_all(&self, luts: &QuantizedLuts, out: &mut Vec<f32>) {
        assert_eq!(luts.m, self.m, "LUTs built for another quantizer");
        // Single resize, then overwrite in place — a reused `out` is not
        // re-zeroed first (mirrors `rabitq_core::PackedCodes::scan_all`).
        out.resize(self.n, 0.0);
        let mut buf = [0u32; BLOCK];
        // Resolve the kernel once for the whole scan, not per block.
        let kernel = simd::active_kernel();
        for b in 0..self.n_blocks() {
            let base = b * self.m * 16;
            let block = &self.blocks[base..base + self.m * 16];
            simd::scan_nibbles(kernel, block, &luts.entries, &mut buf);
            let start = b * BLOCK;
            let take = BLOCK.min(self.n - start);
            for (slot, &acc) in out[start..start + take].iter_mut().zip(buf.iter()) {
                *slot = luts.bias + luts.scale * acc as f32;
            }
        }
    }
}

/// Per-query u8-quantized distance LUTs.
#[derive(Clone, Debug)]
pub struct QuantizedLuts {
    m: usize,
    entries: Vec<u8>,
    /// Reconstruction: `distance ≈ bias + scale · Σ entries`.
    pub bias: f32,
    /// See [`QuantizedLuts::bias`].
    pub scale: f32,
}

impl QuantizedLuts {
    /// Quantizes the f32 ADC tables of `pq` for `query` to u8.
    pub fn build(pq: &ProductQuantizer, query: &[f32]) -> Self {
        let f32_luts = pq.build_luts(query);
        Self::from_f32_luts(&f32_luts, pq.m(), 1usize << pq.k_bits())
    }

    /// Quantizes existing f32 tables (`m` tables of `k` entries each).
    /// Only the first 16 entries per table are retained (fast scan is a
    /// `k = 4` technique).
    pub fn from_f32_luts(luts: &[f32], m: usize, k: usize) -> Self {
        assert!(k >= 16, "fast scan needs at least 16 entries per table");
        let mut bias = 0.0f32;
        let mut max_range = 0.0f32;
        let mut mins = vec![0.0f32; m];
        for seg in 0..m {
            let table = &luts[seg * k..seg * k + 16];
            let (lo, hi) = rabitq_math::vecs::min_max(table);
            mins[seg] = lo;
            bias += lo;
            max_range = max_range.max(hi - lo);
        }
        let scale = if max_range > 0.0 {
            max_range / 255.0
        } else {
            1.0
        };
        let inv_scale = 1.0 / scale;
        let mut entries = vec![0u8; m * 16];
        for seg in 0..m {
            let table = &luts[seg * k..seg * k + 16];
            for (j, &v) in table.iter().enumerate() {
                let q = ((v - mins[seg]) * inv_scale).round();
                entries[seg * 16 + j] = q.clamp(0.0, 255.0) as u8;
            }
        }
        Self {
            m,
            entries,
            bias,
            scale,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pq::PqConfig;
    use rabitq_math::rng::standard_normal_vec;
    use rabitq_math::vecs;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn gaussian_data(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        standard_normal_vec(&mut rng, n * dim)
    }

    fn pq4(data: &[f32], dim: usize, m: usize) -> ProductQuantizer {
        let cfg = PqConfig {
            m,
            k_bits: 4,
            train_iters: 15,
            training_sample: None,
            seed: 5,
        };
        ProductQuantizer::train(data, dim, &cfg)
    }

    #[test]
    fn fast_scan_tracks_f32_adc_on_well_scaled_data() {
        let dim = 32;
        let data = gaussian_data(300, dim, 1);
        let pq = pq4(&data, dim, 16);
        let codes = pq.encode_set(data.chunks_exact(dim));
        let packed = PqPacked::pack(&codes);
        let query = gaussian_data(1, dim, 2);
        let qluts = QuantizedLuts::build(&pq, &query);
        let f32_luts = pq.build_luts(&query);
        let mut est = Vec::new();
        packed.scan_all(&qluts, &mut est);
        for (i, e) in est.iter().enumerate().take(codes.len()) {
            let exact_adc = pq.adc_distance(&f32_luts, codes.code(i));
            let rel = (e - exact_adc).abs() / (1.0 + exact_adc);
            assert!(rel < 0.05, "code {i}: {} vs {exact_adc}", e);
        }
    }

    #[test]
    fn heterogeneous_scales_destroy_u8_lut_resolution() {
        // The MSong mechanism: one segment with a hugely larger distance
        // range steals the entire u8 dynamic range from the others. Errors
        // of the quantized scan w.r.t. the f32 ADC must blow up relative to
        // the well-scaled case.
        let dim = 32;
        let mut data = gaussian_data(400, dim, 3);
        // Scale the first 2 dimensions by 100×.
        for row in data.chunks_exact_mut(dim) {
            row[0] *= 100.0;
            row[1] *= 100.0;
        }
        let pq = pq4(&data, dim, 16);
        let codes = pq.encode_set(data.chunks_exact(dim));
        let packed = PqPacked::pack(&codes);
        let mut query = gaussian_data(1, dim, 4);
        query[0] *= 100.0;
        query[1] *= 100.0;
        let qluts = QuantizedLuts::build(&pq, &query);
        let f32_luts = pq.build_luts(&query);
        let mut est = Vec::new();
        packed.scan_all(&qluts, &mut est);
        // Measure the error contributed by LUT quantization on the
        // *small* segments: compare against the exact f32 ADC, excluding
        // the bias the large segment would dominate anyway.
        let mut max_abs_err = 0.0f32;
        for (i, e) in est.iter().enumerate().take(codes.len()) {
            let exact_adc = pq.adc_distance(&f32_luts, codes.code(i));
            max_abs_err = max_abs_err.max((e - exact_adc).abs());
        }
        // The u8 step is max_range/255 with max_range ~ (100σ)² ≈ 4·10⁴,
        // so single-segment errors are already ~100s.
        assert!(
            max_abs_err > 10.0,
            "expected severe LUT quantization error, got {max_abs_err}"
        );
    }

    #[test]
    fn constant_luts_are_handled() {
        let luts = vec![3.0f32; 2 * 16];
        let q = QuantizedLuts::from_f32_luts(&luts, 2, 16);
        assert_eq!(q.bias, 6.0);
        assert!(q.entries.iter().all(|&e| e == 0));
    }

    #[test]
    fn packing_preserves_code_count_and_padding_is_benign() {
        let dim = 8;
        let data = gaussian_data(37, dim, 6);
        let pq = pq4(&data, dim, 4);
        let codes = pq.encode_set(data.chunks_exact(dim));
        let packed = PqPacked::pack(&codes);
        assert_eq!(packed.len(), 37);
        assert_eq!(packed.n_blocks(), 2);
        let query = gaussian_data(1, dim, 7);
        let qluts = QuantizedLuts::build(&pq, &query);
        let mut est = Vec::new();
        packed.scan_all(&qluts, &mut est);
        assert_eq!(est.len(), 37);
        assert!(est.iter().all(|d| d.is_finite()));
    }

    #[test]
    fn long_codes_scan_to_the_scalar_sums_past_the_u16_range() {
        // 300 segments of full-range entries: a block's sums exceed u16,
        // so the SIMD kernels run in passes and must still add exactly.
        let (m, n) = (300, 45);
        let mut rng = StdRng::seed_from_u64(10);
        let codes = PqCodes {
            m,
            codes: (0..n * m).map(|_| rng.gen_range(0..16)).collect(),
        };
        let luts: Vec<f32> = (0..m * 16).map(|_| rng.gen_range(0.0..100.0)).collect();
        let mut qluts = QuantizedLuts::from_f32_luts(&luts, m, 16);
        qluts.entries[..16 * 290].fill(255);
        let packed = PqPacked::pack(&codes);
        let mut est = Vec::new();
        packed.scan_all(&qluts, &mut est);
        assert_eq!(est.len(), n);
        for (i, &e) in est.iter().enumerate() {
            let sum: u32 = (0..m)
                .map(|s| qluts.entries[s * 16 + codes.code(i)[s] as usize] as u32)
                .sum();
            assert!(sum > u16::MAX as u32, "code {i}: sum {sum} fits u16");
            assert_eq!(e, qluts.bias + qluts.scale * sum as f32, "code {i}");
        }
    }

    #[test]
    fn estimates_correlate_with_true_distances() {
        let dim = 64;
        let data = gaussian_data(200, dim, 8);
        let pq = pq4(&data, dim, 32);
        let codes = pq.encode_set(data.chunks_exact(dim));
        let packed = PqPacked::pack(&codes);
        let query = gaussian_data(1, dim, 9);
        let qluts = QuantizedLuts::build(&pq, &query);
        let mut est = Vec::new();
        packed.scan_all(&qluts, &mut est);
        // Spearman-ish sanity: the closest true vector should rank in the
        // top quarter by estimate.
        let mut true_d: Vec<(usize, f32)> = (0..200)
            .map(|i| (i, vecs::l2_sq(&data[i * dim..(i + 1) * dim], &query)))
            .collect();
        true_d.sort_by(|a, b| a.1.total_cmp(&b.1));
        let closest = true_d[0].0;
        let rank = est.iter().filter(|&&e| e < est[closest]).count();
        assert!(rank < 50, "true NN ranked {rank} by PQ fast scan");
    }
}

//! Differential suite for the fast-scan nibble kernels of
//! `rabitq_math::simd`.
//!
//! Every kernel the host can run is driven against a reference that sums
//! the unpacked codes' table entries directly — arbitrary and odd segment
//! counts, code counts that are not multiples of the 32-code block,
//! RaBitQ-range LUT entries (≤ 252) and full-range PQ ones (≤ 255), and
//! segment counts whose sums leave `u16` (the SIMD kernels then run in
//! passes) — asserting **exact** equality. A second property checks the
//! whole pipeline: batch estimates through the dispatched kernel (whatever
//! `RABITQ_FORCE_KERNEL` selects; CI runs this suite once with `scalar`
//! forced) must equal the single-code bitwise path bit for bit, across
//! both the `u8` and the `u16` LUT widths (`B_q ≤ 6` and `B_q > 6`). The
//! centred query of the engine's plan quantizes at `B_q` 5–6, whose LUT
//! entries reach 252: at padded D 2048 one block's sum overflows `u16`,
//! and every kernel must still match.

use proptest::prelude::*;
use rabitq_core::estimator;
use rabitq_core::fastscan::{pack_nibbles, BLOCK};
use rabitq_core::{Lut, Rabitq, RabitqConfig};
use rabitq_math::simd;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn make_data(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| rabitq_math::rng::standard_normal_vec(&mut rng, dim))
        .collect()
}

/// Random 4-bit codes, `n × segments`, and their packed blocks.
fn random_codes(n: usize, segments: usize, rng: &mut StdRng) -> (Vec<u8>, Vec<u8>) {
    let codes: Vec<u8> = (0..n * segments).map(|_| rng.gen_range(0..16)).collect();
    let blocks = pack_nibbles(n, segments, |i, s| codes[i * segments + s]);
    (codes, blocks)
}

/// Every supported kernel's sums for every block, against the sums of
/// the unpacked codes; a padding code is all zero nibbles.
fn assert_kernels_sum_the_codes(codes: &[u8], blocks: &[u8], segments: usize, lut: &[u8]) {
    for (b, block) in blocks.chunks_exact(segments * 16).enumerate() {
        let want: [u32; BLOCK] = std::array::from_fn(|j| {
            let i = b * BLOCK + j;
            let code = codes.get(i * segments..(i + 1) * segments);
            (0..segments)
                .map(|s| lut[s * 16 + code.map_or(0, |c| c[s]) as usize] as u32)
                .sum()
        });
        for kernel in simd::supported_kernels() {
            let mut got = [0xFFFF_FFFFu32; BLOCK];
            simd::scan_nibbles(kernel, block, lut, &mut got);
            assert_eq!(
                got,
                want,
                "{} diverged: segments {segments}, block {b}",
                kernel.name()
            );
        }
    }
}

#[test]
fn every_kernel_matches_the_reference_at_odd_segment_counts() {
    for segments in [1usize, 2, 3, 5, 7, 16, 17, 31, 48, 240] {
        let mut rng = StdRng::seed_from_u64(segments as u64);
        let (codes, blocks) = random_codes(33, segments, &mut rng);
        let lut: Vec<u8> = (0..segments * 16).map(|_| rng.gen_range(0..=60)).collect();
        assert_kernels_sum_the_codes(&codes, &blocks, segments, &lut);
    }
}

/// Full tables at the largest entry of each LUT range, at the segment
/// counts around one `u16` pass: from the last that fits (`⌊65535 / e⌋`)
/// to well past it, and past two passes.
#[test]
fn full_tables_never_wrap_past_one_u16_pass() {
    for max_entry in [252u8, 255] {
        let fits = u16::MAX as usize / max_entry as usize;
        for segments in (fits - 4..fits + 8).chain([513, 515]) {
            let mut rng = StdRng::seed_from_u64(segments as u64 * 1000 + max_entry as u64);
            let (codes, blocks) = random_codes(40, segments, &mut rng);
            let lut = vec![max_entry; segments * 16];
            assert_kernels_sum_the_codes(&codes, &blocks, segments, &lut);
        }
    }
}

#[test]
#[should_panic(expected = "not the same whole segments")]
fn scan_rejects_a_lut_of_another_shape() {
    let mut out = [0u32; BLOCK];
    simd::scan_nibbles(simd::active_kernel(), &[0; 32], &[0; 48], &mut out);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_runnable_kernel_matches_the_reference_exactly(
        n in 1usize..100,
        segments in 1usize..72,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (codes, blocks) = random_codes(n, segments, &mut rng);
        let lut: Vec<u8> = (0..segments * 16).map(|_| rng.gen_range(0..=252)).collect();
        assert_kernels_sum_the_codes(&codes, &blocks, segments, &lut);
    }

    /// Random tables of both ranges at segment counts straddling one
    /// `u16` pass: 252 fits 260 segments, 255 fits 257.
    #[test]
    fn long_blocks_run_in_passes_instead_of_wrapping(
        n in 1usize..40,
        segments in 250usize..280,
        full_range in any::<bool>(),
        seed in 0u64..200,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (codes, blocks) = random_codes(n, segments, &mut rng);
        let top = if full_range { 255 } else { 252 };
        let lut: Vec<u8> = (0..segments * 16).map(|_| rng.gen_range(top - 40..=top)).collect();
        assert_kernels_sum_the_codes(&codes, &blocks, segments, &lut);
    }

    /// End-to-end bit-identity under whatever kernel the process dispatch
    /// settled on (honours `RABITQ_FORCE_KERNEL`): batch estimates equal
    /// the single-code bitwise path for both LUT widths and ragged counts.
    #[test]
    fn batch_estimates_equal_single_code_for_both_lut_widths(
        n in 1usize..80,
        words in 1usize..5,
        bq in 1u8..=8,
        seed in 0u64..500,
    ) {
        let dim = words * 64;
        let config = RabitqConfig {
            bq,
            ..RabitqConfig::default()
        };
        let q = Rabitq::new(dim, config);
        let data = make_data(n, dim, seed);
        let centroid = vec![0.05f32; dim];
        let codes = q.encode_set(data.iter().map(|v| v.as_slice()), &centroid);
        let packed = q.pack(&codes);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xAB);
        let query_vec = rabitq_math::rng::standard_normal_vec(&mut rng, dim);
        let prepared = q.prepare_query(&query_vec, &centroid, &mut rng);
        let mut batch = Vec::new();
        q.estimate_batch(&prepared, &packed, &codes, &mut batch);
        prop_assert_eq!(batch.len(), n);
        for (i, &b) in batch.iter().enumerate() {
            let single = q.estimate(&prepared, &codes, i);
            prop_assert_eq!(single, b, "code {}", i);
        }
    }
}

/// `B_q` 5 and 6 at padded D 128, 1024 and 2048 (2048 runs in passes):
/// every kernel the host runs equals the reference on LUTs filled to the
/// `B_q`'s largest entry and at random, through the dispatched scanner the
/// pipeline matches the single-code path, and the scan stays on the
/// dispatched kernel.
#[test]
fn wide_query_luts_match_scalar_on_every_kernel_at_every_code_length() {
    for bq in [5u8, 6] {
        let max_entry = 4 * ((1u8 << bq) - 1);
        for padded in [128usize, 1024, 2048] {
            let segments = padded / 4;
            let mut rng = StdRng::seed_from_u64(padded as u64 * 10 + bq as u64);
            let n = 70;
            let (codes, blocks) = random_codes(n, segments, &mut rng);
            let full = vec![max_entry; segments * 16];
            let random: Vec<u8> = (0..segments * 16)
                .map(|_| rng.gen_range(0..=max_entry))
                .collect();
            for lut in [&full, &random] {
                assert_kernels_sum_the_codes(&codes, &blocks, segments, lut);
            }

            let q = Rabitq::new(
                padded,
                RabitqConfig {
                    bq,
                    ..RabitqConfig::default()
                },
            );
            let data = make_data(n, padded, bq as u64);
            let centroid = vec![0.05f32; padded];
            let codes = q.encode_set(data.iter().map(|v| v.as_slice()), &centroid);
            let packed = q.pack(&codes);
            let query_vec = rabitq_math::rng::standard_normal_vec(&mut rng, padded);
            let prepared = q.prepare_query(&query_vec, &centroid, &mut rng);
            let lut = Lut::build(&prepared);
            assert_eq!(
                packed.scanner(&lut).kernel(),
                Some(simd::active_kernel()),
                "B_q {bq} D {padded} left the dispatched kernel"
            );
            let mut batch = Vec::new();
            q.estimate_batch(&prepared, &packed, &codes, &mut batch);
            for (i, &b) in batch.iter().enumerate() {
                assert_eq!(
                    q.estimate(&prepared, &codes, i),
                    b,
                    "B_q {bq} D {padded} code {i}"
                );
            }
        }
    }
}

/// The encode-time precomputed half-width base must reproduce
/// `ip_confidence_halfwidth` exactly: `ε₀ · error_base(ip, B)` is the same
/// two-op sequence the estimator uses per code.
#[test]
fn precomputed_error_base_matches_confidence_halfwidth() {
    for padded_dim in [64usize, 128, 768, 1024] {
        for i in 0..1000 {
            let ip_oo = 0.001f32 + i as f32 * 0.000999;
            let direct = estimator::ip_confidence_halfwidth(ip_oo, padded_dim, 1.9);
            let precomputed = 1.9 * estimator::error_base(ip_oo, padded_dim);
            assert_eq!(
                direct.to_bits(),
                precomputed.to_bits(),
                "ip_oo {ip_oo}, B {padded_dim}"
            );
        }
    }
}

//! Differential suite for the SIMD fastscan kernels.
//!
//! Every kernel the host can run is driven against the portable scalar
//! reference on randomized packed layouts — arbitrary segment counts,
//! code counts that are not multiples of the 32-code block, RaBitQ-range
//! LUT entries, and the demotion guard — asserting **exact** equality.
//! A second property checks the whole pipeline: batch estimates through
//! the dispatched kernel (whatever `RABITQ_FORCE_KERNEL` selects; CI runs
//! this suite once with `scalar` forced) must equal the single-code
//! bitwise path bit for bit, across both the `u8` and the `u16` LUT
//! widths (`B_q ≤ 6` and `B_q > 6`). The centred query of the engine's
//! plan quantizes at `B_q` 5–6, whose LUT entries reach 252: at padded
//! D 2048 one block's sum overflows the kernels' u16 accumulators, so the
//! scan runs in chunks, and every kernel must still match.

use proptest::prelude::*;
use rabitq_core::estimator;
use rabitq_core::fastscan::{raw, BLOCK, MAX_U8_LUT_ENTRY};
use rabitq_core::{Lut, Rabitq, RabitqConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn make_data(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| rabitq_math::rng::standard_normal_vec(&mut rng, dim))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_runnable_kernel_matches_scalar_exactly(
        n in 1usize..100,
        segments in 1usize..72,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let blocks = raw::pack_nibbles(n, segments, |_, _| rng.gen::<u8>() & 0xF);
        let lut: Vec<u8> = (0..segments * 16)
            .map(|_| rng.gen_range(0..=MAX_U8_LUT_ENTRY) as u8)
            .collect();
        for b in 0..n.div_ceil(BLOCK) {
            let block = &blocks[b * segments * 16..(b + 1) * segments * 16];
            let mut expect = [0u32; BLOCK];
            raw::scan_u8_scalar(block, &lut, segments, &mut expect);
            for kernel in raw::supported_kernels() {
                let mut got = [0u32; BLOCK];
                raw::scan_u8_with(kernel, block, &lut, segments, MAX_U8_LUT_ENTRY, &mut got);
                prop_assert_eq!(
                    got,
                    expect,
                    "{} diverged from scalar: segments {}, block {}",
                    kernel.name(),
                    segments,
                    b
                );
            }
        }
    }

    /// The overflow demotion guard: when `segments · max_entry` exceeds the
    /// u16 accumulators, selection must fall back to scalar rather than
    /// wrap. Feed full-range u8 entries (the PQ case) at segment counts
    /// straddling the threshold and check dispatch agrees with scalar.
    #[test]
    fn overflow_guard_demotes_instead_of_wrapping(
        n in 1usize..40,
        segments in 250usize..264,
        seed in 0u64..200,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let blocks = raw::pack_nibbles(n, segments, |_, _| rng.gen::<u8>() & 0xF);
        // segments 250..257 keep the SIMD kernels; ≥ 258 crosses
        // 255·segments > u16::MAX and must demote to scalar.
        let lut: Vec<u8> = (0..segments * 16).map(|_| rng.gen()).collect();
        for b in 0..n.div_ceil(BLOCK) {
            let block = &blocks[b * segments * 16..(b + 1) * segments * 16];
            let mut expect = [0u32; BLOCK];
            raw::scan_u8_scalar(block, &lut, segments, &mut expect);
            let mut got = [0u32; BLOCK];
            // Through the process-wide dispatch with max_entry 255.
            raw::scan_u8(block, &lut, segments, 255, &mut got);
            prop_assert_eq!(got, expect);
        }
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

/// `B_q` 5 and 6 at padded D 128, 1024 and 2048 (2048 is the chunked
/// case): every compiled kernel the host runs equals the portable one bit
/// for bit on LUTs filled to the `B_q`'s largest entry and at random,
/// through the dispatched scanner the pipeline matches the single-code
/// path, and the scan stays on the dispatched (SIMD) kernel.
#[test]
fn wide_query_luts_match_scalar_on_every_kernel_at_every_code_length() {
    for bq in [5u8, 6] {
        let max_entry = 4 * ((1u32 << bq) - 1);
        for padded in [128usize, 1024, 2048] {
            let segments = padded / 4;
            let mut rng = StdRng::seed_from_u64(padded as u64 * 10 + bq as u64);
            let n = 70;
            let blocks = raw::pack_nibbles(n, segments, |_, _| rng.gen::<u8>() & 0xF);
            let full = vec![max_entry as u8; segments * 16];
            let random: Vec<u8> = (0..segments * 16)
                .map(|_| rng.gen_range(0..=max_entry) as u8)
                .collect();
            for lut in [&full, &random] {
                for b in 0..n.div_ceil(BLOCK) {
                    let block = &blocks[b * segments * 16..(b + 1) * segments * 16];
                    let mut expect = [0u32; BLOCK];
                    raw::scan_u8_scalar(block, lut, segments, &mut expect);
                    for kernel in raw::supported_kernels() {
                        let mut got = [0u32; BLOCK];
                        raw::scan_u8_with(kernel, block, lut, segments, max_entry, &mut got);
                        assert_eq!(
                            got,
                            expect,
                            "{} B_q {bq} D {padded} block {b}",
                            kernel.name()
                        );
                    }
                }
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
                Some(raw::active_kernel()),
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

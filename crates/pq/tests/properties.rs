//! Property-based tests for the PQ baseline: code validity, ADC identity
//! and LUT-quantization error bounds over randomized shapes.

use proptest::prelude::*;
use rabitq_math::vecs;
use rabitq_pq::{PqConfig, PqPacked, ProductQuantizer, QuantizedLuts};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn train_pq(n: usize, dim: usize, m: usize, k_bits: u8, seed: u64) -> (Vec<f32>, ProductQuantizer) {
    let mut rng = StdRng::seed_from_u64(seed);
    let data = rabitq_math::rng::standard_normal_vec(&mut rng, n * dim);
    let cfg = PqConfig {
        m,
        k_bits,
        train_iters: 6,
        training_sample: None,
        seed,
    };
    let pq = ProductQuantizer::train(&data, dim, &cfg);
    (data, pq)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn codes_stay_in_k_range(seed in 0u64..200, k4 in proptest::bool::ANY) {
        let k_bits = if k4 { 4u8 } else { 8 };
        let (data, pq) = train_pq(120, 16, 4, k_bits, seed);
        let codes = pq.encode_set(data.chunks_exact(16));
        let limit = 1u16 << k_bits;
        for i in 0..codes.len() {
            for &c in codes.code(i) {
                prop_assert!((c as u16) < limit);
            }
        }
    }

    #[test]
    fn adc_equals_distance_to_decoded(seed in 0u64..200) {
        let (data, pq) = train_pq(100, 16, 4, 4, seed);
        let codes = pq.encode_set(data.chunks_exact(16));
        let mut rng = StdRng::seed_from_u64(seed ^ 77);
        let query = rabitq_math::rng::standard_normal_vec(&mut rng, 16);
        let luts = pq.build_luts(&query);
        let mut rec = vec![0.0f32; 16];
        for i in 0..codes.len() {
            let adc = pq.adc_distance(&luts, codes.code(i));
            pq.decode(codes.code(i), &mut rec);
            let direct = vecs::l2_sq(&query, &rec);
            prop_assert!((adc - direct).abs() < 1e-2 * (1.0 + direct));
        }
    }

    #[test]
    fn encoding_is_optimal_per_segment(seed in 0u64..200) {
        let (data, pq) = train_pq(80, 8, 2, 4, seed);
        let v = &data[..8];
        let mut code = Vec::new();
        pq.encode(v, &mut code);
        for seg in 0..2 {
            let sub = &v[seg * 4..(seg + 1) * 4];
            let chosen = vecs::l2_sq(pq.centroid(seg, code[seg] as usize), sub);
            for c in 0..16 {
                prop_assert!(vecs::l2_sq(pq.centroid(seg, c), sub) >= chosen - 1e-5);
            }
        }
    }

    #[test]
    fn quantized_lut_error_bounded_by_scale(seed in 0u64..200) {
        // Per code: |fastscan − f32 ADC| ≤ M · scale (u8 rounding is at
        // most half a step per segment, plus clamping for in-range data).
        let (data, pq) = train_pq(90, 16, 4, 4, seed);
        let codes = pq.encode_set(data.chunks_exact(16));
        let packed = PqPacked::pack(&codes);
        let mut rng = StdRng::seed_from_u64(seed ^ 3);
        let query = rabitq_math::rng::standard_normal_vec(&mut rng, 16);
        let qluts = QuantizedLuts::build(&pq, &query);
        let f32_luts = pq.build_luts(&query);
        let mut est = Vec::new();
        packed.scan_all(&qluts, &mut est);
        for (i, e) in est.iter().enumerate().take(codes.len()) {
            let exact = pq.adc_distance(&f32_luts, codes.code(i));
            let bound = pq.m() as f32 * qluts.scale + 1e-3;
            prop_assert!((e - exact).abs() <= bound,
                "code {}: |{} - {}| > {}", i, e, exact, bound);
        }
    }

    #[test]
    fn packing_any_count_preserves_length(n in 1usize..70, seed in 0u64..100) {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = rabitq_math::rng::standard_normal_vec(&mut rng, n.max(16) * 8);
        let cfg = PqConfig { m: 2, k_bits: 4, train_iters: 4, training_sample: None, seed };
        let pq = ProductQuantizer::train(&data, 8, &cfg);
        let codes = pq.encode_set(data.chunks_exact(8).take(n));
        let packed = PqPacked::pack(&codes);
        prop_assert_eq!(packed.len(), n.min(data.len() / 8));
    }
}

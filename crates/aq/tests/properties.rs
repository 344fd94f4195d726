//! Property-based tests for the additive-quantization baseline.

use proptest::prelude::*;
use rabitq_aq::{AdditiveQuantizer, AqConfig};
use rabitq_math::vecs;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn trained(n: usize, dim: usize, m: usize, seed: u64) -> (Vec<f32>, AdditiveQuantizer) {
    let mut rng = StdRng::seed_from_u64(seed);
    let data = rabitq_math::rng::standard_normal_vec(&mut rng, n * dim);
    let cfg = AqConfig {
        m,
        k_bits: 4,
        refine_iters: 1,
        icm_passes: 1,
        kmeans_iters: 5,
        training_sample: None,
        seed,
    };
    let aq = AdditiveQuantizer::train(&data, dim, &cfg);
    (data, aq)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn decode_is_sum_of_selected_codewords(seed in 0u64..100) {
        let (_, aq) = trained(80, 8, 3, seed);
        let code = [1u8, 5, 14];
        let mut rec = vec![0.0f32; 8];
        aq.decode(&code, &mut rec);
        for (d, r) in rec.iter().enumerate().take(8) {
            let want: f32 = (0..3).map(|m| aq.codeword(m, code[m] as usize)[d]).sum();
            prop_assert!((r - want).abs() < 1e-5);
        }
    }

    #[test]
    fn adc_equals_decoded_distance(seed in 0u64..100) {
        let (data, aq) = trained(80, 8, 3, seed);
        let codes = aq.encode_set(data.chunks_exact(8).take(30));
        let mut rng = StdRng::seed_from_u64(seed ^ 1);
        let query = rabitq_math::rng::standard_normal_vec(&mut rng, 8);
        let luts = aq.build_ip_luts(&query);
        let q_norm_sq = vecs::dot(&query, &query);
        let mut rec = vec![0.0f32; 8];
        for i in 0..codes.len() {
            let code = codes.codes.code(i);
            let adc = aq.adc_distance(&luts, q_norm_sq, code, codes.recon_norms_sq[i]);
            aq.decode(code, &mut rec);
            let direct = vecs::l2_sq(&query, &rec);
            prop_assert!((adc - direct).abs() < 1e-2 * (1.0 + direct.abs()));
        }
    }

    #[test]
    fn recon_norms_match_decoded_vectors(seed in 0u64..100) {
        let (data, aq) = trained(60, 8, 2, seed);
        let codes = aq.encode_set(data.chunks_exact(8).take(20));
        let mut rec = vec![0.0f32; 8];
        for i in 0..codes.len() {
            aq.decode(codes.codes.code(i), &mut rec);
            let want = vecs::dot(&rec, &rec);
            prop_assert!((codes.recon_norms_sq[i] - want).abs() < 1e-3 * (1.0 + want));
        }
    }

    #[test]
    fn encoding_reduces_error_vs_zero_code(seed in 0u64..100) {
        // The chosen code must beat the all-zeros code for most vectors
        // (it is greedily optimal per codebook, so always ≤ on average).
        let (data, aq) = trained(60, 8, 3, seed);
        let mut rec = vec![0.0f32; 8];
        let mut code = vec![0u8; 3];
        let mut wins = 0usize;
        let total = 30usize;
        for i in 0..total {
            let v = &data[i * 8..(i + 1) * 8];
            aq.icm_encode(v, &mut code);
            aq.decode(&code, &mut rec);
            let chosen = vecs::l2_sq(v, &rec);
            aq.decode(&[0, 0, 0], &mut rec);
            let zero = vecs::l2_sq(v, &rec);
            if chosen <= zero + 1e-5 {
                wins += 1;
            }
        }
        prop_assert!(wins >= total * 9 / 10, "{wins}/{total}");
    }
}

//! Property-based tests for the RaBitQ core: kernel equivalences, query
//! quantization invariants, and estimator algebra, over randomized shapes.

use proptest::prelude::*;
use rabitq_core::fastscan::{Lut, PackedCodes};
use rabitq_core::kernels::{ip_code_query, ip_code_query_naive};
use rabitq_core::{estimator, CodeFactors, CodeSet, QuantizedQuery, Rabitq, RabitqConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_codes(n: usize, padded_dim: usize, seed: u64) -> CodeSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut set = CodeSet::new(padded_dim);
    let words = padded_dim / 64;
    for _ in 0..n {
        let code: Vec<u64> = (0..words).map(|_| rng.gen()).collect();
        set.push(
            &code,
            rng.gen_range(0.1f32..5.0),
            rng.gen_range(0.5f32..0.95),
        );
    }
    set
}

fn random_query(padded_dim: usize, bq: u8, seed: u64) -> QuantizedQuery {
    let mut rng = StdRng::seed_from_u64(seed);
    let residual = rabitq_math::rng::standard_normal_vec(&mut rng, padded_dim);
    QuantizedQuery::from_rotated_residual(&residual, bq, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bitwise_kernel_equals_naive(words in 1usize..8, bq in 1u8..=8, seed in 0u64..500) {
        let dim = words * 64;
        let query = random_query(dim, bq, seed);
        let set = random_codes(1, dim, seed ^ 1);
        prop_assert_eq!(
            ip_code_query(set.code_bits(0), &query),
            ip_code_query_naive(set.code_bits(0), &query)
        );
    }

    #[test]
    fn fastscan_equals_bitwise_for_any_count(n in 1usize..80, words in 1usize..6, seed in 0u64..300) {
        let dim = words * 64;
        let set = random_codes(n, dim, seed);
        let query = random_query(dim, 4, seed ^ 2);
        let packed = PackedCodes::pack(&set);
        let lut = Lut::build(&query);
        let mut out = Vec::new();
        packed.scan_all(&lut, &mut out);
        prop_assert_eq!(out.len(), n);
        for (i, &o) in out.iter().enumerate().take(n) {
            prop_assert_eq!(o, ip_code_query(set.code_bits(i), &query));
        }
    }

    #[test]
    fn quantized_entries_bounded_and_sum_consistent(words in 1usize..8, bq in 1u8..=8, seed in 0u64..500) {
        let query = random_query(words * 64, bq, seed);
        let max = (1u32 << bq) - 1;
        let mut sum = 0u32;
        for &v in query.qu() {
            prop_assert!((v as u32) <= max);
            sum += v as u32;
        }
        prop_assert_eq!(sum, query.sum_qu);
    }

    #[test]
    fn dequantized_entries_within_one_step(words in 1usize..6, seed in 0u64..300) {
        let dim = words * 64;
        let mut rng = StdRng::seed_from_u64(seed);
        let residual = rabitq_math::rng::standard_normal_vec(&mut rng, dim);
        let norm = rabitq_math::vecs::norm(&residual);
        let query = QuantizedQuery::from_rotated_residual(&residual, 4, &mut rng);
        for (i, &raw) in residual.iter().enumerate() {
            let exact = raw / norm;
            prop_assert!((exact - query.dequantized(i)).abs() <= query.delta * 1.001 + 1e-7);
        }
    }

    #[test]
    fn estimate_identity_lower_bound_le_dist(ip_bin in 0u32..4096, seed in 0u64..300,
                                             norm in 0.0f32..10.0, ip_oo in 0.05f32..1.0,
                                             popcount in 0u32..256) {
        let query = random_query(256, 4, seed);
        let f = CodeFactors { norm, ip_oo, popcount };
        let est = estimator::estimate(ip_bin, f, &query, 256, 1.9);
        prop_assert!(est.lower_bound <= est.dist_sq.max(0.0) + 1e-4);
        prop_assert!(est.lower_bound >= 0.0);
        prop_assert!(est.dist_sq.is_finite());
    }

    #[test]
    fn confidence_width_monotone_in_epsilon(ip_oo in 0.1f32..0.99, dim_words in 1usize..32) {
        let dim = dim_words * 64;
        let narrow = estimator::ip_confidence_halfwidth(ip_oo, dim, 1.0);
        let wide = estimator::ip_confidence_halfwidth(ip_oo, dim, 3.0);
        prop_assert!(wide >= narrow * 2.9 && wide <= narrow * 3.1);
    }

    #[test]
    fn code_roundtrip_signs(words in 1usize..6, seed in 0u64..300) {
        // Encoding a vector and reconstructing the quantized unit vector
        // must reproduce the signs of the rotated residual.
        let dim = words * 64;
        let cfg = RabitqConfig { padded_dim: Some(dim), seed, ..RabitqConfig::default() };
        let q = Rabitq::new(dim, cfg);
        let mut rng = StdRng::seed_from_u64(seed ^ 9);
        let v = rabitq_math::rng::standard_normal_vec(&mut rng, dim);
        let centroid = vec![0.0f32; dim];
        let codes = q.encode_set(std::iter::once(v.as_slice()), &centroid);
        let rotated = q.rotate(&v);
        let recon = codes.reconstruct_rotated(0);
        for d in 0..dim {
            if rotated[d].abs() > 1e-5 {
                prop_assert_eq!(recon[d] > 0.0, rotated[d] >= 0.0, "dim {}", d);
            }
        }
    }

    #[test]
    fn alignment_factor_in_unit_range(words in 1usize..6, seed in 0u64..300) {
        let dim = words * 64;
        let cfg = RabitqConfig { padded_dim: Some(dim), seed, ..RabitqConfig::default() };
        let q = Rabitq::new(dim, cfg);
        let mut rng = StdRng::seed_from_u64(seed ^ 5);
        let v = rabitq_math::rng::standard_normal_vec(&mut rng, dim);
        let centroid = vec![0.0f32; dim];
        let codes = q.encode_set(std::iter::once(v.as_slice()), &centroid);
        let f = codes.factors(0);
        // ⟨ō,o⟩ ∈ (0, 1]: it is a cosine between unit vectors, and the
        // sign-matching code always has non-negative alignment.
        prop_assert!(f.ip_oo > 0.0 && f.ip_oo <= 1.0 + 1e-5, "ip_oo {}", f.ip_oo);
    }
}

//! Edge-case and failure-injection tests across the public API surface.

use rabitq::core::{Rabitq, RabitqConfig};
use rabitq::data::registry::PaperDataset;
use rabitq::ivf::{FlatRabitq, IvfConfig, IvfRabitq, RerankStrategy};
use rabitq::math::rng::standard_normal_vec;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn single_vector_index_answers_every_query() {
    let dim = 32;
    let data = vec![0.5f32; dim];
    let index = IvfRabitq::build(&data, dim, &IvfConfig::new(4), RabitqConfig::default());
    assert_eq!(index.len(), 1);
    let mut rng = StdRng::seed_from_u64(1);
    let query = standard_normal_vec(&mut rng, dim);
    let res = index.search(&query, 10, 4, &mut rng);
    assert_eq!(res.neighbors.len(), 1);
    assert_eq!(res.neighbors[0].0, 0);
}

#[test]
fn duplicate_vectors_all_surface_in_topk() {
    let dim = 16;
    let mut rng = StdRng::seed_from_u64(2);
    let proto = standard_normal_vec(&mut rng, dim);
    // 20 identical copies plus 80 random vectors far away.
    let mut data = Vec::new();
    for _ in 0..20 {
        data.extend_from_slice(&proto);
    }
    for _ in 0..80 {
        let mut v = standard_normal_vec(&mut rng, dim);
        for x in v.iter_mut() {
            *x += 50.0;
        }
        data.extend_from_slice(&v);
    }
    let index = FlatRabitq::build(&data, dim, RabitqConfig::default());
    let res = index.search(&proto, 20, &mut rng);
    assert_eq!(res.neighbors.len(), 20);
    assert!(res.neighbors.iter().all(|&(id, d)| id < 20 && d < 1e-6));
}

#[test]
fn query_identical_to_centroid_is_handled() {
    // A query that coincides with a bucket centroid produces a zero
    // residual (Δ = 0 in the scalar quantization); estimates must stay
    // finite and correct.
    let dim = 24;
    let mut rng = StdRng::seed_from_u64(3);
    let data = standard_normal_vec(&mut rng, 200 * dim);
    let q = Rabitq::new(dim, RabitqConfig::default());
    let centroid = vec![0.0f32; dim]; // exactly the normalization point
    let codes = q.encode_set(data.chunks_exact(dim), &centroid);
    let prepared = q.prepare_query(&centroid.clone(), &centroid, &mut rng);
    for i in 0..200 {
        let est = q.estimate(&prepared, &codes, i);
        let exact = rabitq::math::vecs::l2_sq(&data[i * dim..(i + 1) * dim], &centroid);
        assert!(est.dist_sq.is_finite());
        // With q at the centroid the estimate is exact: dist² = ‖o − c‖².
        assert!(
            (est.dist_sq - exact).abs() / exact < 1e-3,
            "{} vs {exact}",
            est.dist_sq
        );
    }
}

#[test]
fn all_points_identical_is_degenerate_but_stable() {
    let dim = 16;
    let data = vec![1.0f32; 50 * dim];
    let index = IvfRabitq::build(&data, dim, &IvfConfig::new(4), RabitqConfig::default());
    let mut rng = StdRng::seed_from_u64(4);
    let query = vec![1.0f32; dim];
    let res = index.search(&query, 5, 4, &mut rng);
    assert_eq!(res.neighbors.len(), 5);
    assert!(res.neighbors.iter().all(|&(_, d)| d < 1e-10));
}

#[test]
fn high_dimensional_smoke_near_fastscan_u16_limit() {
    // padded_dim 3008 → 752 segments; max u16 accumulation 752·60 = 45120,
    // still within the SIMD kernel's overflow budget.
    let dim = 3000;
    let mut rng = StdRng::seed_from_u64(5);
    let data = standard_normal_vec(&mut rng, 40 * dim);
    let cfg = RabitqConfig {
        rotator: rabitq::core::RotatorKind::RandomizedHadamard, // O(D log D) keeps this fast
        ..RabitqConfig::default()
    };
    let q = Rabitq::new(dim, cfg);
    let centroid = vec![0.0f32; dim];
    let codes = q.encode_set(data.chunks_exact(dim), &centroid);
    let packed = q.pack(&codes);
    let prepared = q.prepare_query(&data[..dim], &centroid, &mut rng);
    let mut batch = Vec::new();
    q.estimate_batch(&prepared, &packed, &codes, &mut batch);
    for (i, &b) in batch.iter().enumerate().take(40) {
        assert_eq!(q.estimate(&prepared, &codes, i), b, "code {i}");
    }
    // Self-distance estimate should be near zero relative to typical
    // distances (~2·D).
    assert!(batch[0].dist_sq.abs() < 0.2 * 2.0 * dim as f32);
}

#[test]
fn nprobe_one_still_returns_results() {
    let ds = PaperDataset::Sift.generate(1_000, 4, 6);
    let index = IvfRabitq::build(
        &ds.data,
        ds.dim,
        &IvfConfig::new(8),
        RabitqConfig::default(),
    );
    let mut rng = StdRng::seed_from_u64(7);
    let res = index.search(ds.query(0), 5, 1, &mut rng);
    assert!(!res.neighbors.is_empty());
}

#[test]
fn rerank_zero_candidates_strategy_is_safe_on_tiny_buckets() {
    let ds = PaperDataset::Image.generate(60, 3, 8);
    let index = IvfRabitq::build(
        &ds.data,
        ds.dim,
        &IvfConfig::new(16),
        RabitqConfig::default(),
    );
    let mut rng = StdRng::seed_from_u64(9);
    for strategy in [
        RerankStrategy::ErrorBound,
        RerankStrategy::TopCandidates(1),
        RerankStrategy::None,
    ] {
        let res = index.search_with(ds.query(0), 10, 16, strategy, &mut rng);
        assert!(res.neighbors.len() <= 10);
        assert!(!res.neighbors.is_empty());
    }
}

#[test]
fn extreme_magnitude_vectors_do_not_overflow_estimates() {
    let dim = 32;
    let mut rng = StdRng::seed_from_u64(10);
    let mut data = standard_normal_vec(&mut rng, 100 * dim);
    for x in data.iter_mut().take(10 * dim) {
        *x *= 1e4;
    }
    let index = FlatRabitq::build(&data, dim, RabitqConfig::default());
    let query = standard_normal_vec(&mut rng, dim);
    let res = index.search(&query, 10, &mut rng);
    assert_eq!(res.neighbors.len(), 10);
    assert!(res.neighbors.iter().all(|&(_, d)| d.is_finite()));
    // The huge-magnitude vectors must rank far away, not corrupt the top.
    assert!(res.neighbors.iter().all(|&(id, _)| id >= 10));
}

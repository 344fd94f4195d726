//! Cross-crate consistency tests: every computation path that claims to be
//! equivalent must be *exactly* equivalent.

use rabitq::core::{Rabitq, RabitqConfig, RotatorKind};
use rabitq::data::registry::PaperDataset;
use rabitq::ivf::{IvfConfig, IvfRabitq, RerankStrategy};
use rabitq::math::vecs;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn batch_and_single_estimates_are_bit_identical_on_real_workloads() {
    for dataset in [PaperDataset::Sift, PaperDataset::Msong, PaperDataset::Gist] {
        let ds = dataset.generate(600, 3, 5);
        let centroid = vec![0.25f32; ds.dim];
        let q = Rabitq::new(ds.dim, RabitqConfig::default());
        let codes = q.encode_set((0..ds.n()).map(|i| ds.vector(i)), &centroid);
        let packed = q.pack(&codes);
        let mut rng = StdRng::seed_from_u64(8);
        for qi in 0..ds.n_queries() {
            let prepared = q.prepare_query(ds.query(qi), &centroid, &mut rng);
            let mut batch = Vec::new();
            q.estimate_batch(&prepared, &packed, &codes, &mut batch);
            for (i, &b) in batch.iter().enumerate().take(ds.n()) {
                let single = q.estimate(&prepared, &codes, i);
                assert_eq!(single, b, "{}: query {qi}, code {i}", ds.name);
            }
        }
    }
}

#[test]
fn all_rotator_kinds_give_valid_estimators() {
    let ds = PaperDataset::Deep.generate(800, 4, 11);
    let centroid = vec![0.0f32; ds.dim];
    for kind in [
        RotatorKind::DenseOrthogonal,
        RotatorKind::RandomizedHadamard,
    ] {
        let cfg = RabitqConfig {
            rotator: kind,
            ..RabitqConfig::default()
        };
        let q = Rabitq::new(ds.dim, cfg);
        let codes = q.encode_set((0..ds.n()).map(|i| ds.vector(i)), &centroid);
        let mut rng = StdRng::seed_from_u64(2);
        let mut total = 0.0f64;
        let mut count = 0u64;
        for qi in 0..ds.n_queries() {
            let prepared = q.prepare_query(ds.query(qi), &centroid, &mut rng);
            for i in 0..ds.n() {
                let est = q.estimate(&prepared, &codes, i);
                let exact = vecs::l2_sq(ds.vector(i), ds.query(qi));
                if exact > 0.0 {
                    total += ((est.dist_sq - exact).abs() / exact) as f64;
                    count += 1;
                }
            }
        }
        let avg = total / count as f64;
        assert!(avg < 0.12, "{kind:?}: avg rel err {avg}");
    }
}

#[test]
fn ivf_error_bound_search_is_consistent_with_exhaustive_topk() {
    // With every bucket probed and generous candidates, the index's answer
    // must equal the true exact top-k except for rare bound misses.
    let ds = PaperDataset::Image.generate(2_000, 10, 23);
    let gt = rabitq::data::exact_knn(&ds.data, ds.dim, &ds.queries, 10, 1);
    let index = IvfRabitq::build(
        &ds.data,
        ds.dim,
        &IvfConfig::new(10),
        RabitqConfig::default(),
    );
    let mut rng = StdRng::seed_from_u64(3);
    let mut mismatches = 0usize;
    let mut total = 0usize;
    for (qi, truth) in gt.iter().enumerate().take(ds.n_queries()) {
        let res = index.search(ds.query(qi), 10, 10, &mut rng);
        for (got, want) in res.neighbors.iter().zip(truth.iter()) {
            total += 1;
            if got.0 != want.0 {
                mismatches += 1;
            }
        }
    }
    assert!(
        mismatches as f64 / total as f64 <= 0.02,
        "{mismatches}/{total} exhaustive-probe mismatches"
    );
}

#[test]
fn rerank_strategies_rank_identically_under_full_information() {
    let ds = PaperDataset::Sift.generate(1_000, 6, 31);
    let index = IvfRabitq::build(
        &ds.data,
        ds.dim,
        &IvfConfig::new(8),
        RabitqConfig::default(),
    );
    let mut rng = StdRng::seed_from_u64(5);
    for qi in 0..ds.n_queries() {
        let a = index.search_with(ds.query(qi), 7, 8, RerankStrategy::ErrorBound, &mut rng);
        let b = index.search_with(
            ds.query(qi),
            7,
            8,
            RerankStrategy::TopCandidates(ds.n()),
            &mut rng,
        );
        let ids_a: Vec<u32> = a.neighbors.iter().map(|&(id, _)| id).collect();
        let ids_b: Vec<u32> = b.neighbors.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids_a, ids_b, "query {qi}");
        // And the fixed-candidate path must re-rank far more.
        assert!(a.n_reranked <= b.n_reranked);
    }
}

#[test]
fn epsilon_zero_and_large_epsilon_bracket_the_default() {
    // Monotonicity: recall(ε=0) ≤ recall(ε=1.9) ≤ recall(ε=4).
    let ds = PaperDataset::Word2Vec.generate(2_000, 10, 37);
    let gt = rabitq::data::exact_knn(&ds.data, ds.dim, &ds.queries, 20, 1);
    let index = IvfRabitq::build(
        &ds.data,
        ds.dim,
        &IvfConfig::new(10),
        RabitqConfig::default(),
    );
    let recall_at = |eps: f32| -> f64 {
        let mut rng = StdRng::seed_from_u64(6);
        let mut total = 0.0;
        for (qi, truth) in gt.iter().enumerate().take(ds.n_queries()) {
            let res = index.search_with(
                ds.query(qi),
                20,
                10,
                RerankStrategy::ErrorBoundWithEpsilon(eps),
                &mut rng,
            );
            let got: Vec<u32> = res.neighbors.iter().map(|&(id, _)| id).collect();
            let want: Vec<u32> = truth.iter().map(|&(id, _)| id).collect();
            total += rabitq::metrics::recall_at_k(&want, &got);
        }
        total / ds.n_queries() as f64
    };
    let r0 = recall_at(0.0);
    let r_default = recall_at(1.9);
    let r4 = recall_at(4.0);
    assert!(r0 <= r_default + 1e-9, "{r0} vs {r_default}");
    assert!(r_default <= r4 + 1e-9, "{r_default} vs {r4}");
    assert!(r4 > 0.99, "recall at eps=4: {r4}");
}

#[test]
fn facade_reexports_compose() {
    // The facade's paths must interoperate: math → core → ivf → metrics.
    let data = rabitq::math::rng::standard_normal_vec(&mut StdRng::seed_from_u64(1), 64 * 200);
    let index = IvfRabitq::build(&data, 64, &IvfConfig::new(4), RabitqConfig::default());
    assert_eq!(index.len(), 200);
    assert!(index.normalized_code_entropy() > 0.9);
}

//! Cross-crate integration tests: the full pipeline from synthetic data
//! through quantization, indexing and search, checking the paper's
//! headline claims end to end.

use rabitq::core::{Rabitq, RabitqConfig};
use rabitq::data::exact_knn;
use rabitq::data::registry::PaperDataset;
use rabitq::ivf::{IvfConfig, IvfPq, IvfRabitq, ScanMode};
use rabitq::math::vecs;
use rabitq::metrics::{recall_at_k, RelativeErrorStats};
use rabitq::pq::PqConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn avg_recall_rabitq(
    index: &IvfRabitq,
    ds: &rabitq::data::Dataset,
    gt: &[rabitq::data::Neighbors],
    k: usize,
    nprobe: usize,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(1);
    let mut total = 0.0;
    for (qi, truth) in gt.iter().enumerate().take(ds.n_queries()) {
        let res = index.search(ds.query(qi), k, nprobe, &mut rng);
        let got: Vec<u32> = res.neighbors.iter().map(|&(id, _)| id).collect();
        let want: Vec<u32> = truth.iter().map(|&(id, _)| id).collect();
        total += recall_at_k(&want, &got);
    }
    total / ds.n_queries() as f64
}

fn avg_recall_pq(
    index: &IvfPq,
    ds: &rabitq::data::Dataset,
    gt: &[rabitq::data::Neighbors],
    k: usize,
    nprobe: usize,
    rerank: usize,
) -> f64 {
    let mut total = 0.0;
    for (qi, truth) in gt.iter().enumerate().take(ds.n_queries()) {
        let res = index.search(ds.query(qi), k, nprobe, rerank, ScanMode::FastScanBatch);
        let got: Vec<u32> = res.neighbors.iter().map(|&(id, _)| id).collect();
        let want: Vec<u32> = truth.iter().map(|&(id, _)| id).collect();
        total += recall_at_k(&want, &got);
    }
    total / ds.n_queries() as f64
}

#[test]
fn ivf_rabitq_reaches_high_recall_on_every_dataset_family() {
    for dataset in [
        PaperDataset::Sift,
        PaperDataset::Msong,
        PaperDataset::Deep,
        PaperDataset::Word2Vec,
        PaperDataset::Image,
    ] {
        let ds = dataset.generate(4_000, 8, 3);
        let gt = exact_knn(&ds.data, ds.dim, &ds.queries, 10, 1);
        let index = IvfRabitq::build(
            &ds.data,
            ds.dim,
            &IvfConfig::new(20),
            RabitqConfig::default(),
        );
        let recall = avg_recall_rabitq(&index, &ds, &gt, 10, 20);
        assert!(
            recall > 0.97,
            "{}: IVF-RaBitQ full-probe recall {recall}",
            ds.name
        );
    }
}

#[test]
fn rabitq_beats_pq_fastscan_on_outlier_data() {
    // The MSong headline: same buckets, same probes — PQx4fs without a
    // huge rerank budget collapses, RaBitQ does not.
    let ds = PaperDataset::Msong.generate(5_000, 10, 7);
    let gt = exact_knn(&ds.data, ds.dim, &ds.queries, 10, 1);
    let ivf = IvfConfig::new(20);
    let rabitq = IvfRabitq::build(&ds.data, ds.dim, &ivf, RabitqConfig::default());
    let pq_cfg = PqConfig {
        m: ds.dim / 2,
        k_bits: 4,
        train_iters: 8,
        training_sample: Some(5_000),
        seed: 7,
    };
    let pq = IvfPq::build(&ds.data, ds.dim, &ivf, &pq_cfg, false);
    let r_rabitq = avg_recall_rabitq(&rabitq, &ds, &gt, 10, 20);
    let r_pq = avg_recall_pq(&pq, &ds, &gt, 10, 20, 50);
    assert!(
        r_rabitq > r_pq + 0.2,
        "RaBitQ {r_rabitq} should dominate PQx4fs {r_pq} on outlier data"
    );
    assert!(r_rabitq > 0.95, "RaBitQ recall {r_rabitq}");
}

#[test]
fn estimation_error_shrinks_with_code_length_across_the_pipeline() {
    // Theorem 3.2 end-to-end: doubling the code length should cut the
    // average relative error by roughly √2 (O(1/√B)).
    let ds = PaperDataset::Deep.generate(2_000, 5, 9);
    let centroid = vec![0.0f32; ds.dim];
    let mut errors = Vec::new();
    for pad in [1usize, 4] {
        let cfg = RabitqConfig {
            padded_dim: Some((ds.dim * pad).div_ceil(64) * 64),
            ..RabitqConfig::default()
        };
        let q = Rabitq::new(ds.dim, cfg);
        let codes = q.encode_set((0..ds.n()).map(|i| ds.vector(i)), &centroid);
        let mut rng = StdRng::seed_from_u64(2);
        let mut err = RelativeErrorStats::new();
        for qi in 0..ds.n_queries() {
            let prepared = q.prepare_query(ds.query(qi), &centroid, &mut rng);
            for i in 0..ds.n() {
                let est = q.estimate(&prepared, &codes, i);
                err.record(est.dist_sq, vecs::l2_sq(ds.vector(i), ds.query(qi)));
            }
        }
        errors.push(err.average());
    }
    // 4× the bits → expect close to half the error; accept 0.65 slack.
    assert!(
        errors[1] < errors[0] * 0.65,
        "1x: {:.4}, 4x: {:.4}",
        errors[0],
        errors[1]
    );
}

#[test]
fn error_bound_coverage_matches_theory_at_scale() {
    // One-sided violations at ε₀ = 1.9 occur with probability ≈
    // P(N(0,1) > 1.9) ≈ 2.9% per pair. Over ~40k pairs the empirical rate
    // must be within a factor ~2 of that.
    let ds = PaperDataset::Sift.generate(4_000, 10, 13);
    let centroid = vec![0.0f32; ds.dim];
    let q = Rabitq::new(ds.dim, RabitqConfig::default());
    let codes = q.encode_set((0..ds.n()).map(|i| ds.vector(i)), &centroid);
    let mut rng = StdRng::seed_from_u64(4);
    let mut violations = 0u64;
    let mut total = 0u64;
    for qi in 0..ds.n_queries() {
        let prepared = q.prepare_query(ds.query(qi), &centroid, &mut rng);
        for i in 0..ds.n() {
            let est = q.estimate(&prepared, &codes, i);
            let exact = vecs::l2_sq(ds.vector(i), ds.query(qi));
            total += 1;
            if est.lower_bound > exact {
                violations += 1;
            }
        }
    }
    let rate = violations as f64 / total as f64;
    assert!(rate < 0.06, "violation rate {rate} too high");
    assert!(
        rate > 0.002,
        "violation rate {rate} suspiciously low — bound may be slack"
    );
}

#[test]
fn hnsw_and_ivf_agree_on_easy_queries() {
    let ds = PaperDataset::Sift.generate(3_000, 6, 17);
    let gt = exact_knn(&ds.data, ds.dim, &ds.queries, 5, 1);
    let ivf = IvfRabitq::build(
        &ds.data,
        ds.dim,
        &IvfConfig::new(12),
        RabitqConfig::default(),
    );
    let hnsw = rabitq::hnsw::Hnsw::build(
        &ds.data,
        ds.dim,
        rabitq::hnsw::HnswConfig {
            m: 16,
            ef_construction: 200,
            seed: 1,
        },
    );
    let mut rng = StdRng::seed_from_u64(6);
    for (qi, truth) in gt.iter().enumerate().take(ds.n_queries()) {
        let ivf_ids: Vec<u32> = ivf
            .search(ds.query(qi), 5, 12, &mut rng)
            .neighbors
            .iter()
            .map(|&(id, _)| id)
            .collect();
        let hnsw_ids: Vec<u32> = hnsw
            .search(ds.query(qi), 5, 100)
            .iter()
            .map(|&(id, _)| id)
            .collect();
        let want: Vec<u32> = truth.iter().map(|&(id, _)| id).collect();
        assert!(recall_at_k(&want, &ivf_ids) >= 0.8, "query {qi} (ivf)");
        assert!(recall_at_k(&want, &hnsw_ids) >= 0.8, "query {qi} (hnsw)");
    }
}

//! Statistical verification tests: seeded, tolerance-banded checks that
//! the implementation matches the paper's *quantitative* theory, not just
//! its API contracts. These are the test-suite counterparts of the
//! verification experiments (Figures 1, 5–8).
//!
//! Every case runs for both rotator kinds: the paper's dense Haar matrix is
//! the reference, the randomized Hadamard transform is the default, and
//! the default is only allowed to be the default while it passes the same
//! checks.

use rabitq::core::{Rabitq, RabitqConfig, RotatorKind};
use rabitq::data::{generate, DatasetSpec, Profile};
use rabitq::math::rng::standard_normal_vec;
use rabitq::math::special::expected_code_alignment;
use rabitq::math::vecs;
use rabitq::store::{Collection, CollectionConfig, Manifest, Segment, MANIFEST_FILE};
use rand::rngs::StdRng;
use rand::SeedableRng;

const KINDS: [RotatorKind; 2] = [
    RotatorKind::DenseOrthogonal,
    RotatorKind::RandomizedHadamard,
];

/// Encodes `n` unit Gaussian vectors and returns the mean ⟨ō,o⟩.
fn mean_alignment(rotator: RotatorKind, dim: usize, n: usize, seed: u64) -> f64 {
    let q = Rabitq::new(
        dim,
        RabitqConfig {
            rotator,
            seed,
            padded_dim: Some(dim.div_ceil(64) * 64),
            ..RabitqConfig::default()
        },
    );
    let centroid = vec![0.0f32; dim];
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA11);
    let data: Vec<Vec<f32>> = (0..n).map(|_| standard_normal_vec(&mut rng, dim)).collect();
    let codes = q.encode_set(data.iter().map(|v| v.as_slice()), &centroid);
    (0..n).map(|i| codes.factors(i).ip_oo as f64).sum::<f64>() / n as f64
}

#[test]
fn alignment_matches_closed_form_across_dimensions() {
    // E[⟨ō,o⟩] = √(D/π)·2Γ(D/2)/((D−1)Γ((D−1)/2)) — Appendix B.1, Eq. 36.
    for rotator in KINDS {
        for dim in [128usize, 256, 512] {
            let measured = mean_alignment(rotator, dim, 400, 7);
            let theory = expected_code_alignment(dim);
            assert!(
                (measured - theory).abs() < 0.01,
                "{rotator:?} D={dim}: measured {measured:.4} vs theory {theory:.4}"
            );
        }
    }
}

#[test]
fn ip_estimation_error_decays_as_inverse_sqrt_dimension() {
    KINDS.into_iter().for_each(ip_error_decay);
}

fn ip_error_decay(rotator: RotatorKind) {
    // Theorem 3.2: |est − ⟨o,q⟩| = O(1/√D). Fit the measured RMS error at
    // three dimensions against C/√D; the fitted exponent must be ≈ −0.5.
    let mut points: Vec<(f64, f64)> = Vec::new();
    for dim in [128usize, 512, 2048] {
        let q = Rabitq::new(
            dim,
            RabitqConfig {
                rotator,
                seed: 3,
                ..RabitqConfig::default()
            },
        );
        let centroid = vec![0.0f32; dim];
        let mut rng = StdRng::seed_from_u64(11);
        let n = 150;
        let data: Vec<Vec<f32>> = (0..n).map(|_| standard_normal_vec(&mut rng, dim)).collect();
        let codes = q.encode_set(data.iter().map(|v| v.as_slice()), &centroid);
        let query = standard_normal_vec(&mut rng, dim);
        let prepared = q.prepare_query(&query, &centroid, &mut rng);
        let mut q_unit = query.clone();
        let q_norm = vecs::normalize(&mut q_unit);
        assert!(q_norm > 0.0);
        let mut sq_err = 0.0f64;
        for (i, v) in data.iter().enumerate() {
            let mut o_unit = v.clone();
            vecs::normalize(&mut o_unit);
            let true_ip = vecs::dot(&o_unit, &q_unit) as f64;
            let est = q.estimate(&prepared, &codes, i).ip_est as f64;
            sq_err += (est - true_ip).powi(2);
        }
        let rms = (sq_err / n as f64).sqrt();
        points.push(((dim as f64).ln(), rms.ln()));
    }
    // Least-squares slope of ln(rms) vs ln(D).
    let n = points.len() as f64;
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let slope = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum::<f64>()
        / points.iter().map(|p| (p.0 - mx).powi(2)).sum::<f64>();
    assert!(
        (-0.65..=-0.35).contains(&slope),
        "{rotator:?}: error-decay exponent {slope:.3}, expected ≈ −0.5"
    );
}

#[test]
fn estimator_is_unbiased_over_many_rotations() {
    KINDS.into_iter().for_each(unbiased_over_rotations);
}

fn unbiased_over_rotations(rotator: RotatorKind) {
    // Fix one (o, q) pair; re-sample the rotation many times. The mean of
    // the estimates must approach the true inner product (Theorem 3.2's
    // unbiasedness is over the rotation randomness).
    let dim = 64;
    let mut rng = StdRng::seed_from_u64(5);
    let o = {
        let mut v = standard_normal_vec(&mut rng, dim);
        vecs::normalize(&mut v);
        v
    };
    let q_vec = {
        let mut v = standard_normal_vec(&mut rng, dim);
        vecs::normalize(&mut v);
        v
    };
    let true_ip = vecs::dot(&o, &q_vec) as f64;
    let centroid = vec![0.0f32; dim];
    let trials = 600;
    let mut sum = 0.0f64;
    for t in 0..trials {
        let quantizer = Rabitq::new(
            dim,
            RabitqConfig {
                rotator,
                seed: 1000 + t,
                padded_dim: Some(dim),
                ..RabitqConfig::default()
            },
        );
        let codes = quantizer.encode_set(std::iter::once(o.as_slice()), &centroid);
        let prepared = quantizer.prepare_query(&q_vec, &centroid, &mut rng);
        sum += quantizer.estimate(&prepared, &codes, 0).ip_est as f64;
    }
    let mean = sum / trials as f64;
    // Per-trial std ≈ 0.75/√63 ≈ 0.095 ⇒ SEM ≈ 0.0039; allow 4 SEM.
    assert!(
        (mean - true_ip).abs() < 0.016,
        "{rotator:?}: mean estimate {mean:.4} vs true {true_ip:.4}"
    );
}

#[test]
fn bound_failure_rate_scales_with_epsilon() {
    KINDS.into_iter().for_each(bound_failure_rate);
}

fn bound_failure_rate(rotator: RotatorKind) {
    // P(miss) ≈ P(|N(0,1)| > ε₀)/1-sided: halving ε₀ must raise the
    // violation rate substantially; ε₀ = 4 must make it vanish.
    let dim = 128;
    let quantizer = Rabitq::new(
        dim,
        RabitqConfig {
            rotator,
            ..RabitqConfig::default()
        },
    );
    let centroid = vec![0.0f32; dim];
    let mut rng = StdRng::seed_from_u64(13);
    let n = 2_000;
    let data: Vec<Vec<f32>> = (0..n).map(|_| standard_normal_vec(&mut rng, dim)).collect();
    let codes = quantizer.encode_set(data.iter().map(|v| v.as_slice()), &centroid);
    let query = standard_normal_vec(&mut rng, dim);
    let prepared = quantizer.prepare_query(&query, &centroid, &mut rng);
    let violations = |eps: f32| -> usize {
        (0..n)
            .filter(|&i| {
                let est = quantizer.estimate_with_epsilon(&prepared, &codes, i, eps);
                est.lower_bound > vecs::l2_sq(&data[i], &query)
            })
            .count()
    };
    let v_half = violations(0.95);
    let v_default = violations(1.9);
    let v_wide = violations(4.0);
    assert!(
        v_half > v_default * 2,
        "{rotator:?}: {v_half} vs {v_default}"
    );
    assert_eq!(
        v_wide, 0,
        "{rotator:?}: ε₀ = 4 should never miss at this scale"
    );
}

#[test]
fn query_quantization_noise_is_negligible_at_bq4() {
    KINDS.into_iter().for_each(bq4_noise);
}

fn bq4_noise(rotator: RotatorKind) {
    // Theorem 3.3: B_q = 4 suffices — the scalar-quantization error is a
    // small fraction (measured ≈ 0.26, stable across seeds once averaged)
    // of the estimator's own error, so it cannot move recall.
    let dim = 256;
    let quantizer = Rabitq::new(
        dim,
        RabitqConfig {
            rotator,
            ..RabitqConfig::default()
        },
    );
    let centroid = vec![0.0f32; dim];
    let mut rng = StdRng::seed_from_u64(17);
    let n = 300;
    let data: Vec<Vec<f32>> = (0..n).map(|_| standard_normal_vec(&mut rng, dim)).collect();
    let codes = quantizer.encode_set(data.iter().map(|v| v.as_slice()), &centroid);

    // Same query quantized at B_q = 4 and B_q = 8; the estimate difference
    // is (almost) purely scalar-quantization noise. Averaged over several
    // queries so the ratio is stable rather than seed-sensitive.
    let mut quant_noise = 0.0f64;
    let mut est_error = 0.0f64;
    for _ in 0..5 {
        let query = standard_normal_vec(&mut rng, dim);
        let prep4 = quantizer.prepare_query_bq(&query, &centroid, 4, &mut rng);
        let prep8 = quantizer.prepare_query_bq(&query, &centroid, 8, &mut rng);
        for (i, v) in data.iter().enumerate() {
            let e4 = quantizer.estimate(&prep4, &codes, i).dist_sq as f64;
            let e8 = quantizer.estimate(&prep8, &codes, i).dist_sq as f64;
            let exact = vecs::l2_sq(v, &query) as f64;
            quant_noise += (e4 - e8).abs();
            est_error += (e8 - exact).abs();
        }
    }
    assert!(
        quant_noise < est_error / 3.0,
        "{rotator:?}: B_q-4 noise {quant_noise:.1} vs estimator error {est_error:.1}"
    );
}

/// What one on-disk collection contributes to the collection-level case.
/// Errors are normalised: `(est − exact) / halfwidth(ε₀ = 1)`, so a value
/// beyond ±ε₀ is a bound failure at that ε₀.
struct CollectionErrors {
    /// Mean normalised error over every live code of every sealed segment.
    mean: f64,
    /// Normalised errors of the candidates the collection must re-rank:
    /// lower bound under the k-th exact distance `CollectionReader::search`
    /// itself returned for the query.
    reranked: Vec<f64>,
}

/// Builds a collection the way an operator would — inserts through the WAL,
/// three seals at the memtable threshold, tombstones in every segment and
/// in the memtable, rows left unsealed — then recomputes, from the segment
/// files it wrote, the estimate of every live code against every query.
fn collection_errors(
    rotator: RotatorKind,
    dim: usize,
    rows_per_segment: usize,
    seed: u64,
) -> CollectionErrors {
    const K: usize = 10;
    let dir = std::env::temp_dir().join(format!(
        "rabitq-stat-{rotator:?}-{dim}-{seed}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let ds = generate(&DatasetSpec {
        name: "stat-collection".into(),
        dim,
        n: 3 * rows_per_segment + rows_per_segment / 2,
        n_queries: 40,
        profile: Profile::Clustered {
            clusters: 6,
            cluster_std: 1.0,
            center_scale: 2.0,
        },
        seed: 0x57A7 + dim as u64 + seed,
    });
    let mut config = CollectionConfig::new(dim);
    config.memtable_capacity = rows_per_segment;
    config.auto_compact = false;
    config.rabitq.rotator = rotator;
    config.rabitq.seed = seed;
    let mut collection = Collection::open(&dir, config).unwrap();
    for row in ds.data.chunks_exact(dim) {
        collection.insert(row).unwrap();
    }
    let deleted: Vec<u32> = (0..ds.n() as u32).filter(|id| id % 9 == 4).collect();
    for &id in &deleted {
        assert!(collection.delete(id).unwrap());
    }
    assert_eq!(collection.n_segments(), 3);
    assert!(collection.memtable_len() > 0);
    assert_eq!(collection.config().rabitq.rotator, rotator);

    let manifest = Manifest::load(&dir.join(MANIFEST_FILE)).unwrap();
    let segments: Vec<Segment> = manifest
        .segments
        .iter()
        .map(|meta| {
            let segment = Segment::load(&dir.join(&meta.file)).unwrap();
            for &id in &deleted {
                segment.delete(id);
            }
            segment
        })
        .collect();
    let epsilon0 = manifest.rabitq.epsilon0 as f64;
    // Rotate once per centroid and per (query, segment), as the engine does.
    let rotated_centroids: Vec<Vec<Vec<f32>>> = segments
        .iter()
        .map(|segment| {
            let index = segment.index();
            (0..index.n_buckets())
                .map(|c| index.quantizer().rotate(index.bucket(c).0))
                .collect()
        })
        .collect();

    let mut rng = StdRng::seed_from_u64(0xC011);
    let (mut sum, mut scanned) = (0.0f64, 0usize);
    let mut reranked = Vec::new();
    for qi in 0..ds.n_queries() {
        let query = ds.query(qi);
        let answer = collection.reader().search(query, K, usize::MAX, &mut rng);
        assert_eq!(answer.neighbors.len(), K);
        assert!(answer.neighbors.iter().all(|(id, _)| !deleted.contains(id)));
        let kth = answer.neighbors[K - 1].1;
        for (segment, rotated_centroids) in segments.iter().zip(&rotated_centroids) {
            let index = segment.index();
            let quantizer = index.quantizer();
            let rotated_query = quantizer.rotate(query);
            for (c, rotated_centroid) in rotated_centroids.iter().enumerate() {
                let (_, ids, codes) = index.bucket(c);
                if ids.is_empty() {
                    continue;
                }
                let prepared =
                    quantizer.prepare_query_prerotated(&rotated_query, rotated_centroid, &mut rng);
                for (i, &id) in ids.iter().enumerate() {
                    if index.is_deleted(id) {
                        continue;
                    }
                    let est = quantizer.estimate(&prepared, codes, i);
                    let halfwidth = (est.upper_bound - est.dist_sq) as f64 / epsilon0;
                    if halfwidth <= 0.0 {
                        continue; // the row is its centroid: the estimate is exact
                    }
                    let exact = vecs::l2_sq(index.vector(id), query);
                    let z = (est.dist_sq - exact) as f64 / halfwidth;
                    sum += z;
                    scanned += 1;
                    if est.lower_bound < kth {
                        reranked.push(z);
                    }
                }
            }
        }
    }
    drop(collection);
    std::fs::remove_dir_all(&dir).ok();
    CollectionErrors {
        mean: sum / scanned as f64,
        reranked,
    }
}

/// `|mean| ≤ 4·SEM` over per-collection means. One collection is one
/// observation: its codes share one rotation and its queries one
/// quantisation per bucket, so the ~10⁴ errors inside it are correlated and
/// only the rotation seeds are independent draws (Theorem 3.2's
/// unbiasedness is over the rotation).
fn assert_unbiased(label: &str, means: &[f64]) {
    let n = means.len() as f64;
    let mean = means.iter().sum::<f64>() / n;
    let var = means.iter().map(|m| (m - mean).powi(2)).sum::<f64>() / (n - 1.0);
    let sem = (var / n).sqrt();
    assert!(
        mean.abs() <= 4.0 * sem,
        "{label}: mean normalised error {mean:.4} is {:.1} SEM from zero",
        mean / sem
    );
}

#[test]
fn collection_level_estimates_are_unbiased_and_bounded_for_both_rotators() {
    /// Share of errors beyond ±ε₀.
    fn outside(errors: &[f64], epsilon0: f64) -> f64 {
        errors.iter().filter(|z| z.abs() > epsilon0).count() as f64 / errors.len() as f64
    }
    // P(|N(0,1)| > 1.9): the model `bound_failure_rate_scales_with_epsilon`
    // checks one-sided at the quantizer level.
    const GAUSSIAN_TAIL: f64 = 0.0574;

    let mut means: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for (dim, rows_per_segment) in [(64usize, 400usize), (128, 400), (960, 120)] {
        let mut reranked: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
        for (kind, &rotator) in KINDS.iter().enumerate() {
            let from = means[kind].len();
            for seed in 0..6 {
                let e = collection_errors(rotator, dim, rows_per_segment, seed);
                means[kind].push(e.mean);
                reranked[kind].extend(e.reranked);
            }
            assert_unbiased(&format!("{rotator:?} D={dim}"), &means[kind][from..]);

            // The model: errors are ≈ N(0, 1) in half-width units, so the
            // failure rate at ε₀ = 1.9 is near the Gaussian tail, halving
            // ε₀ multiplies it, and ε₀ = 4 makes it vanish.
            let r = &reranked[kind];
            let (half, default, wide) = (outside(r, 0.95), outside(r, 1.9), outside(r, 4.0));
            assert!(
                (GAUSSIAN_TAIL / 2.0..GAUSSIAN_TAIL * 2.0).contains(&default),
                "{rotator:?} D={dim}: {default:.4} of {} re-ranked candidates outside ε₀ = 1.9",
                r.len()
            );
            assert!(
                half > 2.0 * default,
                "{rotator:?} D={dim}: {half:.4} vs {default:.4}"
            );
            assert!(wide < 1e-3, "{rotator:?} D={dim}: {wide:.5} outside ε₀ = 4");
        }
        // The two kinds fail the bound equally often, to sampling error.
        let [dense, hadamard] = &reranked;
        let (p_d, p_h) = (outside(dense, 1.9), outside(hadamard, 1.9));
        let (n_d, n_h) = (dense.len() as f64, hadamard.len() as f64);
        let pooled = (p_d * n_d + p_h * n_h) / (n_d + n_h);
        let se = (pooled * (1.0 - pooled) * (1.0 / n_d + 1.0 / n_h)).sqrt();
        assert!(
            (p_d - p_h).abs() <= 4.0 * se,
            "D={dim}: dense {p_d:.4} (n={n_d}) vs Hadamard {p_h:.4} (n={n_h}), SE {se:.4}"
        );
    }
    for (rotator, means) in KINDS.iter().zip(&means) {
        assert_unbiased(&format!("{rotator:?}, all dimensions"), means);
    }
}

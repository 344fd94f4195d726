//! Property-based tests for KMeans invariants.

use proptest::prelude::*;
use rabitq_kmeans::{train, KMeans, KMeansConfig};
use rabitq_math::vecs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_data(n: usize, dim: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    rabitq_math::rng::standard_normal_vec(&mut rng, n * dim)
}

fn fit(n: usize, dim: usize, k: usize, seed: u64) -> (Vec<f32>, KMeans) {
    let data = random_data(n, dim, seed);
    let model = train(&data, dim, &KMeansConfig::new(k));
    (data, model)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn assignment_is_nearest(seed in 0u64..300, k in 2usize..8) {
        let (data, model) = fit(60, 6, k, seed);
        for row in data.chunks_exact(6) {
            let (c, d) = model.assign(row);
            for other in 0..model.k() {
                prop_assert!(vecs::l2_sq(model.centroid(other), row) >= d - 1e-5);
            }
            prop_assert!(c < model.k());
        }
    }

    #[test]
    fn top_n_is_sorted_prefix_of_full_ranking(seed in 0u64..300, n_probe in 1usize..6) {
        let (data, model) = fit(50, 5, 6, seed);
        let query = &data[..5];
        let top = model.assign_top_n(query, n_probe);
        prop_assert_eq!(top.len(), n_probe.min(model.k()));
        prop_assert!(top.windows(2).all(|w| w[0].1 <= w[1].1));
        // The full ranking's best must equal top[0].
        let mut all: Vec<(usize, f32)> = (0..model.k())
            .map(|c| (c, vecs::l2_sq(model.centroid(c), query)))
            .collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1));
        prop_assert_eq!(top[0].1, all[0].1);
    }

    #[test]
    fn every_cluster_is_nonempty_on_spread_data(seed in 0u64..200) {
        let (data, model) = fit(80, 4, 5, seed);
        let labels = model.assign_all(&data, 1);
        let mut counts = vec![0usize; model.k()];
        for &l in &labels {
            counts[l as usize] += 1;
        }
        // Empty-cluster repair guarantees nonempty training clusters; on
        // the same data the final assignment should also hit every
        // centroid.
        prop_assert!(counts.iter().all(|&c| c > 0), "counts {:?}", counts);
    }

    #[test]
    fn objective_bounded_by_total_variance(seed in 0u64..200, k in 1usize..6) {
        let (data, model) = fit(70, 4, k, seed);
        // Mean squared distance to the global mean = total variance; the
        // KMeans objective with k ≥ 1 can never exceed it (k = 1 attains
        // exactly it).
        let n = 70usize;
        let mut mean = vec![0.0f32; 4];
        for row in data.chunks_exact(4) {
            vecs::add_assign(&mut mean, row);
        }
        vecs::scale(&mut mean, 1.0 / n as f32);
        let total_var: f64 = data
            .chunks_exact(4)
            .map(|row| vecs::l2_sq(row, &mean) as f64)
            .sum::<f64>() / n as f64;
        prop_assert!(model.objective <= total_var * 1.01 + 1e-6,
            "objective {} vs variance {}", model.objective, total_var);
    }
}

/// The probe without a screen: every distance, ordered by distance
/// (`total_cmp`) and then centroid index, as bit patterns.
fn full_scan(model: &KMeans, x: &[f32], n: usize) -> Vec<(usize, u32)> {
    let mut all: Vec<(usize, f32)> = (0..model.k())
        .map(|c| (c, vecs::l2_sq(model.centroid(c), x)))
        .collect();
    all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    all.into_iter()
        .take(n)
        .map(|(c, d)| (c, d.to_bits()))
        .collect()
}

/// Asserts the screened probe equals [`full_scan`] bit for bit at
/// `n ∈ {1, 2, k − 1, k, k + 5}`, through one reused buffer.
fn assert_probe_is_exact(model: &KMeans, x: &[f32], what: &str) {
    let k = model.k();
    let mut out = Vec::new();
    for n in [1, 2, k.saturating_sub(1), k, k + 5] {
        model.assign_top_n_into(x, n, &mut out);
        let got: Vec<(usize, u32)> = out.iter().map(|&(c, d)| (c, d.to_bits())).collect();
        assert_eq!(
            got,
            full_scan(model, x, n),
            "{what}: dim {}, k {k}, n {n}",
            model.dim()
        );
    }
}

/// `k` centroids in `dim` dimensions: `clusters` blob centres with small
/// spread, so a query near one of them lets the screen prune.
fn blob_centroids(rng: &mut StdRng, k: usize, dim: usize) -> Vec<f32> {
    let clusters = k.div_ceil(3).max(1);
    let centres = rabitq_math::rng::standard_normal_vec(rng, clusters * dim);
    let mut out = Vec::with_capacity(k * dim);
    for c in 0..k {
        let centre = &centres[(c % clusters) * dim..(c % clusters + 1) * dim];
        out.extend(
            centre
                .iter()
                .map(|&v| 4.0 * v + rng.gen_range(-0.3f32..0.3)),
        );
    }
    out
}

/// Queries of every kind the probe must answer exactly: on a centroid,
/// near one, at random, far outside the grid, and with an infinite or NaN
/// entry.
fn queries(rng: &mut StdRng, centroids: &[f32], dim: usize) -> Vec<(Vec<f32>, &'static str)> {
    let k = centroids.len() / dim;
    let pick = |rng: &mut StdRng| {
        let c = rng.gen_range(0..k);
        centroids[c * dim..(c + 1) * dim].to_vec()
    };
    let mut out = vec![(pick(rng), "on a centroid")];
    for _ in 0..3 {
        let near: Vec<f32> = pick(rng)
            .iter()
            .map(|&v| v + rng.gen_range(-0.5f32..0.5))
            .collect();
        out.push((near, "near a centroid"));
    }
    out.push((rabitq_math::rng::standard_normal_vec(rng, dim), "gaussian"));
    out.push((
        pick(rng).iter().map(|v| v * 1e4 + 1e5).collect(),
        "far outside",
    ));
    for (bad, what) in [
        (f32::INFINITY, "+inf entry"),
        (f32::NEG_INFINITY, "-inf entry"),
        (f32::NAN, "NaN entry"),
    ] {
        let mut q = pick(rng);
        q[rng.gen_range(0..dim)] = bad;
        out.push((q, what));
    }
    out
}

/// Dimensions around the 32-byte kernel block and the 2 048-dimension
/// screen pass, and the two ledger shapes.
const SCREEN_DIMS: [usize; 8] = [1, 7, 31, 32, 33, 128, 960, 2100];

#[test]
fn screened_probe_equals_the_full_scan_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(37);
    for dim in SCREEN_DIMS {
        for k in [1, 2, 9, 40] {
            let centroids = blob_centroids(&mut rng, k, dim);
            let model = KMeans::from_centroids(centroids.clone(), dim);
            for (q, what) in queries(&mut rng, &centroids, dim) {
                assert_probe_is_exact(&model, &q, what);
            }
        }
    }
}

#[test]
fn screened_probe_is_exact_on_duplicate_and_constant_centroids() {
    let mut rng = StdRng::seed_from_u64(38);
    for dim in SCREEN_DIMS {
        // Every centroid twice, so ties in distance break by index.
        let half = blob_centroids(&mut rng, 6, dim);
        let twice = [&half[..], &half[..]].concat();
        let model = KMeans::from_centroids(twice.clone(), dim);
        for (q, what) in queries(&mut rng, &twice, dim) {
            assert_probe_is_exact(&model, &q, what);
        }
        // One value everywhere: the grid has no width (`hi == lo`).
        let constant = vec![0.75f32; 5 * dim];
        let model = KMeans::from_centroids(constant.clone(), dim);
        for (q, what) in queries(&mut rng, &constant, dim) {
            assert_probe_is_exact(&model, &q, what);
        }
    }
}

#[test]
fn screened_probe_is_exact_across_per_dimension_scales() {
    // Each dimension scaled by 10^u, u uniform in [−3, 3]: one shared grid
    // is too coarse for the small dimensions, which the error terms absorb.
    let mut rng = StdRng::seed_from_u64(39);
    for dim in SCREEN_DIMS {
        let scales: Vec<f32> = (0..dim)
            .map(|_| 10f32.powf(rng.gen_range(-3.0f32..3.0)))
            .collect();
        let scale = |v: &mut [f32]| {
            for (row, _) in v.chunks_exact_mut(dim).zip(0..) {
                for (x, s) in row.iter_mut().zip(&scales) {
                    *x *= s;
                }
            }
        };
        let mut centroids = blob_centroids(&mut rng, 30, dim);
        scale(&mut centroids);
        let model = KMeans::from_centroids(centroids.clone(), dim);
        for (mut q, what) in queries(&mut rng, &centroids, dim) {
            if what == "gaussian" {
                scale(&mut q);
            }
            assert_probe_is_exact(&model, &q, what);
        }
    }
}

#[test]
fn screened_probe_is_exact_on_trained_models() {
    for (dim, seed) in [(16, 1), (128, 2), (960, 3)] {
        let data = random_data(400, dim, seed);
        let model = train(&data, dim, &KMeansConfig::new(20));
        for row in data.chunks_exact(dim).step_by(37) {
            assert_probe_is_exact(&model, row, "training row");
        }
    }
}

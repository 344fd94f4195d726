//! KMeans clustering for the RaBitQ workspace.
//!
//! Two call sites drive the design:
//!
//! * the **IVF coarse quantizer** (Section 4 of the paper): `K ≈ 4√N`
//!   clusters over up to millions of vectors — so assignment is threaded and
//!   training can run on a subsample, exactly as Faiss does;
//! * the **PQ sub-codebook trainer**: 16 or 256 clusters over short
//!   sub-vectors, where exactness of the Lloyd loop matters more than speed.
//!
//! The implementation is plain k-means++ seeding plus Lloyd iterations with
//! empty-cluster repair (an empty cluster is re-seeded from the point
//! farthest from its current centroid, Faiss-style).

use rabitq_math::vecs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`train`].
#[derive(Clone, Debug)]
pub struct KMeansConfig {
    /// Number of clusters `K`.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// RNG seed (k-means++ seeding and empty-cluster repair).
    pub seed: u64,
    /// If set, train on at most this many points sampled without
    /// replacement; the final model still assigns all points.
    pub training_sample: Option<usize>,
    /// Number of worker threads for the assignment step. `1` disables
    /// threading. Values above the machine's parallelism are clamped by the
    /// OS scheduler, not by us.
    pub threads: usize,
    /// Convergence threshold on the relative objective improvement.
    pub tol: f64,
}

impl KMeansConfig {
    /// A reasonable default: 25 Lloyd iterations, single thread.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            max_iters: 25,
            seed: 0x5EED,
            training_sample: None,
            threads: 1,
            tol: 1e-4,
        }
    }
}

/// A trained KMeans model: `k` centroids of dimension `dim`.
#[derive(Clone, Debug)]
pub struct KMeans {
    centroids: Vec<f32>,
    dim: usize,
    k: usize,
    /// Final training objective (mean squared distance to assigned centroid).
    pub objective: f64,
    /// Number of Lloyd iterations actually run.
    pub iterations: usize,
}

impl KMeans {
    /// Reconstructs a model from stored centroids (index deserialization).
    ///
    /// # Panics
    /// Panics if `centroids.len()` is not a positive multiple of `dim`.
    pub fn from_centroids(centroids: Vec<f32>, dim: usize) -> Self {
        assert!(dim > 0, "dim must be positive");
        assert!(
            !centroids.is_empty() && centroids.len().is_multiple_of(dim),
            "centroid buffer shape"
        );
        let k = centroids.len() / dim;
        Self {
            centroids,
            dim,
            k,
            objective: f64::NAN,
            iterations: 0,
        }
    }

    /// Number of clusters.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Vector dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Centroid `c` as a slice.
    #[inline]
    pub fn centroid(&self, c: usize) -> &[f32] {
        &self.centroids[c * self.dim..(c + 1) * self.dim]
    }

    /// All centroids as a flat `k × dim` row-major buffer.
    #[inline]
    pub fn centroids(&self) -> &[f32] {
        &self.centroids
    }

    /// Index of the nearest centroid to `x` and the squared distance to it.
    pub fn assign(&self, x: &[f32]) -> (usize, f32) {
        debug_assert_eq!(x.len(), self.dim);
        let mut best = 0usize;
        let mut best_d = f32::INFINITY;
        for c in 0..self.k {
            let d = vecs::l2_sq(self.centroid(c), x);
            if d < best_d {
                best_d = d;
                best = c;
            }
        }
        (best, best_d)
    }

    /// Indices of the `n` nearest centroids to `x`, nearest first.
    ///
    /// Used by IVF to pick the `nprobe` buckets for a query.
    pub fn assign_top_n(&self, x: &[f32], n: usize) -> Vec<(usize, f32)> {
        let mut dists = Vec::new();
        self.assign_top_n_into(x, n, &mut dists);
        dists
    }

    /// [`KMeans::assign_top_n`] into a reused buffer; `n = 0` (or a model
    /// without centroids) leaves it empty. At steady state — a buffer
    /// whose capacity has reached `k` — the call performs no heap
    /// allocation; this is the probe-selection step of the allocation-free
    /// IVF query path.
    pub fn assign_top_n_into(&self, x: &[f32], n: usize, out: &mut Vec<(usize, f32)>) {
        out.clear();
        let n = n.min(self.k);
        if n == 0 {
            return;
        }
        out.extend((0..self.k).map(|c| (c, vecs::l2_sq(self.centroid(c), x))));
        out.select_nth_unstable_by(n - 1, |a, b| a.1.total_cmp(&b.1));
        out.truncate(n);
        out.sort_unstable_by(|a, b| a.1.total_cmp(&b.1));
    }

    /// Assigns every row of `data` (flat `n × dim`) to its nearest centroid,
    /// using up to `threads` worker threads.
    pub fn assign_all(&self, data: &[f32], threads: usize) -> Vec<u32> {
        let n = data.len() / self.dim;
        let mut out = vec![0u32; n];
        if n == 0 {
            return out;
        }
        let threads = threads.max(1).min(n);
        let chunk_rows = n.div_ceil(threads);
        std::thread::scope(|scope| {
            let mut remaining: &mut [u32] = &mut out;
            for t in 0..threads {
                let start = t * chunk_rows;
                if start >= n {
                    break;
                }
                let rows = chunk_rows.min(n - start);
                let (mine, rest) = remaining.split_at_mut(rows);
                remaining = rest;
                let data_chunk = &data[start * self.dim..(start + rows) * self.dim];
                scope.spawn(move || {
                    for (row, slot) in data_chunk.chunks_exact(self.dim).zip(mine.iter_mut()) {
                        *slot = self.assign(row).0 as u32;
                    }
                });
            }
        });
        out
    }
}

/// Trains a KMeans model over `data` (flat `n × dim` row-major).
///
/// # Panics
/// Panics if `data` is empty, `dim == 0`, `k == 0`, or `data.len()` is not a
/// multiple of `dim`.
pub fn train(data: &[f32], dim: usize, config: &KMeansConfig) -> KMeans {
    assert!(dim > 0, "dim must be positive");
    assert!(config.k > 0, "k must be positive");
    assert!(
        data.len().is_multiple_of(dim),
        "data length {} is not a multiple of dim {dim}",
        data.len()
    );
    let n = data.len() / dim;
    assert!(n > 0, "cannot train on an empty dataset");

    let mut rng = StdRng::seed_from_u64(config.seed);

    // Optionally subsample the training set (without replacement, partial
    // Fisher–Yates over an index array).
    let sample_indices: Vec<usize> = match config.training_sample {
        Some(cap) if cap < n => {
            let mut idx: Vec<usize> = (0..n).collect();
            for i in 0..cap {
                let j = rng.gen_range(i..n);
                idx.swap(i, j);
            }
            idx.truncate(cap);
            idx
        }
        _ => (0..n).collect(),
    };
    let tn = sample_indices.len();
    let row =
        |i: usize| -> &[f32] { &data[sample_indices[i] * dim..sample_indices[i] * dim + dim] };

    let k = config.k.min(tn);
    let mut centroids = kmeanspp_seed(&sample_indices, data, dim, k, &mut rng);

    let mut assignment = vec![0u32; tn];
    let mut objective = f64::INFINITY;
    let mut iterations = 0usize;
    let mut sums = vec![0.0f64; k * dim];
    let mut counts = vec![0usize; k];

    for iter in 0..config.max_iters {
        iterations = iter + 1;
        // Assignment step (threaded over the training sample).
        let model = KMeans {
            centroids: centroids.clone(),
            dim,
            k,
            objective: 0.0,
            iterations: 0,
        };
        let mut new_objective = 0.0f64;
        if config.threads <= 1 || tn < 1024 {
            for (i, slot) in assignment.iter_mut().enumerate().take(tn) {
                let (c, d) = model.assign(row(i));
                *slot = c as u32;
                new_objective += d as f64;
            }
        } else {
            let threads = config.threads.min(tn);
            let chunk = tn.div_ceil(threads);
            let partials: Vec<f64> = std::thread::scope(|scope| {
                let mut handles = Vec::new();
                let mut remaining: &mut [u32] = &mut assignment;
                for t in 0..threads {
                    let start = t * chunk;
                    if start >= tn {
                        break;
                    }
                    let rows = chunk.min(tn - start);
                    let (mine, rest) = remaining.split_at_mut(rows);
                    remaining = rest;
                    let model_ref = &model;
                    let sample_ref = &sample_indices;
                    handles.push(scope.spawn(move || {
                        let mut local = 0.0f64;
                        for (off, slot) in mine.iter_mut().enumerate() {
                            let gi = sample_ref[start + off];
                            let (c, d) = model_ref.assign(&data[gi * dim..gi * dim + dim]);
                            *slot = c as u32;
                            local += d as f64;
                        }
                        local
                    }));
                }
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            new_objective = partials.into_iter().sum();
        }
        new_objective /= tn as f64;

        // Update step.
        sums.fill(0.0);
        counts.fill(0);
        for (i, &a) in assignment.iter().enumerate().take(tn) {
            let c = a as usize;
            counts[c] += 1;
            let r = row(i);
            let s = &mut sums[c * dim..(c + 1) * dim];
            for (acc, &x) in s.iter_mut().zip(r.iter()) {
                *acc += x as f64;
            }
        }
        for c in 0..k {
            if counts[c] == 0 {
                // Empty-cluster repair: re-seed from the point farthest from
                // its assigned centroid.
                let mut worst = 0usize;
                let mut worst_d = -1.0f32;
                for (i, &a) in assignment.iter().enumerate().take(tn) {
                    let cur = a as usize;
                    let d = vecs::l2_sq(&centroids[cur * dim..(cur + 1) * dim], row(i));
                    if d > worst_d {
                        worst_d = d;
                        worst = i;
                    }
                }
                centroids[c * dim..(c + 1) * dim].copy_from_slice(row(worst));
                assignment[worst] = c as u32;
            } else {
                let inv = 1.0 / counts[c] as f64;
                for (dst, &s) in centroids[c * dim..(c + 1) * dim]
                    .iter_mut()
                    .zip(sums[c * dim..(c + 1) * dim].iter())
                {
                    *dst = (s * inv) as f32;
                }
            }
        }

        let improved = objective - new_objective;
        objective = new_objective;
        if improved >= 0.0 && improved < config.tol * objective.max(1e-30) {
            break;
        }
    }

    KMeans {
        centroids,
        dim,
        k,
        objective,
        iterations,
    }
}

/// k-means++ seeding (Arthur & Vassilvitskii 2007) over the sampled rows.
fn kmeanspp_seed(
    sample: &[usize],
    data: &[f32],
    dim: usize,
    k: usize,
    rng: &mut StdRng,
) -> Vec<f32> {
    let tn = sample.len();
    let row = |i: usize| -> &[f32] { &data[sample[i] * dim..sample[i] * dim + dim] };
    let mut centroids = vec![0.0f32; k * dim];

    let first = rng.gen_range(0..tn);
    centroids[..dim].copy_from_slice(row(first));

    // d2[i] = squared distance from point i to its closest chosen centroid.
    let mut d2: Vec<f64> = (0..tn)
        .map(|i| vecs::l2_sq(&centroids[..dim], row(i)) as f64)
        .collect();

    for c in 1..k {
        let total: f64 = d2.iter().sum();
        let chosen = if total <= 0.0 {
            // All points coincide with chosen centroids; pick uniformly.
            rng.gen_range(0..tn)
        } else {
            let mut target = rng.gen_range(0.0..total);
            let mut pick = tn - 1;
            for (i, &w) in d2.iter().enumerate() {
                if target < w {
                    pick = i;
                    break;
                }
                target -= w;
            }
            pick
        };
        let dst = &mut centroids[c * dim..(c + 1) * dim];
        dst.copy_from_slice(row(chosen));
        // Refresh d2 against the newly chosen centroid.
        let new_c = centroids[c * dim..(c + 1) * dim].to_vec();
        for (i, slot) in d2.iter_mut().enumerate() {
            let d = vecs::l2_sq(&new_c, row(i)) as f64;
            if d < *slot {
                *slot = d;
            }
        }
    }
    centroids
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three well-separated blobs in 2-D.
    fn blobs() -> (Vec<f32>, usize) {
        let mut data = Vec::new();
        let mut rng = StdRng::seed_from_u64(1);
        let centers = [(-10.0f32, 0.0f32), (10.0, 0.0), (0.0, 17.0)];
        for &(cx, cy) in &centers {
            for _ in 0..50 {
                data.push(cx + rng.gen_range(-0.5..0.5));
                data.push(cy + rng.gen_range(-0.5..0.5));
            }
        }
        (data, 2)
    }

    #[test]
    fn recovers_well_separated_blobs() {
        let (data, dim) = blobs();
        let model = train(&data, dim, &KMeansConfig::new(3));
        // Each blob's points must map to a single cluster, and the three
        // blobs to three distinct clusters.
        let labels = model.assign_all(&data, 1);
        for blob in 0..3 {
            let first = labels[blob * 50];
            assert!(
                labels[blob * 50..(blob + 1) * 50]
                    .iter()
                    .all(|&l| l == first),
                "blob {blob} split across clusters"
            );
        }
        let mut distinct: Vec<u32> = labels.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 3);
        // Objective should be tiny relative to blob separation.
        assert!(model.objective < 1.0, "objective {}", model.objective);
    }

    #[test]
    fn assign_returns_truly_nearest_centroid() {
        let (data, dim) = blobs();
        let model = train(&data, dim, &KMeansConfig::new(3));
        for i in 0..data.len() / dim {
            let x = &data[i * dim..(i + 1) * dim];
            let (c, d) = model.assign(x);
            for other in 0..model.k() {
                assert!(
                    vecs::l2_sq(model.centroid(other), x) + 1e-6 >= d,
                    "centroid {other} beats reported nearest {c}"
                );
            }
        }
    }

    #[test]
    fn assign_top_n_is_sorted_and_consistent_with_assign() {
        let (data, dim) = blobs();
        let model = train(&data, dim, &KMeansConfig::new(3));
        let x = &data[..dim];
        let top = model.assign_top_n(x, 3);
        assert_eq!(top.len(), 3);
        assert!(top.windows(2).all(|w| w[0].1 <= w[1].1));
        assert_eq!(top[0].0, model.assign(x).0);
        assert!(model.assign_top_n(x, 0).is_empty());
    }

    #[test]
    fn k_larger_than_n_is_clamped() {
        let data = vec![0.0f32, 0.0, 1.0, 1.0];
        let model = train(&data, 2, &KMeansConfig::new(16));
        assert_eq!(model.k(), 2);
    }

    #[test]
    fn single_cluster_centroid_is_the_mean() {
        let data = vec![1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
        let model = train(&data, 2, &KMeansConfig::new(1));
        assert!((model.centroid(0)[0] - 3.0).abs() < 1e-5);
        assert!((model.centroid(0)[1] - 4.0).abs() < 1e-5);
    }

    #[test]
    fn threaded_assignment_matches_single_threaded() {
        let (data, dim) = blobs();
        let model = train(&data, dim, &KMeansConfig::new(3));
        let single = model.assign_all(&data, 1);
        let multi = model.assign_all(&data, 4);
        assert_eq!(single, multi);
    }

    #[test]
    fn training_on_sample_still_produces_k_centroids() {
        let (data, dim) = blobs();
        let mut cfg = KMeansConfig::new(3);
        cfg.training_sample = Some(60);
        let model = train(&data, dim, &cfg);
        assert_eq!(model.k(), 3);
        assert_eq!(model.centroids().len(), 3 * dim);
    }

    #[test]
    fn duplicate_points_do_not_crash_seeding() {
        let data = vec![1.0f32; 2 * 40]; // 40 identical 2-D points
        let model = train(&data, 2, &KMeansConfig::new(4));
        assert_eq!(model.k(), 4);
        // All centroids must equal the single point.
        for c in 0..4 {
            assert!((model.centroid(c)[0] - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (data, dim) = blobs();
        let m1 = train(&data, dim, &KMeansConfig::new(3));
        let m2 = train(&data, dim, &KMeansConfig::new(3));
        assert_eq!(m1.centroids(), m2.centroids());
    }

    #[test]
    fn objective_decreases_with_more_clusters() {
        let (data, dim) = blobs();
        let m1 = train(&data, dim, &KMeansConfig::new(1));
        let m3 = train(&data, dim, &KMeansConfig::new(3));
        assert!(m3.objective < m1.objective);
    }
}

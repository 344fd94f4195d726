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
//!
//! The probe, [`KMeans::assign_top_n_into`], runs behind an **exact
//! screen**. Every model keeps, in memory only, a 7-bit copy of its
//! centroids on one uniform grid (`lo`, `step`) and each centroid's
//! quantisation error `e_c = ‖c − c̃‖`. A probe quantises the query once
//! (error `e_q`), takes the integer distance `D_c = Σ(q̂ − ĉ)²` to every
//! centroid with [`rabitq_math::simd::l2_sq_u7`], and by the triangle
//! inequality `‖x − c‖ ≥ step·√D_c − e_q − e_c`. It computes the float
//! distance for the `n` smallest bounds, then only for centroids whose
//! bound (less a `2⁻¹⁰` share, which covers the rounding of the float
//! distance) does not exceed the current `n`-th distance. The answer is
//! the full scan's to the bit. [`KMeans::assign`], [`KMeans::assign_all`]
//! and [`train`] are not screened.

use rabitq_math::{pool, simd, vecs};
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
    /// Threads for the assignment step. `1` disables threading. The shared
    /// [`pool`] caps values above the machine's parallelism.
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
    /// The probe's exact screen, derived from `centroids`; never persisted.
    screen: Screen,
    /// Final training objective (mean squared distance to assigned centroid).
    pub objective: f64,
    /// Number of Lloyd iterations actually run.
    pub iterations: usize,
}

/// Dimensions quantised per pass of the screen; the query's code for one
/// pass lives on the stack.
const SCREEN_CHUNK: usize = 2048;

/// Centroids per integer-kernel call; their sums live on the stack.
const SUM_BLOCK: usize = 64;

/// The share of a bound the screen trusts: the float distance it stands in
/// for is off by far less than `2⁻¹⁰` of itself.
const BOUND_SLACK: f64 = 1.0 - 1.0 / 1024.0;

/// A relative margin far above the `f64` rounding of the error norms and
/// of `step·√D` (each term below `dim·2⁻⁵³` of its magnitude).
const F64_SLACK: f64 = 1.0 / (1u64 << 32) as f64;

/// 7-bit codes of every centroid on one grid `lo + step·code`, and each
/// centroid's distance to its code. Non-finite coordinates quantise to
/// either end of the grid and give a non-finite error, which bounds
/// nothing.
#[derive(Clone, Debug)]
struct Screen {
    dim: usize,
    lo: f32,
    /// `127 / (hi − lo)` as the quantiser multiplies by it; `0` when every
    /// finite coordinate is equal.
    inv_step: f32,
    /// `(hi − lo) / 127`, the grid's spacing in reconstruction.
    step: f64,
    /// What the error norms give up to absolute rounding: `√dim·2⁻⁴⁸` of
    /// the grid's largest magnitude (each reconstructed coordinate is
    /// within `2⁻⁵³` of it).
    margin: f64,
    /// What the squared bound gives up: `dim` smallest normal `f32`s, as
    /// terms that small may vanish from the float distance.
    floor: f64,
    /// `k × dim` codes, pass-major: each pass of [`SCREEN_CHUNK`]
    /// dimensions holds its slice of every centroid's code back to back
    /// (row-major when `dim ≤ SCREEN_CHUNK`).
    codes: Vec<u8>,
    /// `e_c = ‖c − c̃‖`, in `f64`.
    errors: Vec<f64>,
}

impl Screen {
    fn build(centroids: &[f32], dim: usize) -> Self {
        let (lo, hi) = centroids
            .iter()
            .filter(|v| v.is_finite())
            .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (0.0, 0.0) };
        let span = hi as f64 - lo as f64;
        let grid = Self {
            dim,
            lo,
            inv_step: if span > 0.0 {
                (127.0 / span) as f32
            } else {
                0.0
            },
            step: span / 127.0,
            margin: (dim as f64).sqrt() * lo.abs().max(hi.abs()) as f64 * 2f64.powi(-48),
            floor: dim as f64 * f32::MIN_POSITIVE as f64,
            codes: Vec::new(),
            errors: Vec::new(),
        };
        let kernel = simd::active_kernel();
        let mut row_major = vec![0; centroids.len()];
        let errors = centroids
            .chunks_exact(dim)
            .zip(row_major.chunks_exact_mut(dim))
            .map(|(row, code)| {
                simd::quantise_u7(kernel, row, grid.lo, grid.inv_step, code);
                grid.error_sq(row, code).sqrt()
            })
            .collect();
        let codes = (0..dim)
            .step_by(SCREEN_CHUNK)
            .flat_map(|start| {
                let end = (start + SCREEN_CHUNK).min(dim);
                row_major
                    .chunks_exact(dim)
                    .flat_map(move |code| &code[start..end])
            })
            .copied()
            .collect();
        Self {
            codes,
            errors,
            ..grid
        }
    }

    /// `‖x − (lo + step·code)‖²` in `f64`, over four lanes.
    fn error_sq(&self, x: &[f32], code: &[u8]) -> f64 {
        let (lo, step) = (self.lo as f64, self.step);
        let term = |v: f32, q: u8| {
            let e = v as f64 - (lo + step * q as f64);
            e * e
        };
        let mut lanes = [0.0f64; 4];
        let (blocks_x, tail_x) = x.as_chunks::<4>();
        let (blocks_q, tail_q) = code.as_chunks::<4>();
        for (bx, bq) in blocks_x.iter().zip(blocks_q) {
            for ((lane, &v), &q) in lanes.iter_mut().zip(bx).zip(bq) {
                *lane += term(v, q);
            }
        }
        let tail: f64 = tail_x.iter().zip(tail_q).map(|(&v, &q)| term(v, q)).sum();
        lanes.iter().sum::<f64>() + tail
    }

    /// Fills `out` with `(c, bound_c)` for every centroid, a value the
    /// float distance `vecs::l2_sq(centroid c, x)` cannot fall below:
    /// `max(0, step·√D_c − e_q − e_c)²` less its slack. A NaN or infinite
    /// query entry makes every bound non-positive.
    fn bounds_into(&self, x: &[f32], out: &mut Vec<(usize, f32)>) {
        let (dim, k) = (self.dim, self.errors.len());
        let kernel = simd::active_kernel();
        let mut query = [0u8; SCREEN_CHUNK];
        let mut sums = [0u32; SUM_BLOCK];
        let mut query_error_sq = 0.0f64;
        // While the passes run, `out[c].0` accumulates `D_c`.
        out.resize(k, (0, 0.0));
        for start in (0..dim).step_by(SCREEN_CHUNK) {
            let end = (start + SCREEN_CHUNK).min(dim);
            let q = &mut query[..end - start];
            simd::quantise_u7(kernel, &x[start..end], self.lo, self.inv_step, q);
            query_error_sq += self.error_sq(&x[start..end], q);
            let pass = &self.codes[k * start..k * end];
            for (slots, rows) in out
                .chunks_mut(SUM_BLOCK)
                .zip(pass.chunks(SUM_BLOCK * q.len()))
            {
                let sums = &mut sums[..slots.len()];
                simd::l2_sq_u7(kernel, q, rows, sums);
                for ((sum, _), &part) in slots.iter_mut().zip(&*sums) {
                    *sum = sum.saturating_add(part as usize);
                }
            }
        }
        let query_error = query_error_sq.sqrt();
        for (c, (slot, &error)) in out.iter_mut().zip(&self.errors).enumerate() {
            let grid_distance = self.step * (slot.0 as f64).sqrt() * (1.0 - F64_SLACK);
            let errors = (query_error + error) * (1.0 + F64_SLACK) + self.margin;
            let gap = (grid_distance - errors).max(0.0);
            *slot = (c, (gap * gap * BOUND_SLACK - self.floor) as f32);
        }
    }
}

/// Index and squared distance of the centroid nearest to `x` (the first on
/// a tie), over a flat `k × dim` buffer.
fn nearest(centroids: &[f32], dim: usize, x: &[f32]) -> (usize, f32) {
    let mut best = 0usize;
    let mut best_d = f32::INFINITY;
    for (c, centroid) in centroids.chunks_exact(dim).enumerate() {
        let d = vecs::l2_sq(centroid, x);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    (best, best_d)
}

/// The probe's order: distance by `total_cmp`, then centroid index.
fn by_distance_then_index(a: &(usize, f32), b: &(usize, f32)) -> std::cmp::Ordering {
    a.1.total_cmp(&b.1).then(a.0.cmp(&b.0))
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
        Self::with_screen(centroids, dim, f64::NAN, 0)
    }

    /// A final model over `centroids`, its screen built.
    fn with_screen(centroids: Vec<f32>, dim: usize, objective: f64, iterations: usize) -> Self {
        Self {
            k: centroids.len() / dim,
            screen: Screen::build(&centroids, dim),
            centroids,
            dim,
            objective,
            iterations,
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
        nearest(&self.centroids, self.dim, x)
    }

    /// Indices of the `n` nearest centroids to `x`, nearest first.
    ///
    /// Used by IVF to pick the `nprobe` buckets for a query.
    pub fn assign_top_n(&self, x: &[f32], n: usize) -> Vec<(usize, f32)> {
        let mut dists = Vec::new();
        self.assign_top_n_into(x, n, &mut dists);
        dists
    }

    /// [`KMeans::assign_top_n`] into a reused buffer; `n = 0` leaves it
    /// empty. The answer is the full scan's: the `min(n, k)` pairs
    /// `(c, vecs::l2_sq(centroid c, x))` that come first by distance
    /// (`total_cmp`), then by `c`, in that order. The exact screen (see
    /// the crate doc) decides which distances it needs to compute. At
    /// steady state — a buffer whose capacity has reached `k` — the call
    /// performs no heap allocation; this is the probe-selection step of
    /// the allocation-free IVF query path.
    ///
    /// # Panics
    /// If `x.len()` is not the model's dimension.
    pub fn assign_top_n_into(&self, x: &[f32], n: usize, out: &mut Vec<(usize, f32)>) {
        self.screened_top_n(x, n, out);
    }

    /// [`KMeans::assign_top_n_into`], returning how many float distances
    /// it computed.
    pub(crate) fn screened_top_n(&self, x: &[f32], n: usize, out: &mut Vec<(usize, f32)>) -> usize {
        assert_eq!(x.len(), self.dim, "query dimensionality");
        out.clear();
        let n = n.min(self.k);
        if n == 0 {
            return 0;
        }
        if n < self.k {
            self.screen.bounds_into(x, out);
            out.select_nth_unstable_by(n - 1, |a, b| a.1.total_cmp(&b.1));
        } else {
            out.extend((0..self.k).map(|c| (c, 0.0)));
        }
        // The `n` smallest bounds are measured first, so the `n`-th
        // distance starts tight.
        for slot in &mut out[..n] {
            slot.1 = vecs::l2_sq(self.centroid(slot.0), x);
        }
        out[..n].sort_unstable_by(by_distance_then_index);
        let mut computed = n;
        for i in n..out.len() {
            let (c, bound) = out[i];
            // Written so that a NaN on either side measures the centroid.
            if bound > out[n - 1].1 {
                continue;
            }
            let candidate = (c, vecs::l2_sq(self.centroid(c), x));
            computed += 1;
            if by_distance_then_index(&candidate, &out[n - 1]).is_lt() {
                let at =
                    out[..n - 1].partition_point(|e| by_distance_then_index(e, &candidate).is_lt());
                out.copy_within(at..n - 1, at + 1);
                out[at] = candidate;
            }
        }
        out.truncate(n);
        computed
    }

    /// Assigns every row of `data` (flat `n × dim`) to its nearest centroid,
    /// using up to `threads` threads of the shared [`pool`].
    pub fn assign_all(&self, data: &[f32], threads: usize) -> Vec<u32> {
        let dim = self.dim;
        pool::map(data.len() / dim, threads, |i| {
            self.assign(&data[i * dim..(i + 1) * dim]).0 as u32
        })
    }
}

/// Trains a KMeans model over `data` (flat `n × dim` row-major).
///
/// # Panics
/// Panics if `data` is empty, `dim == 0`, `k == 0`, `data.len()` is not a
/// multiple of `dim`, or a row holds a NaN or an infinity (naming the
/// first such row: no seeding or centroid is defined over it).
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
    if let Some(at) = data.iter().position(|v| !v.is_finite()) {
        panic!(
            "row {} holds a non-finite value; k-means trains on finite rows only",
            at / dim
        );
    }

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
        // Assignment step: fanned out over the training sample, then one
        // serial pass in row order, so the objective is bit-identical at
        // every thread count.
        let nearest_all = pool::map(tn, config.threads, |i| nearest(&centroids, dim, row(i)));
        let mut new_objective = 0.0f64;
        for (slot, (c, d)) in assignment.iter_mut().zip(nearest_all) {
            *slot = c as u32;
            new_objective += d as f64;
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

    KMeans::with_screen(centroids, dim, objective, iterations)
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
    fn screen_prunes_the_probe_on_a_sift_like_model() {
        // The ledger's `engine_d128` segment: 6 000 sift-like rows, 4·√n =
        // 310 centroids, nprobe 3. Every exactness test would still pass
        // with a screen that measured every centroid; this one would not.
        use rabitq_data::registry::PaperDataset;
        let ds = rabitq_data::generate(&PaperDataset::Sift.spec(6_000, 200, 42));
        let mut config = KMeansConfig::new(310);
        config.max_iters = 10;
        let model = train(&ds.data, ds.dim, &config);
        assert_eq!(model.k(), 310);
        let mut probes = Vec::new();
        let computed: usize = (0..ds.n_queries())
            .map(|i| model.screened_top_n(ds.query(i), 3, &mut probes))
            .sum();
        let per_query = computed as f64 / ds.n_queries() as f64;
        assert!(
            per_query <= 10.0,
            "{per_query:.2} of 310 distances computed per query"
        );
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
    fn threaded_lloyd_matches_single_threaded() {
        // With threads > 1 the assignment step runs on the pool; its
        // objective and centroids must equal the serial ones to the bit.
        let (n, dim) = (3_000, 16);
        let mut rng = StdRng::seed_from_u64(7);
        let data = rabitq_math::rng::standard_normal_vec(&mut rng, n * dim);
        let mut config = KMeansConfig::new(40);
        let single = train(&data, dim, &config);
        config.threads = 4;
        let threaded = train(&data, dim, &config);
        assert_eq!(single.centroids(), threaded.centroids());
        assert_eq!(single.objective.to_bits(), threaded.objective.to_bits());
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

    #[test]
    #[should_panic(expected = "row 77 holds a non-finite value")]
    fn non_finite_rows_are_refused_by_name() {
        let (mut data, dim) = blobs();
        data[77 * dim + 1] = f32::NAN;
        train(&data, dim, &KMeansConfig::new(3));
    }
}

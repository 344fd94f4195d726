//! The [`GraphRabitq`] index: HNSW navigation ranked by the RaBitQ
//! single-code estimator, with error-bound-based exact re-ranking.

use rabitq_core::{CodeSet, QuantizedQuery, Rabitq, RabitqConfig};
use rabitq_hnsw::{Hnsw, HnswConfig};
use rabitq_kmeans::KMeansConfig;
use rabitq_math::topk::TopK;
use rabitq_math::vecs;
use rand::Rng;

/// Configuration of a [`GraphRabitq`] index.
#[derive(Clone, Copy, Debug)]
pub struct GraphRabitqConfig {
    /// Graph construction parameters (the paper's Figure 4 defaults:
    /// `M = 16`, `efConstruction = 500`).
    pub hnsw: HnswConfig,
    /// Quantizer parameters (`B_q = 4`, `ε₀ = 1.9` by default).
    pub rabitq: RabitqConfig,
    /// How traversal candidates become final results.
    pub rerank: GraphRerank,
    /// Number of normalization centroids. `1` normalizes against the data
    /// mean (how Lucene's RaBitQ port operates); larger values cluster
    /// the data with KMeans and normalize each vector against its own
    /// cluster centroid — Section 3.1.1's prescription, which shrinks
    /// `‖o_r − c‖` and therefore every confidence interval, at the cost
    /// of one extra query quantization per centroid.
    pub centroids: usize,
}

impl Default for GraphRabitqConfig {
    fn default() -> Self {
        Self {
            hnsw: HnswConfig::default(),
            rabitq: RabitqConfig::default(),
            rerank: GraphRerank::default(),
            centroids: 1,
        }
    }
}

/// Re-ranking policy for the `ef` candidates the traversal surfaces.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum GraphRerank {
    /// The paper's Section 4 rule: compute an exact distance iff the
    /// candidate's lower bound beats the current K-th best exact
    /// distance. Parameter-free.
    #[default]
    ErrorBound,
    /// PQ-style: exactly re-rank the `n` candidates with the smallest
    /// estimated distances.
    Top(usize),
    /// Rank purely by estimated distances (ablation; distances in the
    /// result are estimates).
    None,
}

/// Result of one graph query, with traversal accounting.
#[derive(Clone, Debug, Default)]
pub struct GraphSearchResult {
    /// `(id, squared distance)` ascending — exact under re-ranking,
    /// estimated under [`GraphRerank::None`].
    pub neighbors: Vec<(u32, f32)>,
    /// Vertices whose distance was estimated from their 1-bit code.
    pub n_estimated: usize,
    /// Candidates re-ranked with an exact distance computation.
    pub n_reranked: usize,
}

/// A query prepared for the graph index: one [`QuantizedQuery`] per
/// normalization centroid, all derived from a single rotation of the raw
/// query (the rotate-once/shift-per-centroid fast path).
pub(crate) struct PreparedGraphQuery {
    per_centroid: Vec<QuantizedQuery>,
}

/// An HNSW graph searched through RaBitQ codes.
///
/// The graph is built on exact distances (construction quality is an
/// index-phase cost, paid once); queries touch raw vectors only for the
/// candidates that survive the error-bound filter.
pub struct GraphRabitq {
    pub(crate) graph: Hnsw,
    pub(crate) quantizer: Rabitq,
    pub(crate) codes: CodeSet,
    /// Flat `c × dim` normalization centroids.
    pub(crate) centroids: Vec<f32>,
    /// Flat `c × padded_dim` rotated centroids (`P⁻¹c`), derived.
    pub(crate) rotated_centroids: Vec<f32>,
    /// Centroid index of each vector.
    pub(crate) assignments: Vec<u32>,
    pub(crate) rerank: GraphRerank,
}

impl GraphRabitq {
    /// Builds an index over a flat `n × dim` buffer.
    ///
    /// # Panics
    /// Panics if `config.rabitq` fails `RabitqConfig::validate` (see
    /// [`Rabitq::new`]).
    pub fn build(data: &[f32], dim: usize, config: GraphRabitqConfig) -> Self {
        assert!(dim > 0, "dim must be positive");
        assert!(data.len().is_multiple_of(dim), "data shape");
        assert!(config.centroids >= 1, "at least one centroid");
        let n = data.len() / dim;
        let quantizer = Rabitq::new(dim, config.rabitq);
        let graph = Hnsw::build(data, dim, config.hnsw);

        let (centroids, assignments) = if config.centroids == 1 || n <= config.centroids {
            (mean_vector(data, dim, n), vec![0u32; n])
        } else {
            let km = rabitq_kmeans::train(
                data,
                dim,
                &KMeansConfig {
                    seed: config.rabitq.seed,
                    ..KMeansConfig::new(config.centroids)
                },
            );
            let assignments = km.assign_all(data, 1);
            (km.centroids().to_vec(), assignments)
        };

        let mut codes = quantizer.new_code_set();
        for (row, &c) in data.chunks_exact(dim).zip(&assignments) {
            let centroid = &centroids[c as usize * dim..(c as usize + 1) * dim];
            quantizer.encode_into(row, centroid, &mut codes);
        }
        let rotated_centroids = rotate_rows(&quantizer, &centroids, dim);
        Self {
            graph,
            quantizer,
            codes,
            centroids,
            rotated_centroids,
            assignments,
            rerank: config.rerank,
        }
    }

    /// Inserts a vector, returning its id. The vector is linked into the
    /// graph with exact distances and encoded against its nearest
    /// centroid among those fixed at build time (the standard
    /// streaming-ingest compromise — rotation and centroids are
    /// index-wide state).
    pub fn insert(&mut self, vector: &[f32]) -> u32 {
        let id = self.graph.insert(vector);
        let dim = self.graph.dim();
        let c = self
            .centroids
            .chunks_exact(dim)
            .enumerate()
            .map(|(i, row)| (i, vecs::l2_sq(row, vector)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map_or(0, |(i, _)| i);
        let centroid = &self.centroids[c * dim..(c + 1) * dim];
        self.quantizer
            .encode_into(vector, centroid, &mut self.codes);
        self.assignments.push(c as u32);
        id
    }

    /// Number of indexed vectors.
    #[inline]
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    /// Whether the index is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }

    /// Input dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.graph.dim()
    }

    /// The shared quantizer.
    #[inline]
    pub fn quantizer(&self) -> &Rabitq {
        &self.quantizer
    }

    /// The underlying graph (e.g. for exact-traversal baselines).
    #[inline]
    pub fn graph(&self) -> &Hnsw {
        &self.graph
    }

    /// The number of normalization centroids.
    #[inline]
    pub fn n_centroids(&self) -> usize {
        self.centroids.len() / self.graph.dim().max(1)
    }

    /// The flat `c × dim` normalization centroids.
    #[inline]
    pub fn centroids(&self) -> &[f32] {
        &self.centroids
    }

    /// Rotates the raw query once, then residualizes and quantizes it
    /// against every centroid (Algorithm 2, lines 1–2, shifted per
    /// centroid).
    pub(crate) fn prepare_query<R: Rng + ?Sized>(
        &self,
        query: &[f32],
        rng: &mut R,
    ) -> PreparedGraphQuery {
        assert_eq!(query.len(), self.dim(), "query dimensionality");
        let rotated = self.quantizer.rotate(query);
        let padded = self.quantizer.padded_dim();
        let bq = self.quantizer.config().bq;
        let mut residual = vec![0.0f32; padded];
        let per_centroid = self
            .rotated_centroids
            .chunks_exact(padded)
            .map(|rc| {
                vecs::sub(&rotated, rc, &mut residual);
                QuantizedQuery::from_rotated_residual(&residual, bq, rng)
            })
            .collect();
        PreparedGraphQuery { per_centroid }
    }

    /// The estimated squared distance from a prepared query to vertex
    /// `id`, straight from its 1-bit code.
    #[inline]
    pub(crate) fn estimate(
        &self,
        prepared: &PreparedGraphQuery,
        id: u32,
    ) -> rabitq_core::DistanceEstimate {
        let q = &prepared.per_centroid[self.assignments[id as usize] as usize];
        self.quantizer.estimate(q, &self.codes, id as usize)
    }

    /// Searches the `k` approximate nearest neighbors with beam width
    /// `ef_search` (clamped up to `k`), ranking traversal by estimated
    /// distances and re-ranking per the configured [`GraphRerank`].
    pub fn search<R: Rng + ?Sized>(
        &self,
        query: &[f32],
        k: usize,
        ef_search: usize,
        rng: &mut R,
    ) -> GraphSearchResult {
        assert_eq!(query.len(), self.dim(), "query dimensionality");
        if self.is_empty() || k == 0 {
            return GraphSearchResult::default();
        }
        let prepared = self.prepare_query(query, rng);

        // Greedy descent through the upper layers and the base-layer beam
        // search, both on estimated distances. The candidate pool is
        // *every vertex the beam estimated*, not only the `ef` survivors:
        // 1-bit estimates are too noisy to rank the beam reliably (the
        // paper's Figure 10 point), but the pool is already paid for — the
        // bound decides what is worth re-ranking.
        let mut n_estimated = 0usize;
        let entry = self.graph.descend(0, |id| {
            n_estimated += 1;
            self.estimate(&prepared, id).dist_sq
        });
        let ef = ef_search.max(k);
        // The walk carries the entry's distance only; its lower bound for
        // the pool needs the estimate once more (not counted again).
        let e = self.estimate(&prepared, entry.0);
        let mut candidates = Vec::with_capacity(4 * ef);
        candidates.push((entry.0, e.dist_sq, e.lower_bound));
        self.graph.search_layer_by(entry, ef, 0, |id| {
            n_estimated += 1;
            let e = self.estimate(&prepared, id);
            candidates.push((id, e.dist_sq, e.lower_bound));
            e.dist_sq
        });
        candidates.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));

        // Re-ranking.
        let mut result = GraphSearchResult {
            neighbors: Vec::new(),
            n_estimated,
            n_reranked: 0,
        };
        match self.rerank {
            GraphRerank::None => {
                result.neighbors = candidates.iter().map(|&(id, e, _)| (id, e)).collect();
                result.neighbors.truncate(k);
            }
            GraphRerank::Top(n) => {
                let mut exact: Vec<(u32, f32)> = candidates
                    .iter()
                    .take(n)
                    .map(|&(id, _, _)| (id, vecs::l2_sq(self.graph.vector(id), query)))
                    .collect();
                result.n_reranked = exact.len();
                exact.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
                exact.truncate(k);
                result.neighbors = exact;
            }
            GraphRerank::ErrorBound => {
                // Section 4: candidates arrive in ascending estimate order;
                // skip any whose lower bound cannot beat the K-th best
                // exact distance found so far.
                let mut top = TopK::new(k);
                for &(id, _, lb) in &candidates {
                    if lb > top.threshold() {
                        continue;
                    }
                    result.n_reranked += 1;
                    top.push(id, vecs::l2_sq(self.graph.vector(id), query));
                }
                result.neighbors = top.into_sorted();
            }
        }
        result
    }
}

/// Rotates each `dim`-row of `rows` with the index rotation, yielding a
/// flat `c × padded_dim` buffer.
pub(crate) fn rotate_rows(quantizer: &Rabitq, rows: &[f32], dim: usize) -> Vec<f32> {
    let mut out = Vec::with_capacity(rows.len() / dim * quantizer.padded_dim());
    for row in rows.chunks_exact(dim) {
        out.extend_from_slice(&quantizer.rotate(row));
    }
    out
}

/// The arithmetic mean of `n` rows.
fn mean_vector(data: &[f32], dim: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; dim];
    if n == 0 {
        return c;
    }
    for row in data.chunks_exact(dim) {
        for (acc, &x) in c.iter_mut().zip(row) {
            *acc += x;
        }
    }
    let inv = 1.0 / n as f32;
    for x in c.iter_mut() {
        *x *= inv;
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn gaussian_data(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        rabitq_math::rng::standard_normal_vec(&mut rng, n * dim)
    }

    fn brute_force(data: &[f32], dim: usize, query: &[f32], k: usize) -> Vec<u32> {
        let mut all: Vec<(u32, f32)> = data
            .chunks_exact(dim)
            .enumerate()
            .map(|(i, row)| (i as u32, vecs::l2_sq(row, query)))
            .collect();
        all.sort_unstable_by(|a, b| a.1.total_cmp(&b.1));
        all.truncate(k);
        all.into_iter().map(|(id, _)| id).collect()
    }

    #[test]
    fn empty_and_zero_k() {
        let index = GraphRabitq::build(&[], 8, GraphRabitqConfig::default());
        let mut rng = StdRng::seed_from_u64(0);
        assert!(index.is_empty());
        assert!(index
            .search(&[0.0; 8], 5, 16, &mut rng)
            .neighbors
            .is_empty());

        let data = gaussian_data(50, 8, 1);
        let index = GraphRabitq::build(&data, 8, GraphRabitqConfig::default());
        assert!(index
            .search(&data[..8], 0, 16, &mut rng)
            .neighbors
            .is_empty());
    }

    #[test]
    fn finds_exact_match_with_rerank() {
        let (n, dim) = (300, 32);
        let data = gaussian_data(n, dim, 2);
        let index = GraphRabitq::build(&data, dim, GraphRabitqConfig::default());
        let mut rng = StdRng::seed_from_u64(3);
        for probe in [0usize, 17, 123, n - 1] {
            let query = &data[probe * dim..(probe + 1) * dim];
            let result = index.search(query, 1, 64, &mut rng);
            assert_eq!(result.neighbors[0].0, probe as u32, "probe {probe}");
            assert!(result.neighbors[0].1 <= 1e-6);
        }
    }

    #[test]
    fn recall_close_to_exact_traversal() {
        let (n, dim, k) = (1_000, 48, 10);
        let data = gaussian_data(n, dim, 4);
        let index = GraphRabitq::build(&data, dim, GraphRabitqConfig::default());
        let mut rng = StdRng::seed_from_u64(5);

        let mut hits = 0usize;
        let mut total = 0usize;
        for q in 0..20 {
            let query = gaussian_data(1, dim, 100 + q);
            let truth = brute_force(&data, dim, &query, k);
            let got = index.search(&query, k, 128, &mut rng);
            let got_ids: std::collections::HashSet<u32> =
                got.neighbors.iter().map(|&(id, _)| id).collect();
            hits += truth.iter().filter(|t| got_ids.contains(t)).count();
            total += k;
        }
        let recall = hits as f64 / total as f64;
        assert!(recall >= 0.9, "recall@{k} = {recall}");
    }

    #[test]
    fn error_bound_prunes_most_of_the_visited_pool() {
        let (n, dim, k, ef) = (800, 64, 10, 200);
        let data = gaussian_data(n, dim, 6);
        let index = GraphRabitq::build(&data, dim, GraphRabitqConfig::default());
        let mut rng = StdRng::seed_from_u64(7);
        let query = gaussian_data(1, dim, 999);
        let result = index.search(&query, k, ef, &mut rng);
        assert!(result.n_reranked >= k, "must at least fill the top-k");
        assert!(result.n_estimated >= ef, "traversal estimates >= ef codes");
        assert!(
            result.n_reranked < result.n_estimated / 2,
            "bound should prune most of the {} visited, reranked {}",
            result.n_estimated,
            result.n_reranked
        );
    }

    #[test]
    fn rerank_strategies_agree_on_easy_data() {
        let (n, dim, k) = (400, 32, 5);
        let data = gaussian_data(n, dim, 8);
        let bound_cfg = GraphRabitqConfig {
            rerank: GraphRerank::ErrorBound,
            ..GraphRabitqConfig::default()
        };
        let top_cfg = GraphRabitqConfig {
            rerank: GraphRerank::Top(200),
            ..GraphRabitqConfig::default()
        };
        let a = GraphRabitq::build(&data, dim, bound_cfg);
        let b = GraphRabitq::build(&data, dim, top_cfg);
        let mut rng = StdRng::seed_from_u64(9);
        let query = gaussian_data(1, dim, 77);
        let ra = a.search(&query, k, 200, &mut rng);
        let rb = b.search(&query, k, 200, &mut rng);
        let ids_a: Vec<u32> = ra.neighbors.iter().map(|&(id, _)| id).collect();
        let ids_b: Vec<u32> = rb.neighbors.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids_a, ids_b, "both exact strategies rank identically");
    }

    #[test]
    fn none_strategy_returns_estimates() {
        let (n, dim) = (200, 32);
        let data = gaussian_data(n, dim, 10);
        let cfg = GraphRabitqConfig {
            rerank: GraphRerank::None,
            ..GraphRabitqConfig::default()
        };
        let index = GraphRabitq::build(&data, dim, cfg);
        let query = gaussian_data(1, dim, 12);
        let result = index.search(&query, 5, 64, &mut StdRng::seed_from_u64(11));
        assert_eq!(result.n_reranked, 0);
        assert_eq!(result.neighbors.len(), 5);
        // The walk's closure fills the candidate pool with the estimates of
        // the one prepared query: prepared again from the same seed, each
        // returned distance is that estimate, bit for bit.
        let prepared = index.prepare_query(&query, &mut StdRng::seed_from_u64(11));
        for &(id, d) in &result.neighbors {
            let want = index.estimate(&prepared, id).dist_sq;
            assert_eq!(d.to_bits(), want.to_bits(), "id {id}");
        }
        let mut sorted = result.neighbors.clone();
        sorted.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        assert_eq!(result.neighbors, sorted);
    }

    #[test]
    fn insert_is_immediately_searchable() {
        let (n, dim) = (200, 24);
        let data = gaussian_data(n, dim, 13);
        let mut index = GraphRabitq::build(&data, dim, GraphRabitqConfig::default());
        let novel: Vec<f32> = vec![9.0; dim];
        let id = index.insert(&novel);
        assert_eq!(id as usize, n);
        assert_eq!(index.len(), n + 1);
        let mut rng = StdRng::seed_from_u64(14);
        let result = index.search(&novel, 1, 32, &mut rng);
        assert_eq!(result.neighbors[0].0, id);
        assert!(result.neighbors[0].1 <= 1e-6);
    }

    #[test]
    fn multi_centroid_tightens_bounds_and_keeps_recall() {
        let (n, dim, k) = (1_000, 48, 10);
        let data = gaussian_data(n, dim, 30);
        let single = GraphRabitq::build(&data, dim, GraphRabitqConfig::default());
        let multi = GraphRabitq::build(
            &data,
            dim,
            GraphRabitqConfig {
                centroids: 16,
                ..GraphRabitqConfig::default()
            },
        );
        assert_eq!(single.n_centroids(), 1);
        assert_eq!(multi.n_centroids(), 16);

        let mut rng = StdRng::seed_from_u64(31);
        let query = gaussian_data(1, dim, 32);
        let ps = single.prepare_query(&query, &mut rng);
        let pm = multi.prepare_query(&query, &mut rng);
        // Per-cluster residual norms are smaller, so the distance
        // confidence interval must shrink on average.
        let width = |index: &GraphRabitq, p: &PreparedGraphQuery| -> f64 {
            (0..n as u32)
                .map(|id| {
                    let e = index.estimate(p, id);
                    (e.upper_bound - e.lower_bound) as f64
                })
                .sum::<f64>()
                / n as f64
        };
        let (w_single, w_multi) = (width(&single, &ps), width(&multi, &pm));
        assert!(
            w_multi < w_single,
            "16 centroids: mean interval {w_multi} vs single-centroid {w_single}"
        );

        // And recall does not degrade.
        let truth = brute_force(&data, dim, &query, k);
        let got = multi.search(&query, k, 128, &mut rng);
        let got_ids: std::collections::HashSet<u32> =
            got.neighbors.iter().map(|&(id, _)| id).collect();
        let recall = truth.iter().filter(|t| got_ids.contains(t)).count();
        assert!(recall >= 8, "recall@{k} with centroids = {recall}/{k}");
    }

    #[test]
    fn multi_centroid_insert_assigns_nearest() {
        let (n, dim) = (400, 24);
        let data = gaussian_data(n, dim, 33);
        let mut index = GraphRabitq::build(
            &data,
            dim,
            GraphRabitqConfig {
                centroids: 8,
                ..GraphRabitqConfig::default()
            },
        );
        let novel: Vec<f32> = data[5 * dim..6 * dim].to_vec();
        let id = index.insert(&novel);
        // The insert must land in the same cluster as the identical vector.
        assert_eq!(index.assignments[id as usize], index.assignments[5]);
        let mut rng = StdRng::seed_from_u64(34);
        let res = index.search(&novel, 2, 32, &mut rng);
        assert!(res.neighbors[0].1 <= 1e-6);
    }

    #[test]
    fn estimates_match_quantizer_directly() {
        let (n, dim) = (100, 32);
        let data = gaussian_data(n, dim, 15);
        let index = GraphRabitq::build(&data, dim, GraphRabitqConfig::default());
        let mut rng = StdRng::seed_from_u64(16);
        let query = gaussian_data(1, dim, 17);
        let prepared = index.prepare_query(&query, &mut rng);
        for id in [0u32, 13, 99] {
            let via_index = index.estimate(&prepared, id);
            let q = &prepared.per_centroid[index.assignments[id as usize] as usize];
            let via_quantizer = index.quantizer().estimate(q, &index.codes, id as usize);
            assert_eq!(via_index, via_quantizer);
        }
    }
}

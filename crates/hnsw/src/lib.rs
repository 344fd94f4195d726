//! # rabitq-hnsw — Hierarchical Navigable Small World graphs
//!
//! A from-scratch implementation of HNSW (Malkov & Yashunin, TPAMI 2020),
//! the graph-based baseline of the RaBitQ paper's Figure 4. It follows the
//! original paper's algorithms: greedy descent through the layer hierarchy
//! (Alg. 2 with `ef = 1` above the target layer), best-first beam search
//! within a layer (Alg. 2), and the *heuristic* neighbor selection with
//! pruning (Alg. 4), which is what hnswlib ships.
//!
//! Parameters mirror the paper's setup: `M = 16` (so the base layer allows
//! 32 out-edges — "maximum out-degree 32, M_HNSW = 16"), and
//! `efConstruction = 500`; `efSearch` sweeps the QPS–recall trade-off.

use rabitq_math::vecs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct HnswConfig {
    /// Out-degree budget `M` for upper layers; the base layer allows `2M`.
    pub m: usize,
    /// Beam width during construction.
    pub ef_construction: usize,
    /// Seed for the level sampler.
    pub seed: u64,
}

impl Default for HnswConfig {
    fn default() -> Self {
        // The paper's Figure 4 setup.
        Self {
            m: 16,
            ef_construction: 500,
            seed: 0x4452,
        }
    }
}

/// Ordered pair for the max-heap of current bests.
#[derive(PartialEq)]
struct Candidate(f32, u32);

impl Eq for Candidate {}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .total_cmp(&other.0)
            .then_with(|| self.1.cmp(&other.1))
    }
}

/// Per-node adjacency: one neighbor list per layer the node exists on.
#[derive(Clone, Debug, Default)]
struct Node {
    neighbors: Vec<Vec<u32>>,
}

/// The plain-data decomposition of an [`Hnsw`] index, produced by
/// [`Hnsw::to_parts`] and consumed by [`Hnsw::from_parts`]. Callers that
/// persist graphs (e.g. `rabitq-graph`) serialize this.
#[derive(Clone, Debug)]
pub struct HnswParts {
    /// Input dimensionality.
    pub dim: usize,
    /// Construction parameters.
    pub config: HnswConfig,
    /// Flat `n × dim` vector storage.
    pub data: Vec<f32>,
    /// `adjacency[id][layer]` = out-neighbors of `id` on `layer`.
    pub adjacency: Vec<Vec<Vec<u32>>>,
    /// Entry point of the layer hierarchy (meaningless when empty).
    pub entry: u32,
    /// Highest layer any node exists on.
    pub top_layer: usize,
}

/// An HNSW index over owned vectors.
pub struct Hnsw {
    dim: usize,
    config: HnswConfig,
    data: Vec<f32>,
    nodes: Vec<Node>,
    entry: u32,
    max_level: usize,
    level_mult: f64,
    rng: StdRng,
}

impl Hnsw {
    /// Creates an empty index for `dim`-dimensional vectors.
    pub fn new(dim: usize, config: HnswConfig) -> Self {
        assert!(dim > 0, "dim must be positive");
        assert!(config.m >= 2, "M must be at least 2");
        Self {
            dim,
            config,
            data: Vec::new(),
            nodes: Vec::new(),
            entry: 0,
            max_level: 0,
            level_mult: 1.0 / (config.m as f64).ln(),
            rng: StdRng::seed_from_u64(config.seed),
        }
    }

    /// Builds an index over a flat `n × dim` buffer.
    pub fn build(data: &[f32], dim: usize, config: HnswConfig) -> Self {
        assert!(data.len().is_multiple_of(dim), "data shape");
        let mut index = Self::new(dim, config);
        for row in data.chunks_exact(dim) {
            index.insert(row);
        }
        index
    }

    /// Number of indexed vectors.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the index is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The stored vector with id `id`.
    #[inline]
    pub fn vector(&self, id: u32) -> &[f32] {
        &self.data[id as usize * self.dim..(id as usize + 1) * self.dim]
    }

    /// Input dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The out-neighbors of `id` on `layer` (empty if the node does not
    /// exist on that layer). Exposed so quantized traversals
    /// (`rabitq-graph`) can walk the graph with their own distance
    /// function.
    #[inline]
    pub fn neighbors(&self, id: u32, layer: usize) -> &[u32] {
        self.nodes[id as usize]
            .neighbors
            .get(layer)
            .map_or(&[], |l| l.as_slice())
    }

    /// The current entry point of the layer hierarchy, or `None` while
    /// the index is empty.
    #[inline]
    pub fn entry_point(&self) -> Option<u32> {
        if self.is_empty() {
            None
        } else {
            Some(self.entry)
        }
    }

    /// The highest layer any node exists on.
    #[inline]
    pub fn top_layer(&self) -> usize {
        self.max_level
    }

    #[inline]
    fn distance(&self, id: u32, query: &[f32]) -> f32 {
        vecs::l2_sq(self.vector(id), query)
    }

    fn max_degree(&self, layer: usize) -> usize {
        if layer == 0 {
            self.config.m * 2
        } else {
            self.config.m
        }
    }

    /// Inserts a vector, returning its id (Alg. 1 of the HNSW paper).
    pub fn insert(&mut self, vector: &[f32]) -> u32 {
        assert_eq!(vector.len(), self.dim, "vector dimensionality");
        let id = self.nodes.len() as u32;
        self.data.extend_from_slice(vector);
        let level = self.sample_level();
        self.nodes.push(Node {
            neighbors: vec![Vec::new(); level + 1],
        });
        if id == 0 {
            self.entry = 0;
            self.max_level = level;
            return id;
        }

        let mut ep = self.entry;
        // Greedy descent through layers above the node's level.
        let top = self.max_level;
        for layer in ((level + 1)..=top).rev() {
            ep = self.greedy_closest(vector, ep, layer);
        }
        // Beam search + heuristic linking from min(level, top) down to 0.
        for layer in (0..=level.min(top)).rev() {
            let candidates = self.search_layer(vector, &[ep], self.config.ef_construction, layer);
            let selected = self.select_heuristic(&candidates, self.max_degree(layer));
            for &(nbr, _) in &selected {
                self.nodes[id as usize].neighbors[layer].push(nbr);
                self.nodes[nbr as usize].neighbors[layer].push(id);
                self.shrink_if_needed(nbr, layer);
            }
            if let Some(&(closest, _)) = selected.first() {
                ep = closest;
            }
        }
        if level > self.max_level {
            self.max_level = level;
            self.entry = id;
        }
        id
    }

    /// Searches the `k` approximate nearest neighbors with beam width
    /// `ef_search` (clamped up to `k`). Returns `(id, squared distance)`
    /// ascending.
    pub fn search(&self, query: &[f32], k: usize, ef_search: usize) -> Vec<(u32, f32)> {
        assert_eq!(query.len(), self.dim, "query dimensionality");
        if self.is_empty() || k == 0 {
            return Vec::new();
        }
        let mut ep = self.entry;
        for layer in (1..=self.max_level).rev() {
            ep = self.greedy_closest(query, ep, layer);
        }
        let ef = ef_search.max(k);
        let mut found = self.search_layer(query, &[ep], ef, 0);
        found.truncate(k);
        found
    }

    /// Exponentially-distributed random level (Alg. 1, line 4).
    fn sample_level(&mut self) -> usize {
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        (-u.ln() * self.level_mult) as usize
    }

    /// Greedy walk to the locally closest node on `layer` (Alg. 2, ef = 1).
    fn greedy_closest(&self, query: &[f32], start: u32, layer: usize) -> u32 {
        let mut cur = start;
        let mut cur_d = self.distance(cur, query);
        loop {
            let mut improved = false;
            if let Some(nbrs) = self.nodes[cur as usize].neighbors.get(layer) {
                for &nbr in nbrs {
                    let d = self.distance(nbr, query);
                    if d < cur_d {
                        cur = nbr;
                        cur_d = d;
                        improved = true;
                    }
                }
            }
            if !improved {
                return cur;
            }
        }
    }

    /// Best-first beam search on one layer (Alg. 2). Returns up to `ef`
    /// closest nodes, ascending by distance.
    fn search_layer(
        &self,
        query: &[f32],
        entry_points: &[u32],
        ef: usize,
        layer: usize,
    ) -> Vec<(u32, f32)> {
        let mut visited = vec![0u64; self.nodes.len().div_ceil(64)];
        let mark = |set: &mut Vec<u64>, id: u32| {
            let (w, b) = (id as usize / 64, id as usize % 64);
            let seen = set[w] >> b & 1 == 1;
            set[w] |= 1 << b;
            seen
        };
        // `frontier` pops nearest-first; `best` keeps the ef current bests
        // with the farthest on top.
        let mut frontier: BinaryHeap<Reverse<Candidate>> = BinaryHeap::new();
        let mut best: BinaryHeap<Candidate> = BinaryHeap::new();
        for &ep in entry_points {
            if !mark(&mut visited, ep) {
                let d = self.distance(ep, query);
                frontier.push(Reverse(Candidate(d, ep)));
                best.push(Candidate(d, ep));
            }
        }
        while let Some(Reverse(Candidate(d, node))) = frontier.pop() {
            let worst = best.peek().map_or(f32::INFINITY, |c| c.0);
            if d > worst && best.len() >= ef {
                break;
            }
            if let Some(nbrs) = self.nodes[node as usize].neighbors.get(layer) {
                for &nbr in nbrs {
                    if mark(&mut visited, nbr) {
                        continue;
                    }
                    let dn = self.distance(nbr, query);
                    let worst = best.peek().map_or(f32::INFINITY, |c| c.0);
                    if best.len() < ef || dn < worst {
                        frontier.push(Reverse(Candidate(dn, nbr)));
                        best.push(Candidate(dn, nbr));
                        if best.len() > ef {
                            best.pop();
                        }
                    }
                }
            }
        }
        let mut out: Vec<(u32, f32)> = best.into_iter().map(|Candidate(d, id)| (id, d)).collect();
        out.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Heuristic neighbor selection (Alg. 4): keep a candidate only if it
    /// is closer to the query point than to every already-kept neighbor —
    /// this spreads edges across directions and keeps the graph navigable.
    fn select_heuristic(&self, candidates: &[(u32, f32)], m: usize) -> Vec<(u32, f32)> {
        let mut selected: Vec<(u32, f32)> = Vec::with_capacity(m);
        for &(cand, d_cand) in candidates {
            if selected.len() >= m {
                break;
            }
            let dominated = selected
                .iter()
                .any(|&(kept, _)| vecs::l2_sq(self.vector(cand), self.vector(kept)) < d_cand);
            if !dominated {
                selected.push((cand, d_cand));
            }
        }
        // Alg. 4's "keepPrunedConnections": backfill with the nearest
        // pruned candidates so nodes are not left under-connected.
        if selected.len() < m {
            for &(cand, d_cand) in candidates {
                if selected.len() >= m {
                    break;
                }
                if !selected.iter().any(|&(kept, _)| kept == cand) {
                    selected.push((cand, d_cand));
                }
            }
        }
        selected
    }

    /// Re-prunes a node whose neighbor list overflowed its degree budget.
    fn shrink_if_needed(&mut self, node: u32, layer: usize) {
        let cap = self.max_degree(layer);
        let list = &self.nodes[node as usize].neighbors[layer];
        if list.len() <= cap {
            return;
        }
        let base = self.vector(node).to_vec();
        let mut with_d: Vec<(u32, f32)> = list
            .iter()
            .map(|&nbr| (nbr, vecs::l2_sq(self.vector(nbr), &base)))
            .collect();
        with_d.sort_unstable_by(|a, b| a.1.total_cmp(&b.1));
        let kept = self.select_heuristic(&with_d, cap);
        self.nodes[node as usize].neighbors[layer] = kept.into_iter().map(|(id, _)| id).collect();
    }

    /// Decomposes the index into plain data for persistence by callers
    /// (this crate stays IO-free). The inverse is [`Hnsw::from_parts`].
    pub fn to_parts(&self) -> HnswParts {
        HnswParts {
            dim: self.dim,
            config: self.config,
            data: self.data.clone(),
            adjacency: self.nodes.iter().map(|n| n.neighbors.clone()).collect(),
            entry: self.entry,
            top_layer: self.max_level,
        }
    }

    /// Reassembles an index from [`HnswParts`], validating shape and edge
    /// targets. The level-sampler RNG restarts from the configured seed;
    /// levels of future inserts replay the original sequence, which only
    /// affects statistical independence, not correctness.
    pub fn from_parts(parts: HnswParts) -> Result<Self, String> {
        let HnswParts {
            dim,
            config,
            data,
            adjacency,
            entry,
            top_layer,
        } = parts;
        if dim == 0 {
            return Err("dim must be positive".into());
        }
        if data.len() % dim != 0 {
            return Err("data length not a multiple of dim".into());
        }
        let n = data.len() / dim;
        if adjacency.len() != n {
            return Err(format!(
                "{} adjacency lists for {n} vectors",
                adjacency.len()
            ));
        }
        if n > 0 && entry as usize >= n {
            return Err(format!("entry point {entry} out of range"));
        }
        for (id, layers) in adjacency.iter().enumerate() {
            if layers.is_empty() {
                return Err(format!("node {id} exists on no layer"));
            }
            for nbrs in layers {
                if let Some(&bad) = nbrs.iter().find(|&&t| t as usize >= n) {
                    return Err(format!("node {id} links to out-of-range {bad}"));
                }
            }
        }
        if n > 0 {
            let entry_layers = adjacency[entry as usize].len();
            if entry_layers <= top_layer {
                return Err(format!(
                    "entry point spans {entry_layers} layers but top layer is {top_layer}"
                ));
            }
        }
        let level_mult = 1.0 / (config.m as f64).ln();
        Ok(Self {
            dim,
            config,
            data,
            nodes: adjacency
                .into_iter()
                .map(|neighbors| Node { neighbors })
                .collect(),
            entry,
            max_level: top_layer,
            level_mult,
            rng: StdRng::seed_from_u64(config.seed),
        })
    }

    /// Graph diagnostics: (number of layers, average base-layer degree).
    pub fn graph_stats(&self) -> (usize, f64) {
        if self.is_empty() {
            return (0, 0.0);
        }
        let total_deg: usize = self
            .nodes
            .iter()
            .map(|n| n.neighbors.first().map_or(0, |l| l.len()))
            .sum();
        (
            self.max_level + 1,
            total_deg as f64 / self.nodes.len() as f64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rabitq_data::{exact_knn, generate, DatasetSpec, Profile};
    use rabitq_metricsless::*;

    /// Tiny shim so tests read naturally without a metrics dependency.
    mod rabitq_metricsless {
        pub fn recall(truth: &[u32], got: &[u32]) -> f64 {
            if truth.is_empty() {
                return 1.0;
            }
            let set: std::collections::HashSet<u32> = got.iter().copied().collect();
            truth.iter().filter(|t| set.contains(t)).count() as f64 / truth.len() as f64
        }
    }

    fn small_dataset(n: usize, dim: usize) -> rabitq_data::Dataset {
        generate(&DatasetSpec {
            name: "hnsw-test".into(),
            dim,
            n,
            n_queries: 20,
            profile: Profile::Clustered {
                clusters: 10,
                cluster_std: 0.8,
                center_scale: 3.0,
            },
            seed: 7,
        })
    }

    fn test_config() -> HnswConfig {
        HnswConfig {
            m: 12,
            ef_construction: 100,
            seed: 3,
        }
    }

    #[test]
    fn exact_on_trivially_small_set() {
        let ds = small_dataset(30, 8);
        let index = Hnsw::build(&ds.data, ds.dim, test_config());
        let gt = exact_knn(&ds.data, ds.dim, &ds.queries, 5, 1);
        for (qi, truth) in gt.iter().enumerate().take(ds.n_queries()) {
            let got = index.search(ds.query(qi), 5, 50);
            let got_ids: Vec<u32> = got.iter().map(|&(id, _)| id).collect();
            let want_ids: Vec<u32> = truth.iter().map(|&(id, _)| id).collect();
            assert_eq!(got_ids, want_ids, "query {qi}");
        }
    }

    #[test]
    fn high_recall_on_clustered_data() {
        let ds = small_dataset(2000, 16);
        let index = Hnsw::build(&ds.data, ds.dim, test_config());
        let gt = exact_knn(&ds.data, ds.dim, &ds.queries, 10, 1);
        let mut total = 0.0;
        for (qi, truth) in gt.iter().enumerate().take(ds.n_queries()) {
            let got = index.search(ds.query(qi), 10, 120);
            let got_ids: Vec<u32> = got.iter().map(|&(id, _)| id).collect();
            let want_ids: Vec<u32> = truth.iter().map(|&(id, _)| id).collect();
            total += recall(&want_ids, &got_ids);
        }
        let avg = total / ds.n_queries() as f64;
        assert!(avg > 0.95, "average recall {avg}");
    }

    #[test]
    fn larger_ef_search_does_not_reduce_recall() {
        let ds = small_dataset(1500, 12);
        let index = Hnsw::build(&ds.data, ds.dim, test_config());
        let gt = exact_knn(&ds.data, ds.dim, &ds.queries, 10, 1);
        let recall_at = |ef: usize| -> f64 {
            let mut total = 0.0;
            for (qi, truth) in gt.iter().enumerate().take(ds.n_queries()) {
                let got = index.search(ds.query(qi), 10, ef);
                let got_ids: Vec<u32> = got.iter().map(|&(id, _)| id).collect();
                let want_ids: Vec<u32> = truth.iter().map(|&(id, _)| id).collect();
                total += recall(&want_ids, &got_ids);
            }
            total / ds.n_queries() as f64
        };
        let lo = recall_at(10);
        let hi = recall_at(200);
        assert!(hi >= lo - 0.02, "ef=200 recall {hi} vs ef=10 recall {lo}");
        assert!(hi > 0.97, "ef=200 recall {hi}");
    }

    #[test]
    fn results_are_sorted_with_true_distances() {
        let ds = small_dataset(300, 8);
        let index = Hnsw::build(&ds.data, ds.dim, test_config());
        let got = index.search(ds.query(0), 10, 60);
        assert!(got.windows(2).all(|w| w[0].1 <= w[1].1));
        for &(id, d) in &got {
            let exact = vecs::l2_sq(ds.vector(id as usize), ds.query(0));
            assert!((d - exact).abs() < 1e-4);
        }
    }

    #[test]
    fn degree_budgets_are_respected() {
        let ds = small_dataset(800, 8);
        let index = Hnsw::build(&ds.data, ds.dim, test_config());
        for node in &index.nodes {
            for (layer, nbrs) in node.neighbors.iter().enumerate() {
                let cap = if layer == 0 {
                    index.config.m * 2
                } else {
                    index.config.m
                };
                assert!(nbrs.len() <= cap, "layer {layer}: degree {}", nbrs.len());
            }
        }
    }

    #[test]
    fn k_larger_than_n_returns_everything() {
        let ds = small_dataset(15, 6);
        let index = Hnsw::build(&ds.data, ds.dim, test_config());
        let got = index.search(ds.query(0), 100, 200);
        assert_eq!(got.len(), 15);
    }

    #[test]
    fn empty_index_returns_nothing() {
        let index = Hnsw::new(4, test_config());
        assert!(index.search(&[0.0; 4], 5, 10).is_empty());
    }

    #[test]
    fn graph_is_reachable_from_entry() {
        // Every node must be reachable on the base layer (BFS), otherwise
        // recall silently degrades.
        let ds = small_dataset(500, 8);
        let index = Hnsw::build(&ds.data, ds.dim, test_config());
        let mut seen = vec![false; index.len()];
        let mut queue = std::collections::VecDeque::from([index.entry]);
        seen[index.entry as usize] = true;
        let mut count = 1;
        while let Some(node) = queue.pop_front() {
            for &nbr in &index.nodes[node as usize].neighbors[0] {
                if !seen[nbr as usize] {
                    seen[nbr as usize] = true;
                    count += 1;
                    queue.push_back(nbr);
                }
            }
        }
        assert_eq!(count, index.len(), "base layer is disconnected");
    }
}

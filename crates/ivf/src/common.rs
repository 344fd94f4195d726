//! Shared pieces of the IVF indexes: configuration, result types, and the
//! bounded top-K heap used during scanning.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Coarse-quantizer (IVF) configuration.
#[derive(Clone, Debug)]
pub struct IvfConfig {
    /// Number of KMeans buckets. The paper uses 4096 at million scale
    /// (Faiss guidance ≈ 4√N).
    pub n_clusters: usize,
    /// Lloyd iterations for the coarse quantizer.
    pub kmeans_iters: usize,
    /// Training-sample cap for the coarse quantizer.
    pub kmeans_sample: Option<usize>,
    /// Worker threads for building (assignment + encoding).
    pub threads: usize,
    /// Seed for the coarse quantizer.
    pub seed: u64,
}

impl IvfConfig {
    /// A default sized for ~10⁵-vector experiments.
    pub fn new(n_clusters: usize) -> Self {
        Self {
            n_clusters,
            kmeans_iters: 10,
            kmeans_sample: Some(50_000),
            threads: 1,
            seed: 0x1F5,
        }
    }

    /// Faiss-style cluster-count rule of thumb: `≈ 4√N`.
    pub fn clusters_for(n: usize) -> usize {
        ((n as f64).sqrt() * 4.0).round().max(1.0) as usize
    }
}

/// How candidates surfaced by the quantized scan become final results.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RerankStrategy {
    /// RaBitQ's rule (Section 4): compute the exact distance for a
    /// candidate iff its distance *lower bound* beats the current K-th
    /// best exact distance. No tuning parameter.
    ErrorBound,
    /// [`RerankStrategy::ErrorBound`] with an explicit confidence
    /// parameter `ε₀` overriding the quantizer's configured value — the
    /// Figure 5 verification sweep.
    ErrorBoundWithEpsilon(f32),
    /// PQ-style: collect everything, sort by estimated distance, re-rank
    /// the best `n` exactly. The paper sweeps n ∈ {500, 1000, 2500}.
    TopCandidates(usize),
    /// No re-ranking: rank purely by estimated distances (Figure 10's
    /// ablation).
    None,
}

/// Result of one ANN query, with scan accounting for the harness.
#[derive(Clone, Debug, Default)]
pub struct SearchResult {
    /// `(id, squared distance)` ascending. Distances are exact under
    /// re-ranking strategies and estimated under [`RerankStrategy::None`].
    pub neighbors: Vec<(u32, f32)>,
    /// Candidates whose distance was estimated from codes.
    pub n_estimated: usize,
    /// Candidates re-ranked with an exact distance computation.
    pub n_reranked: usize,
    /// Per-stage wall-time breakdown of this query (all zeros on paths
    /// that don't trace, e.g. the PQ baseline).
    pub stages: rabitq_metrics::StageNanos,
}

/// Max-heap entry for the bounded top-K (worst on top).
#[derive(PartialEq)]
struct HeapEntry(f32, u32);

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0
            .total_cmp(&other.0)
            .then_with(|| self.1.cmp(&other.1))
    }
}

/// A bounded max-heap tracking the K smallest distances seen so far.
pub struct TopK {
    k: usize,
    heap: BinaryHeap<HeapEntry>,
}

impl TopK {
    /// Creates a tracker for the `k` smallest entries.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    /// The bound `K`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Current K-th best distance (∞ while fewer than K entries).
    #[inline]
    pub fn threshold(&self) -> f32 {
        if self.heap.len() < self.k {
            f32::INFINITY
        } else {
            self.heap.peek().map_or(f32::INFINITY, |e| e.0)
        }
    }

    /// Offers a candidate; keeps it only if it beats the threshold.
    #[inline]
    pub fn push(&mut self, id: u32, dist: f32) {
        if self.heap.len() < self.k {
            self.heap.push(HeapEntry(dist, id));
        } else if let Some(top) = self.heap.peek() {
            if dist < top.0 {
                self.heap.pop();
                self.heap.push(HeapEntry(dist, id));
            }
        }
    }

    /// Number of entries currently held.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no entries are held.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Extracts the entries, ascending by distance.
    pub fn into_sorted(self) -> Vec<(u32, f32)> {
        let mut out: Vec<(u32, f32)> = self
            .heap
            .into_iter()
            .map(|HeapEntry(d, id)| (id, d))
            .collect();
        out.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Re-arms the tracker for a new query with bound `k`, keeping the
    /// heap's storage. After the first query at a given `k` this performs
    /// no heap allocation.
    pub fn reset(&mut self, k: usize) {
        self.k = k;
        self.heap.clear();
        self.heap.reserve(k + 1);
    }

    /// [`TopK::into_sorted`] into a reused output buffer, leaving the
    /// tracker empty but with its storage intact (ready for
    /// [`TopK::reset`]). Ordering is identical to `into_sorted`:
    /// ascending by distance, ties by id.
    pub fn drain_sorted_into(&mut self, out: &mut Vec<(u32, f32)>) {
        out.clear();
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        entries.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        out.extend(entries.iter().map(|&HeapEntry(d, id)| (id, d)));
        // Hand the (now cleared) storage back to the heap: `from` on an
        // empty vec is a free heapify, so the allocation survives.
        entries.clear();
        self.heap = BinaryHeap::from(entries);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topk_keeps_the_k_smallest() {
        let mut t = TopK::new(3);
        for (id, d) in [(0u32, 5.0f32), (1, 1.0), (2, 4.0), (3, 2.0), (4, 3.0)] {
            t.push(id, d);
        }
        let got = t.into_sorted();
        assert_eq!(got, vec![(1, 1.0), (3, 2.0), (4, 3.0)]);
    }

    #[test]
    fn threshold_is_infinite_until_full() {
        let mut t = TopK::new(2);
        assert_eq!(t.threshold(), f32::INFINITY);
        t.push(0, 1.0);
        assert_eq!(t.threshold(), f32::INFINITY);
        t.push(1, 2.0);
        assert_eq!(t.threshold(), 2.0);
        t.push(2, 0.5);
        assert_eq!(t.threshold(), 1.0);
    }

    #[test]
    fn duplicate_distances_are_kept_deterministically() {
        let mut t = TopK::new(2);
        t.push(7, 1.0);
        t.push(3, 1.0);
        t.push(9, 1.0);
        let got = t.into_sorted();
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|&(_, d)| d == 1.0));
    }

    #[test]
    fn drain_matches_into_sorted_and_reuses_storage() {
        let entries = [(0u32, 5.0f32), (1, 1.0), (2, 4.0), (3, 2.0), (4, 3.0)];
        let mut a = TopK::new(3);
        let mut b = TopK::new(3);
        for &(id, d) in &entries {
            a.push(id, d);
            b.push(id, d);
        }
        let want = a.into_sorted();
        let mut got = Vec::new();
        b.drain_sorted_into(&mut got);
        assert_eq!(got, want);
        // Reset re-arms the same tracker for a fresh query.
        b.reset(2);
        assert_eq!(b.threshold(), f32::INFINITY);
        b.push(9, 0.5);
        b.push(8, 0.25);
        b.drain_sorted_into(&mut got);
        assert_eq!(got, vec![(8, 0.25), (9, 0.5)]);
    }

    #[test]
    fn clusters_rule_of_thumb() {
        assert_eq!(IvfConfig::clusters_for(1_000_000), 4000);
        assert_eq!(IvfConfig::clusters_for(1), 4);
    }
}

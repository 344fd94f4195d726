//! Shared pieces of the IVF indexes: configuration and result types.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clusters_rule_of_thumb() {
        assert_eq!(IvfConfig::clusters_for(1_000_000), 4000);
        assert_eq!(IvfConfig::clusters_for(1), 4);
    }
}

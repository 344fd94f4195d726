//! A flat (single-bucket) RaBitQ index: every code is scanned for every
//! query, with the same error-bound re-ranking as the IVF index.
//!
//! This is the right tool below ~10⁵ vectors, where a coarse quantizer
//! buys little, and it is the exact protocol of the paper's Figure 5
//! verification (estimate everything, re-rank by the bound). Vectors are
//! normalized against their mean, the natural single-centroid choice of
//! Section 3.1.1.

use crate::common::{RerankStrategy, SearchResult, TopK};
use rabitq_core::{CodeSet, PackedCodes, Rabitq, RabitqConfig};
use rabitq_math::vecs;
use rand::Rng;

/// A flat RaBitQ index over owned vectors.
pub struct FlatRabitq {
    dim: usize,
    quantizer: Rabitq,
    centroid: Vec<f32>,
    codes: CodeSet,
    packed: PackedCodes,
    data: Vec<f32>,
}

impl FlatRabitq {
    /// Builds the index over a flat `n × dim` buffer, normalizing against
    /// the data mean.
    pub fn build(data: &[f32], dim: usize, config: RabitqConfig) -> Self {
        assert!(dim > 0 && data.len().is_multiple_of(dim), "data shape");
        let n = data.len() / dim;
        assert!(n > 0, "cannot index an empty dataset");
        let mut centroid = vec![0.0f32; dim];
        for row in data.chunks_exact(dim) {
            vecs::add_assign(&mut centroid, row);
        }
        vecs::scale(&mut centroid, 1.0 / n as f32);

        let quantizer = Rabitq::new(dim, config);
        let codes = quantizer.encode_set(data.chunks_exact(dim), &centroid);
        let packed = quantizer.pack(&codes);
        Self {
            dim,
            quantizer,
            centroid,
            codes,
            packed,
            data: data.to_vec(),
        }
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The underlying quantizer.
    #[inline]
    pub fn quantizer(&self) -> &Rabitq {
        &self.quantizer
    }

    /// K-NN search with error-bound re-ranking.
    pub fn search<R: Rng + ?Sized>(&self, query: &[f32], k: usize, rng: &mut R) -> SearchResult {
        self.search_filtered(query, k, RerankStrategy::ErrorBound, |_| true, rng)
    }

    /// K-NN search restricted to ids accepted by `filter` — the standard
    /// "filtered vector search" shape (metadata predicates). Rejected ids
    /// cost one bit-kernel evaluation and nothing else.
    pub fn search_filtered<R: Rng + ?Sized, F: FnMut(u32) -> bool>(
        &self,
        query: &[f32],
        k: usize,
        strategy: RerankStrategy,
        mut filter: F,
        rng: &mut R,
    ) -> SearchResult {
        assert_eq!(query.len(), self.dim, "query dimensionality");
        if self.is_empty() || k == 0 {
            return SearchResult::default();
        }
        let prepared = self.quantizer.prepare_query(query, &self.centroid, rng);
        let mut estimates = Vec::new();
        let epsilon0 = match strategy {
            RerankStrategy::ErrorBoundWithEpsilon(e) => e,
            _ => self.quantizer.config().epsilon0,
        };
        self.quantizer.estimate_batch_with_epsilon(
            &prepared,
            &self.packed,
            &self.codes,
            epsilon0,
            &mut estimates,
        );
        let n_estimated = estimates.len();
        let mut n_reranked = 0usize;
        let mut top = TopK::new(k);
        match strategy {
            RerankStrategy::ErrorBound | RerankStrategy::ErrorBoundWithEpsilon(_) => {
                for (i, est) in estimates.iter().enumerate() {
                    if !filter(i as u32) {
                        continue;
                    }
                    if est.lower_bound < top.threshold() {
                        let exact = self.exact_distance(i as u32, query);
                        n_reranked += 1;
                        top.push(i as u32, exact);
                    }
                }
            }
            RerankStrategy::TopCandidates(r) => {
                let mut pool: Vec<(u32, f32)> = estimates
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| filter(i as u32))
                    .map(|(i, est)| (i as u32, est.dist_sq))
                    .collect();
                let take = r.max(k).min(pool.len());
                if take > 0 {
                    pool.select_nth_unstable_by(take - 1, |a, b| a.1.total_cmp(&b.1));
                    pool.truncate(take);
                }
                for &(id, _) in &pool {
                    let exact = self.exact_distance(id, query);
                    n_reranked += 1;
                    top.push(id, exact);
                }
            }
            RerankStrategy::None => {
                for (i, est) in estimates.iter().enumerate() {
                    if filter(i as u32) {
                        top.push(i as u32, est.dist_sq);
                    }
                }
            }
        }
        SearchResult {
            neighbors: top.into_sorted(),
            n_estimated,
            n_reranked,
            stages: Default::default(),
        }
    }

    /// Range query: every id whose squared distance to `query` is at most
    /// `radius_sq`, ascending by distance.
    ///
    /// Both sides of the confidence interval do work here (Section 3.2.2's
    /// bound used in its dual directions): a candidate whose **lower**
    /// bound exceeds the radius is certified *outside* and dropped; one
    /// whose **upper** bound is within the radius is certified *inside*
    /// and admitted **without touching the raw vector** (its reported
    /// distance is then the unbiased estimate — see
    /// [`RangeResult::n_certified`]). Only the candidates whose interval
    /// straddles the radius pay an exact distance computation.
    ///
    /// The certificates inherit the bound's `1 − 2exp(−c₀ε₀²)` confidence:
    /// with the default `ε₀ = 1.9` a certificate is wrong with probability
    /// ≈ 10⁻³ per candidate.
    pub fn range_search<R: Rng + ?Sized>(
        &self,
        query: &[f32],
        radius_sq: f32,
        rng: &mut R,
    ) -> RangeResult {
        assert_eq!(query.len(), self.dim, "query dimensionality");
        assert!(radius_sq >= 0.0, "radius must be nonnegative");
        if self.is_empty() {
            return RangeResult::default();
        }
        let prepared = self.quantizer.prepare_query(query, &self.centroid, rng);
        let mut estimates = Vec::new();
        self.quantizer
            .estimate_batch(&prepared, &self.packed, &self.codes, &mut estimates);

        let mut result = RangeResult {
            n_estimated: estimates.len(),
            ..RangeResult::default()
        };
        for (i, est) in estimates.iter().enumerate() {
            if est.lower_bound > radius_sq {
                continue; // certified outside
            }
            if est.upper_bound <= radius_sq {
                result.n_certified += 1;
                result.neighbors.push((i as u32, est.dist_sq));
                continue; // certified inside, raw vector untouched
            }
            let exact = self.exact_distance(i as u32, query);
            result.n_reranked += 1;
            if exact <= radius_sq {
                result.neighbors.push((i as u32, exact));
            }
        }
        result
            .neighbors
            .sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        result
    }

    #[inline]
    fn exact_distance(&self, id: u32, query: &[f32]) -> f32 {
        let base = id as usize * self.dim;
        vecs::l2_sq(&self.data[base..base + self.dim], query)
    }
}

/// Result of a range query, with certification accounting.
#[derive(Clone, Debug, Default)]
pub struct RangeResult {
    /// `(id, squared distance)` ascending. Distances are exact for
    /// candidates that were verified exactly and unbiased estimates for
    /// bound-certified ones.
    pub neighbors: Vec<(u32, f32)>,
    /// Codes scanned.
    pub n_estimated: usize,
    /// Candidates whose interval straddled the radius and required an
    /// exact distance.
    pub n_reranked: usize,
    /// Candidates admitted purely by the upper bound, with no raw-vector
    /// access.
    pub n_certified: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rabitq_data::{exact_knn, generate, DatasetSpec, Profile};
    use rabitq_metrics::recall_at_k;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dataset(n: usize, dim: usize) -> rabitq_data::Dataset {
        generate(&DatasetSpec {
            name: "flat-test".into(),
            dim,
            n,
            n_queries: 10,
            profile: Profile::Clustered {
                clusters: 8,
                cluster_std: 0.7,
                center_scale: 2.5,
            },
            seed: 3,
        })
    }

    #[test]
    fn flat_search_reaches_near_perfect_recall() {
        let ds = dataset(2_000, 48);
        let index = FlatRabitq::build(&ds.data, ds.dim, RabitqConfig::default());
        let gt = exact_knn(&ds.data, ds.dim, &ds.queries, 10, 1);
        let mut rng = StdRng::seed_from_u64(1);
        let mut total = 0.0;
        for (qi, truth) in gt.iter().enumerate().take(ds.n_queries()) {
            let res = index.search(ds.query(qi), 10, &mut rng);
            let got: Vec<u32> = res.neighbors.iter().map(|&(id, _)| id).collect();
            let want: Vec<u32> = truth.iter().map(|&(id, _)| id).collect();
            total += recall_at_k(&want, &got);
        }
        assert!(total / ds.n_queries() as f64 > 0.99);
    }

    #[test]
    fn filter_excludes_ids_from_results() {
        let ds = dataset(500, 24);
        let index = FlatRabitq::build(&ds.data, ds.dim, RabitqConfig::default());
        let mut rng = StdRng::seed_from_u64(2);
        // Only even ids pass the predicate.
        let res = index.search_filtered(
            ds.query(0),
            10,
            RerankStrategy::ErrorBound,
            |id| id % 2 == 0,
            &mut rng,
        );
        assert_eq!(res.neighbors.len(), 10);
        assert!(res.neighbors.iter().all(|&(id, _)| id % 2 == 0));
        // And it must find the best even ids: compare against filtered
        // brute force.
        let mut brute: Vec<(u32, f32)> = (0..ds.n() as u32)
            .filter(|id| id % 2 == 0)
            .map(|id| {
                (
                    id,
                    rabitq_math::vecs::l2_sq(ds.vector(id as usize), ds.query(0)),
                )
            })
            .collect();
        brute.sort_by(|a, b| a.1.total_cmp(&b.1));
        let want: Vec<u32> = brute[..10].iter().map(|&(id, _)| id).collect();
        let got: Vec<u32> = res.neighbors.iter().map(|&(id, _)| id).collect();
        assert!(recall_at_k(&want, &got) >= 0.9);
    }

    #[test]
    fn rejecting_everything_returns_nothing() {
        let ds = dataset(200, 16);
        let index = FlatRabitq::build(&ds.data, ds.dim, RabitqConfig::default());
        let mut rng = StdRng::seed_from_u64(3);
        let res = index.search_filtered(
            ds.query(0),
            5,
            RerankStrategy::ErrorBound,
            |_| false,
            &mut rng,
        );
        assert!(res.neighbors.is_empty());
        assert_eq!(res.n_reranked, 0);
    }

    #[test]
    fn range_search_matches_brute_force() {
        let ds = dataset(1_500, 48);
        let index = FlatRabitq::build(&ds.data, ds.dim, RabitqConfig::default());
        let mut rng = StdRng::seed_from_u64(5);
        for qi in 0..5 {
            let query = ds.query(qi);
            // Radius = distance of the ~30th neighbor, so the answer set
            // is non-trivial on both sides.
            let mut dists: Vec<f32> = (0..ds.n())
                .map(|i| rabitq_math::vecs::l2_sq(ds.vector(i), query))
                .collect();
            dists.sort_by(|a, b| a.total_cmp(b));
            let radius_sq = dists[30];
            let want: std::collections::HashSet<u32> = (0..ds.n() as u32)
                .filter(|&id| rabitq_math::vecs::l2_sq(ds.vector(id as usize), query) <= radius_sq)
                .collect();
            let res = index.range_search(query, radius_sq, &mut rng);
            let got: std::collections::HashSet<u32> =
                res.neighbors.iter().map(|&(id, _)| id).collect();
            // Certificates are probabilistic (ε₀ = 1.9 ⇒ ~10⁻³ per
            // candidate); allow a one-off symmetric difference.
            let diff = want.symmetric_difference(&got).count();
            assert!(
                diff <= 1,
                "query {qi}: |want|={}, |got|={}, diff={diff}",
                want.len(),
                got.len()
            );
            assert!(res.neighbors.windows(2).all(|w| w[0].1 <= w[1].1));
        }
    }

    #[test]
    fn range_search_certifies_without_raw_access() {
        let ds = dataset(2_000, 128);
        let index = FlatRabitq::build(&ds.data, ds.dim, RabitqConfig::default());
        let mut rng = StdRng::seed_from_u64(6);
        let query = ds.query(0);
        let mut dists: Vec<f32> = (0..ds.n())
            .map(|i| rabitq_math::vecs::l2_sq(ds.vector(i), query))
            .collect();
        dists.sort_by(|a, b| a.total_cmp(b));
        // A generous radius (500th neighbor): most of the answer set is
        // deep inside and must be certified by the upper bound alone.
        let res = index.range_search(query, dists[500], &mut rng);
        assert!(res.neighbors.len() >= 450);
        assert!(
            res.n_certified > res.neighbors.len() / 2,
            "certified {} of {} results",
            res.n_certified,
            res.neighbors.len()
        );
        // The far tail is certified *outside* by the lower bound and never
        // verified: estimated = certified-in + exactly-verified + dropped.
        let dropped = res.n_estimated - res.n_reranked - res.n_certified;
        assert!(
            dropped > 0,
            "some of the {} codes must be bound-dropped",
            ds.n()
        );
    }

    #[test]
    fn range_search_edge_radii() {
        let ds = dataset(300, 24);
        let index = FlatRabitq::build(&ds.data, ds.dim, RabitqConfig::default());
        let mut rng = StdRng::seed_from_u64(7);
        // Radius 0 from a stored vector: finds (at least) itself.
        let res = index.range_search(ds.vector(42), 0.0, &mut rng);
        assert!(res.neighbors.iter().any(|&(id, _)| id == 42));
        // Infinite radius: everything, certified without exact distances.
        let res = index.range_search(ds.query(0), f32::INFINITY, &mut rng);
        assert_eq!(res.neighbors.len(), ds.n());
        assert_eq!(res.n_reranked, 0);
    }

    #[test]
    fn flat_matches_ivf_at_full_probe() {
        let ds = dataset(800, 32);
        let flat = FlatRabitq::build(&ds.data, ds.dim, RabitqConfig::default());
        let ivf = crate::IvfRabitq::build(
            &ds.data,
            ds.dim,
            &crate::IvfConfig::new(6),
            RabitqConfig::default(),
        );
        let mut rng = StdRng::seed_from_u64(4);
        for qi in 0..ds.n_queries() {
            let a = flat.search(ds.query(qi), 5, &mut rng);
            let b = ivf.search(ds.query(qi), 5, 6, &mut rng);
            // Different bucketing ⇒ different estimates, but the exact
            // re-ranked top-5 should agree except for rare bound misses.
            let ids_a: Vec<u32> = a.neighbors.iter().map(|&(id, _)| id).collect();
            let ids_b: Vec<u32> = b.neighbors.iter().map(|&(id, _)| id).collect();
            let overlap = ids_a.iter().filter(|id| ids_b.contains(id)).count();
            assert!(overlap >= 4, "query {qi}: {ids_a:?} vs {ids_b:?}");
        }
    }
}

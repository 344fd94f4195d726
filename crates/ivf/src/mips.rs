//! Maximum-inner-product and cosine-similarity search over RaBitQ codes —
//! the retrieval modes of footnote 8 (embedding search ranks by dot
//! product or cosine, not Euclidean distance).
//!
//! The index stores, next to each 1-bit code, the one scalar the
//! footnote-8 identity needs per vector (`⟨o_r, c⟩`) plus the raw norm for
//! cosine. Queries scan all codes with the fast-scan kernel, lift the
//! unit-residual estimates to raw inner products, and re-rank by the
//! paper's bound rule mirrored for maximization: a candidate is skipped
//! iff its inner-product **upper** bound cannot beat the current K-th best
//! exact inner product.

use rabitq_core::similarity::{self, IpQueryTerms};
use rabitq_core::{CodeSet, PackedCodes, Rabitq, RabitqConfig};
use rabitq_math::topk::TopK;
use rabitq_math::vecs;
use rand::Rng;

/// Result of one similarity query, with scan accounting.
#[derive(Clone, Debug, Default)]
pub struct MipsResult {
    /// `(id, score)` **descending** by score — exact inner products for
    /// [`FlatMips::search_ip`], exact cosines for
    /// [`FlatMips::search_cosine`].
    pub neighbors: Vec<(u32, f32)>,
    /// Candidates whose score was estimated from codes.
    pub n_estimated: usize,
    /// Candidates re-scored exactly.
    pub n_reranked: usize,
}

/// A flat MIPS/cosine index over owned vectors.
pub struct FlatMips {
    dim: usize,
    quantizer: Rabitq,
    centroid: Vec<f32>,
    codes: CodeSet,
    packed: PackedCodes,
    data: Vec<f32>,
    /// `⟨o_r, c⟩` per vector (the footnote-8 per-vector scalar).
    ip_oc: Vec<f32>,
    /// `‖o_r‖` per vector (cosine denominator).
    raw_norms: Vec<f32>,
}

impl FlatMips {
    /// Builds the index over a flat `n × dim` buffer, normalizing against
    /// the data mean (Section 3.1.1's single-centroid instantiation).
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
        let ip_oc = data
            .chunks_exact(dim)
            .map(|row| vecs::dot(row, &centroid))
            .collect();
        let raw_norms = data.chunks_exact(dim).map(vecs::norm).collect();
        Self {
            dim,
            quantizer,
            centroid,
            codes,
            packed,
            data: data.to_vec(),
            ip_oc,
            raw_norms,
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

    /// Top-`k` by inner product `⟨o_r, q_r⟩`, descending, re-ranked
    /// exactly under the bound rule.
    pub fn search_ip<R: Rng + ?Sized>(&self, query: &[f32], k: usize, rng: &mut R) -> MipsResult {
        self.search_scored(query, k, rng, Score::InnerProduct)
    }

    /// Top-`k` by cosine similarity, descending, re-ranked exactly under
    /// the bound rule. Zero-norm stored vectors score 0.
    pub fn search_cosine<R: Rng + ?Sized>(
        &self,
        query: &[f32],
        k: usize,
        rng: &mut R,
    ) -> MipsResult {
        self.search_scored(query, k, rng, Score::Cosine)
    }

    fn search_scored<R: Rng + ?Sized>(
        &self,
        query: &[f32],
        k: usize,
        rng: &mut R,
        score: Score,
    ) -> MipsResult {
        assert_eq!(query.len(), self.dim, "query dimensionality");
        if self.is_empty() || k == 0 {
            return MipsResult::default();
        }
        let prepared = self.quantizer.prepare_query(query, &self.centroid, rng);
        let terms = IpQueryTerms::new(query, &self.centroid);
        let norm_q = vecs::norm(query);

        let mut estimates = Vec::new();
        self.quantizer
            .estimate_batch(&prepared, &self.packed, &self.codes, &mut estimates);

        // Lift each unit-residual estimate to the requested score and its
        // upper bound; cosine additionally divides by the stored norms.
        let mut scored: Vec<(u32, f32, f32)> = estimates
            .iter()
            .enumerate()
            .map(|(i, de)| {
                let factors = self.codes.factors(i);
                let ip = similarity::inner_product(
                    de,
                    factors.norm,
                    prepared.q_dist,
                    self.ip_oc[i],
                    terms,
                );
                match score {
                    Score::InnerProduct => (i as u32, ip.ip, ip.upper_bound),
                    Score::Cosine => {
                        let cos = similarity::cosine(&ip, self.raw_norms[i], norm_q);
                        (i as u32, cos.cos, cos.upper_bound)
                    }
                }
            })
            .collect();
        // Descending by estimate so the exact threshold rises fast and the
        // bound prunes the tail.
        scored.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

        // TopK keeps the k *smallest*; negating scores turns it into a
        // bounded top-k by maximum.
        let mut top = TopK::new(k);
        let mut n_reranked = 0usize;
        for &(id, _, upper) in &scored {
            let threshold = -top.threshold(); // current k-th best exact score
            if upper < threshold {
                continue;
            }
            let exact = self.exact_score(id, query, norm_q, score);
            n_reranked += 1;
            top.push(id, -exact);
        }
        let neighbors = top
            .into_sorted()
            .into_iter()
            .map(|(id, neg)| (id, -neg))
            .collect();
        MipsResult {
            neighbors,
            n_estimated: scored.len(),
            n_reranked,
        }
    }

    fn exact_score(&self, id: u32, query: &[f32], norm_q: f32, score: Score) -> f32 {
        let row = &self.data[id as usize * self.dim..(id as usize + 1) * self.dim];
        let ip = vecs::dot(row, query);
        match score {
            Score::InnerProduct => ip,
            Score::Cosine => {
                let denom = self.raw_norms[id as usize] * norm_q;
                if denom <= f32::EPSILON {
                    0.0
                } else {
                    ip / denom
                }
            }
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Score {
    InnerProduct,
    Cosine,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn gaussian(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        rabitq_math::rng::standard_normal_vec(&mut rng, n * dim)
    }

    fn brute_ip(data: &[f32], dim: usize, query: &[f32], k: usize) -> Vec<u32> {
        let mut all: Vec<(u32, f32)> = data
            .chunks_exact(dim)
            .enumerate()
            .map(|(i, row)| (i as u32, vecs::dot(row, query)))
            .collect();
        all.sort_unstable_by(|a, b| b.1.total_cmp(&a.1));
        all.truncate(k);
        all.into_iter().map(|(id, _)| id).collect()
    }

    #[test]
    fn mips_recall_on_gaussian_data() {
        let (n, dim, k) = (2_000, 96, 10);
        let data = gaussian(n, dim, 50);
        let index = FlatMips::build(&data, dim, RabitqConfig::default());
        let mut rng = StdRng::seed_from_u64(51);
        let mut hits = 0;
        for q in 0..10 {
            let query = gaussian(1, dim, 500 + q);
            let truth: std::collections::HashSet<u32> =
                brute_ip(&data, dim, &query, k).into_iter().collect();
            let got = index.search_ip(&query, k, &mut rng);
            assert_eq!(got.neighbors.len(), k);
            assert!(got.neighbors.windows(2).all(|w| w[0].1 >= w[1].1));
            hits += got
                .neighbors
                .iter()
                .filter(|(id, _)| truth.contains(id))
                .count();
        }
        let recall = hits as f64 / (10 * k) as f64;
        assert!(recall >= 0.95, "MIPS recall@{k} = {recall}");
    }

    #[test]
    fn bound_prunes_most_of_the_scan() {
        let (n, dim, k) = (2_000, 128, 10);
        let data = gaussian(n, dim, 52);
        let index = FlatMips::build(&data, dim, RabitqConfig::default());
        let mut rng = StdRng::seed_from_u64(53);
        let query = gaussian(1, dim, 600);
        let result = index.search_ip(&query, k, &mut rng);
        assert_eq!(result.n_estimated, n);
        assert!(result.n_reranked >= k);
        assert!(
            result.n_reranked < n / 2,
            "bound should prune most of {n}, reranked {}",
            result.n_reranked
        );
    }

    #[test]
    fn cosine_matches_brute_force_scores() {
        let (n, dim, k) = (500, 64, 5);
        let data = gaussian(n, dim, 54);
        let index = FlatMips::build(&data, dim, RabitqConfig::default());
        let mut rng = StdRng::seed_from_u64(55);
        let query = gaussian(1, dim, 700);
        let norm_q = vecs::norm(&query);
        let result = index.search_cosine(&query, k, &mut rng);
        for &(id, score) in &result.neighbors {
            let row = &data[id as usize * dim..(id as usize + 1) * dim];
            let exact = vecs::dot(row, &query) / (vecs::norm(row) * norm_q);
            assert!((score - exact).abs() < 1e-5, "returned scores are exact");
        }
    }

    #[test]
    fn planted_winner_is_found() {
        let (n, dim) = (1_000, 80);
        let mut data = gaussian(n, dim, 56);
        let query = gaussian(1, dim, 800);
        // Plant vector 123 as a scaled copy of the query: the clear MIPS
        // and cosine winner.
        for (d, x) in data[123 * dim..124 * dim].iter_mut().enumerate() {
            *x = 3.0 * query[d];
        }
        let index = FlatMips::build(&data, dim, RabitqConfig::default());
        let mut rng = StdRng::seed_from_u64(57);
        assert_eq!(index.search_ip(&query, 1, &mut rng).neighbors[0].0, 123);
        assert_eq!(index.search_cosine(&query, 1, &mut rng).neighbors[0].0, 123);
        let cos = index.search_cosine(&query, 1, &mut rng).neighbors[0].1;
        assert!(
            (cos - 1.0).abs() < 1e-5,
            "scaled copy has cosine 1, got {cos}"
        );
    }

    #[test]
    fn k_larger_than_n_and_zero_k() {
        let (n, dim) = (20, 32);
        let data = gaussian(n, dim, 58);
        let index = FlatMips::build(&data, dim, RabitqConfig::default());
        let mut rng = StdRng::seed_from_u64(59);
        let query = gaussian(1, dim, 900);
        assert_eq!(index.search_ip(&query, 50, &mut rng).neighbors.len(), n);
        assert!(index.search_ip(&query, 0, &mut rng).neighbors.is_empty());
    }
}

//! IVF + PQ/OPQ — the baseline ANN index (IVFPQ / IVFOPQ à la Faiss).
//!
//! Vectors are encoded as *residuals* against their bucket centroid
//! (Faiss's `by_residual`), matching how RaBitQ normalizes per bucket.
//! Queries build per-bucket distance LUTs on `q − c` and scan either:
//!
//! * `x8-single`: f32 LUTs read from RAM, one code at a time;
//! * `x4fs-batch`: u8-quantized LUTs through the shared fast-scan kernel —
//!   complete with the u8 dynamic-range failure mode the paper documents.
//!
//! Re-ranking uses the conventional fixed-candidate-count rule; the count
//! is the hyper-parameter the paper shows no single value of which works
//! across datasets (Section 5.2.3).

use crate::{Opq, OpqConfig, PqCodes, PqConfig, PqPacked, ProductQuantizer, QuantizedLuts};
use rabitq_ivf::{IvfConfig, SearchResult};
use rabitq_kmeans::{train as kmeans_train, KMeans, KMeansConfig};
use rabitq_math::topk::TopK;
use rabitq_math::vecs;

/// Which PQ flavour encodes the residuals.
pub enum PqVariant {
    /// Plain PQ.
    Pq(ProductQuantizer),
    /// OPQ: a learned rotation wrapping an inner PQ.
    Opq(Opq),
}

impl PqVariant {
    fn encode_residual(&self, residual: &[f32], out: &mut Vec<u8>) {
        match self {
            PqVariant::Pq(pq) => pq.encode(residual, out),
            PqVariant::Opq(opq) => opq.encode(residual, out),
        }
    }

    fn build_luts(&self, residual_query: &[f32]) -> Vec<f32> {
        match self {
            PqVariant::Pq(pq) => pq.build_luts(residual_query),
            PqVariant::Opq(opq) => opq.build_luts(residual_query),
        }
    }

    fn pq(&self) -> &ProductQuantizer {
        match self {
            PqVariant::Pq(pq) => pq,
            PqVariant::Opq(opq) => opq.pq(),
        }
    }

    fn m(&self) -> usize {
        self.pq().m()
    }
}

/// How the scan computes estimated distances.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScanMode {
    /// f32 LUTs in RAM, per-code lookup-and-accumulate (`x8-single` /
    /// `x4-single`).
    F32Single,
    /// u8-quantized LUTs via the SIMD fast-scan kernel (`x4fs-batch`).
    /// Requires `k = 4` codes.
    FastScanBatch,
}

struct Bucket {
    ids: Vec<u32>,
    codes: PqCodes,
    /// Present only when the quantizer uses 4-bit codes.
    packed: Option<PqPacked>,
}

/// The IVF-PQ/OPQ baseline index.
pub struct IvfPq {
    dim: usize,
    coarse: KMeans,
    quantizer: PqVariant,
    buckets: Vec<Bucket>,
    data: Vec<f32>,
}

impl IvfPq {
    /// Builds an IVF-PQ index (set `opq` to also learn a rotation).
    pub fn build(
        data: &[f32],
        dim: usize,
        ivf: &IvfConfig,
        pq_config: &PqConfig,
        opq: bool,
    ) -> Self {
        assert!(dim > 0 && data.len().is_multiple_of(dim), "data shape");
        let n = data.len() / dim;
        assert!(n > 0, "cannot index an empty dataset");

        let mut km_cfg = KMeansConfig::new(ivf.n_clusters.min(n));
        km_cfg.max_iters = ivf.kmeans_iters;
        km_cfg.seed = ivf.seed;
        km_cfg.training_sample = ivf.kmeans_sample;
        km_cfg.threads = ivf.threads;
        let coarse = kmeans_train(data, dim, &km_cfg);

        let assignment = coarse.assign_all(data, ivf.threads);

        // Train the PQ on residuals (sampled implicitly via PqConfig).
        let mut residuals = vec![0.0f32; data.len()];
        for (i, &c) in assignment.iter().enumerate() {
            vecs::sub(
                &data[i * dim..(i + 1) * dim],
                coarse.centroid(c as usize),
                &mut residuals[i * dim..(i + 1) * dim],
            );
        }
        let quantizer = if opq {
            PqVariant::Opq(Opq::train(
                &residuals,
                dim,
                &OpqConfig::new(pq_config.clone()),
            ))
        } else {
            PqVariant::Pq(ProductQuantizer::train(&residuals, dim, pq_config))
        };

        let mut ids_per_bucket: Vec<Vec<u32>> = vec![Vec::new(); coarse.k()];
        for (i, &c) in assignment.iter().enumerate() {
            ids_per_bucket[c as usize].push(i as u32);
        }
        let four_bit = pq_config.k_bits == 4;
        let buckets: Vec<Bucket> = ids_per_bucket
            .into_iter()
            .map(|ids| {
                let mut codes = PqCodes {
                    m: quantizer.m(),
                    codes: Vec::new(),
                };
                for &id in &ids {
                    let r = &residuals[id as usize * dim..(id as usize + 1) * dim];
                    quantizer.encode_residual(r, &mut codes.codes);
                }
                let packed = four_bit.then(|| PqPacked::pack(&codes));
                Bucket { ids, codes, packed }
            })
            .collect();

        Self {
            dim,
            coarse,
            quantizer,
            buckets,
            data: data.to_vec(),
        }
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Searches the index.
    ///
    /// `rerank` is the fixed candidate count re-ranked with exact
    /// distances (the paper sweeps 500/1000/2500); `0` disables re-ranking
    /// and returns estimated distances (Figure 10's OPQ-without-re-ranking
    /// configuration).
    pub fn search(
        &self,
        query: &[f32],
        k: usize,
        nprobe: usize,
        rerank: usize,
        mode: ScanMode,
    ) -> SearchResult {
        assert_eq!(query.len(), self.dim, "query dimensionality");
        if self.is_empty() || k == 0 {
            return SearchResult::default();
        }
        let probes = self.coarse.assign_top_n(query, nprobe.max(1));
        let mut pool: Vec<(u32, f32)> = Vec::new();
        let mut n_estimated = 0usize;
        let mut residual_q = vec![0.0f32; self.dim];
        let mut fast_estimates: Vec<f32> = Vec::new();

        for &(c, _) in &probes {
            let bucket = &self.buckets[c];
            if bucket.ids.is_empty() {
                continue;
            }
            vecs::sub(query, self.coarse.centroid(c), &mut residual_q);
            match mode {
                ScanMode::F32Single => {
                    let luts = self.quantizer.build_luts(&residual_q);
                    let pq = self.quantizer.pq();
                    for (slot, &id) in (0..bucket.codes.len()).zip(bucket.ids.iter()) {
                        let est = pq.adc_distance(&luts, bucket.codes.code(slot));
                        pool.push((id, est));
                    }
                    n_estimated += bucket.codes.len();
                }
                ScanMode::FastScanBatch => {
                    let packed = bucket
                        .packed
                        .as_ref()
                        .expect("fast scan requires 4-bit codes");
                    let luts = self.quantizer.build_luts(&residual_q);
                    let pq = self.quantizer.pq();
                    let qluts = QuantizedLuts::from_f32_luts(&luts, pq.m(), 1usize << pq.k_bits());
                    packed.scan_all(&qluts, &mut fast_estimates);
                    n_estimated += fast_estimates.len();
                    pool.extend(
                        fast_estimates
                            .iter()
                            .zip(bucket.ids.iter())
                            .map(|(&est, &id)| (id, est)),
                    );
                }
            }
        }

        if rerank == 0 {
            // Rank purely by estimates.
            let mut top = TopK::new(k);
            for &(id, est) in &pool {
                top.push(id, est);
            }
            return SearchResult {
                neighbors: top.into_sorted(),
                n_estimated,
                n_reranked: 0,
                stages: Default::default(),
            };
        }

        let take = rerank.max(k).min(pool.len());
        if take > 0 {
            pool.select_nth_unstable_by(take - 1, |a, b| a.1.total_cmp(&b.1));
            pool.truncate(take);
        }
        let mut top = TopK::new(k);
        let mut n_reranked = 0usize;
        for &(id, _) in &pool {
            let base = id as usize * self.dim;
            let exact = vecs::l2_sq(&self.data[base..base + self.dim], query);
            n_reranked += 1;
            top.push(id, exact);
        }
        SearchResult {
            neighbors: top.into_sorted(),
            n_estimated,
            n_reranked,
            stages: Default::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rabitq_data::{exact_knn, generate, DatasetSpec, Profile};
    use rabitq_metrics::recall_at_k;

    fn dataset(n: usize, dim: usize) -> rabitq_data::Dataset {
        generate(&DatasetSpec {
            name: "ivfpq-test".into(),
            dim,
            n,
            n_queries: 10,
            profile: Profile::Clustered {
                clusters: 10,
                cluster_std: 0.8,
                center_scale: 3.0,
            },
            seed: 21,
        })
    }

    fn pq_cfg(dim: usize) -> PqConfig {
        PqConfig {
            m: dim / 2,
            k_bits: 4,
            train_iters: 10,
            training_sample: Some(5_000),
            seed: 5,
        }
    }

    fn avg_recall(
        index: &IvfPq,
        ds: &rabitq_data::Dataset,
        k: usize,
        nprobe: usize,
        rerank: usize,
        mode: ScanMode,
    ) -> f64 {
        let gt = exact_knn(&ds.data, ds.dim, &ds.queries, k, 1);
        let mut total = 0.0;
        for (qi, truth) in gt.iter().enumerate().take(ds.n_queries()) {
            let res = index.search(ds.query(qi), k, nprobe, rerank, mode);
            let got: Vec<u32> = res.neighbors.iter().map(|&(id, _)| id).collect();
            let want: Vec<u32> = truth.iter().map(|&(id, _)| id).collect();
            total += recall_at_k(&want, &got);
        }
        total / ds.n_queries() as f64
    }

    #[test]
    fn pq_ivf_with_rerank_reaches_decent_recall() {
        let ds = dataset(2000, 32);
        let index = IvfPq::build(&ds.data, ds.dim, &IvfConfig::new(10), &pq_cfg(32), false);
        let r = avg_recall(&index, &ds, 10, 10, 200, ScanMode::F32Single);
        assert!(r > 0.9, "recall {r}");
    }

    #[test]
    fn fastscan_and_f32_modes_agree_roughly() {
        let ds = dataset(1500, 32);
        let index = IvfPq::build(&ds.data, ds.dim, &IvfConfig::new(8), &pq_cfg(32), false);
        let r_fast = avg_recall(&index, &ds, 10, 8, 300, ScanMode::FastScanBatch);
        let r_f32 = avg_recall(&index, &ds, 10, 8, 300, ScanMode::F32Single);
        assert!(
            (r_fast - r_f32).abs() < 0.15,
            "fast {r_fast} vs f32 {r_f32}"
        );
        assert!(r_fast > 0.8, "fast-scan recall {r_fast}");
    }

    #[test]
    fn opq_variant_builds_and_searches() {
        let ds = dataset(800, 16);
        let index = IvfPq::build(&ds.data, ds.dim, &IvfConfig::new(6), &pq_cfg(16), true);
        let r = avg_recall(&index, &ds, 5, 6, 200, ScanMode::FastScanBatch);
        assert!(r > 0.8, "OPQ recall {r}");
    }

    #[test]
    fn rerank_zero_returns_estimated_distances() {
        let ds = dataset(500, 16);
        let index = IvfPq::build(&ds.data, ds.dim, &IvfConfig::new(4), &pq_cfg(16), false);
        let res = index.search(ds.query(0), 5, 4, 0, ScanMode::F32Single);
        assert_eq!(res.n_reranked, 0);
        assert_eq!(res.neighbors.len(), 5);
    }

    #[test]
    fn more_rerank_candidates_do_not_hurt_recall() {
        let ds = dataset(1200, 16);
        let index = IvfPq::build(&ds.data, ds.dim, &IvfConfig::new(8), &pq_cfg(16), false);
        let lo = avg_recall(&index, &ds, 10, 8, 50, ScanMode::F32Single);
        let hi = avg_recall(&index, &ds, 10, 8, 800, ScanMode::F32Single);
        assert!(hi >= lo - 1e-9, "rerank 800 ({hi}) vs 50 ({lo})");
    }
}

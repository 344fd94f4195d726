//! Shared experiment scaffolding: a generated dataset clustered by the IVF
//! coarse quantizer, with vectors scanned in probe order — the measurement
//! protocol of Section 5.1 ("to simulate the order when the methods are
//! used in practice, we build the IVF index for all methods and estimate
//! the distances in the order that the IVF index probes the clusters").

use rabitq_data::registry::PaperDataset;
use rabitq_data::Dataset;
use rabitq_kmeans::{train as kmeans_train, KMeans, KMeansConfig};
use rabitq_math::vecs;

/// A dataset plus its coarse clustering.
pub struct Testbed {
    /// The generated dataset.
    pub ds: Dataset,
    /// IVF coarse quantizer trained on it.
    pub coarse: KMeans,
    /// Vector ids per bucket.
    pub buckets: Vec<Vec<u32>>,
    /// Residuals `o_r − c` per vector (flat `n × dim`), aligned with ids.
    pub residuals: Vec<f32>,
}

impl Testbed {
    /// Generates a paper-analogue dataset and clusters it.
    pub fn paper(
        dataset: PaperDataset,
        n: usize,
        n_queries: usize,
        clusters: usize,
        seed: u64,
    ) -> Self {
        let ds = dataset.generate(n, n_queries, seed);
        Self::from_dataset(ds, clusters, seed)
    }

    /// Clusters an existing dataset.
    pub fn from_dataset(ds: Dataset, clusters: usize, seed: u64) -> Self {
        let mut cfg = KMeansConfig::new(clusters.min(ds.n()));
        cfg.max_iters = 10;
        cfg.seed = seed ^ 0xC0A5;
        cfg.training_sample = Some(30_000);
        let coarse = kmeans_train(&ds.data, ds.dim, &cfg);
        let assignment = coarse.assign_all(&ds.data, 1);
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); coarse.k()];
        for (i, &c) in assignment.iter().enumerate() {
            buckets[c as usize].push(i as u32);
        }
        let mut residuals = vec![0.0f32; ds.data.len()];
        for (i, &c) in assignment.iter().enumerate() {
            vecs::sub(
                ds.vector(i),
                coarse.centroid(c as usize),
                &mut residuals[i * ds.dim..(i + 1) * ds.dim],
            );
        }
        Self {
            ds,
            coarse,
            buckets,
            residuals,
        }
    }

    /// Bucket indices in nearest-centroid-first order for a query.
    pub fn probe_order(&self, query: &[f32]) -> Vec<usize> {
        self.coarse
            .assign_top_n(query, self.coarse.k())
            .into_iter()
            .map(|(c, _)| c)
            .collect()
    }

    /// The residual of vector `id` w.r.t. its bucket centroid.
    pub fn residual(&self, id: u32) -> &[f32] {
        &self.residuals[id as usize * self.ds.dim..(id as usize + 1) * self.ds.dim]
    }

    /// Exact squared distances from `query` to every base vector.
    pub fn exact_distances(&self, query: &[f32]) -> Vec<f32> {
        (0..self.ds.n())
            .map(|i| vecs::l2_sq(self.ds.vector(i), query))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_dataset() {
        let tb = Testbed::paper(PaperDataset::Sift, 500, 4, 8, 1);
        let total: usize = tb.buckets.iter().map(|b| b.len()).sum();
        assert_eq!(total, 500);
        let mut seen = vec![false; 500];
        for b in &tb.buckets {
            for &id in b {
                assert!(!seen[id as usize], "vector {id} in two buckets");
                seen[id as usize] = true;
            }
        }
    }

    #[test]
    fn probe_order_starts_with_nearest_centroid() {
        let tb = Testbed::paper(PaperDataset::Sift, 300, 4, 6, 2);
        let order = tb.probe_order(tb.ds.query(0));
        assert_eq!(order.len(), tb.coarse.k());
        let d_first = vecs::l2_sq(tb.coarse.centroid(order[0]), tb.ds.query(0));
        let d_last = vecs::l2_sq(tb.coarse.centroid(order[order.len() - 1]), tb.ds.query(0));
        assert!(d_first <= d_last);
    }

    #[test]
    fn residuals_reconstruct_vectors() {
        let tb = Testbed::paper(PaperDataset::Sift, 200, 2, 4, 3);
        let assignment = tb.coarse.assign_all(&tb.ds.data, 1);
        for i in [0usize, 57, 199] {
            let c = assignment[i] as usize;
            let r = tb.residual(i as u32);
            for (d, x) in r.iter().enumerate().take(tb.ds.dim) {
                let want = tb.ds.vector(i)[d];
                let got = x + tb.coarse.centroid(c)[d];
                assert!((want - got).abs() < 1e-5);
            }
        }
    }
}

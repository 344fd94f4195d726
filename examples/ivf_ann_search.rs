//! End-to-end ANN search with the IVF-RaBitQ index of Section 4:
//! build over a clustered synthetic dataset, search with the
//! error-bound-based re-ranking rule, and report recall and scan
//! statistics across `nprobe` settings.
//!
//! ```text
//! cargo run --release --example ivf_ann_search
//! ```

use rabitq::core::RabitqConfig;
use rabitq::data::exact_knn;
use rabitq::data::registry::PaperDataset;
use rabitq::ivf::{IvfConfig, IvfRabitq};
use rabitq::metrics::{recall_at_k, Stopwatch};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let n = 20_000;
    let n_queries = 30;
    let k = 10;

    // A SIFT-like workload: clustered 128-dim descriptors.
    let ds = PaperDataset::Sift.generate(n, n_queries, 7);
    println!(
        "dataset: {} ({n} x {}D, {} queries)",
        ds.name, ds.dim, n_queries
    );

    // Exact ground truth for scoring.
    let gt = exact_knn(&ds.data, ds.dim, &ds.queries, k, 1);

    // Build the index: KMeans buckets + RaBitQ codes per bucket.
    let ivf_cfg = IvfConfig::new(IvfConfig::clusters_for(n));
    let index = IvfRabitq::build(&ds.data, ds.dim, &ivf_cfg, RabitqConfig::default());
    println!(
        "index: {} buckets, {}-bit codes, error-bound re-ranking (no tuning parameter)\n",
        index.n_buckets(),
        index.quantizer().padded_dim()
    );

    println!("nprobe  recall@{k}  QPS     candidates-scanned  exact-dists-computed");
    for nprobe in [2usize, 4, 8, 16, 32, 64] {
        let mut rng = StdRng::seed_from_u64(1);
        let mut sw = Stopwatch::new();
        let mut recall = 0.0;
        let mut scanned = 0usize;
        let mut reranked = 0usize;
        for (qi, truth) in gt.iter().enumerate().take(n_queries) {
            sw.start();
            let res = index.search(ds.query(qi), k, nprobe, &mut rng);
            sw.stop();
            let got: Vec<u32> = res.neighbors.iter().map(|&(id, _)| id).collect();
            let want: Vec<u32> = truth.iter().map(|&(id, _)| id).collect();
            recall += recall_at_k(&want, &got);
            scanned += res.n_estimated;
            reranked += res.n_reranked;
        }
        println!(
            "{nprobe:>6}  {:>9.4}  {:>6.0}  {:>18}  {:>20}",
            recall / n_queries as f64,
            sw.per_second(n_queries as u64),
            scanned / n_queries,
            reranked / n_queries,
        );
    }
    println!(
        "\nThe bound-based rule re-ranks only the candidates whose distance lower \
         bound\nbeats the current top-{k} — typically a few percent of everything scanned."
    );
}

//! **Figure 5** — verification of the confidence parameter `ε₀`.
//!
//! Following Section 5.2.4: estimate distances for *all* data vectors
//! (every bucket probed), re-rank by the error-bound rule at varying `ε₀`,
//! and measure recall@K. The theory predicts a dataset-independent curve
//! saturating near `ε₀ ≈ 1.9` — which is why the parameter needs no
//! tuning.
//!
//! ```text
//! cargo run --release -p rabitq-bench --bin fig5_epsilon0 -- \
//!     --datasets sift,gist --n 10000 --queries 20
//! ```

use rabitq_bench::{Args, Table};
use rabitq_core::RabitqConfig;
use rabitq_data::exact_knn;
use rabitq_data::registry::PaperDataset;
use rabitq_ivf::{IvfConfig, IvfRabitq, RerankStrategy};
use rabitq_metrics::recall_at_k;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::parse();
    let n = args.usize("n", 10_000);
    let queries = args.usize("queries", 20);
    let k = args.usize("k", 100);
    let seed = args.u64("seed", 42);
    let datasets = args.datasets(&[PaperDataset::Sift, PaperDataset::Gist]);

    println!("# Figure 5: recall@{k} vs epsilon0 (all buckets probed)");
    println!("# n = {n}, queries = {queries}\n");

    for dataset in datasets {
        let clusters = args.usize("clusters", (n / 256).max(16));
        let ds = dataset.generate(n, queries, seed);
        let gt = exact_knn(&ds.data, ds.dim, &ds.queries, k, 1);
        let ivf_cfg = IvfConfig::new(clusters);
        let index = IvfRabitq::build(&ds.data, ds.dim, &ivf_cfg, RabitqConfig::default());
        println!("## {} (D = {})", ds.name, ds.dim);

        let mut table = Table::new(&["epsilon0", "recall@k", "rerank-fraction"]);
        for step in 0..=16 {
            let epsilon0 = step as f32 * 0.25;
            let mut rng = StdRng::seed_from_u64(seed ^ 0xE95);
            let mut recall = 0.0;
            let mut reranked = 0usize;
            let mut estimated = 0usize;
            for (qi, truth) in gt.iter().enumerate().take(queries) {
                let res = index.search_with(
                    ds.query(qi),
                    k,
                    clusters,
                    RerankStrategy::ErrorBoundWithEpsilon(epsilon0),
                    &mut rng,
                );
                let got: Vec<u32> = res.neighbors.iter().map(|&(id, _)| id).collect();
                let want: Vec<u32> = truth.iter().map(|&(id, _)| id).collect();
                recall += recall_at_k(&want, &got);
                reranked += res.n_reranked;
                estimated += res.n_estimated;
            }
            table.row(&[
                format!("{epsilon0:.2}"),
                format!("{:.4}", recall / queries as f64),
                format!("{:.4}", reranked as f64 / estimated.max(1) as f64),
            ]);
        }
        table.print();
        println!();
    }
}

//! Graph-based ANN search over RaBitQ codes — the Section 7 future-work
//! combination (what NGT-QG, Lucene and Milvus pair the codes with).
//!
//! Builds an HNSW graph, traverses it with the single-code bitwise
//! estimator, and re-ranks only the candidates the error bound cannot
//! exclude. Compares recall and raw-vector touches against the exact
//! traversal of the same graph.
//!
//! ```text
//! cargo run --release --example graph_search
//! ```

use rabitq::data::{exact_knn, generate, DatasetSpec, Profile};
use rabitq::graph::{GraphRabitq, GraphRabitqConfig};
use rabitq::metrics::recall_at_k;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let (n, dim, k, n_queries) = (20_000, 128, 10, 30);
    let ds = generate(&DatasetSpec {
        name: "sift-like".into(),
        dim,
        n,
        n_queries,
        profile: Profile::Clustered {
            clusters: 50,
            cluster_std: 1.0,
            center_scale: 4.0,
        },
        seed: 7,
    });
    let gt = exact_knn(&ds.data, ds.dim, &ds.queries, k, 1);

    println!("building HNSW graph + RaBitQ codes over {n} x {dim} vectors ...");
    let index = GraphRabitq::build(&ds.data, dim, GraphRabitqConfig::default());
    let (layers, avg_degree) = index.graph().graph_stats();
    println!("graph: {layers} layers, avg base-layer degree {avg_degree:.1}\n");

    println!(
        "{:<10} {:>16} {:>16} {:>14} {:>14}",
        "efSearch", "recall (exact)", "recall (RaBitQ)", "est/query", "rerank/query"
    );
    let mut rng = StdRng::seed_from_u64(99);
    for ef in [20usize, 40, 80, 160] {
        let mut recall_exact = 0.0;
        let mut recall_quantized = 0.0;
        let (mut est, mut rer) = (0usize, 0usize);
        for (qi, truth) in gt.iter().enumerate().take(n_queries) {
            let query = ds.query(qi);
            let want: Vec<u32> = truth.iter().map(|&(id, _)| id).collect();

            let exact: Vec<u32> = index
                .graph()
                .search(query, k, ef)
                .iter()
                .map(|&(id, _)| id)
                .collect();
            recall_exact += recall_at_k(&want, &exact);

            let res = index.search(query, k, ef, &mut rng);
            est += res.n_estimated;
            rer += res.n_reranked;
            let got: Vec<u32> = res.neighbors.iter().map(|&(id, _)| id).collect();
            recall_quantized += recall_at_k(&want, &got);
        }
        println!(
            "{:<10} {:>16.4} {:>16.4} {:>14} {:>14}",
            ef,
            recall_exact / n_queries as f64,
            recall_quantized / n_queries as f64,
            est / n_queries,
            rer / n_queries,
        );
    }

    println!(
        "\nThe quantized traversal estimates distances from 1-bit codes (est/query \
         vertices visited)\nand touches raw vectors only where the error bound demands \
         it (rerank/query) — the\naccess pattern that makes RaBitQ + graphs practical \
         where PQ's batched fast-scan is not."
    );
}

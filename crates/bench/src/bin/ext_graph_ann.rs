//! **Extension experiment** — graph-based ANN search over RaBitQ codes
//! (Section 7's future-work combination; not a paper figure).
//!
//! Compares, on the same graph and datasets:
//!
//! * `HNSW` — exact-distance traversal (the paper's Figure 4 baseline);
//! * `Graph-RaBitQ` — the same graph traversed with the single-code
//!   bitwise estimator, exact re-ranking gated by the error bound;
//! * `Graph-RaBitQ (no rerank)` — ablation: ranking by estimates alone,
//!   the graph analogue of Figure 10;
//! * `IVF-RaBitQ` — the paper's Section 4 system, for reference.
//!
//! The claim under test: the quantized traversal preserves the recall of
//! the exact traversal (the bound-gated re-rank recovers what 1-bit
//! estimates blur) while touching raw vectors for only a fraction of the
//! visited vertices — the access-pattern win that motivates pairing
//! RaBitQ with graphs in production systems.
//!
//! ```text
//! cargo run --release -p rabitq-bench --bin ext_graph_ann -- \
//!     --datasets sift,word2vec --n 30000 --queries 50 --k 10
//! ```

use rabitq_bench::{Args, Table};
use rabitq_core::RabitqConfig;
use rabitq_data::registry::PaperDataset;
use rabitq_data::{exact_knn, Neighbors};
use rabitq_graph::{GraphRabitq, GraphRabitqConfig, GraphRerank};
use rabitq_hnsw::HnswConfig;
use rabitq_ivf::{IvfConfig, IvfRabitq};
use rabitq_metrics::{recall_at_k, Stopwatch};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::parse();
    let n = args.usize("n", 30_000);
    let queries = args.usize("queries", 50);
    let k = args.usize("k", 10);
    let seed = args.u64("seed", 42);
    let datasets = args.datasets(&[PaperDataset::Sift, PaperDataset::Word2Vec]);
    let ef_searches = [20usize, 40, 80, 160, 320];
    let nprobes = [4usize, 8, 16, 32, 64];

    println!("# Extension: graph-based ANN over RaBitQ codes (QPS vs recall@{k})");
    println!("# n = {n}, queries = {queries}, single-thread\n");

    for dataset in datasets {
        let ds = dataset.generate(n, queries, seed);
        let gt = exact_knn(&ds.data, ds.dim, &ds.queries, k, 1);
        println!("## {} (D = {})", ds.name, ds.dim);

        let mut table = Table::new(&[
            "method",
            "param",
            "QPS",
            "recall@k",
            "est/query",
            "rerank/query",
        ]);

        let hnsw_cfg = HnswConfig {
            m: 16,
            ef_construction: args.usize("ef-construction", 500),
            seed,
        };
        let graph_cfg = GraphRabitqConfig {
            hnsw: hnsw_cfg,
            rabitq: RabitqConfig::default(),
            rerank: GraphRerank::ErrorBound,
            centroids: 1,
        };
        let graph = GraphRabitq::build(&ds.data, ds.dim, graph_cfg);

        // ---- HNSW, exact traversal of the very same graph ----
        for &ef in &ef_searches {
            let mut sw = Stopwatch::new();
            let mut results: Vec<Vec<u32>> = Vec::with_capacity(queries);
            std::hint::black_box(graph.graph().search(ds.query(0), k, ef));
            for qi in 0..queries {
                sw.start();
                let res = graph.graph().search(ds.query(qi), k, ef);
                sw.stop();
                results.push(res.iter().map(|&(id, _)| id).collect());
            }
            table.row(&[
                "HNSW (exact)".into(),
                format!("efSearch={ef}"),
                format!("{:.0}", sw.per_second(queries as u64)),
                format!("{:.4}", mean_recall(&gt, &results)),
                "-".into(),
                "-".into(),
            ]);
        }

        // ---- Graph-RaBitQ: global centroid vs per-cluster normalization
        // (Section 3.1.1) ----
        let n_centroids = args.usize("centroids", 64);
        let mut multi_cfg = graph_cfg;
        multi_cfg.centroids = n_centroids;
        let graph_multi = GraphRabitq::build(&ds.data, ds.dim, multi_cfg);
        for (label, index) in [
            ("Graph-RaBitQ (c=1)", &graph),
            ("Graph-RaBitQ (multi-c)", &graph_multi),
        ] {
            for &ef in &ef_searches {
                let mut rng = StdRng::seed_from_u64(seed ^ 0x6AF);
                let mut sw = Stopwatch::new();
                let mut results: Vec<Vec<u32>> = Vec::with_capacity(queries);
                let (mut est_total, mut rerank_total) = (0usize, 0usize);
                std::hint::black_box(index.search(ds.query(0), k, ef, &mut rng));
                for qi in 0..queries {
                    sw.start();
                    let res = index.search(ds.query(qi), k, ef, &mut rng);
                    sw.stop();
                    est_total += res.n_estimated;
                    rerank_total += res.n_reranked;
                    results.push(res.neighbors.iter().map(|&(id, _)| id).collect());
                }
                table.row(&[
                    label.into(),
                    format!("efSearch={ef}"),
                    format!("{:.0}", sw.per_second(queries as u64)),
                    format!("{:.4}", mean_recall(&gt, &results)),
                    format!("{:.0}", est_total as f64 / queries as f64),
                    format!("{:.0}", rerank_total as f64 / queries as f64),
                ]);
            }
        }

        // ---- Ablation: no re-ranking ----
        let mut no_rerank_cfg = graph_cfg;
        no_rerank_cfg.rerank = GraphRerank::None;
        let graph_nr = GraphRabitq::build(&ds.data, ds.dim, no_rerank_cfg);
        for &ef in &[80usize, 320] {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x6AF);
            let mut results: Vec<Vec<u32>> = Vec::with_capacity(queries);
            for qi in 0..queries {
                let res = graph_nr.search(ds.query(qi), k, ef, &mut rng);
                results.push(res.neighbors.iter().map(|&(id, _)| id).collect());
            }
            table.row(&[
                "Graph-RaBitQ (no rerank)".into(),
                format!("efSearch={ef}"),
                "-".into(),
                format!("{:.4}", mean_recall(&gt, &results)),
                "-".into(),
                "0".into(),
            ]);
        }

        // ---- IVF-RaBitQ reference ----
        let clusters = args.usize("clusters", IvfConfig::clusters_for(n));
        let ivf_cfg = IvfConfig {
            threads: 1,
            ..IvfConfig::new(clusters)
        };
        let ivf = IvfRabitq::build(&ds.data, ds.dim, &ivf_cfg, RabitqConfig::default());
        for &nprobe in &nprobes {
            if nprobe > clusters {
                continue;
            }
            let mut rng = StdRng::seed_from_u64(seed ^ 0xF14);
            let mut sw = Stopwatch::new();
            let mut results: Vec<Vec<u32>> = Vec::with_capacity(queries);
            std::hint::black_box(ivf.search(ds.query(0), k, nprobe, &mut rng));
            for qi in 0..queries {
                sw.start();
                let res = ivf.search(ds.query(qi), k, nprobe, &mut rng);
                sw.stop();
                results.push(res.neighbors.iter().map(|&(id, _)| id).collect());
            }
            table.row(&[
                "IVF-RaBitQ".into(),
                format!("nprobe={nprobe}"),
                format!("{:.0}", sw.per_second(queries as u64)),
                format!("{:.4}", mean_recall(&gt, &results)),
                "-".into(),
                "-".into(),
            ]);
        }

        table.print();
        println!();
    }
}

fn mean_recall(gt: &[Neighbors], results: &[Vec<u32>]) -> f64 {
    let mut recall = 0.0;
    for (qi, ids) in results.iter().enumerate() {
        let want: Vec<u32> = gt[qi].iter().map(|&(id, _)| id).collect();
        recall += recall_at_k(&want, ids);
    }
    recall / results.len() as f64
}

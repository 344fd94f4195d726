//! **Figure 4** — QPS vs recall@100 and QPS vs average distance ratio for
//! in-memory ANN search.
//!
//! Methods, as in the paper:
//! * `IVF-RaBitQ` — error-bound re-ranking, swept over `nprobe`;
//! * `IVF-OPQx4fs` — fixed re-ranking counts (three settings, none of
//!   which the paper found to work across datasets), swept over `nprobe`;
//! * `HNSW` — swept over `efSearch`.
//!
//! Single-thread, one query at a time (the paper's protocol). Distance
//! ratios are computed from exact distances of the returned ids, outside
//! the timed region.
//!
//! ```text
//! cargo run --release -p rabitq-bench --bin fig4_ann_tradeoff -- \
//!     --datasets sift,msong --n 30000 --queries 50 --k 100
//! ```

use rabitq_bench::{Args, Table};
use rabitq_core::RabitqConfig;
use rabitq_data::registry::PaperDataset;
use rabitq_data::{exact_knn, Neighbors};
use rabitq_hnsw::{Hnsw, HnswConfig};
use rabitq_ivf::{IvfConfig, IvfRabitq};
use rabitq_math::vecs;
use rabitq_metrics::{average_distance_ratio, recall_at_k, Stopwatch};
use rabitq_pq::{IvfPq, PqConfig, ScanMode};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::parse();
    let n = args.usize("n", 30_000);
    let queries = args.usize("queries", 50);
    let k = args.usize("k", 100);
    let seed = args.u64("seed", 42);
    let datasets = args.datasets(&[PaperDataset::Sift, PaperDataset::Msong, PaperDataset::Gist]);
    let nprobes = [2usize, 4, 8, 16, 32, 64, 128];
    let ef_searches = [20usize, 40, 80, 160, 320, 640];
    let reranks = [100usize, 500, 2500];

    println!("# Figure 4: QPS vs recall@{k} and average distance ratio");
    println!("# n = {n}, queries = {queries}, single-thread\n");

    for dataset in datasets {
        let clusters = args.usize("clusters", IvfConfig::clusters_for(n));
        let ds = dataset.generate(n, queries, seed);
        let gt = exact_knn(&ds.data, ds.dim, &ds.queries, k, 1);
        println!("## {} (D = {}, {} clusters)", ds.name, ds.dim, clusters);

        let mut table = Table::new(&["method", "param", "QPS", "recall@k", "avg-dist-ratio"]);

        // ---- IVF-RaBitQ ----
        let ivf_cfg = IvfConfig {
            threads: 1,
            ..IvfConfig::new(clusters)
        };
        let rabitq = IvfRabitq::build(&ds.data, ds.dim, &ivf_cfg, RabitqConfig::default());
        for &nprobe in &nprobes {
            if nprobe > clusters {
                continue;
            }
            let mut rng = StdRng::seed_from_u64(seed ^ 0xF14);
            let mut sw = Stopwatch::new();
            let mut results: Vec<Vec<u32>> = Vec::with_capacity(queries);
            std::hint::black_box(rabitq.search(ds.query(0), k, nprobe, &mut rng));
            for qi in 0..queries {
                sw.start();
                let res = rabitq.search(ds.query(qi), k, nprobe, &mut rng);
                sw.stop();
                results.push(res.neighbors.iter().map(|&(id, _)| id).collect());
            }
            let (recall, ratio) = score(&ds, &gt, &results, k);
            table.row(&[
                "IVF-RaBitQ".into(),
                format!("nprobe={nprobe}"),
                format!("{:.0}", sw.per_second(queries as u64)),
                format!("{:.4}", recall),
                format!("{:.4}", ratio),
            ]);
        }

        // ---- IVF-OPQx4fs with the three re-ranking settings ----
        let pq_cfg = PqConfig {
            m: largest_divisor_at_most(ds.dim, ds.dim / 2),
            k_bits: 4,
            train_iters: 10,
            training_sample: Some(10_000),
            seed,
        };
        let opq = IvfPq::build(&ds.data, ds.dim, &ivf_cfg, &pq_cfg, true);
        for &rerank in &reranks {
            for &nprobe in &nprobes {
                if nprobe > clusters {
                    continue;
                }
                let mut sw = Stopwatch::new();
                let mut results: Vec<Vec<u32>> = Vec::with_capacity(queries);
                std::hint::black_box(opq.search(
                    ds.query(0),
                    k,
                    nprobe,
                    rerank,
                    ScanMode::FastScanBatch,
                ));
                for qi in 0..queries {
                    sw.start();
                    let res = opq.search(ds.query(qi), k, nprobe, rerank, ScanMode::FastScanBatch);
                    sw.stop();
                    results.push(res.neighbors.iter().map(|&(id, _)| id).collect());
                }
                let (recall, ratio) = score(&ds, &gt, &results, k);
                table.row(&[
                    format!("IVF-OPQx4fs(rerank={rerank})"),
                    format!("nprobe={nprobe}"),
                    format!("{:.0}", sw.per_second(queries as u64)),
                    format!("{:.4}", recall),
                    format!("{:.4}", ratio),
                ]);
            }
        }

        // ---- HNSW ----
        let hnsw_cfg = HnswConfig {
            m: 16,
            ef_construction: args.usize("ef-construction", 500),
            seed,
        };
        let hnsw = Hnsw::build(&ds.data, ds.dim, hnsw_cfg);
        for &ef in &ef_searches {
            let mut sw = Stopwatch::new();
            let mut results: Vec<Vec<u32>> = Vec::with_capacity(queries);
            std::hint::black_box(hnsw.search(ds.query(0), k, ef));
            for qi in 0..queries {
                sw.start();
                let res = hnsw.search(ds.query(qi), k, ef);
                sw.stop();
                results.push(res.iter().map(|&(id, _)| id).collect());
            }
            let (recall, ratio) = score(&ds, &gt, &results, k);
            table.row(&[
                "HNSW".into(),
                format!("efSearch={ef}"),
                format!("{:.0}", sw.per_second(queries as u64)),
                format!("{:.4}", recall),
                format!("{:.4}", ratio),
            ]);
        }

        table.print();
        println!();
    }
}

fn largest_divisor_at_most(dim: usize, target: usize) -> usize {
    (1..=target.max(1))
        .rev()
        .find(|m| dim.is_multiple_of(*m))
        .unwrap_or(1)
}

/// Recall@k and average distance ratio over all queries, with exact
/// distances recomputed from ids (estimation-independent).
fn score(
    ds: &rabitq_data::Dataset,
    gt: &[Neighbors],
    results: &[Vec<u32>],
    k: usize,
) -> (f64, f64) {
    let mut recall = 0.0;
    let mut ratio = 0.0;
    for (qi, ids) in results.iter().enumerate() {
        let want: Vec<u32> = gt[qi].iter().map(|&(id, _)| id).collect();
        recall += recall_at_k(&want, ids);
        let truth_sq: Vec<f32> = gt[qi].iter().map(|&(_, d)| d).collect();
        let mut got_sq: Vec<f32> = ids
            .iter()
            .map(|&id| vecs::l2_sq(ds.vector(id as usize), ds.query(qi)))
            .collect();
        got_sq.sort_by(|a, b| a.total_cmp(b));
        got_sq.truncate(k);
        ratio += average_distance_ratio(&truth_sq, &got_sq);
    }
    (recall / results.len() as f64, ratio / results.len() as f64)
}

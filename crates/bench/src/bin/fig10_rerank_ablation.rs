//! **Figure 10 (appendix F.3)** — ANN search with and without re-ranking.
//!
//! Four configurations over an `nprobe` sweep:
//! * `IVF-RaBitQ (with re-ranking)` — the paper's full method;
//! * `IVF-RaBitQ (w/o re-ranking)` — rank by estimated distances only;
//! * `IVF-OPQx4fs (D bits, w/o re-ranking)` — `M = D/4`;
//! * `IVF-OPQx4fs (2D bits, w/o re-ranking)` — `M = D/2`.
//!
//! Re-ranking is what converts RaBitQ's bounded estimates into robust
//! high recall; without it, recall plateaus once estimation error
//! dominates inter-candidate gaps.
//!
//! ```text
//! cargo run --release -p rabitq-bench --bin fig10_rerank_ablation -- \
//!     --datasets sift,msong,gist --n 20000
//! ```

use rabitq_bench::{Args, Table};
use rabitq_core::RabitqConfig;
use rabitq_data::exact_knn;
use rabitq_data::registry::PaperDataset;
use rabitq_ivf::{IvfConfig, IvfRabitq, RerankStrategy};
use rabitq_metrics::{recall_at_k, Stopwatch};
use rabitq_pq::{IvfPq, PqConfig, ScanMode};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::parse();
    let n = args.usize("n", 20_000);
    let queries = args.usize("queries", 30);
    let k = args.usize("k", 100);
    let seed = args.u64("seed", 42);
    let datasets = args.datasets(&[PaperDataset::Sift, PaperDataset::Msong, PaperDataset::Gist]);
    let nprobes = [4usize, 8, 16, 32, 64];

    println!("# Figure 10: ANN with vs without re-ranking (recall@{k})");
    println!("# n = {n}, queries = {queries}\n");

    for dataset in datasets {
        let clusters = args.usize("clusters", IvfConfig::clusters_for(n));
        let ds = dataset.generate(n, queries, seed);
        let gt = exact_knn(&ds.data, ds.dim, &ds.queries, k, 1);
        let want: Vec<Vec<u32>> = gt
            .iter()
            .map(|nbrs| nbrs.iter().map(|&(id, _)| id).collect())
            .collect();
        println!("## {} (D = {})", ds.name, ds.dim);

        let ivf_cfg = IvfConfig::new(clusters);
        let rabitq = IvfRabitq::build(&ds.data, ds.dim, &ivf_cfg, RabitqConfig::default());
        let m_d = largest_divisor_at_most(ds.dim, ds.dim / 4);
        let m_2d = largest_divisor_at_most(ds.dim, ds.dim / 2);
        let build_opq = |m: usize| {
            let cfg = PqConfig {
                m,
                k_bits: 4,
                train_iters: 10,
                training_sample: Some(10_000),
                seed,
            };
            IvfPq::build(&ds.data, ds.dim, &ivf_cfg, &cfg, true)
        };
        let opq_d = build_opq(m_d);
        let opq_2d = build_opq(m_2d);

        let mut table = Table::new(&["method", "nprobe", "QPS", "recall@k"]);
        for &nprobe in &nprobes {
            if nprobe > clusters {
                continue;
            }
            // RaBitQ with bound-based re-ranking.
            run_rabitq(
                &mut table,
                "IVF-RaBitQ (rerank)",
                &rabitq,
                &ds,
                &want,
                k,
                nprobe,
                RerankStrategy::ErrorBound,
                seed,
            );
            // RaBitQ without re-ranking.
            run_rabitq(
                &mut table,
                "IVF-RaBitQ (no rerank)",
                &rabitq,
                &ds,
                &want,
                k,
                nprobe,
                RerankStrategy::None,
                seed,
            );
            // OPQ without re-ranking at two code lengths.
            for (label, index) in [
                (format!("IVF-OPQx4fs ({} bits, no rerank)", 4 * m_d), &opq_d),
                (
                    format!("IVF-OPQx4fs ({} bits, no rerank)", 4 * m_2d),
                    &opq_2d,
                ),
            ] {
                let mut sw = Stopwatch::new();
                let mut recall = 0.0;
                for (qi, want_row) in want.iter().enumerate().take(queries) {
                    sw.start();
                    let res = index.search(ds.query(qi), k, nprobe, 0, ScanMode::FastScanBatch);
                    sw.stop();
                    let got: Vec<u32> = res.neighbors.iter().map(|&(id, _)| id).collect();
                    recall += recall_at_k(want_row, &got);
                }
                table.row(&[
                    label,
                    nprobe.to_string(),
                    format!("{:.0}", sw.per_second(queries as u64)),
                    format!("{:.4}", recall / queries as f64),
                ]);
            }
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

#[allow(clippy::too_many_arguments)]
fn run_rabitq(
    table: &mut Table,
    label: &str,
    index: &IvfRabitq,
    ds: &rabitq_data::Dataset,
    want: &[Vec<u32>],
    k: usize,
    nprobe: usize,
    strategy: RerankStrategy,
    seed: u64,
) {
    let queries = ds.n_queries();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF10);
    let mut sw = Stopwatch::new();
    let mut recall = 0.0;
    for (qi, want_row) in want.iter().enumerate().take(queries) {
        sw.start();
        let res = index.search_with(ds.query(qi), k, nprobe, strategy, &mut rng);
        sw.stop();
        let got: Vec<u32> = res.neighbors.iter().map(|&(id, _)| id).collect();
        recall += recall_at_k(want_row, &got);
    }
    table.row(&[
        label.to_string(),
        nprobe.to_string(),
        format!("{:.0}", sw.per_second(queries as u64)),
        format!("{:.4}", recall / queries as f64),
    ]);
}

//! **Extension experiment** — recall and throughput of the segmented
//! collection engine (`rabitq-store`) versus a monolithic IVF-RaBitQ
//! index over the same live rows.
//!
//! The collection ingests the base vectors through its WAL/memtable path
//! (sealing a segment every `--memtable` rows), deletes `--dead-fraction`
//! of them, and is then measured three ways: multi-segment fan-out before
//! compaction, single segment after compaction, and a fresh-built
//! monolithic index as the baseline. The claim under test: segmenting and
//! compacting are recall-neutral — every layer re-ranks with the paper's
//! error bound, so only QPS moves.
//!
//! ```text
//! cargo run --release -p rabitq-bench --bin ext_collection_recall -- \
//!     --datasets sift --n 20000 --queries 50 --k 10 --nprobe 64
//! ```

use rabitq_bench::{Args, Table};
use rabitq_data::exact_knn;
use rabitq_data::registry::PaperDataset;
use rabitq_ivf::{IvfConfig, IvfRabitq, SearchResult};
use rabitq_metrics::{recall_at_k, Stopwatch};
use rabitq_store::{Collection, CollectionConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::parse();
    let n = args.usize("n", 20_000);
    let queries = args.usize("queries", 50);
    let k = args.usize("k", 10);
    let nprobe = args.usize("nprobe", 64);
    let memtable = args.usize("memtable", 4_096);
    let dead_fraction = args.f64("dead-fraction", 0.2);
    let seed = args.u64("seed", 42);
    let datasets = args.datasets(&[PaperDataset::Sift]);

    println!("# Extension: segmented collection vs monolithic IVF-RaBitQ (recall@{k})");
    println!(
        "# n = {n}, queries = {queries}, nprobe = {nprobe}, memtable = {memtable}, \
         dead fraction = {dead_fraction}\n"
    );

    for dataset in datasets {
        let ds = dataset.generate(n, queries, seed);
        println!("## {} (D = {})", ds.name, ds.dim);

        let dir =
            std::env::temp_dir().join(format!("ext-collection-{}-{}", ds.name, std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut config = CollectionConfig::new(ds.dim);
        config.memtable_capacity = memtable;
        config.auto_compact = false;
        let mut collection = Collection::open(&dir, config).expect("open collection");

        let mut sw = Stopwatch::new();
        sw.start();
        for row in ds.data.chunks_exact(ds.dim) {
            collection.insert(row).expect("insert");
        }
        collection.seal().expect("seal");
        sw.stop();
        println!(
            "ingested {n} rows in {:.1}s -> {} segments",
            sw.elapsed().as_secs_f64(),
            collection.n_segments()
        );

        // Tombstone a prefix of every segment's id range.
        let n_dead = (n as f64 * dead_fraction) as u32;
        for id in 0..n_dead {
            collection.delete(id).expect("delete");
        }

        // Survivor ground truth (exact, over the live rows only).
        let live: Vec<f32> = ds.data[n_dead as usize * ds.dim..].to_vec();
        let gt = exact_knn(&live, ds.dim, &ds.queries, k, 1);
        let want: Vec<Vec<u32>> = gt
            .iter()
            .map(|nbrs| nbrs.iter().map(|&(id, _)| id + n_dead).collect())
            .collect();

        let reader = collection.reader();
        let mut table = Table::new(&["engine", "segments", "QPS", "recall@k", "rerank/query"]);
        let measure =
            |label: &str,
             segments: usize,
             table: &mut Table,
             search: &mut dyn FnMut(&[f32], &mut StdRng) -> SearchResult| {
                let mut rng = StdRng::seed_from_u64(seed ^ 0x715);
                let mut sw = Stopwatch::new();
                let mut recall = 0.0f64;
                let mut reranked = 0usize;
                for (qi, want_q) in want.iter().enumerate() {
                    let query = ds.query(qi);
                    sw.start();
                    let res = search(query, &mut rng);
                    sw.stop();
                    reranked += res.n_reranked;
                    let got: Vec<u32> = res.neighbors.iter().map(|&(id, _)| id).collect();
                    assert!(
                        got.iter().all(|&id| id >= n_dead),
                        "{label}: tombstoned id in results"
                    );
                    recall += recall_at_k(want_q, &got);
                }
                table.row(&[
                    label.into(),
                    format!("{segments}"),
                    format!("{:.0}", sw.per_second(queries as u64)),
                    format!("{:.4}", recall / queries as f64),
                    format!("{:.0}", reranked as f64 / queries as f64),
                ]);
            };

        measure(
            "collection (pre-compact)",
            collection.n_segments(),
            &mut table,
            &mut |q, rng| reader.search(q, k, nprobe, rng),
        );

        let mut sw = Stopwatch::new();
        sw.start();
        collection.compact().expect("compact");
        sw.stop();
        let compact_secs = sw.elapsed().as_secs_f64();
        measure(
            "collection (compacted)",
            collection.n_segments(),
            &mut table,
            &mut |q, rng| reader.search(q, k, nprobe, rng),
        );

        // Monolithic baseline: fresh build over exactly the live rows.
        let fresh = IvfRabitq::build(
            &live,
            ds.dim,
            &IvfConfig::new(IvfConfig::clusters_for(live.len() / ds.dim)),
            rabitq_core::RabitqConfig::default(),
        );
        measure("monolithic rebuild", 1, &mut table, &mut |q, rng| {
            let mut res = fresh.search(q, k, nprobe, rng);
            for entry in &mut res.neighbors {
                entry.0 += n_dead; // align ids with the collection's
            }
            res
        });

        table.print();
        println!("(compaction itself took {compact_secs:.1}s)\n");
        std::fs::remove_dir_all(&dir).ok();
    }
}

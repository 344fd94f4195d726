//! **Figure 6** — verification of the query quantization width `B_q`.
//!
//! Average relative error of the estimated distances as `B_q` sweeps 1..8
//! (Section 5.2.5). The codes are `B_q`-independent, so one index serves
//! every setting; only query preparation changes. The curve must converge
//! by `B_q = 4` — and `B_q = 1` (binarizing the query too, as binary
//! hashing does) must be visibly worse.
//!
//! ```text
//! cargo run --release -p rabitq-bench --bin fig6_bq -- \
//!     --datasets sift,gist --n 10000 --queries 20
//! ```

use rabitq_bench::{Args, Table, Testbed};
use rabitq_core::{Rabitq, RabitqConfig};
use rabitq_data::registry::PaperDataset;
use rabitq_metrics::RelativeErrorStats;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::parse();
    let n = args.usize("n", 10_000);
    let queries = args.usize("queries", 20);
    let seed = args.u64("seed", 42);
    let datasets = args.datasets(&[PaperDataset::Sift, PaperDataset::Gist]);

    println!("# Figure 6: average relative error vs B_q");
    println!("# n = {n}, queries = {queries}\n");

    for dataset in datasets {
        let clusters = args.usize("clusters", (n / 256).max(16));
        let tb = Testbed::paper(dataset, n, queries, clusters, seed);
        let dim = tb.ds.dim;
        let quantizer = Rabitq::new(
            dim,
            RabitqConfig {
                seed,
                ..RabitqConfig::default()
            },
        );
        // Encode once (codes are shared across B_q settings).
        let buckets: Vec<_> = tb
            .buckets
            .iter()
            .enumerate()
            .map(|(c, ids)| {
                let mut set = quantizer.new_code_set();
                for &id in ids {
                    quantizer.encode_into(
                        tb.ds.vector(id as usize),
                        tb.coarse.centroid(c),
                        &mut set,
                    );
                }
                set
            })
            .collect();
        let exact: Vec<Vec<f32>> = (0..queries)
            .map(|qi| tb.exact_distances(tb.ds.query(qi)))
            .collect();

        println!("## {} (D = {dim})", tb.ds.name);
        let mut table = Table::new(&["B_q", "avg-rel-err", "max-rel-err"]);
        for bq in 1..=8u8 {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xB9);
            let mut err = RelativeErrorStats::new();
            for (qi, exact_row) in exact.iter().enumerate().take(queries) {
                let query = tb.ds.query(qi);
                for (c, ids) in tb.buckets.iter().enumerate() {
                    if ids.is_empty() {
                        continue;
                    }
                    let prepared =
                        quantizer.prepare_query_bq(query, tb.coarse.centroid(c), bq, &mut rng);
                    for (slot, &id) in ids.iter().enumerate() {
                        let est = quantizer.estimate(&prepared, &buckets[c], slot);
                        err.record(est.dist_sq, exact_row[id as usize]);
                    }
                }
            }
            table.row(&[
                bq.to_string(),
                format!("{:.3}%", err.average() * 100.0),
                format!("{:.2}%", err.maximum() * 100.0),
            ]);
        }
        table.print();
        println!();
    }
}

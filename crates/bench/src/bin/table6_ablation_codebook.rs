//! **Table 6 (appendix F.1)** — ablation of the codebook construction.
//!
//! The paper swaps RaBitQ's randomized codebook for a learned (PQ-style)
//! codebook and observes degraded accuracy. This reproduction ablates the
//! randomization itself: the rotation is replaced with the identity, i.e.
//! the *deterministic* hypercube codebook `C` of Eq. 3 — precisely the
//! construction Section 3.1.2 argues is broken because it favors some
//! directions (and it voids the error bound). The randomized codebook must
//! win on both average and maximum relative error.
//!
//! ```text
//! cargo run --release -p rabitq-bench --bin table6_ablation_codebook -- --n 10000
//! ```

use rabitq_bench::{Args, Table, Testbed};
use rabitq_core::{Rabitq, RabitqConfig, RotatorKind};
use rabitq_data::registry::PaperDataset;
use rabitq_metrics::RelativeErrorStats;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::parse();
    let n = args.usize("n", 10_000);
    let queries = args.usize("queries", 20);
    let seed = args.u64("seed", 42);
    // Default to msong-like: the deterministic codebook's weakness is that
    // it favors specific directions (Section 3.1.2), which only bites when
    // coordinates are skewed. On near-Gaussian data (gist-like) the
    // ablation is mild because Gaussians are rotation-invariant.
    let dataset = args
        .datasets(&[PaperDataset::Msong])
        .into_iter()
        .next()
        .expect("one dataset");

    let clusters = args.usize("clusters", (n / 256).max(16));
    let tb = Testbed::paper(dataset, n, queries, clusters, seed);
    let dim = tb.ds.dim;
    println!(
        "# Table 6: codebook ablation on {} (D = {dim}, n = {n})",
        tb.ds.name
    );
    println!("# paper: randomized 1.675%/13.04% vs learned 3.049%/34.38% (avg/max)\n");

    let exact: Vec<Vec<f32>> = (0..queries)
        .map(|qi| tb.exact_distances(tb.ds.query(qi)))
        .collect();

    let mut table = Table::new(&["codebook", "avg-rel-err", "max-rel-err"]);
    for (label, kind) in [
        ("randomized rotation (paper)", RotatorKind::DenseOrthogonal),
        ("deterministic hypercube (ablation)", RotatorKind::Identity),
    ] {
        let quantizer = Rabitq::new(
            dim,
            RabitqConfig {
                rotator: kind,
                seed,
                ..RabitqConfig::default()
            },
        );
        let sets: Vec<_> = tb
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
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7AB6);
        let mut err = RelativeErrorStats::new();
        for (qi, exact_row) in exact.iter().enumerate().take(queries) {
            let query = tb.ds.query(qi);
            for (c, ids) in tb.buckets.iter().enumerate() {
                if ids.is_empty() {
                    continue;
                }
                let prepared = quantizer.prepare_query(query, tb.coarse.centroid(c), &mut rng);
                for (slot, &id) in ids.iter().enumerate() {
                    let est = quantizer.estimate(&prepared, &sets[c], slot);
                    err.record(est.dist_sq, exact_row[id as usize]);
                }
            }
        }
        table.row(&[
            label.to_string(),
            format!("{:.3}%", err.average() * 100.0),
            format!("{:.2}%", err.maximum() * 100.0),
        ]);
    }
    table.print();
}

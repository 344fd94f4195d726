//! Criterion bench for the extension indexes: graph traversal over RaBitQ
//! codes (single-code bitwise kernel per visited vertex, bound-gated
//! re-ranking) and flat MIPS/cosine search (batch fast-scan + footnote-8
//! lift). Complements `ivf_search.rs`, which covers the paper's own
//! Figure 4 systems.

use criterion::{criterion_group, criterion_main, Criterion};
use rabitq_core::RabitqConfig;
use rabitq_data::registry::PaperDataset;
use rabitq_graph::{GraphRabitq, GraphRabitqConfig};
use rabitq_hnsw::HnswConfig;
use rabitq_ivf::FlatMips;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_graph_search(c: &mut Criterion) {
    let n = 10_000;
    let ds = PaperDataset::Sift.generate(n, 8, 42);
    let k = 10;

    let mut group = c.benchmark_group("graph-search/sift-like-10k");

    let base_cfg = GraphRabitqConfig {
        hnsw: HnswConfig {
            m: 16,
            ef_construction: 200,
            seed: 42,
        },
        ..GraphRabitqConfig::default()
    };
    let graph = GraphRabitq::build(&ds.data, ds.dim, base_cfg);
    for ef in [40usize, 160] {
        group.bench_function(format!("graph-rabitq/c=1/ef={ef}"), |b| {
            let mut rng = StdRng::seed_from_u64(1);
            let mut qi = 0usize;
            b.iter(|| {
                qi = (qi + 1) % ds.n_queries();
                graph.search(ds.query(qi), k, ef, &mut rng).neighbors.len()
            })
        });
        group.bench_function(format!("hnsw-exact/ef={ef}"), |b| {
            let mut qi = 0usize;
            b.iter(|| {
                qi = (qi + 1) % ds.n_queries();
                graph.graph().search(ds.query(qi), k, ef).len()
            })
        });
    }

    let multi = GraphRabitq::build(
        &ds.data,
        ds.dim,
        GraphRabitqConfig {
            centroids: 64,
            ..base_cfg
        },
    );
    group.bench_function("graph-rabitq/c=64/ef=160", |b| {
        let mut rng = StdRng::seed_from_u64(2);
        let mut qi = 0usize;
        b.iter(|| {
            qi = (qi + 1) % ds.n_queries();
            multi.search(ds.query(qi), k, 160, &mut rng).neighbors.len()
        })
    });
    group.finish();
}

fn bench_mips_search(c: &mut Criterion) {
    let n = 10_000;
    let ds = PaperDataset::Sift.generate(n, 8, 42);
    let k = 10;
    let index = FlatMips::build(&ds.data, ds.dim, RabitqConfig::default());

    let mut group = c.benchmark_group("mips-search/sift-like-10k");
    group.bench_function("flat-mips/ip", |b| {
        let mut rng = StdRng::seed_from_u64(3);
        let mut qi = 0usize;
        b.iter(|| {
            qi = (qi + 1) % ds.n_queries();
            index.search_ip(ds.query(qi), k, &mut rng).neighbors.len()
        })
    });
    group.bench_function("flat-mips/cosine", |b| {
        let mut rng = StdRng::seed_from_u64(4);
        let mut qi = 0usize;
        b.iter(|| {
            qi = (qi + 1) % ds.n_queries();
            index
                .search_cosine(ds.query(qi), k, &mut rng)
                .neighbors
                .len()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_graph_search, bench_mips_search
}
criterion_main!(benches);

//! The collection engine end to end: open a durable collection, stream
//! vectors in (sealing IVF-RaBitQ segments along the way), delete, crash,
//! recover from the WAL, compact, and search throughout.
//!
//! ```text
//! cargo run --release --example collection_lifecycle
//! ```

use rabitq::data::registry::PaperDataset;
use rabitq::store::{Collection, CollectionConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let ds = PaperDataset::Sift.generate(6_000, 10, 41);
    let dir = std::env::temp_dir().join(format!("collection-lifecycle-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let mut config = CollectionConfig::new(ds.dim);
    config.memtable_capacity = 1_000; // small, so sealing is visible

    // ---- Session 1: ingest with live queries. ----
    {
        let mut collection = Collection::open(&dir, config.clone()).expect("open collection");
        // A detached read handle: it always searches the latest snapshot,
        // so it keeps working while the writer holds `&mut collection`.
        let reader = collection.reader();
        let mut rng = StdRng::seed_from_u64(1);
        for (i, vector) in ds.data.chunks_exact(ds.dim).enumerate() {
            let id = collection.insert(vector).expect("insert");
            if i % 1_500 == 0 {
                // Just-written vectors are immediately searchable: they sit
                // in the exact-scan memtable until a seal moves them into a
                // quantized segment.
                let res = reader.search(vector, 1, 32, &mut rng);
                assert_eq!(res.neighbors[0].0, id);
            }
        }
        println!(
            "ingested {} vectors -> {} segments + {} in the memtable",
            collection.len(),
            collection.n_segments(),
            collection.memtable_len()
        );

        for id in 0..500u32 {
            collection.delete(id).expect("delete");
        }
        println!("tombstoned 500 ids; {} live", collection.len());
        // No clean shutdown: the memtable rows and the deletes exist only
        // in the write-ahead log when this scope "crashes".
    }

    // ---- Session 2: crash recovery. ----
    let mut collection = Collection::open(&dir, config.clone()).expect("replay WAL");
    println!(
        "recovered: {} live vectors, {} segments, {} replayed into the memtable",
        collection.len(),
        collection.n_segments(),
        collection.memtable_len()
    );
    assert_eq!(collection.len(), 5_500);

    // ---- Compaction: fold every segment, reclaim the tombstones. ----
    collection.seal().expect("seal");
    let before = collection.n_segments();
    collection.compact().expect("compact");
    println!("compacted {before} segments -> {}", collection.n_segments());

    // ---- Search: exact distances, ascending, tombstones gone. ----
    let mut rng = StdRng::seed_from_u64(2);
    let res = collection.reader().search(ds.query(0), 10, 64, &mut rng);
    assert!(res.neighbors.iter().all(|&(id, _)| id >= 500));
    assert!(res.neighbors.windows(2).all(|w| w[0].1 <= w[1].1));
    println!(
        "top-10 for query 0: ids {:?} ({} estimated, {} re-ranked)",
        res.neighbors.iter().map(|&(id, _)| id).collect::<Vec<_>>(),
        res.n_estimated,
        res.n_reranked
    );

    std::fs::remove_dir_all(&dir).ok();
    println!("lifecycle complete — collection cleaned up.");
}

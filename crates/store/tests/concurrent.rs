//! Concurrent reads against a live writer: the snapshot read path must
//! keep answering — with exact distances and every pre-inserted id
//! findable — while the writer inserts, seals, and compacts, and the
//! parallel execution paths must be bit-identical to serial execution.

use rabitq_math::vecs;
use rabitq_store::{Collection, CollectionConfig, ParallelOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rabitq-conc-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn gaussian(n: usize, dim: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    rabitq_math::rng::standard_normal_vec(&mut rng, n * dim)
}

fn config(dim: usize, memtable: usize, auto_compact: bool) -> CollectionConfig {
    let mut config = CollectionConfig::new(dim);
    config.memtable_capacity = memtable;
    config.auto_compact = auto_compact;
    config
}

/// Writer thread seals and compacts while N reader threads search. No
/// panics, every returned distance is exact, and every pre-inserted id
/// stays findable throughout.
#[test]
fn readers_search_correctly_while_writer_seals_and_compacts() {
    let dir = tmp_dir("readers-vs-writer");
    let dim = 16;
    let n_base = 800usize;
    let n_extra = 800usize;
    // One flat table of every row that will ever exist, so readers can
    // verify any returned id against ground truth.
    let all_rows = gaussian(n_base + n_extra, dim, 7);

    let mut collection = Collection::open(&dir, config(dim, 200, false)).unwrap();
    for row in all_rows[..n_base * dim].chunks_exact(dim) {
        collection.insert(row).unwrap();
    }
    collection.seal().unwrap();
    assert_eq!(collection.n_segments(), 4);

    let done = AtomicBool::new(false);
    let reader_iters = AtomicUsize::new(0);
    let n_readers = 3;

    std::thread::scope(|scope| {
        for r in 0..n_readers {
            let reader = collection.reader();
            let done = &done;
            let reader_iters = &reader_iters;
            let all_rows = &all_rows;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(100 + r as u64);
                let mut qi = r * 37;
                while !done.load(Ordering::Relaxed) || reader_iters.load(Ordering::Relaxed) < 50 {
                    // Self-query a pre-inserted row: it must come back
                    // first with (exact) distance ~0 — deletes only ever
                    // touch ids ≥ n_base.
                    qi = (qi + 13) % n_base;
                    let query = &all_rows[qi * dim..(qi + 1) * dim];
                    let res = reader.search(query, 5, 64, &mut rng);
                    assert_eq!(res.neighbors[0].0 as usize, qi, "self-lookup must win");
                    assert!(res.neighbors[0].1 < 1e-6);
                    // Exact-distance contract for every returned id.
                    for &(id, dist) in &res.neighbors {
                        let row = &all_rows[id as usize * dim..(id as usize + 1) * dim];
                        let exact = vecs::l2_sq(row, query);
                        assert!(
                            (dist - exact).abs() < 1e-4,
                            "id {id}: reported {dist}, exact {exact}"
                        );
                    }
                    // Ascending order.
                    assert!(res.neighbors.windows(2).all(|w| w[0].1 <= w[1].1));
                    reader_iters.fetch_add(1, Ordering::Relaxed);
                }
            });
        }

        // The writer: ingest (sealing every 200 rows), two full
        // compactions, and a burst of deletes of *new* ids.
        let collection = &mut collection;
        let extra = &all_rows[n_base * dim..];
        let done = &done;
        scope.spawn(move || {
            for (i, row) in extra.chunks_exact(dim).enumerate() {
                collection.insert(row).unwrap();
                if i == n_extra / 3 || i == 2 * n_extra / 3 {
                    collection.compact().unwrap();
                }
            }
            for id in (n_base as u32)..(n_base as u32 + 100) {
                collection.delete(id).unwrap();
            }
            collection.seal().unwrap();
            collection.compact().unwrap();
            done.store(true, Ordering::Relaxed);
        });
    });

    assert!(reader_iters.load(Ordering::Relaxed) >= 50);
    // After the dust settles: everything still present and correct.
    assert_eq!(collection.len(), n_base + n_extra - 100);
    let mut rng = StdRng::seed_from_u64(9);
    for qi in (0..n_base).step_by(97) {
        let query = &all_rows[qi * dim..(qi + 1) * dim];
        let res = collection.search(query, 1, 64, &mut rng);
        assert_eq!(res.neighbors[0].0 as usize, qi);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A snapshot taken before writer activity is a frozen point-in-time
/// view: later inserts, seals, and compactions never leak into it.
#[test]
fn snapshots_are_point_in_time_views() {
    let dir = tmp_dir("frozen");
    let dim = 8;
    let rows = gaussian(300, dim, 3);
    let mut collection = Collection::open(&dir, config(dim, 100, false)).unwrap();
    for row in rows[..200 * dim].chunks_exact(dim) {
        collection.insert(row).unwrap();
    }

    let frozen = collection.snapshot();
    let before_len = frozen.len();
    let before_segments = frozen.n_segments();
    assert_eq!(before_len, 200);

    for row in rows[200 * dim..].chunks_exact(dim) {
        collection.insert(row).unwrap();
    }
    collection.seal().unwrap();
    collection.compact().unwrap();

    // The frozen view is unchanged; a fresh snapshot sees everything.
    assert_eq!(frozen.len(), before_len);
    assert_eq!(frozen.n_segments(), before_segments);
    let mut rng = StdRng::seed_from_u64(4);
    let probe = &rows[250 * dim..251 * dim]; // inserted after the freeze
    let old = frozen.search(probe, 1, 64, &mut rng);
    assert_ne!(old.neighbors[0].0, 250, "row 250 must be invisible");
    let new = collection.snapshot().search(probe, 1, 64, &mut rng);
    assert_eq!(new.neighbors[0].0, 250);
    assert_eq!(collection.snapshot().len(), 300);
    std::fs::remove_dir_all(&dir).ok();
}

/// `search_many` must return bit-identical results for every thread
/// count, for a full batch and for a batch of one.
#[test]
fn parallel_execution_is_bit_identical_to_serial() {
    let dir = tmp_dir("deterministic");
    let dim = 24;
    let rows = gaussian(1200, dim, 11);
    let queries = gaussian(40, dim, 12);
    let mut collection = Collection::open(&dir, config(dim, 300, false)).unwrap();
    for row in rows.chunks_exact(dim) {
        collection.insert(row).unwrap();
    }
    collection.seal().unwrap();
    assert_eq!(collection.n_segments(), 4);
    // Leave a few rows in the memtable so the merge covers both sources.
    for row in gaussian(10, dim, 13).chunks_exact(dim) {
        collection.insert(row).unwrap();
    }

    let serial = collection.search_many(&queries, 10, 16, ParallelOptions::threaded(1));
    for threads in [2usize, 4, 8] {
        let parallel = collection.search_many(&queries, 10, 16, ParallelOptions::threaded(threads));
        assert_eq!(serial.len(), parallel.len());
        for (qi, (a, b)) in serial.iter().zip(parallel.iter()).enumerate() {
            assert_eq!(a.neighbors, b.neighbors, "{threads} threads, query {qi}");
            assert_eq!(a.n_estimated, b.n_estimated);
            assert_eq!(a.n_reranked, b.n_reranked);
        }
    }

    let snapshot = collection.snapshot();
    for qi in 0..5 {
        let query = &queries[qi * dim..(qi + 1) * dim];
        let one = snapshot.search_many(query, 10, 16, ParallelOptions::threaded(1));
        let many = snapshot.search_many(query, 10, 16, ParallelOptions::threaded(4));
        assert_eq!(one[0].neighbors, many[0].neighbors, "query {qi}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

//! End-to-end collection engine tests through the facade: the full
//! open → write → crash → replay → compact → search lifecycle, and the
//! contract equivalence between [`Collection::search`] and
//! [`IvfRabitq::search`].

use rabitq::data::{exact_knn, generate, DatasetSpec, Profile};
use rabitq::ivf::{IvfConfig, IvfRabitq};
use rabitq::metrics::recall_at_k;
use rabitq::store::{Collection, CollectionConfig, ParallelOptions, WAL_FILE};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rabitq-coll-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn dataset(n: usize, dim: usize, seed: u64) -> rabitq::data::Dataset {
    generate(&DatasetSpec {
        name: "collection-test".into(),
        dim,
        n,
        n_queries: 10,
        profile: Profile::Clustered {
            clusters: 10,
            cluster_std: 0.8,
            center_scale: 3.0,
        },
        seed,
    })
}

/// Acceptance: vectors written to the WAL but never sealed survive a
/// simulated crash — including a truncated final record — and post-replay
/// search returns them.
#[test]
fn crash_recovery_returns_unsealed_vectors() {
    let dir = tmp_dir("crash");
    let ds = dataset(700, 24, 21);
    let mut config = CollectionConfig::new(ds.dim);
    config.memtable_capacity = 256; // 700 rows ⇒ 2 seals + 188 unsealed
    {
        let mut c = Collection::open(&dir, config.clone()).unwrap();
        for i in 0..ds.data.len() / ds.dim {
            c.insert(ds.vector(i)).unwrap();
        }
        assert_eq!(c.n_segments(), 2);
        assert_eq!(c.memtable_len(), 188);
        // Crash: no shutdown, memtable only in the WAL.
    }
    // The final record is torn mid-write.
    let wal = dir.join(WAL_FILE);
    let bytes = std::fs::read(&wal).unwrap();
    std::fs::write(&wal, &bytes[..bytes.len() - 7]).unwrap();

    let c = Collection::open(&dir, config).unwrap();
    assert_eq!(c.len(), 699, "all but the torn record replayed");
    let mut rng = StdRng::seed_from_u64(1);
    // Unsealed rows (sealed at id 512) are searchable again.
    for id in [512u32, 600, 698] {
        let res = c.search(ds.vector(id as usize), 1, 32, &mut rng);
        assert_eq!(res.neighbors[0].0, id);
        assert!(res.neighbors[0].1 < 1e-6);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Acceptance: multi-segment search is contract-identical to
/// `IvfRabitq::search` — same `SearchResult` shape, exact squared
/// distances, ascending order — and, probing everything, it agrees with
/// the brute-force answer exactly as a single index does.
#[test]
fn multi_segment_search_matches_single_index_contract() {
    let dir = tmp_dir("contract");
    let ds = dataset(1200, 32, 22);
    let n = ds.data.len() / ds.dim;
    let mut config = CollectionConfig::new(ds.dim);
    config.memtable_capacity = 300;
    config.auto_compact = false;
    let mut c = Collection::open(&dir, config).unwrap();
    for i in 0..n {
        c.insert(ds.vector(i)).unwrap();
    }
    assert_eq!(c.n_segments(), 4);

    let single = IvfRabitq::build(
        &ds.data,
        ds.dim,
        &IvfConfig::new(IvfConfig::clusters_for(n)),
        rabitq::core::RabitqConfig::default(),
    );
    let gt = exact_knn(&ds.data, ds.dim, &ds.queries, 10, 1);

    let mut rng_a = StdRng::seed_from_u64(3);
    let mut rng_b = StdRng::seed_from_u64(3);
    let (mut recall_multi, mut recall_single) = (0.0f64, 0.0f64);
    for (qi, truth) in gt.iter().enumerate().take(ds.n_queries()) {
        let a = c.search(ds.query(qi), 10, 1024, &mut rng_a);
        let b = single.search(ds.query(qi), 10, 1024, &mut rng_b);
        // Same shape and invariants...
        assert_eq!(a.neighbors.len(), b.neighbors.len());
        assert!(a.neighbors.windows(2).all(|w| w[0].1 <= w[1].1));
        assert!(a.n_estimated > 0 && a.n_reranked > 0);
        // ...exact distances...
        for &(id, d) in &a.neighbors {
            let exact = rabitq::math::vecs::l2_sq(ds.vector(id as usize), ds.query(qi));
            assert!((d - exact).abs() < 1e-4, "id {id}: {d} vs {exact}");
        }
        let want: Vec<u32> = truth.iter().map(|&(id, _)| id).collect();
        let got_a: Vec<u32> = a.neighbors.iter().map(|&(id, _)| id).collect();
        let got_b: Vec<u32> = b.neighbors.iter().map(|&(id, _)| id).collect();
        recall_multi += recall_at_k(&want, &got_a);
        recall_single += recall_at_k(&want, &got_b);
    }
    // At full probe both searches recover essentially the whole exact
    // ground truth; per-query results can differ by the (≪1%) randomized
    // bound failures, so compare averages, not individual answers.
    let nq = ds.n_queries() as f64;
    let (recall_multi, recall_single) = (recall_multi / nq, recall_single / nq);
    assert!(recall_multi > 0.99, "multi-segment recall {recall_multi}");
    assert!(
        (recall_multi - recall_single).abs() < 0.02,
        "multi {recall_multi} vs single {recall_single}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The README's concurrent-read example, end to end through the facade:
/// a detached reader searches from another thread while the writer keeps
/// mutating, and `search_many` is deterministic across thread counts.
#[test]
fn reader_handles_and_search_many_work_through_the_facade() {
    let dir = tmp_dir("facade-concurrent");
    let ds = dataset(400, 16, 44);
    let mut config = CollectionConfig::new(ds.dim);
    config.memtable_capacity = 100;
    let mut c = Collection::open(&dir, config).unwrap();
    for i in 0..400 {
        c.insert(ds.vector(i)).unwrap();
    }

    let reader = c.reader();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut rng = StdRng::seed_from_u64(2);
            let hit = reader.search(ds.vector(0), 3, 64, &mut rng);
            assert_eq!(hit.neighbors[0].0, 0);
            assert!(hit.neighbors[0].1 < 1e-6);
        });
        c.insert(ds.vector(0)).unwrap(); // writer stays live
    });

    let queries = ds.queries.clone();
    let serial = c.search_many(&queries, 5, 64, ParallelOptions::threaded(1));
    let threaded = c.search_many(&queries, 5, 64, ParallelOptions::threaded(4));
    assert_eq!(serial.len(), ds.n_queries());
    for (a, b) in serial.iter().zip(threaded.iter()) {
        assert_eq!(a.neighbors, b.neighbors);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Acceptance: after deleting >50% of a segment's vectors and compacting,
/// tombstoned ids never appear, and recall@10 over the survivors matches a
/// fresh-built index within noise.
#[test]
fn compaction_preserves_survivor_recall() {
    let dir = tmp_dir("compact-recall");
    let ds = dataset(2000, 32, 23);
    let n = ds.data.len() / ds.dim;
    let mut config = CollectionConfig::new(ds.dim);
    config.memtable_capacity = 500;
    config.auto_compact = false;
    let mut c = Collection::open(&dir, config).unwrap();
    for i in 0..n {
        c.insert(ds.vector(i)).unwrap();
    }
    assert_eq!(c.n_segments(), 4);

    // Delete 60% of the first segment (ids 0..500 sealed together).
    let dead: Vec<u32> = (0..300u32).collect();
    for &id in &dead {
        assert!(c.delete(id).unwrap());
    }
    assert!(c.compact().unwrap());
    assert_eq!(c.n_segments(), 1);
    assert_eq!(c.len(), n - dead.len());

    // Fresh index over the survivors only, with survivor ground truth.
    let survivors: Vec<f32> = (300..n)
        .flat_map(|i| ds.vector(i).iter().copied())
        .collect();
    let fresh = IvfRabitq::build(
        &survivors,
        ds.dim,
        &IvfConfig::new(IvfConfig::clusters_for(n - dead.len())),
        rabitq::core::RabitqConfig::default(),
    );
    let gt = exact_knn(&survivors, ds.dim, &ds.queries, 10, 1);

    let mut rng_a = StdRng::seed_from_u64(5);
    let mut rng_b = StdRng::seed_from_u64(5);
    let (mut recall_c, mut recall_f) = (0.0f64, 0.0f64);
    for (qi, truth) in gt.iter().enumerate().take(ds.n_queries()) {
        // Ground truth over `survivors` is 0-based; collection ids are
        // offset by the 300 deleted rows.
        let want: Vec<u32> = truth.iter().map(|&(id, _)| id + 300).collect();
        let a = c.search(ds.query(qi), 10, 64, &mut rng_a);
        let got: Vec<u32> = a.neighbors.iter().map(|&(id, _)| id).collect();
        assert!(
            got.iter().all(|&id| id >= 300),
            "tombstoned id resurfaced: {got:?}"
        );
        recall_c += recall_at_k(&want, &got);

        let want_f: Vec<u32> = truth.iter().map(|&(id, _)| id).collect();
        let b = fresh.search(ds.query(qi), 10, 64, &mut rng_b);
        let got_f: Vec<u32> = b.neighbors.iter().map(|&(id, _)| id).collect();
        recall_f += recall_at_k(&want_f, &got_f);
    }
    let nq = ds.n_queries() as f64;
    let (recall_c, recall_f) = (recall_c / nq, recall_f / nq);
    assert!(recall_c > 0.95, "compacted recall {recall_c}");
    assert!(
        (recall_c - recall_f).abs() < 0.05,
        "compacted {recall_c} vs fresh {recall_f}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The whole lifecycle in one breath, exercising reopen between phases.
#[test]
fn full_lifecycle_open_write_crash_replay_compact_search() {
    let dir = tmp_dir("lifecycle");
    let ds = dataset(900, 16, 24);
    let n = ds.data.len() / ds.dim;
    let mut config = CollectionConfig::new(ds.dim);
    config.memtable_capacity = 200;

    // Phase 1: write, then "crash".
    {
        let mut c = Collection::open(&dir, config.clone()).unwrap();
        for i in 0..n {
            c.insert(ds.vector(i)).unwrap();
        }
    }
    // Phase 2: replay, delete, compact.
    {
        let mut c = Collection::open(&dir, config.clone()).unwrap();
        assert_eq!(c.len(), n);
        for id in 0..150u32 {
            assert!(c.delete(id).unwrap());
        }
        c.seal().unwrap();
        assert!(c.compact().unwrap());
    }
    // Phase 3: reopen and search.
    let c = Collection::open(&dir, config).unwrap();
    assert_eq!(c.len(), n - 150);
    assert_eq!(c.n_segments(), 1);
    let mut rng = StdRng::seed_from_u64(6);
    let res = c.search(ds.vector(400), 5, 64, &mut rng);
    assert_eq!(res.neighbors[0].0, 400);
    assert!(res.neighbors.iter().all(|&(id, _)| id >= 150));
    std::fs::remove_dir_all(&dir).ok();
}

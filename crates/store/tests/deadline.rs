//! Cooperative cancellation at the snapshot layer through the one
//! single-query deadline path, `Snapshot::search_cancellable`: an
//! uncancelled search equals the batch engine's answer bit for bit, an
//! expired deadline yields no answer, and a far deadline completes.

use rabitq_store::{CancelToken, Collection, CollectionConfig, ParallelOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const DIM: usize = 8;

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rabitq-deadline-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A collection with several sealed segments plus memtable rows, so the
/// cancellable search crosses every checkpoint kind.
fn populated(dir: &Path) -> Collection {
    let mut config = CollectionConfig::new(DIM);
    config.memtable_capacity = 16;
    config.auto_compact = false;
    let mut collection = Collection::open(dir, config).unwrap();
    let mut rng = StdRng::seed_from_u64(0xD1A1);
    for _ in 0..100 {
        let v = rabitq_math::rng::standard_normal_vec(&mut rng, DIM);
        collection.insert(&v).unwrap();
    }
    collection
}

fn queries(n: usize) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(0xD1A2);
    rabitq_math::rng::standard_normal_vec(&mut rng, n * DIM)
}

#[test]
fn uncancelled_search_matches_search_many_bit_for_bit() {
    let dir = test_dir("match");
    let collection = populated(&dir);
    let snapshot = collection.snapshot();
    for q in queries(6).chunks_exact(DIM) {
        let want = &snapshot.search_many(q, 5, 64, ParallelOptions::serial())[0];
        let got = snapshot
            .search_cancellable(q, 5, 64, &CancelToken::none())
            .expect("nothing cancelled");
        assert_eq!(got.neighbors, want.neighbors);
        assert_eq!(got.n_estimated, want.n_estimated);
        assert_eq!(got.n_reranked, want.n_reranked);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn expired_deadline_gives_no_answer() {
    let dir = test_dir("expired");
    let collection = populated(&dir);
    let q = queries(1);
    let expired = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
    assert!(collection
        .snapshot()
        .search_cancellable(&q, 5, 64, &expired)
        .is_none());
    // A cancelled token through a detached reader ends the same way.
    let gone = CancelToken::new();
    gone.cancel();
    assert!(collection
        .reader()
        .snapshot()
        .search_cancellable(&q, 5, 64, &gone)
        .is_none());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn far_deadline_completes() {
    let dir = test_dir("far");
    let collection = populated(&dir);
    let snapshot = collection.snapshot();
    let q = queries(1);
    let healthy = &snapshot.search_many(&q, 5, 64, ParallelOptions::serial())[0];
    let live = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
    let res = snapshot
        .search_cancellable(&q, 5, 64, &live)
        .expect("a far deadline must not cancel");
    assert_eq!(res.neighbors, healthy.neighbors);
    assert_eq!(res.n_estimated, healthy.n_estimated);
    std::fs::remove_dir_all(&dir).ok();
}

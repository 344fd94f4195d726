//! Cooperative cancellation at the snapshot layer: per-query tokens in
//! `search_many_cancellable`, all-or-nothing cancellation of a
//! one-query batch, and the bit-identity guarantee —
//! cancelling one query of a batch changes **nothing** about its
//! batchmates' answers, at any thread count.

use rabitq_store::{CancelToken, Collection, CollectionConfig, ParallelOptions, SearchOutcome};
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
/// cancellable fan-out crosses every checkpoint kind.
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
fn uncancelled_batch_matches_plain_search_many_bit_for_bit() {
    let dir = test_dir("match");
    let collection = populated(&dir);
    let snapshot = collection.snapshot();
    let q = queries(6);
    for threads in [1, 4] {
        let opts = ParallelOptions::threaded(threads);
        let plain = snapshot.search_many(&q, 5, 64, opts);
        let tokens = vec![CancelToken::none(); 6];
        let outcomes = snapshot.search_many_cancellable(&q, 5, 64, opts, &tokens);
        assert_eq!(outcomes.len(), plain.len());
        for (out, want) in outcomes.into_iter().zip(&plain) {
            let got = out.into_result().expect("nothing cancelled");
            assert_eq!(got.neighbors, want.neighbors, "threads={threads}");
            assert_eq!(got.n_estimated, want.n_estimated);
            assert_eq!(got.n_reranked, want.n_reranked);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cancelling_one_query_leaves_batchmates_bit_identical() {
    let dir = test_dir("batchmates");
    let collection = populated(&dir);
    let snapshot = collection.snapshot();
    let q = queries(6);
    let opts = ParallelOptions::threaded(4);
    let healthy = snapshot.search_many(&q, 5, 64, opts);

    // Query 2's client gave up before dispatch; 4's deadline already
    // passed. Both must come back Cancelled, everyone else untouched.
    let tokens: Vec<CancelToken> = (0..6)
        .map(|qi| match qi {
            2 => {
                let t = CancelToken::new();
                t.cancel();
                t
            }
            4 => CancelToken::with_deadline(Instant::now() - Duration::from_millis(1)),
            _ => CancelToken::none(),
        })
        .collect();
    let outcomes = snapshot.search_many_cancellable(&q, 5, 64, opts, &tokens);
    for (qi, out) in outcomes.into_iter().enumerate() {
        match qi {
            2 | 4 => assert!(out.is_cancelled(), "query {qi} must cancel"),
            _ => {
                let got = out.into_result().unwrap();
                assert_eq!(
                    got.neighbors, healthy[qi].neighbors,
                    "batchmate {qi} must be bit-identical to the all-healthy run"
                );
                assert_eq!(got.n_estimated, healthy[qi].n_estimated);
                assert_eq!(got.n_reranked, healthy[qi].n_reranked);
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn expired_deadline_cancels_a_one_query_batch() {
    let dir = test_dir("one-query");
    let collection = populated(&dir);
    let snapshot = collection.snapshot();
    let q = queries(1);
    let opts = ParallelOptions::threaded(4);

    let expired = [CancelToken::with_deadline(
        Instant::now() - Duration::from_millis(1),
    )];
    let out = snapshot.search_many_cancellable(&q, 5, 64, opts, &expired);
    assert!(out[0].is_cancelled());

    // A generous deadline completes and matches the uncancelled path.
    let healthy = &snapshot.search_many(&q, 5, 64, opts)[0];
    let live = [CancelToken::with_deadline(
        Instant::now() + Duration::from_secs(3600),
    )];
    match snapshot
        .search_many_cancellable(&q, 5, 64, opts, &live)
        .remove(0)
    {
        SearchOutcome::Done(res) => {
            assert_eq!(res.neighbors, healthy.neighbors);
            assert_eq!(res.n_estimated, healthy.n_estimated);
        }
        SearchOutcome::Cancelled => panic!("a far deadline must not cancel"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reader_handle_exposes_cancellable_batches() {
    let dir = test_dir("reader");
    let collection = populated(&dir);
    let reader = collection.reader();
    let q = queries(2);
    let tokens = vec![CancelToken::none(), {
        let t = CancelToken::new();
        t.cancel();
        t
    }];
    let outcomes =
        reader
            .snapshot()
            .search_many_cancellable(&q, 3, 64, ParallelOptions::serial(), &tokens);
    assert!(!outcomes[0].is_cancelled());
    assert!(outcomes[1].is_cancelled());
    std::fs::remove_dir_all(&dir).ok();
}

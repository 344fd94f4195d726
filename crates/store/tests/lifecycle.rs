//! Collection lifecycle: open → write → crash → replay → compact → search.

use rabitq_core::RotatorKind;
use rabitq_store::{
    Collection, CollectionConfig, Manifest, Segment, Wal, MANIFEST_FILE, QUARANTINE_SUFFIX,
    WAL_FILE,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rabitq-store-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn gaussian(n: usize, dim: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    rabitq_math::rng::standard_normal_vec(&mut rng, n * dim)
}

fn small_config(dim: usize, memtable: usize) -> CollectionConfig {
    let mut config = CollectionConfig::new(dim);
    config.memtable_capacity = memtable;
    config
}

#[test]
fn unsealed_writes_survive_a_crash_with_a_torn_tail() {
    let dir = tmp_dir("crash");
    let dim = 16;
    let data = gaussian(50, dim, 1);
    {
        let mut c = Collection::open(&dir, small_config(dim, 1000)).unwrap();
        for row in data.chunks_exact(dim) {
            c.insert(row).unwrap();
        }
        assert_eq!(c.n_segments(), 0, "nothing sealed yet");
        // Simulated crash: the Collection is dropped with no shutdown
        // hook; all state beyond the WAL is purely in memory.
    }
    // Torn final record: the crash hit mid-append.
    let wal_path = dir.join(WAL_FILE);
    let bytes = std::fs::read(&wal_path).unwrap();
    std::fs::write(&wal_path, &bytes[..bytes.len() - 5]).unwrap();

    let c = Collection::open(&dir, small_config(dim, 1000)).unwrap();
    // The torn insert (id 49) is gone; everything else replayed.
    assert_eq!(c.len(), 49);
    let mut rng = StdRng::seed_from_u64(2);
    for (i, row) in data.chunks_exact(dim).take(49).enumerate() {
        let res = c.reader().search(row, 1, 8, &mut rng);
        assert_eq!(res.neighbors[0].0, i as u32, "replayed row {i} searchable");
        assert!(res.neighbors[0].1 < 1e-6);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn non_finite_rows_are_refused_before_the_wal() {
    let dir = tmp_dir("non-finite");
    let dim = 8;
    let mut c = Collection::open(&dir, small_config(dim, 1000)).unwrap();
    for row in gaussian(500, dim, 3).chunks_exact(dim) {
        c.insert(row).unwrap();
    }
    let wal_path = dir.join(WAL_FILE);
    let logged = std::fs::read(&wal_path).unwrap();
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let mut row = vec![0.5f32; dim];
        row[3] = bad;
        let refused =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| c.insert(&row).map(|_| ())));
        assert!(refused.is_err(), "a row holding {bad} was acked");
        assert_eq!(
            std::fs::read(&wal_path).unwrap(),
            logged,
            "{bad} reached the WAL"
        );
        assert_eq!(c.len(), 500);
    }
    // A NaN that reached the WAL used to panic every seal, before and
    // after a reopen (k-means++ seeding on it).
    c.seal().unwrap();
    drop(c);
    let mut c = Collection::open(&dir, small_config(dim, 1000)).unwrap();
    assert_eq!(c.len(), 500);
    for row in gaussian(100, dim, 4).chunks_exact(dim) {
        c.insert(row).unwrap();
    }
    c.seal().unwrap();
    assert_eq!((c.len(), c.n_segments()), (600, 2));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_non_finite_row_in_the_wal_fails_the_open_without_a_panic() {
    let dir = tmp_dir("non-finite-wal");
    let dim = 8;
    let mut c = Collection::open(&dir, small_config(dim, 1000)).unwrap();
    for row in gaussian(50, dim, 5).chunks_exact(dim) {
        c.insert(row).unwrap();
    }
    drop(c);
    // A checksummed frame the insert path would refuse today, as a log
    // written before it checked could hold.
    let (mut wal, _) = Wal::open(&dir.join(WAL_FILE), dim).unwrap();
    let mut row = vec![0.5f32; dim];
    row[2] = f32::NAN;
    wal.append_insert(50, &row).unwrap();
    drop(wal);

    let opened =
        std::panic::catch_unwind(|| Collection::open(&dir, small_config(dim, 1000)).map(|_| ()))
            .expect("the open panicked");
    let err = opened.expect_err("a NaN row was replayed");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("id 50"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn invalid_quantizer_configs_are_refused_before_any_row_is_acked() {
    let dim = 8;
    let bad = [
        (0u8, 1.9f32),
        (9, 1.9),
        (255, 1.9),
        (4, -5.0),
        (4, f32::NAN),
        (4, f32::INFINITY),
    ];
    for (i, (bq, epsilon0)) in bad.into_iter().enumerate() {
        let dir = tmp_dir(&format!("bad-config-{i}"));
        let mut config = small_config(dim, 200);
        config.rabitq.bq = bq;
        config.rabitq.epsilon0 = epsilon0;
        let err = Collection::open(&dir, config)
            .err()
            .unwrap_or_else(|| panic!("B_q {bq}, epsilon0 {epsilon0} opened"));
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
        assert!(!dir.join(MANIFEST_FILE).exists() && !dir.join(WAL_FILE).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    // A manifest recording such a config fails the open as corrupt data.
    // Read as a working config, its two sealed segments would each fail
    // to load and be quarantined, and the open would serve the rest.
    let dir = tmp_dir("bad-manifest");
    {
        let mut c = Collection::open(&dir, small_config(dim, 200)).unwrap();
        for row in gaussian(500, dim, 5).chunks_exact(dim) {
            c.insert(row).unwrap();
        }
        assert_eq!(c.n_segments(), 2);
    }
    let path = dir.join(MANIFEST_FILE);
    let mut manifest = Manifest::load(&path).unwrap();
    manifest.rabitq.bq = 9;
    manifest.store(&path).unwrap();
    let err = Collection::open(&dir, small_config(dim, 200))
        .err()
        .expect("a manifest with B_q 9 opened");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    for entry in std::fs::read_dir(&dir).unwrap() {
        let name = entry.unwrap().file_name();
        let name = name.to_string_lossy();
        assert!(!name.ends_with(QUARANTINE_SUFFIX), "{name} was quarantined");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn deletes_survive_crash_and_seal_boundaries() {
    let dir = tmp_dir("deletes");
    let dim = 8;
    let data = gaussian(120, dim, 3);
    {
        let mut c = Collection::open(&dir, small_config(dim, 50)).unwrap();
        for row in data.chunks_exact(dim) {
            c.insert(row).unwrap();
        }
        assert_eq!(c.n_segments(), 2); // 120 rows, capacity 50 ⇒ 2 seals
        assert_eq!(c.memtable_len(), 20);
        assert!(c.delete(0).unwrap()); // in a sealed segment
        assert!(c.delete(110).unwrap()); // in the memtable
        assert!(!c.delete(0).unwrap()); // already gone
        assert!(!c.delete(9999).unwrap()); // never existed
        assert_eq!(c.len(), 118);
    }
    let c = Collection::open(&dir, small_config(dim, 50)).unwrap();
    assert_eq!(c.len(), 118);
    let mut rng = StdRng::seed_from_u64(4);
    for dead in [0u32, 110] {
        let res = c.reader().search(
            &data[dead as usize * dim..(dead as usize + 1) * dim],
            5,
            16,
            &mut rng,
        );
        assert!(
            res.neighbors.iter().all(|&(id, _)| id != dead),
            "deleted id {dead} resurfaced after reopen"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wal_floor_skips_records_already_sealed_into_segments() {
    let dir = tmp_dir("floor");
    let dim = 8;
    let data = gaussian(60, dim, 5);
    {
        let mut c = Collection::open(&dir, small_config(dim, 30)).unwrap();
        for row in data.chunks_exact(dim) {
            c.insert(row).unwrap();
        }
        assert_eq!(c.n_segments(), 2);
        assert_eq!(c.len(), 60);
    }
    // Simulate the crash window between "manifest switched" and "WAL
    // reset": re-append records for rows that are already in segments.
    {
        let (mut wal, _) = Wal::open(&dir.join(WAL_FILE), dim).unwrap();
        wal.append_insert(3, &data[3 * dim..4 * dim]).unwrap();
        wal.append_delete(3).unwrap();
        wal.append_delete(3).unwrap(); // deletes are idempotent too
    }
    let c = Collection::open(&dir, small_config(dim, 30)).unwrap();
    // Insert 3 was skipped (below the floor), delete 3 applied once.
    assert_eq!(c.len(), 59);
    assert_eq!(c.memtable_len(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sealed_segments_are_id_ascending_after_memtable_deletes() {
    // Compaction sorts its rows "so merged segments look like sealed
    // ones"; this pins the other half: a seal writes ids ascending even
    // when memtable rows were deleted before it.
    let dir = tmp_dir("seal-order");
    let dim = 8;
    let data = gaussian(40, dim, 11);
    let mut c = Collection::open(&dir, small_config(dim, 1000)).unwrap();
    for row in data.chunks_exact(dim) {
        c.insert(row).unwrap();
    }
    assert!(c.delete(3).unwrap());
    assert!(c.delete(17).unwrap());
    c.seal().unwrap();
    assert_eq!(c.n_segments(), 1);

    let segment = Segment::load(&dir.join("seg-000000.rbq")).unwrap();
    let ids: Vec<u32> = segment.live_entries().map(|(id, _)| id).collect();
    let expect: Vec<u32> = (0..40).filter(|id| ![3, 17].contains(id)).collect();
    assert_eq!(ids, expect);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compaction_merges_segments_and_drops_tombstones() {
    let dir = tmp_dir("compact");
    let dim = 16;
    let n = 300;
    let data = gaussian(n, dim, 7);
    let mut config = small_config(dim, 60);
    config.auto_compact = false; // drive compaction by hand
    let mut c = Collection::open(&dir, config).unwrap();
    for row in data.chunks_exact(dim) {
        c.insert(row).unwrap();
    }
    c.seal().unwrap();
    assert_eq!(c.n_segments(), 5);

    // Kill >50% of the first segment (ids 0..60).
    for id in 0..40u32 {
        assert!(c.delete(id).unwrap());
    }
    let live: Vec<u32> = (40..n as u32).collect();
    assert_eq!(c.len(), live.len());

    assert!(c.compact().unwrap());
    assert_eq!(c.n_segments(), 1);
    assert_eq!(c.len(), live.len());
    // Old segment files are gone from disk; manifest + one segment + WAL.
    let files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(files.len(), 3, "{files:?}");
    assert!(files.iter().any(|f| f == MANIFEST_FILE));

    // Tombstoned ids never resurface, and the survivors are still exact.
    let mut rng = StdRng::seed_from_u64(8);
    for qi in 0..20usize {
        let probe = &data[qi * dim..(qi + 1) * dim];
        let res = c.reader().search(probe, 10, 64, &mut rng);
        assert!(res.neighbors.iter().all(|&(id, _)| id >= 40));
        assert!(res.neighbors.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    // Compacted state survives reopen.
    drop(c);
    let c = Collection::open(&dir, small_config(dim, 60)).unwrap();
    assert_eq!(c.len(), live.len());
    assert_eq!(c.n_segments(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn auto_compaction_respects_the_segment_cap() {
    let dir = tmp_dir("auto");
    let dim = 8;
    let mut config = small_config(dim, 20);
    config.policy.max_segments = 3;
    let mut c = Collection::open(&dir, config).unwrap();
    let data = gaussian(200, dim, 9);
    for row in data.chunks_exact(dim) {
        c.insert(row).unwrap();
    }
    // 10 seals happened, but the policy folds the smallest segments
    // whenever the cap is crossed.
    assert!(c.n_segments() <= 3, "{} segments", c.n_segments());
    assert_eq!(c.len(), 200);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn empty_and_k_zero_searches_are_clean() {
    let dir = tmp_dir("empty");
    let mut c = Collection::open(&dir, small_config(4, 10)).unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    let res = c.reader().search(&[0.0; 4], 5, 4, &mut rng);
    assert!(res.neighbors.is_empty());
    let id = c.insert(&[1.0, 0.0, 0.0, 0.0]).unwrap();
    let res = c.reader().search(&[1.0, 0.0, 0.0, 0.0], 0, 4, &mut rng);
    assert!(res.neighbors.is_empty());
    let res = c.reader().search(&[1.0, 0.0, 0.0, 0.0], 3, 4, &mut rng);
    assert_eq!(res.neighbors.len(), 1);
    assert_eq!(res.neighbors[0].0, id);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn quantizer_config_persists_through_open_existing() {
    let dir = tmp_dir("config");
    let dim = 8;
    let mut config = small_config(dim, 25);
    config.rabitq.bq = 6;
    config.rabitq.epsilon0 = 2.5;
    config.rabitq.seed = 0xC0FFEE;
    // Not the default: what a collection created before the default
    // became Hadamard carries in its manifest.
    config.rabitq.rotator = RotatorKind::DenseOrthogonal;
    {
        let mut c = Collection::open(&dir, config).unwrap();
        let data = gaussian(30, dim, 11);
        for row in data.chunks_exact(dim) {
            c.insert(row).unwrap();
        }
        assert_eq!(c.n_segments(), 1);
    }
    // A directory-only open (the CLI's delete/compact path) must pick up
    // the quantizer config ingest chose, not defaults — compaction
    // rebuilds with it.
    let c = Collection::open_existing(&dir).unwrap();
    assert_eq!(c.config().rabitq.bq, 6);
    assert_eq!(c.config().rabitq.epsilon0, 2.5);
    assert_eq!(c.config().rabitq.seed, 0xC0FFEE);
    assert_eq!(c.config().rabitq.rotator, RotatorKind::DenseOrthogonal);
    assert_eq!(c.config().memtable_capacity, 25);

    // An explicit open with a different quantizer config is overridden by
    // the manifest (segments were built with the stored one).
    let other = Collection::open(&dir, small_config(dim, 99)).unwrap();
    assert_eq!(other.config().rabitq.bq, 6);
    assert_eq!(
        other.reader().rabitq().rotator,
        RotatorKind::DenseOrthogonal
    );
    assert_eq!(other.config().memtable_capacity, 99); // runtime knob wins
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fresh_collection_is_openable_before_any_seal() {
    let dir = tmp_dir("fresh-manifest");
    {
        let mut c = Collection::open(&dir, small_config(4, 1000)).unwrap();
        c.insert(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        // No seal happened; only MANIFEST + WAL exist.
    }
    let c = Collection::open_existing(&dir).unwrap();
    assert_eq!(c.len(), 1);
    assert_eq!(c.dim(), 4);
    std::fs::remove_dir_all(&dir).ok();
}

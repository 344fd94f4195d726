//! The crash matrix: for a fixed ingest/delete/seal/compact workload,
//! inject a fault at **every** I/O operation index (cycling through EIO,
//! ENOSPC, torn write, short write, failed fsync — each in crash mode, so
//! all later I/O fails too, simulating the process dying right there),
//! then reopen on healthy storage and assert the recovery invariants:
//!
//! 1. **No acked write lost** — every insert that returned `Ok` (and was
//!    not subsequently deleted) is findable with exact distance 0.
//! 2. **No acked delete resurrected** — every delete that returned
//!    `Ok(true)` stays gone.
//! 3. **No record duplicated** — an acked row appears exactly once, even
//!    when replay races a manifest that already contains it.
//! 4. **Search still answers** — the reopened collection serves queries.
//!
//! With this VFS's fault semantics, an op that returns an error never
//! persists a *complete* WAL frame (torn/short writes lose the checksum,
//! error faults write nothing), so unacked mutations can never resurrect
//! either: the recovered live set must equal acked inserts minus acked
//! deletes exactly.
//!
//! Companion tests cover the paths the matrix cannot reach on its own:
//! checksum-corrupted segments (quarantine + degraded serving), the
//! read-only flip on a write-path fault, a fault injected during WAL
//! torn-tail *repair* itself, and orphaned-file GC.

use rabitq_store::{
    disk_io, Collection, CollectionConfig, FaultIo, FaultKind, FaultScript, StorageIo,
    MANIFEST_FILE, QUARANTINE_SUFFIX, WAL_FILE,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const DIM: usize = 4;

fn test_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("rabitq-crash-matrix-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn small_config() -> CollectionConfig {
    let mut config = CollectionConfig::new(DIM);
    config.memtable_capacity = 3;
    config.auto_compact = false;
    config
}

/// Deterministic, pairwise-distinct vector for logical row `i`.
fn vector_for(i: u32) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE + i as u64);
    rabitq_math::rng::standard_normal_vec(&mut rng, DIM)
}

/// What the workload's client believes happened: only operations that
/// returned `Ok` are recorded, exactly like an application treating an
/// error as "outcome unknown, not promised".
#[derive(Default)]
struct Acked {
    inserts: Vec<(u32, Vec<f32>)>,
    deletes: Vec<u32>,
}

impl Acked {
    fn live(&self) -> Vec<&(u32, Vec<f32>)> {
        let deleted: HashSet<u32> = self.deletes.iter().copied().collect();
        self.inserts
            .iter()
            .filter(|(id, _)| !deleted.contains(id))
            .collect()
    }
}

/// The fixed workload: 8 inserts (three automatic seals at capacity 3),
/// one delete of a sealed row and one of a memtable row, an explicit
/// seal, two more inserts, and a full compaction. Mutations that error —
/// the injected fault, then the read-only rejections that follow it —
/// are simply not acked; the workload soldiers on like a client would.
fn run_workload(dir: &Path, io: Arc<dyn StorageIo>) -> Acked {
    let mut acked = Acked::default();
    let Ok(mut collection) = Collection::open_with_io(dir, small_config(), io) else {
        return acked; // crashed during open: nothing was ever acked
    };
    for i in 0..8 {
        let v = vector_for(i);
        if let Ok(id) = collection.insert(&v) {
            acked.inserts.push((id, v));
        }
    }
    if let Some(&(first, _)) = acked.inserts.first() {
        if let Ok(true) = collection.delete(first) {
            acked.deletes.push(first);
        }
    }
    if let Some(&(last, _)) = acked.inserts.last() {
        if last != *acked.deletes.first().unwrap_or(&u32::MAX) {
            if let Ok(true) = collection.delete(last) {
                acked.deletes.push(last);
            }
        }
    }
    let _ = collection.seal();
    for i in 8..10 {
        let v = vector_for(i);
        if let Ok(id) = collection.insert(&v) {
            acked.inserts.push((id, v));
        }
    }
    let _ = collection.compact();
    acked
}

/// Reopens `dir` on healthy storage and checks the four invariants.
fn verify_recovery(dir: &Path, acked: &Acked, cell: &str) {
    let collection = Collection::open(dir, small_config())
        .unwrap_or_else(|e| panic!("[{cell}] reopen on healthy storage failed: {e}"));
    let live = acked.live();
    assert_eq!(
        collection.len(),
        live.len(),
        "[{cell}] live row count after recovery"
    );
    let mut rng = StdRng::seed_from_u64(7);
    for (id, v) in &live {
        // nprobe is far above any cluster count here, so the search is
        // exhaustive: exact distance 0 hits cannot be missed.
        let res = collection.reader().search(v, 3, 1_000, &mut rng);
        let hits = res
            .neighbors
            .iter()
            .filter(|&&(got, d)| got == *id && d < 1e-9)
            .count();
        assert_eq!(
            hits, 1,
            "[{cell}] acked row {id} must be recovered exactly once, saw {hits}"
        );
    }
    for id in &acked.deletes {
        let res = collection
            .reader()
            .search(&vector_for(*id), live.len().max(1), 1_000, &mut rng);
        assert!(
            res.neighbors.iter().all(|&(got, _)| got != *id),
            "[{cell}] acked delete of {id} resurrected"
        );
    }
}

#[test]
fn crash_matrix_preserves_acked_state_at_every_fault_point() {
    let base = test_dir("matrix");

    // Counting pass: how many I/O operations does the clean workload
    // perform? That bounds the matrix.
    let count_dir = base.join("counting");
    let counting = Arc::new(FaultIo::counting(disk_io()));
    let acked = run_workload(&count_dir, counting.clone());
    let total_ops = counting.ops();
    assert!(
        total_ops > 30,
        "workload should exercise a meaningful op count, got {total_ops}"
    );
    assert_eq!(acked.inserts.len(), 10, "clean run acks everything");
    assert_eq!(acked.deletes.len(), 2);
    verify_recovery(&count_dir, &acked, "counting pass");
    std::fs::remove_dir_all(&count_dir).ok();

    const KINDS: [FaultKind; 5] = [
        FaultKind::Eio,
        FaultKind::Enospc,
        FaultKind::TornWrite,
        FaultKind::ShortWrite,
        FaultKind::FailSync,
    ];
    for fault_at in 0..total_ops {
        let kind = KINDS[fault_at as usize % KINDS.len()];
        let cell = format!("{kind:?} at op {fault_at}/{total_ops}");
        let dir = base.join(format!("cell-{fault_at}"));
        let io = Arc::new(FaultIo::scripted(
            disk_io(),
            FaultScript::once(fault_at, kind, true),
        ));
        let acked = run_workload(&dir, io.clone());
        verify_recovery(&dir, &acked, &cell);
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn corrupted_segment_is_quarantined_and_serving_degrades() {
    let dir = test_dir("quarantine");
    {
        let mut collection = Collection::open(&dir, small_config()).unwrap();
        for i in 0..9 {
            collection.insert(&vector_for(i)).unwrap();
        }
        // cap 3 ⇒ exactly three sealed segments, ids 0-2 / 3-5 / 6-8.
        assert_eq!(collection.n_segments(), 3);
    }

    // Flip one payload byte in the middle segment.
    let victim = dir.join("seg-000001.rbq");
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&victim, &bytes).unwrap();

    let mut collection = Collection::open(&dir, small_config()).unwrap();
    let health = collection.health();
    assert!(health.degraded, "open must report degraded");
    assert!(!health.read_only, "degraded is not read-only");
    assert_eq!(health.quarantined_segments, 1);
    assert!(
        health.notes.iter().any(|n| n.contains("seg-000001.rbq")),
        "notes name the quarantined segment: {:?}",
        health.notes
    );
    // The damaged file was renamed aside, not deleted.
    assert!(dir
        .join(format!("seg-000001.rbq{QUARANTINE_SUFFIX}"))
        .exists());
    assert!(!victim.exists());

    // The remaining six rows keep serving, and writes still work.
    assert_eq!(collection.len(), 6);
    let mut rng = StdRng::seed_from_u64(3);
    let res = collection
        .reader()
        .search(&vector_for(0), 2, 1_000, &mut rng);
    assert_eq!(res.neighbors[0].0, 0);
    assert!(res.neighbors[0].1 < 1e-9);
    let id = collection.insert(&vector_for(100)).unwrap();
    assert_eq!(collection.len(), 7);
    drop(collection);

    // The quarantine was persisted into the manifest: the next open is
    // clean (nothing left to quarantine), the evidence file remains, and
    // the new row survived.
    let collection = Collection::open(&dir, small_config()).unwrap();
    let health = collection.health();
    assert!(health.is_healthy(), "second open is healthy: {health:?}");
    assert_eq!(collection.len(), 7);
    let res = collection
        .reader()
        .search(&vector_for(100), 1, 1_000, &mut rng);
    assert_eq!(res.neighbors[0].0, id);
    assert!(dir
        .join(format!("seg-000001.rbq{QUARANTINE_SUFFIX}"))
        .exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn write_path_fault_flips_read_only_but_searches_continue() {
    // Measure how many ops a fresh open performs, so the scripted run
    // can fault the very next op: the first insert's WAL append.
    let probe_dir = test_dir("ro-probe");
    let probe = Arc::new(FaultIo::counting(disk_io()));
    drop(Collection::open_with_io(&probe_dir, small_config(), probe.clone()).unwrap());
    let open_ops = probe.ops();
    std::fs::remove_dir_all(&probe_dir).ok();

    let dir = test_dir("readonly");
    // A *persistent* (not transient) failure window: long enough that
    // the bounded retry gives up and the collection freezes. A one-shot
    // fault would be absorbed by the retry and never flip read-only.
    let io = Arc::new(FaultIo::scripted(
        disk_io(),
        FaultScript::transient(open_ops, 1_000, FaultKind::Enospc),
    ));
    let mut collection = Collection::open_with_io(&dir, small_config(), io).unwrap();
    let err = collection.insert(&vector_for(0)).unwrap_err();
    assert!(!err.is_read_only(), "first failure surfaces the I/O error");
    assert!(err.to_string().contains("I/O"), "{err}");

    // The collection froze itself: mutations now get the typed error...
    let health = collection.health();
    assert!(health.read_only);
    assert!(
        health
            .read_only_reason
            .as_deref()
            .unwrap_or("")
            .contains("WAL append"),
        "reason names the failing step: {health:?}"
    );
    let err = collection.insert(&vector_for(1)).unwrap_err();
    assert!(err.is_read_only());
    let err = collection.delete(0).unwrap_err();
    assert!(err.is_read_only());
    assert!(collection.seal().unwrap_err().is_read_only());

    // ...searches still answer, the un-acked row invisible...
    let mut rng = StdRng::seed_from_u64(5);
    let res = collection
        .reader()
        .search(&vector_for(0), 1, 1_000, &mut rng);
    assert!(res.neighbors.is_empty());

    // ...and detached readers see the same health, without the writer.
    let reader = collection.reader();
    assert!(reader.health().read_only);
    drop(collection);

    // Reopening on healthy storage resumes writes.
    let mut collection = Collection::open(&dir, small_config()).unwrap();
    assert!(collection.health().is_healthy());
    collection.insert(&vector_for(2)).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn operator_freeze_rejects_mutations_with_typed_error() {
    let dir = test_dir("freeze");
    let mut collection = Collection::open(&dir, small_config()).unwrap();
    collection.insert(&vector_for(0)).unwrap();
    collection.set_read_only("maintenance window");
    let err = collection.insert(&vector_for(1)).unwrap_err();
    assert!(err.is_read_only());
    assert!(err.to_string().contains("maintenance window"));
    let mut rng = StdRng::seed_from_u64(9);
    let res = collection
        .reader()
        .search(&vector_for(0), 1, 1_000, &mut rng);
    assert_eq!(res.neighbors[0].0, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite: the WAL torn-tail *repair itself* must be crash-safe — a
/// fault during the truncate (or anywhere else in the open) leaves a
/// state from which the next open still recovers both committed rows.
#[test]
fn faults_during_torn_tail_repair_stay_recoverable() {
    let template = test_dir("repair-template");
    {
        let mut config = small_config();
        config.memtable_capacity = 100; // keep both rows in the WAL
        let mut collection = Collection::open(&template, config).unwrap();
        collection.insert(&vector_for(0)).unwrap();
        collection.insert(&vector_for(1)).unwrap();
    }
    // Tear the tail: append half a frame's worth of garbage.
    use std::io::Write;
    let mut wal = std::fs::OpenOptions::new()
        .append(true)
        .open(template.join(WAL_FILE))
        .unwrap();
    wal.write_all(&[0xFF; 7]).unwrap();
    drop(wal);

    let clone_template = |dst: &Path| {
        std::fs::remove_dir_all(dst).ok();
        std::fs::create_dir_all(dst).unwrap();
        for f in [WAL_FILE, MANIFEST_FILE] {
            std::fs::copy(template.join(f), dst.join(f)).unwrap();
        }
    };

    // How many ops does the repairing open take?
    let count_dir = test_dir("repair-count");
    clone_template(&count_dir);
    let counting = Arc::new(FaultIo::counting(disk_io()));
    {
        let mut config = small_config();
        config.memtable_capacity = 100;
        let collection = Collection::open_with_io(&count_dir, config, counting.clone()).unwrap();
        assert_eq!(collection.len(), 2, "repairing open recovers both rows");
    }
    let total_ops = counting.ops();
    std::fs::remove_dir_all(&count_dir).ok();

    // Fault every op of that open (crash mode), then reopen clean.
    for fault_at in 0..total_ops {
        let dir = test_dir("repair-cell");
        clone_template(&dir);
        let io = Arc::new(FaultIo::scripted(
            disk_io(),
            FaultScript::once(fault_at, FaultKind::Eio, true),
        ));
        let mut config = small_config();
        config.memtable_capacity = 100;
        // The faulted open may fail outright or succeed (only best-effort
        // steps remained); either is fine — the contract is about what
        // the *next* open finds.
        let _ = Collection::open_with_io(&dir, config.clone(), io);

        let mut collection = Collection::open(&dir, config)
            .unwrap_or_else(|e| panic!("clean reopen after fault at {fault_at} failed: {e}"));
        assert_eq!(
            collection.len(),
            2,
            "committed rows survive a fault at op {fault_at} during repair"
        );
        let mut rng = StdRng::seed_from_u64(11);
        for i in 0..2 {
            let res = collection
                .reader()
                .search(&vector_for(i), 1, 1_000, &mut rng);
            assert_eq!(res.neighbors[0].0, i);
            assert!(res.neighbors[0].1 < 1e-9);
        }
        // And the repaired log accepts appends again.
        collection
            .insert(&vector_for(50 + fault_at as u32))
            .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&template).ok();
}

#[test]
fn open_collects_orphaned_staging_and_superseded_files() {
    let dir = test_dir("orphans");
    {
        let mut collection = Collection::open(&dir, small_config()).unwrap();
        for i in 0..3 {
            collection.insert(&vector_for(i)).unwrap();
        }
        assert_eq!(collection.n_segments(), 1);
    }
    // Crash leftovers: a staged manifest, a staged segment, and a sealed
    // segment the manifest never got to reference.
    std::fs::write(dir.join("MANIFEST.tmp"), b"half a manifest").unwrap();
    std::fs::write(dir.join("seg-000042.rbq.tmp"), b"half a segment").unwrap();
    std::fs::write(dir.join("seg-000099.rbq"), b"orphaned segment").unwrap();
    // Unrelated files must survive GC.
    std::fs::write(dir.join("README"), b"hands off").unwrap();
    std::fs::write(
        dir.join(format!("seg-000000.rbq{QUARANTINE_SUFFIX}")),
        b"forensic evidence",
    )
    .unwrap();

    let collection = Collection::open(&dir, small_config()).unwrap();
    assert!(!dir.join("MANIFEST.tmp").exists());
    assert!(!dir.join("seg-000042.rbq.tmp").exists());
    assert!(!dir.join("seg-000099.rbq").exists());
    assert!(dir.join("README").exists());
    assert!(dir
        .join(format!("seg-000000.rbq{QUARANTINE_SUFFIX}"))
        .exists());
    // The referenced segment is untouched and still serves.
    assert_eq!(collection.len(), 3);
    let notes = collection.health().notes;
    assert!(
        notes.iter().any(|n| n.contains("seg-000099.rbq")),
        "GC is reported in health notes: {notes:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

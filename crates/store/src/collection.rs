//! The collection: WAL + memtable + sealed segments behind one mutable,
//! crash-safe, searchable surface.
//!
//! ## Write path
//! Every mutation is appended to the WAL first, then applied in memory.
//! Inserts land in the memtable; when it crosses the configured threshold
//! it **seals**: the rows are rebuilt into an immutable IVF-RaBitQ
//! segment, the segment file and then the manifest are written (each via
//! temp-file + atomic rename + parent-directory fsync), and the WAL is
//! reset.
//!
//! ## Crash recovery
//! Reopening replays the WAL over the manifest's segment set. The ordering
//! of the seal makes every crash window harmless:
//!
//! * crash before the manifest switch → the WAL still holds the rows; the
//!   orphaned segment file is garbage-collected on the next open;
//! * crash between manifest switch and WAL reset → insert records below
//!   the manifest's `wal_floor` are skipped (already in a segment) and
//!   delete records re-apply idempotently;
//! * torn final WAL record → dropped and truncated by [`crate::Wal`].
//!
//! ## Fault containment
//! Durability faults degrade service instead of killing it:
//!
//! * a segment that fails its checksum at open is **quarantined** —
//!   renamed aside (`.quarantined`), dropped from the manifest, noted in
//!   the health report — and the collection opens **degraded**, serving
//!   the remaining segments and the memtable;
//! * a *transient* write-path I/O error (`EIO`, `ENOSPC`, `EINTR`) is
//!   retried with bounded exponential backoff before anyone notices;
//!   only exhausted retries (or a non-transient fault: torn write,
//!   failed fsync) flip the collection **read-only**: searches keep
//!   working on the last consistent state, mutations return the typed
//!   [`StoreError::ReadOnly`], and in-memory state is never left
//!   half-applied. A fault-induced freeze is not permanent: after a
//!   cooldown the next mutation probes the write path and, if storage
//!   healed, the collection **thaws** itself (journaled `read_only` →
//!   `recovered`, counted in `thaws`). A reopen on healthy storage also
//!   resumes writes, and operator freezes never auto-thaw;
//! * stray `*.tmp` staging files and segment files no longer referenced
//!   by the manifest (crash mid-seal / mid-compaction) are removed on
//!   open.
//!
//! All file access routes through the [`StorageIo`] VFS, which is how the
//! crash-matrix tests prove the windows above: they fault every single
//! I/O operation of a workload and assert no acked write is lost, no
//! record is duplicated, and search still answers.
//!
//! ## Read path
//! Every mutation publishes an immutable [`Snapshot`] — (memtable clone,
//! `Arc`'d segment list) — into a shared slot. A query loads the
//! current snapshot (an `Arc` clone) and fans out to the memtable
//! (exact scan) and every segment (the paper's error-bound re-ranked
//! search); the per-source candidates — all carrying **exact** distances
//! — k-way-merge through the same [`rabitq_ivf::TopK`] used inside the
//! IVF index. The result is contract-identical to
//! [`rabitq_ivf::IvfRabitq::search`]: exact squared distances, ascending.
//!
//! Because readers run entirely on their snapshot, they proceed
//! concurrently with `insert`/`seal`/`compact`: the writer does its
//! expensive work privately and swaps the snapshot pointer at the end
//! (see [`crate::snapshot`] for the full concurrency story). Detached
//! [`CollectionReader`] handles serve threads that outlive the writer's
//! `&mut` borrow.

use crate::compaction::{CompactionPolicy, SegmentStats};
use crate::error::{HealthReport, HealthState, StoreError};
use crate::io::{atomic_write, disk_io, StorageIo};
use crate::manifest::{Manifest, SegmentMeta, MANIFEST_FILE};
use crate::memtable::Memtable;
use crate::observe::StoreMetrics;
use crate::segment::Segment;
use crate::snapshot::{CollectionReader, Snapshot, SnapshotSlot};
use crate::wal::{Wal, WalRecord};
use rabitq_core::RabitqConfig;
use rabitq_ivf::IvfConfig;
use std::collections::HashSet;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// File name of the write-ahead log within a collection directory.
pub const WAL_FILE: &str = "wal.log";

/// Suffix appended to a corrupted segment file when it is quarantined.
pub const QUARANTINE_SUFFIX: &str = ".quarantined";

/// Tuning for a [`Collection`].
#[derive(Clone, Debug)]
pub struct CollectionConfig {
    /// Vector dimensionality.
    pub dim: usize,
    /// Memtable rows that trigger a seal into a segment.
    pub memtable_capacity: usize,
    /// Quantizer configuration for sealed segments.
    pub rabitq: RabitqConfig,
    /// Template for per-segment IVF builds. `n_clusters` is ignored — each
    /// segment re-derives it from its own row count via the `4√n` rule.
    pub ivf: IvfConfig,
    /// When to merge segments.
    pub policy: CompactionPolicy,
    /// Run the policy automatically after every seal.
    pub auto_compact: bool,
    /// Extra attempts after a *transient* write-path I/O error (`EIO`,
    /// `ENOSPC`, `EINTR`) before the collection freezes read-only.
    /// 0 restores the freeze-on-first-error behavior.
    pub io_retry_attempts: u32,
    /// Base delay of the exponential retry backoff (doubled per attempt,
    /// plus deterministic jitter below one base unit).
    pub io_retry_base: Duration,
    /// Minimum time a fault-frozen collection stays frozen before the
    /// recovery probe re-tests the write path (and between probes). A
    /// successful probe thaws the collection automatically.
    pub thaw_cooldown: Duration,
}

impl CollectionConfig {
    /// Defaults sized for experiment-scale collections.
    pub fn new(dim: usize) -> Self {
        Self {
            dim,
            memtable_capacity: 4096,
            rabitq: RabitqConfig::default(),
            ivf: IvfConfig::new(1),
            policy: CompactionPolicy::default(),
            auto_compact: true,
            io_retry_attempts: 3,
            io_retry_base: Duration::from_millis(1),
            thaw_cooldown: Duration::from_secs(1),
        }
    }
}

/// A durable, mutable vector collection served by IVF-RaBitQ segments.
pub struct Collection {
    dir: PathBuf,
    config: CollectionConfig,
    manifest: Manifest,
    wal: Wal,
    /// Unsealed rows. Every published snapshot holds a clone, which the
    /// writer's later inserts and deletes never disturb.
    memtable: Memtable,
    segments: Vec<Arc<Segment>>,
    /// The slot readers load snapshots from; shared with every
    /// [`CollectionReader`].
    slot: Arc<SnapshotSlot>,
    next_id: u32,
    /// The VFS all durable writes route through.
    io: Arc<dyn StorageIo>,
    /// Degraded / read-only flags, shared with detached readers.
    health: Arc<HealthState>,
    /// Operational counters, histograms, and the event journal — shared
    /// with detached readers and the serving layer.
    metrics: Arc<StoreMetrics>,
}

/// The manifest entry describing one segment's current state.
fn segment_meta(segment: &Segment) -> SegmentMeta {
    SegmentMeta {
        file: segment.name().to_string(),
        tombstones: segment.tombstones(),
    }
}

/// Where the rows [`Collection::install_segment`] is handed came from.
enum Source<'a> {
    /// The memtable (a seal): it empties and the WAL floor lifts past it.
    Memtable,
    /// The live rows of the segments at these indices (a compaction):
    /// they are retired.
    Segments(&'a [usize]),
}

/// Flattens `(id, row)` pairs into the `(ids, n × dim data)` shape segment
/// and index builds take.
fn flatten<'a>(rows: impl Iterator<Item = (u32, &'a [f32])>) -> (Vec<u32>, Vec<f32>) {
    let mut ids = Vec::new();
    let mut data = Vec::new();
    for (id, row) in rows {
        ids.push(id);
        data.extend_from_slice(row);
    }
    (ids, data)
}

/// Whether an I/O error is worth retrying: the kinds a disk or kernel
/// reports for *momentary* conditions. `EIO` and `ENOSPC` both clear in
/// practice (a controller hiccup, a log rotation freeing space); `EINTR`
/// is transient by definition. Torn/short writes and failed fsyncs are
/// *not* retried — they may have left partial bytes behind, so blindly
/// re-running the write could compound the damage.
fn is_transient(e: &io::Error) -> bool {
    matches!(e.raw_os_error(), Some(5) | Some(28)) || e.kind() == io::ErrorKind::Interrupted
}

/// Exponential backoff with deterministic jitter: `base · 2^(attempt-1)`
/// plus an FNV-derived fraction of one base unit, so concurrent
/// collections retrying the same step don't synchronize.
fn backoff_delay(base: Duration, attempt: u32, what: &str) -> Duration {
    let exp = base.saturating_mul(1u32 << (attempt - 1).min(10));
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in what.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h = (h ^ u64::from(attempt)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    exp + base.mul_f64((h % 1000) as f64 / 1000.0)
}

/// Runs a durable-write step, retrying transient failures with bounded
/// exponential backoff; when retries exhaust (or the error is not
/// transient) the collection is flipped read-only (first failure keeps
/// its reason, and the freeze is marked recoverable so the thaw probe
/// may later undo it) and the error is returned typed. Free function so
/// field borrows stay disjoint at call sites — `op` may borrow fields
/// (`wal`, `io`, `dir`) the other arguments don't.
fn retry_or_freeze<T>(
    config: &CollectionConfig,
    health: &HealthState,
    metrics: &StoreMetrics,
    what: &str,
    mut op: impl FnMut() -> io::Result<T>,
) -> Result<T, StoreError> {
    let mut attempt = 0u32;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if attempt < config.io_retry_attempts && is_transient(&e) => {
                attempt += 1;
                StoreMetrics::bump(&metrics.io_retries);
                metrics
                    .journal
                    .push("io_retry", format!("{what}: {e} (attempt {attempt})"));
                std::thread::sleep(backoff_delay(config.io_retry_base, attempt, what));
            }
            Err(e) => {
                if health.set_read_only_recoverable(format!("{what}: {e}")) {
                    StoreMetrics::bump(&metrics.read_only_flips);
                    metrics.journal.push("read_only", format!("{what}: {e}"));
                }
                return Err(StoreError::Io(e));
            }
        }
    }
}

impl Collection {
    /// Opens the collection at `dir` on the real filesystem; see
    /// [`Collection::open_with_io`].
    pub fn open(dir: &Path, config: CollectionConfig) -> io::Result<Self> {
        Self::open_with_io(dir, config, disk_io())
    }

    /// Opens the collection at `dir`, creating it (and the directory) if
    /// absent, and replays any WAL left by the last process. Corrupted
    /// segments are quarantined (the collection opens degraded rather
    /// than failing); orphaned staging/superseded files are removed.
    ///
    /// For an existing collection the manifest's quantizer configuration
    /// wins over `config.rabitq` — the sealed segments were built with
    /// it, and compaction must keep building with it. The runtime knobs
    /// (`memtable_capacity`, `policy`, `auto_compact`) always come from
    /// `config`.
    ///
    /// Only deterministic corruption (checksum mismatch, truncation,
    /// garbage) triggers quarantine; a transient I/O error reading a
    /// segment fails the open instead, so a flaky disk can never cause
    /// data to be dropped from the manifest.
    pub fn open_with_io(
        dir: &Path,
        mut config: CollectionConfig,
        io: Arc<dyn StorageIo>,
    ) -> io::Result<Self> {
        assert!(config.dim > 0, "dimension must be positive");
        assert!(
            config.memtable_capacity > 0,
            "memtable capacity must be positive"
        );
        std::fs::create_dir_all(dir)?;
        let health = Arc::new(HealthState::new());
        let metrics = Arc::new(StoreMetrics::new());

        let manifest_path = dir.join(MANIFEST_FILE);
        let mut manifest = if io.file_len(&manifest_path)?.is_some() {
            let mut m = Manifest::load_with_io(&manifest_path, io.as_ref())?;
            if m.dim != config.dim {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "collection is {}-dimensional, config says {}",
                        m.dim, config.dim
                    ),
                ));
            }
            config.rabitq = m.rabitq;
            m.memtable_capacity = config.memtable_capacity;
            m
        } else {
            // Write the fresh manifest immediately so the directory is a
            // valid collection (openable by `open_existing`) before the
            // first seal, and the chosen quantizer config is durable.
            let mut m = Manifest::new(config.dim);
            m.rabitq = config.rabitq;
            m.memtable_capacity = config.memtable_capacity;
            m.store_with_io(&manifest_path, io.as_ref())?;
            m
        };

        // Load the segment set, quarantining deterministic corruption:
        // the damaged file is renamed aside for forensics, the entry is
        // dropped, and the collection serves what remains (degraded).
        let mut segments = Vec::with_capacity(manifest.segments.len());
        let mut kept = Vec::with_capacity(manifest.segments.len());
        // Corrupt files whose quarantine rename failed: they keep their
        // seg-*.rbq name yet leave the manifest, so the orphan GC below
        // must be told to leave them alone — deleting them would turn a
        // transient rename failure into permanent loss of the evidence.
        let mut quarantine_failed: HashSet<String> = HashSet::new();
        for meta in &manifest.segments {
            let path = dir.join(&meta.file);
            let t0 = Instant::now();
            match Segment::load_with_io(&path, io.as_ref()) {
                Ok(segment) => {
                    StoreMetrics::bump(&metrics.segment_opens);
                    metrics.segment_open_us.record(t0.elapsed());
                    for &id in &meta.tombstones {
                        segment.delete(id);
                    }
                    segments.push(Arc::new(segment));
                    kept.push(meta.clone());
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                    ) =>
                {
                    let quarantine = format!("{}{QUARANTINE_SUFFIX}", meta.file);
                    match io.rename(&path, &dir.join(&quarantine)) {
                        Ok(()) => {
                            io.sync_dir(dir).ok();
                            let note = format!(
                                "segment {} corrupt ({e}); quarantined as {quarantine}",
                                meta.file
                            );
                            StoreMetrics::bump(&metrics.quarantines);
                            metrics.journal.push("quarantine", note.clone());
                            health.record_quarantine(note);
                        }
                        Err(re) => {
                            quarantine_failed.insert(meta.file.clone());
                            let note = format!(
                                "segment {} corrupt ({e}); quarantine rename failed: {re}",
                                meta.file
                            );
                            StoreMetrics::bump(&metrics.quarantines);
                            metrics.journal.push("quarantine", note.clone());
                            health.record_quarantine(note);
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    // Already renamed aside by a crash mid-quarantine, or
                    // externally removed: either way the rows are gone.
                    let note =
                        format!("segment {} missing ({e}); dropped from manifest", meta.file);
                    StoreMetrics::bump(&metrics.quarantines);
                    metrics.journal.push("quarantine", note.clone());
                    health.record_quarantine(note);
                }
                Err(e) => return Err(e),
            }
        }
        if kept.len() != manifest.segments.len() {
            manifest.segments = kept;
            // Best-effort: persist the post-quarantine manifest so later
            // opens don't re-walk the same damage. Failure just leaves
            // the drop in memory; the next open re-detects it.
            if let Err(e) = manifest.store_with_io(&manifest_path, io.as_ref()) {
                health.note(format!("could not persist post-quarantine manifest: {e}"));
            }
        }

        // Orphan GC (best-effort): `*.tmp` staging files and segment
        // files the manifest no longer references are crash leftovers
        // from mid-seal / mid-compaction; without this they accumulate
        // forever. Quarantined files are deliberately kept.
        match io.list_dir(dir) {
            Ok(names) => {
                let referenced: HashSet<&str> =
                    manifest.segments.iter().map(|m| m.file.as_str()).collect();
                for name in names {
                    if name == MANIFEST_FILE
                        || name == WAL_FILE
                        || name.ends_with(QUARANTINE_SUFFIX)
                        || referenced.contains(name.as_str())
                        || quarantine_failed.contains(name.as_str())
                    {
                        continue;
                    }
                    let orphan = name.ends_with(".tmp")
                        || (name.starts_with("seg-") && name.ends_with(".rbq"));
                    if orphan {
                        match io.remove_file(&dir.join(&name)) {
                            Ok(()) => health.note(format!("removed orphaned file {name}")),
                            Err(e) => {
                                health.note(format!("could not remove orphaned file {name}: {e}"))
                            }
                        }
                    }
                }
            }
            Err(e) => health.note(format!("orphan scan failed: {e}")),
        }

        let (wal, replay) = Wal::open_with_io(&dir.join(WAL_FILE), config.dim, &io)?;
        let mut memtable = Memtable::new(config.dim);
        let mut next_id = manifest.next_id;
        // Below the floor ⇒ already durable in a segment (the crash hit
        // between manifest switch and WAL reset), or a second frame for
        // a row already replayed: the floor follows the replayed ids up.
        let mut floor = manifest.wal_floor;
        for record in replay.records {
            match record {
                WalRecord::Insert { id, vector } => {
                    if id >= floor {
                        memtable.insert(id, &vector);
                        floor = id + 1;
                    }
                    next_id = next_id.max(id + 1);
                }
                WalRecord::Delete { id } => {
                    // Idempotent: re-applying an already-manifested
                    // tombstone (or one whose row was compacted away) is a
                    // no-op.
                    if !memtable.delete(id) {
                        for segment in &segments {
                            if segment.delete(id) {
                                break;
                            }
                        }
                    }
                }
            }
        }

        metrics.journal.push(
            "open",
            format!(
                "{} segments, {} quarantined, {} memtable rows replayed",
                segments.len(),
                health.quarantined_segments(),
                memtable.len()
            ),
        );

        let slot = Arc::new(SnapshotSlot::new(Snapshot::new(
            config.dim,
            memtable.clone(),
            segments.clone(),
        )));
        Ok(Self {
            dir: dir.to_path_buf(),
            config,
            manifest,
            wal,
            memtable,
            segments,
            slot,
            next_id,
            io,
            health,
            metrics,
        })
    }

    /// Opens an existing collection, taking the dimensionality, quantizer
    /// configuration, and memtable capacity from its manifest (for
    /// tooling that only knows the directory).
    pub fn open_existing(dir: &Path) -> io::Result<Self> {
        let manifest = Manifest::load(&dir.join(MANIFEST_FILE))?;
        let mut config = CollectionConfig::new(manifest.dim);
        config.rabitq = manifest.rabitq;
        config.memtable_capacity = manifest.memtable_capacity.max(1);
        Self::open(dir, config)
    }

    /// Collection directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configuration this collection was opened with.
    pub fn config(&self) -> &CollectionConfig {
        &self.config
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.config.dim
    }

    /// Live vectors across memtable and segments.
    pub fn len(&self) -> usize {
        self.memtable.len() + self.segments.iter().map(|s| s.n_live()).sum::<usize>()
    }

    /// Whether no live vectors exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of sealed segments.
    pub fn n_segments(&self) -> usize {
        self.segments.len()
    }

    /// Rows currently buffered in the memtable.
    pub fn memtable_len(&self) -> usize {
        self.memtable.len()
    }

    /// A point-in-time copy of the collection's health: degraded /
    /// read-only flags, quarantined-segment count, open-time notes.
    pub fn health(&self) -> HealthReport {
        self.health.report()
    }

    /// Freezes mutations administratively (maintenance, storage about to
    /// go away). Mutations return [`StoreError::ReadOnly`] until the
    /// collection is reopened; searches are unaffected.
    pub fn set_read_only(&self, reason: &str) {
        if self.health.set_read_only(reason) {
            StoreMetrics::bump(&self.metrics.read_only_flips);
            self.metrics.journal.push("read_only", reason.to_string());
        }
    }

    /// The collection's operational counters, histograms, and event
    /// journal — the same shared instance every [`CollectionReader`]
    /// carries, so serving layers can read it without the writer.
    pub fn metrics(&self) -> &Arc<StoreMetrics> {
        &self.metrics
    }

    /// Explicitly fsyncs the WAL file, making every acked mutation
    /// durable against power loss (appends alone only flush to the OS).
    /// An fsync failure freezes the collection like any other durability
    /// fault.
    pub fn sync_wal(&mut self) -> Result<(), StoreError> {
        self.check_writable()?;
        let t0 = Instant::now();
        retry_or_freeze(
            &self.config,
            &self.health,
            &self.metrics,
            "WAL fsync",
            || self.wal.sync(),
        )?;
        StoreMetrics::bump(&self.metrics.wal_syncs);
        self.metrics.wal_sync_us.record(t0.elapsed());
        Ok(())
    }

    /// Rejects mutations once the collection froze itself — unless the
    /// freeze was fault-induced, the thaw cooldown has elapsed, and the
    /// recovery probe finds the write path healthy again, in which case
    /// the collection thaws and the mutation proceeds.
    fn check_writable(&self) -> Result<(), StoreError> {
        if !self.health.is_read_only() {
            return Ok(());
        }
        if self.health.thaw_probe_due(self.config.thaw_cooldown) && self.probe_write_path() {
            if self.health.clear_read_only() {
                StoreMetrics::bump(&self.metrics.thaws);
                self.metrics.journal.push(
                    "recovered",
                    "write-path probe succeeded; thawed read-only collection".to_string(),
                );
            }
            return Ok(());
        }
        Err(StoreError::ReadOnly {
            reason: self
                .health
                .report()
                .read_only_reason
                .unwrap_or_else(|| "collection was frozen".into()),
        })
    }

    /// Re-tests the write path: create, fsync, and remove a small probe
    /// file through the same VFS the real writes use. The `.tmp` suffix
    /// means a leftover probe (crash mid-probe) is collected by the
    /// orphan GC on the next open.
    fn probe_write_path(&self) -> bool {
        let probe = self.dir.join("thaw-probe.tmp");
        self.io.create_write(&probe, b"thaw-probe").is_ok() && self.io.remove_file(&probe).is_ok()
    }

    /// Publishes the current in-memory state as a fresh immutable
    /// snapshot: a memtable clone (three pointers) and the segment list.
    /// Called after every mutation so readers always observe a consistent
    /// point-in-time view.
    fn publish(&self) {
        self.slot.store(Snapshot::new(
            self.config.dim,
            self.memtable.clone(),
            self.segments.clone(),
        ));
        StoreMetrics::bump(&self.metrics.publishes);
    }

    /// The current immutable snapshot — a cheap `Arc` clone the caller
    /// can search (also from other threads) while this collection keeps
    /// mutating.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.slot.load()
    }

    /// A detached, clonable read handle that always sees the latest
    /// snapshot. Hand these to reader threads before taking `&mut self`
    /// for writer work; see the concurrent-reader tests.
    pub fn reader(&self) -> CollectionReader {
        CollectionReader {
            slot: self.slot.clone(),
            dim: self.config.dim,
            rabitq: self.config.rabitq,
            health: self.health.clone(),
            metrics: self.metrics.clone(),
        }
    }

    /// Appends one vector, returning its permanent id. The write is WAL'd
    /// before it is visible; a seal is triggered when the memtable fills.
    ///
    /// `Ok(id)` means the row is durable (WAL'd) and visible — even if a
    /// triggered seal/compaction subsequently failed, in which case the
    /// collection flips read-only for later mutations but this row
    /// survives any reopen. An `Err` means the row was *not* acked: it
    /// is either absent after reopen or dropped with the torn WAL tail.
    pub fn insert(&mut self, vector: &[f32]) -> Result<u32, StoreError> {
        assert_eq!(vector.len(), self.config.dim, "vector dimensionality");
        self.check_writable()?;
        let id = self.next_id;
        let t0 = Instant::now();
        retry_or_freeze(
            &self.config,
            &self.health,
            &self.metrics,
            "WAL append (insert)",
            || self.wal.append_insert(id, vector),
        )?;
        StoreMetrics::bump(&self.metrics.wal_appends);
        self.metrics.wal_append_us.record(t0.elapsed());
        self.memtable.insert(id, vector);
        self.next_id = self.next_id.checked_add(1).expect("id space exhausted");
        if self.memtable.len() >= self.config.memtable_capacity {
            // The insert itself is durable; a failed seal freezes future
            // mutations (health carries the cause) but must not retract
            // this ack.
            if self.seal().is_err() {
                self.publish();
            }
        } else {
            self.publish();
        }
        Ok(id)
    }

    /// Tombstones `id` wherever it lives. Returns `false` (and writes
    /// nothing) if the id is unknown or already deleted.
    pub fn delete(&mut self, id: u32) -> Result<bool, StoreError> {
        self.check_writable()?;
        let segment = if self.memtable.contains(id) {
            None
        } else {
            match self.segments.iter().find(|s| s.contains_live(id)) {
                None => return Ok(false),
                found => found,
            }
        };
        let t0 = Instant::now();
        retry_or_freeze(
            &self.config,
            &self.health,
            &self.metrics,
            "WAL append (delete)",
            || self.wal.append_delete(id),
        )?;
        StoreMetrics::bump(&self.metrics.wal_appends);
        self.metrics.wal_append_us.record(t0.elapsed());
        match segment {
            None => self.memtable.delete(id),
            // The tombstone bitmap is atomic, so this is immediately
            // visible to in-flight snapshots too; republish regardless so
            // the slot always reflects the latest committed state.
            Some(segment) => segment.delete(id),
        };
        self.publish();
        Ok(true)
    }

    /// Seals the memtable into a new immutable segment (no-op when empty).
    /// Ordering is the crash-safety contract: segment file → manifest
    /// switch → WAL reset. In-memory state only changes once both durable
    /// writes succeed, so an I/O error leaves the collection exactly as it
    /// was (rows still served from the memtable, still covered by the
    /// WAL) — frozen read-only with the cause in [`Collection::health`].
    pub fn seal(&mut self) -> Result<(), StoreError> {
        self.check_writable()?;
        if self.memtable.is_empty() {
            return Ok(());
        }
        let t0 = Instant::now();
        let (ids, data) = flatten(self.memtable.entries());
        let rows = ids.len();
        let bytes = self.install_segment(Source::Memtable, ids, &data)?;
        StoreMetrics::bump(&self.metrics.seals);
        self.metrics.seal_us.record(t0.elapsed());
        let name = self.segments[self.segments.len() - 1].name();
        self.metrics
            .journal
            .push("seal", format!("{rows} rows -> {name} ({bytes} bytes)"));
        // A failed WAL reset is harmless for consistency (records below
        // the floor are skipped on replay) but freezes the collection:
        // the log can no longer be trusted to accept appends.
        retry_or_freeze(
            &self.config,
            &self.health,
            &self.metrics,
            "WAL reset (seal)",
            || self.wal.reset(),
        )?;

        if self.config.auto_compact {
            self.maybe_compact()?;
        }
        Ok(())
    }

    /// Runs the configured policy; merges whatever it picks. Returns
    /// whether a merge happened.
    fn maybe_compact(&mut self) -> Result<bool, StoreError> {
        let stats: Vec<SegmentStats> = self
            .segments
            .iter()
            .map(|s| SegmentStats {
                n_total: s.len(),
                n_live: s.n_live(),
            })
            .collect();
        let plan = self.config.policy.plan(&stats);
        if plan.is_empty() {
            return Ok(false);
        }
        self.compact_indices(&plan)?;
        Ok(true)
    }

    /// Force-merges **all** segments (and reclaims every tombstone) into
    /// one rebuilt index. Returns whether anything changed.
    pub fn compact(&mut self) -> Result<bool, StoreError> {
        let needs = self.segments.len() > 1 || self.segments.iter().any(|s| s.n_live() < s.len());
        if !needs {
            return Ok(false);
        }
        let all: Vec<usize> = (0..self.segments.len()).collect();
        self.compact_indices(&all)?;
        Ok(true)
    }

    /// Merges the segments at `indices` (sorted, deduplicated) into one
    /// new segment holding only their live rows. Ordering mirrors the
    /// seal: new file → manifest switch → old files unlinked; a crash
    /// anywhere leaves either the old set or the new set referenced, and
    /// the loser's files are orphans the next open removes.
    fn compact_indices(&mut self, indices: &[usize]) -> Result<(), StoreError> {
        self.check_writable()?;
        let t0 = Instant::now();
        let mut rows: Vec<(u32, &[f32])> = indices
            .iter()
            .flat_map(|&i| self.segments[i].live_entries())
            .collect();
        // Keep ids ascending so merged segments look like sealed ones.
        rows.sort_unstable_by_key(|&(id, _)| id);
        let (ids, data) = flatten(rows.into_iter());
        let n_rows = ids.len();
        let bytes_in = std::mem::size_of_val(data.as_slice()) as u64;
        let bytes_out = self.install_segment(Source::Segments(indices), ids, &data)?;
        StoreMetrics::bump(&self.metrics.compactions);
        self.metrics.compaction_us.record(t0.elapsed());
        StoreMetrics::add(&self.metrics.compaction_bytes_in, bytes_in);
        StoreMetrics::add(&self.metrics.compaction_bytes_out, bytes_out);
        self.metrics.journal.push(
            "compaction",
            format!(
                "{} segments -> {n_rows} live rows ({bytes_in} bytes in, {bytes_out} bytes out)",
                indices.len()
            ),
        );
        Ok(())
    }

    /// The one segment-installing write path, shared by seal and
    /// compaction. Builds a segment over the rows — none when every row
    /// was tombstoned, the retired segments just disappear — writes its
    /// file, switches the manifest, and only then commits in memory and
    /// publishes. Returns the new file's size in bytes.
    fn install_segment(
        &mut self,
        source: Source<'_>,
        ids: Vec<u32>,
        data: &[f32],
    ) -> Result<u64, StoreError> {
        let (what, sealing, retire): (_, _, &[usize]) = match source {
            Source::Memtable => ("seal", true, &[]),
            Source::Segments(indices) => ("compaction", false, indices),
        };
        let mut bytes = Vec::new();
        let replacement = if ids.is_empty() {
            None
        } else {
            let name = format!("seg-{:06}.rbq", self.manifest.next_segment_seq);
            let segment = Segment::build(
                name.clone(),
                ids,
                data,
                self.config.dim,
                &self.config.ivf,
                self.config.rabitq,
            );
            segment.write(&mut bytes)?;
            retry_or_freeze(
                &self.config,
                &self.health,
                &self.metrics,
                &format!("segment write ({what})"),
                || atomic_write(self.io.as_ref(), &self.dir.join(&name), &bytes),
            )?;
            Some(Arc::new(segment))
        };

        // Stage the new manifest; in-memory state only changes after the
        // rename lands.
        let mut staged = self.manifest.clone();
        if replacement.is_some() {
            staged.next_segment_seq += 1;
        }
        if sealing {
            staged.next_id = self.next_id;
            staged.wal_floor = self.next_id;
        }
        staged.segments = self
            .segments
            .iter()
            .enumerate()
            .filter(|(i, _)| !retire.contains(i))
            .map(|(_, s)| s)
            .chain(&replacement)
            .map(|s| segment_meta(s))
            .collect();
        retry_or_freeze(
            &self.config,
            &self.health,
            &self.metrics,
            &format!("manifest switch ({what})"),
            || staged.store_with_io(&self.dir.join(MANIFEST_FILE), self.io.as_ref()),
        )?;

        // Durable — commit and publish; retired segments stay alive (in
        // memory) as long as some snapshot still references them, then
        // free via Arc drop. Their files unlink immediately — in-memory
        // readers never reopen them, and a failed unlink just leaves an
        // orphan for the next open's GC.
        self.manifest = staged;
        let mut old_files = Vec::with_capacity(retire.len());
        for &i in retire.iter().rev() {
            old_files.push(self.segments.remove(i).name().to_string());
        }
        self.segments.extend(replacement);
        if sealing {
            self.memtable.clear();
        }
        self.publish();
        for file in old_files {
            self.io.remove_file(&self.dir.join(file)).ok();
        }
        Ok(bytes.len() as u64)
    }
}

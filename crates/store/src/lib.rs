//! # rabitq-store — a WAL-backed, segmented collection engine
//!
//! The paper's IVF-RaBitQ index is built once over a frozen dataset; this
//! crate turns it into a **serving engine**: live ingest, deletes, crash
//! recovery, and compaction, in the mutable-log + immutable-segment shape
//! production vector stores converge on.
//!
//! | Module | Role |
//! |---|---|
//! | [`wal`] | append-only log, checksummed frames, torn-tail recovery |
//! | [`memtable`] | fresh writes in `Arc`'d row chunks: exact-scan search, cheap clones shared by the writer and every snapshot |
//! | [`segment`] | sealed IVF-RaBitQ index + global-id remap |
//! | [`snapshot`] | immutable point-in-time views, parallel fan-out, batch search |
//! | [`pool`] | persistent process-wide worker threads behind the parallel paths |
//! | [`manifest`] | atomic (temp + rename) record of the live segment set |
//! | [`compaction`] | threshold policy: dead-weight and fan-out pressure |
//! | [`observe`] | operational counters, duration histograms, event journal |
//! | [`io`] | the [`StorageIo`] VFS every durable write routes through, plus the [`FaultIo`] fault injector |
//! | [`error`] | typed mutation errors and the degraded / read-only health surface |
//! | [`collection`] | the orchestrator tying all of the above together |
//!
//! Reads are concurrent with writes: every mutation publishes an
//! immutable [`Snapshot`], readers search that frozen state, and
//! [`Snapshot::search_many`] fans a query batch over a scoped worker pool
//! with bit-identical results at every thread count. A [`Collection`] is
//! the writer and has no search methods of its own: queries go through
//! [`Collection::snapshot`] or a detached [`CollectionReader`] from
//! [`Collection::reader`], which always searches the latest snapshot and
//! can live on another thread.
//!
//! This crate is part of the engine cone: it builds on `rabitq-ivf`,
//! `rabitq-core` and the substrates, and never on the PQ/OPQ baselines.
//!
//! The engine preserves the paper's guarantee end-to-end: segments re-rank
//! with the error-bound rule (exact distances out), the memtable is exact
//! by construction, and the fan-out merge just takes a k-way minimum of
//! exact distances — so a [`Collection`] answers with the same contract as
//! a single [`rabitq_ivf::IvfRabitq`].
//!
//! ```
//! use rabitq_store::{Collection, CollectionConfig};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let dir = std::env::temp_dir().join(format!("store-doc-{}", std::process::id()));
//! std::fs::remove_dir_all(&dir).ok();
//! let mut config = CollectionConfig::new(8);
//! config.memtable_capacity = 64; // tiny, to exercise sealing
//! let mut collection = Collection::open(&dir, config).unwrap();
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let data = rabitq_math::rng::standard_normal_vec(&mut rng, 200 * 8);
//! let ids: Vec<u32> = data.chunks_exact(8).map(|v| collection.insert(v).unwrap()).collect();
//! collection.delete(ids[0]).unwrap();
//!
//! let res = collection.reader().search(&data[8..16], 5, 8, &mut rng);
//! assert_eq!(res.neighbors[0].0, ids[1]); // self-lookup, exact distance 0
//! assert!(res.neighbors[0].1 < 1e-6);
//! std::fs::remove_dir_all(&dir).ok();
//! ```

pub mod collection;
pub mod compaction;
pub mod error;
pub mod io;
pub mod manifest;
pub mod memtable;
pub mod observe;
pub mod pool;
pub mod segment;
pub mod snapshot;
pub mod wal;

pub use collection::{Collection, CollectionConfig, QUARANTINE_SUFFIX, WAL_FILE};
pub use compaction::{CompactionPolicy, SegmentStats};
pub use error::{HealthReport, HealthState, StoreError};
pub use io::{atomic_write, disk_io, DiskIo, FaultIo, FaultKind, FaultScript, LogFile, StorageIo};
pub use manifest::{Manifest, SegmentMeta, MANIFEST_FILE};
pub use memtable::Memtable;
pub use observe::StoreMetrics;
pub use pool::WorkerPool;
pub use rabitq_ivf::CancelToken;
pub use segment::Segment;
pub use snapshot::{CollectionReader, ParallelOptions, SearchOutcome, Snapshot};
pub use wal::{Wal, WalRecord, WalReplay};

//! The manifest: the single source of truth for the collection's durable
//! state, swapped atomically.
//!
//! One small file records the live segment set, each segment's tombstones,
//! the id high-water marks, and the WAL floor. It is always written to a
//! temporary file first and renamed over the old manifest — on POSIX the
//! rename is atomic, so a reader (including a post-crash reopen) sees
//! either the old complete state or the new complete state, never a torn
//! mixture. Segment files orphaned by a crash between "write new segment"
//! and "switch manifest" are simply never referenced again.
//!
//! Version 2 ([`MANIFEST_SECTION`]) adds the collection's centre `μ`, the
//! point every query plan quantizes about, recorded once at the first
//! seal. A version 1 manifest ([`MANIFEST_SECTION_V1`]) still opens: it
//! loads with no centre, the collection derives one from its segments,
//! and the next manifest switch writes version 2.

use crate::io::{atomic_write, DiskIo, StorageIo};
use rabitq_core::persist as p;
use rabitq_core::{RabitqConfig, RotatorKind};
use std::io;
use std::path::Path;

/// Section tag in the manifest file header (version 2: with the centre).
pub const MANIFEST_SECTION: &str = "store-manifest-v2";

/// Section tag of version 1, written before the collection had a centre.
/// Still readable; never written.
pub const MANIFEST_SECTION_V1: &str = "store-manifest";

/// File name of the manifest within a collection directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// One segment's entry in the manifest.
#[derive(Clone, Debug, PartialEq)]
pub struct SegmentMeta {
    /// Segment file name within the collection directory.
    pub file: String,
    /// Global ids tombstoned in this segment as of the last manifest write.
    /// Deletes since then live in the WAL and are re-applied on replay.
    pub tombstones: Vec<u32>,
}

/// The collection's durable metadata.
#[derive(Clone, Debug, PartialEq)]
pub struct Manifest {
    /// Vector dimensionality (validated against the caller's config).
    pub dim: usize,
    /// Next global id as of the last manifest write. The true next id
    /// after replay is `max(next_id, max WAL insert id + 1)`.
    pub next_id: u32,
    /// WAL insert records with `id < wal_floor` are already durable in a
    /// segment and are skipped during replay — this is what makes a crash
    /// between "manifest switched" and "WAL reset" harmless.
    pub wal_floor: u32,
    /// Monotonic counter naming the next segment file.
    pub next_segment_seq: u64,
    /// Quantizer configuration every segment was (and will be) built
    /// with. Persisted so reopening tools (CLI `delete`/`compact`/
    /// `collection-search`) rebuild segments with the parameters ingest
    /// chose, not defaults.
    pub rabitq: RabitqConfig,
    /// Memtable seal threshold at the last write (a tuning default for
    /// tools that open the collection without their own config).
    pub memtable_capacity: usize,
    /// The collection's centre `μ` (`dim` finite floats): every segment's
    /// code offsets and every query plan are taken about it. Recorded at
    /// the first seal and never changed; `None` before it (and when a
    /// version 1 manifest was read).
    pub centre: Option<Vec<f32>>,
    /// The live segment set, in creation order.
    pub segments: Vec<SegmentMeta>,
}

impl Manifest {
    /// A fresh manifest for an empty collection.
    pub fn new(dim: usize) -> Self {
        Self {
            dim,
            next_id: 0,
            wal_floor: 0,
            next_segment_seq: 0,
            rabitq: RabitqConfig::default(),
            memtable_capacity: 4096,
            centre: None,
            segments: Vec::new(),
        }
    }

    /// Loads the manifest from `path` on the real filesystem.
    pub fn load(path: &Path) -> io::Result<Self> {
        Self::load_with_io(path, &DiskIo)
    }

    /// Loads the manifest from `path` through a [`StorageIo`].
    pub fn load_with_io(path: &Path, io: &dyn StorageIo) -> io::Result<Self> {
        let bytes = io.read(path)?;
        let mut r = bytes.as_slice();
        let section = p::read_header(&mut r)?;
        if section != MANIFEST_SECTION && section != MANIFEST_SECTION_V1 {
            return Err(p::invalid(format!("expected manifest, got {section:?}")));
        }
        let dim = p::read_usize(&mut r)?;
        let next_id = p::read_u64(&mut r)?;
        let wal_floor = p::read_u64(&mut r)?;
        let next_id = u32::try_from(next_id).map_err(|_| p::invalid("next_id overflow"))?;
        let wal_floor = u32::try_from(wal_floor).map_err(|_| p::invalid("wal_floor overflow"))?;
        let next_segment_seq = p::read_u64(&mut r)?;
        let rabitq = RabitqConfig {
            bq: p::read_u8(&mut r)?,
            epsilon0: p::read_f32(&mut r)?,
            seed: p::read_u64(&mut r)?,
            rotator: match p::read_u8(&mut r)? {
                0 => RotatorKind::DenseOrthogonal,
                1 => RotatorKind::RandomizedHadamard,
                2 => RotatorKind::Identity,
                other => return Err(p::invalid(format!("unknown rotator kind {other}"))),
            },
            padded_dim: match p::read_u64(&mut r)? {
                0 => None,
                d => Some(usize::try_from(d).map_err(|_| p::invalid("padded_dim overflow"))?),
            },
        };
        // A config no quantizer takes fails the open here: the segments
        // built with it would each fail to load and be quarantined.
        rabitq.validate().map_err(p::invalid)?;
        let memtable_capacity = p::read_usize(&mut r)?;
        let centre = if section == MANIFEST_SECTION_V1 {
            None
        } else {
            let centre = p::read_f32_vec(&mut r)?;
            if centre.is_empty() {
                None
            } else if centre.len() != dim {
                return Err(p::invalid(format!(
                    "centre has {} entries, collection is {dim}-dimensional",
                    centre.len()
                )));
            } else if !centre.iter().all(|v| v.is_finite()) {
                return Err(p::invalid("centre has a non-finite entry"));
            } else {
                Some(centre)
            }
        };
        let n_segments = p::read_usize(&mut r)?;
        if n_segments > 1 << 20 {
            return Err(p::invalid("unreasonable segment count"));
        }
        let mut segments = Vec::with_capacity(n_segments);
        for _ in 0..n_segments {
            let file = p::read_str(&mut r)?;
            let tombstones = p::read_u32_vec(&mut r)?;
            segments.push(SegmentMeta { file, tombstones });
        }
        Ok(Self {
            dim,
            next_id,
            wal_floor,
            next_segment_seq,
            rabitq,
            memtable_capacity,
            centre,
            segments,
        })
    }

    /// Writes the manifest atomically to the real filesystem; see
    /// [`Manifest::store_with_io`].
    pub fn store(&self, path: &Path) -> io::Result<()> {
        self.store_with_io(path, &DiskIo)
    }

    /// Writes the manifest atomically: serialize to `<path>.tmp`, fsync,
    /// rename over `path`, fsync the parent directory (so a crash right
    /// after the rename cannot resurrect the old manifest).
    pub fn store_with_io(&self, path: &Path, io: &dyn StorageIo) -> io::Result<()> {
        let mut buf = Vec::new();
        p::write_header(&mut buf, MANIFEST_SECTION)?;
        p::write_usize(&mut buf, self.dim)?;
        p::write_u64(&mut buf, self.next_id as u64)?;
        p::write_u64(&mut buf, self.wal_floor as u64)?;
        p::write_u64(&mut buf, self.next_segment_seq)?;
        p::write_u8(&mut buf, self.rabitq.bq)?;
        p::write_f32(&mut buf, self.rabitq.epsilon0)?;
        p::write_u64(&mut buf, self.rabitq.seed)?;
        p::write_u8(
            &mut buf,
            match self.rabitq.rotator {
                RotatorKind::DenseOrthogonal => 0,
                RotatorKind::RandomizedHadamard => 1,
                RotatorKind::Identity => 2,
            },
        )?;
        p::write_u64(&mut buf, self.rabitq.padded_dim.unwrap_or(0) as u64)?;
        p::write_usize(&mut buf, self.memtable_capacity)?;
        p::write_f32_slice(&mut buf, self.centre.as_deref().unwrap_or(&[]))?;
        p::write_usize(&mut buf, self.segments.len())?;
        for meta in &self.segments {
            p::write_str(&mut buf, &meta.file)?;
            p::write_u32_slice(&mut buf, &meta.tombstones)?;
        }
        atomic_write(io, path, &buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::tmp_sibling;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("rabitq-manifest-{name}-{}", std::process::id()))
    }

    #[test]
    fn round_trips_and_replaces_atomically() {
        let path = tmp("roundtrip");
        std::fs::remove_file(&path).ok();
        let mut m = Manifest::new(32);
        m.next_id = 900;
        m.wal_floor = 800;
        m.next_segment_seq = 3;
        m.segments = vec![
            SegmentMeta {
                file: "seg-000000.rbq".into(),
                tombstones: vec![5, 17],
            },
            SegmentMeta {
                file: "seg-000002.rbq".into(),
                tombstones: vec![],
            },
        ];
        m.store(&path).unwrap();
        assert_eq!(Manifest::load(&path).unwrap(), m);

        // Overwrite with new state: the old file is fully replaced.
        m.next_id = 1000;
        m.segments.pop();
        m.store(&path).unwrap();
        assert_eq!(Manifest::load(&path).unwrap(), m);
        assert!(!tmp_sibling(&path).exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_non_manifest_files() {
        let path = tmp("reject");
        std::fs::write(&path, b"RBQ1 not a manifest").unwrap();
        assert!(Manifest::load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}

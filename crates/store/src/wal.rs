//! The write-ahead log: an append-only file of checksummed insert/delete
//! records.
//!
//! Every mutation hits the WAL before it touches the in-memory state, so a
//! crash at any point loses at most the record being written. Records are
//! framed as `[kind][id][payload][fnv1a-checksum]`; on replay, a torn or
//! corrupted tail (the classic partial-write crash signature) is detected
//! by the checksum, dropped, and the file is truncated back to its last
//! intact record so subsequent appends extend a valid log. If that repair
//! truncation itself fails (disk error mid-recovery), the file is left
//! untouched and the open errors — the next open re-detects the same torn
//! tail and retries, so recovery is idempotent. An intact frame whose row
//! holds a non-finite value is not a torn tail but corruption: replay
//! refuses the log rather than drop the frames after it.
//!
//! All file access goes through a [`StorageIo`] VFS, so the crash-matrix
//! tests can fault any individual operation — including the repair.

use crate::io::{atomic_write, disk_io, LogFile, StorageIo};
use rabitq_core::persist as p;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Section tag in the WAL file header.
pub const WAL_SECTION: &str = "store-wal";

const KIND_INSERT: u8 = 1;
const KIND_DELETE: u8 = 2;

/// One logical WAL entry.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// A vector was appended under `id`.
    Insert { id: u32, vector: Vec<f32> },
    /// The vector under `id` was tombstoned.
    Delete { id: u32 },
}

/// Outcome of replaying a WAL file on open.
pub struct WalReplay {
    /// The intact records, in append order.
    pub records: Vec<WalRecord>,
    /// Whether a torn/corrupt tail was found and truncated away.
    pub recovered_torn_tail: bool,
}

/// An open write-ahead log.
pub struct Wal {
    path: PathBuf,
    file: Box<dyn LogFile>,
    dim: usize,
    header_len: u64,
}

/// 32-bit FNV-1a over a byte slice — cheap, dependency-free corruption
/// detection for record frames (not cryptographic).
pub(crate) fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

impl Wal {
    /// Opens (or creates) the log at `path` on the real filesystem; see
    /// [`Wal::open_with_io`].
    pub fn open(path: &Path, dim: usize) -> io::Result<(Self, WalReplay)> {
        Self::open_with_io(path, dim, &disk_io())
    }

    /// Opens (or creates) the log at `path` for `dim`-dimensional vectors
    /// and replays whatever survived the last process. A torn final record
    /// is tolerated: it is dropped and the file truncated to the last
    /// intact frame. A bad magic or a dimension mismatch is a hard error —
    /// that is the wrong file, not a crash artifact — and so is an intact
    /// insert frame holding a non-finite value.
    pub fn open_with_io(
        path: &Path,
        dim: usize,
        io: &Arc<dyn StorageIo>,
    ) -> io::Result<(Self, WalReplay)> {
        if io.file_len(path)?.unwrap_or(0) == 0 {
            // Fresh log: materialize the header atomically (temp + rename
            // + directory fsync) so a crash during creation can never
            // leave a partial header that later opens would reject as a
            // corrupt file.
            let mut header = Vec::new();
            p::write_header(&mut header, WAL_SECTION)?;
            p::write_usize(&mut header, dim)?;
            atomic_write(io.as_ref(), path, &header)?;
            let file = io.open_log(path)?;
            return Ok((
                Self {
                    path: path.to_path_buf(),
                    file,
                    dim,
                    header_len: header.len() as u64,
                },
                WalReplay {
                    records: Vec::new(),
                    recovered_torn_tail: false,
                },
            ));
        }

        let bytes = io.read(path)?;
        let (records, header_len, good) = scan_bytes(&bytes, dim)?;
        let recovered_torn_tail = good < bytes.len();
        let mut file = io.open_log(path)?;
        if recovered_torn_tail {
            // The repair itself can fail; leave the file as-is in that
            // case so the next open re-runs the same (idempotent) repair.
            file.truncate(good as u64)?;
        }

        Ok((
            Self {
                path: path.to_path_buf(),
                file,
                dim,
                header_len: header_len as u64,
            },
            WalReplay {
                records,
                recovered_torn_tail,
            },
        ))
    }

    /// Reads the log without opening it for writing or repairing it — the
    /// `verify` scrub path. Reports the intact records and whether a torn
    /// tail is present (which a read-write [`Wal::open`] would truncate).
    pub fn scan(path: &Path, dim: usize, io: &dyn StorageIo) -> io::Result<WalReplay> {
        let bytes = io.read(path)?;
        let (records, _header_len, good) = scan_bytes(&bytes, dim)?;
        Ok(WalReplay {
            recovered_torn_tail: good < bytes.len(),
            records,
        })
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends an insert record and flushes it to the OS.
    pub fn append_insert(&mut self, id: u32, vector: &[f32]) -> io::Result<()> {
        assert_eq!(vector.len(), self.dim, "vector dimensionality");
        let mut frame = Vec::with_capacity(1 + 4 + 4 * vector.len() + 4);
        frame.push(KIND_INSERT);
        frame.extend_from_slice(&id.to_le_bytes());
        for &v in vector {
            frame.extend_from_slice(&v.to_le_bytes());
        }
        self.append_frame(frame)
    }

    /// Appends a delete record and flushes it to the OS.
    pub fn append_delete(&mut self, id: u32) -> io::Result<()> {
        let mut frame = Vec::with_capacity(1 + 4 + 4);
        frame.push(KIND_DELETE);
        frame.extend_from_slice(&id.to_le_bytes());
        self.append_frame(frame)
    }

    fn append_frame(&mut self, mut frame: Vec<u8>) -> io::Result<()> {
        let crc = fnv1a(&frame);
        frame.extend_from_slice(&crc.to_le_bytes());
        self.file.append(&frame)
    }

    /// Forces the log to stable storage (`fsync`). Appends only flush to
    /// the OS; call this when a power-loss guarantee is worth the latency.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync()
    }

    /// Discards every record, truncating the log back to its header. Done
    /// after the memtable seals: those records are now durable in a
    /// segment file and the (already-renamed) manifest.
    pub fn reset(&mut self) -> io::Result<()> {
        self.file.truncate(self.header_len)
    }
}

/// Parses a WAL image: returns the intact records, the header length,
/// and the byte offset of the first torn/corrupt frame (== `bytes.len()`
/// when the whole log is intact).
fn scan_bytes(bytes: &[u8], dim: usize) -> io::Result<(Vec<WalRecord>, usize, usize)> {
    let mut cursor = bytes;
    let section = p::read_header(&mut cursor)?;
    if section != WAL_SECTION {
        return Err(p::invalid(format!("expected WAL file, got {section:?}")));
    }
    let file_dim = p::read_usize(&mut cursor)?;
    if file_dim != dim {
        return Err(p::invalid(format!(
            "WAL holds {file_dim}-dimensional vectors, collection expects {dim}"
        )));
    }
    let header_len = bytes.len() - cursor.len();

    let mut records = Vec::new();
    let mut good = header_len;
    while good < bytes.len() {
        match parse_record(&bytes[good..], dim) {
            Some((record, frame_len)) => {
                // A frame that passes its checksum is what was appended,
                // so a non-finite row in it is no torn tail: truncating
                // here would drop every acknowledged frame after it.
                // Replayed, it would panic the next seal's k-means.
                if let WalRecord::Insert { id, vector } = &record {
                    if let Some(d) = vector.iter().position(|v| !v.is_finite()) {
                        return Err(p::invalid(format!(
                            "WAL insert of id {id} holds a non-finite value at dimension {d}"
                        )));
                    }
                }
                records.push(record);
                good += frame_len;
            }
            None => break,
        }
    }
    Ok((records, header_len, good))
}

/// Parses one record frame from `bytes`; `None` means a torn/corrupt tail.
fn parse_record(bytes: &[u8], dim: usize) -> Option<(WalRecord, usize)> {
    let kind = *bytes.first()?;
    let payload_len = match kind {
        KIND_INSERT => 1 + 4 + 4 * dim,
        KIND_DELETE => 1 + 4,
        _ => return None, // unknown kind ⇒ corruption
    };
    if bytes.len() < payload_len + 4 {
        return None;
    }
    let stored = u32::from_le_bytes(bytes[payload_len..payload_len + 4].try_into().unwrap());
    if fnv1a(&bytes[..payload_len]) != stored {
        return None;
    }
    let id = u32::from_le_bytes(bytes[1..5].try_into().unwrap());
    let record = match kind {
        KIND_INSERT => WalRecord::Insert {
            id,
            vector: bytes[5..payload_len]
                .chunks_exact(4)
                .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                .collect(),
        },
        _ => WalRecord::Delete { id },
    };
    Some((record, payload_len + 4))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::DiskIo;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("rabitq-wal-{name}-{}.log", std::process::id()))
    }

    #[test]
    fn records_round_trip_across_reopen() {
        let path = tmp("roundtrip");
        std::fs::remove_file(&path).ok();
        let (mut wal, replay) = Wal::open(&path, 3).unwrap();
        assert!(replay.records.is_empty());
        wal.append_insert(0, &[1.0, 2.0, 3.0]).unwrap();
        wal.append_delete(0).unwrap();
        wal.append_insert(1, &[-1.0, 0.5, 9.0]).unwrap();
        drop(wal);

        let (_, replay) = Wal::open(&path, 3).unwrap();
        assert!(!replay.recovered_torn_tail);
        assert_eq!(
            replay.records,
            vec![
                WalRecord::Insert {
                    id: 0,
                    vector: vec![1.0, 2.0, 3.0]
                },
                WalRecord::Delete { id: 0 },
                WalRecord::Insert {
                    id: 1,
                    vector: vec![-1.0, 0.5, 9.0]
                },
            ]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_continue() {
        let path = tmp("torn");
        std::fs::remove_file(&path).ok();
        let (mut wal, _) = Wal::open(&path, 2).unwrap();
        wal.append_insert(0, &[1.0, 1.0]).unwrap();
        wal.append_insert(1, &[2.0, 2.0]).unwrap();
        drop(wal);

        // Simulate a crash mid-write: chop 3 bytes off the final record.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();

        // A read-only scan sees the damage without repairing it.
        let scanned = Wal::scan(&path, 2, &DiskIo).unwrap();
        assert!(scanned.recovered_torn_tail);
        assert_eq!(scanned.records.len(), 1);
        assert_eq!(std::fs::read(&path).unwrap().len(), bytes.len() - 3);

        let (mut wal, replay) = Wal::open(&path, 2).unwrap();
        assert!(replay.recovered_torn_tail);
        assert_eq!(replay.records.len(), 1);
        assert_eq!(
            replay.records[0],
            WalRecord::Insert {
                id: 0,
                vector: vec![1.0, 1.0]
            }
        );
        // The log is healthy again: appends land on the truncated tail.
        wal.append_delete(0).unwrap();
        drop(wal);
        let (_, replay) = Wal::open(&path, 2).unwrap();
        assert!(!replay.recovered_torn_tail);
        assert_eq!(replay.records.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_middle_byte_drops_the_suffix() {
        let path = tmp("corrupt");
        std::fs::remove_file(&path).ok();
        let (mut wal, _) = Wal::open(&path, 2).unwrap();
        wal.append_insert(0, &[1.0, 1.0]).unwrap();
        wal.append_insert(1, &[2.0, 2.0]).unwrap();
        wal.append_insert(2, &[3.0, 3.0]).unwrap();
        drop(wal);

        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2; // inside record 1 or 2
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let (_, replay) = Wal::open(&path, 2).unwrap();
        assert!(replay.recovered_torn_tail);
        assert!(replay.records.len() < 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_finite_insert_is_corruption_not_a_torn_tail() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let path = tmp("non-finite");
            std::fs::remove_file(&path).ok();
            let (mut wal, _) = Wal::open(&path, 2).unwrap();
            wal.append_insert(0, &[1.0, 1.0]).unwrap();
            wal.append_insert(7, &[2.0, bad]).unwrap();
            wal.append_insert(2, &[3.0, 3.0]).unwrap();
            drop(wal);
            let logged = std::fs::read(&path).unwrap();

            let scanned = Wal::scan(&path, 2, &DiskIo)
                .err()
                .expect("scan accepted it");
            let opened = Wal::open(&path, 2).err().expect("open replayed it");
            for err in [scanned, opened] {
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{bad}: {err}");
                assert!(err.to_string().contains("id 7"), "{bad}: {err}");
            }
            // Nothing was truncated: the acknowledged frame after it stays.
            assert_eq!(std::fs::read(&path).unwrap(), logged, "{bad}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn reset_empties_the_log() {
        let path = tmp("reset");
        std::fs::remove_file(&path).ok();
        let (mut wal, _) = Wal::open(&path, 2).unwrap();
        wal.append_insert(0, &[1.0, 1.0]).unwrap();
        wal.reset().unwrap();
        wal.append_insert(1, &[2.0, 2.0]).unwrap();
        drop(wal);
        let (_, replay) = Wal::open(&path, 2).unwrap();
        assert_eq!(
            replay.records,
            vec![WalRecord::Insert {
                id: 1,
                vector: vec![2.0, 2.0]
            }]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_dimension_is_a_hard_error() {
        let path = tmp("dim");
        std::fs::remove_file(&path).ok();
        let (_, _) = Wal::open(&path, 4).unwrap();
        assert!(Wal::open(&path, 8).is_err());
        std::fs::remove_file(&path).ok();
    }
}

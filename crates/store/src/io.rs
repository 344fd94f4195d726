//! The storage VFS: every byte the store reads or writes goes through a
//! [`StorageIo`], so durability logic can be proven against injected
//! faults instead of trusted on the happy path.
//!
//! Two implementations ship: [`DiskIo`], the real filesystem (with the
//! parent-directory fsyncs that make atomic renames actually durable),
//! and [`FaultIo`], a scripted wrapper that injects torn writes, short
//! writes, failed fsyncs, `EIO`, and `ENOSPC` at precise operation
//! indices — the engine of the crash-matrix tests, which fault *every*
//! I/O operation of a workload and assert recovery invariants.
//!
//! Operations are deliberately coarse (whole-file read, create+write,
//! rename, append, truncate, sync): each one is a natural crash point,
//! so "fault at operation `i`" enumerates exactly the states a real
//! crash or disk error can leave behind.

use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A file handle for append-mostly logs (the WAL): sequential appends,
/// explicit sync, and truncation for torn-tail repair / reset.
pub trait LogFile: Send {
    /// Appends `bytes` at the current end and flushes to the OS.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Forces written data to stable storage (`fsync`).
    fn sync(&mut self) -> io::Result<()>;
    /// Truncates the file to `len` bytes; subsequent appends land there.
    fn truncate(&mut self, len: u64) -> io::Result<()>;
}

/// The virtual filesystem every persistence module routes through.
pub trait StorageIo: Send + Sync {
    /// Reads a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Creates (truncating) `path`, writes `bytes`, and fsyncs the file.
    fn create_write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Renames `from` to `to` (atomic on POSIX within a filesystem).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Unlinks a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Fsyncs a directory, making renames/creates within it durable.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// File names (not paths) of a directory's entries.
    fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>>;
    /// Byte length of `path`, or `None` if it does not exist.
    fn file_len(&self, path: &Path) -> io::Result<Option<u64>>;
    /// Opens an existing file for appending (positioned at its end).
    fn open_log(&self, path: &Path) -> io::Result<Box<dyn LogFile>>;
}

/// The default VFS handle used when a caller does not supply one.
pub fn disk_io() -> Arc<dyn StorageIo> {
    Arc::new(DiskIo)
}

/// Writes `bytes` to `path` via a sibling temp file, fsync, rename, and
/// a parent-directory fsync — so the destination is always either
/// absent, the old content, or the complete new content, and the rename
/// itself survives power loss (without the directory fsync, a crash
/// right after the rename could resurrect the old file).
pub fn atomic_write(io: &dyn StorageIo, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_sibling(path);
    io.create_write(&tmp, bytes)?;
    io.rename(&tmp, path)?;
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        io.sync_dir(parent)?;
    }
    Ok(())
}

/// The `<name>.tmp` sibling used by [`atomic_write`] staging.
pub fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

// ---------------------------------------------------------------------------
// Real disk
// ---------------------------------------------------------------------------

/// The real filesystem.
#[derive(Clone, Copy, Debug, Default)]
pub struct DiskIo;

/// Whether an error from opening/fsyncing a directory means the platform
/// cannot fsync directories (harmless) rather than a real I/O failure.
/// `EINVAL` (22) and `ENOTSUP`/`EOPNOTSUPP` (95) are what Unix
/// filesystems without directory fsync report; `PermissionDenied` covers
/// Windows, where directories cannot be opened as files at all.
fn dir_sync_unsupported(e: &io::Error) -> bool {
    e.kind() == io::ErrorKind::Unsupported
        || e.kind() == io::ErrorKind::PermissionDenied
        || matches!(e.raw_os_error(), Some(22) | Some(95))
}

struct DiskLog {
    file: File,
}

impl LogFile for DiskLog {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.file.write_all(bytes)?;
        self.file.flush()
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)?;
        self.file.seek(SeekFrom::Start(len))?;
        Ok(())
    }
}

impl StorageIo for DiskIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn create_write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut file = File::create(path)?;
        file.write_all(bytes)?;
        file.sync_data()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // Opening a directory read-only and fsyncing it is the POSIX way
        // to make its entries (renames, creates, unlinks) durable. Only
        // platforms that genuinely cannot do this get a pass — a real
        // error (EIO, missing directory) propagates, because it means the
        // rename may not survive power loss after all.
        let file = match File::open(dir) {
            Ok(f) => f,
            Err(e) if dir_sync_unsupported(&e) => return Ok(()),
            Err(e) => return Err(e),
        };
        match file.sync_all() {
            Ok(()) => Ok(()),
            Err(e) if dir_sync_unsupported(&e) => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if let Some(name) = entry.file_name().to_str() {
                names.push(name.to_string());
            }
        }
        names.sort();
        Ok(names)
    }

    fn file_len(&self, path: &Path) -> io::Result<Option<u64>> {
        match std::fs::metadata(path) {
            Ok(meta) => Ok(Some(meta.len())),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn open_log(&self, path: &Path) -> io::Result<Box<dyn LogFile>> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        file.seek(SeekFrom::End(0))?;
        Ok(Box::new(DiskLog { file }))
    }
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// What goes wrong at the scripted operation index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation fails with `EIO`; nothing reaches the disk.
    Eio,
    /// The operation fails with `ENOSPC`; nothing reaches the disk.
    Enospc,
    /// A write persists only the first half of its bytes, then errors —
    /// the classic partial-write crash signature.
    TornWrite,
    /// A write persists all but its final byte, then errors.
    ShortWrite,
    /// An fsync (or any other op) reports failure; for writes the data
    /// still lands in the OS but durability was never promised.
    FailSync,
}

/// One scripted fault: `kind` fires for `fault_count` consecutive I/O
/// operations starting at the `fault_at`-th (0-based, counted across the
/// whole [`FaultIo`]); with `crash` set, every operation after the window
/// also fails with `EIO`, simulating the process dying at that exact
/// point (the crash-matrix mode). A window with `crash: false` models a
/// *transient* failure — the storage misbehaves for a bounded stretch and
/// then heals — which is what the retry/auto-thaw tests script.
#[derive(Clone, Copy, Debug)]
pub struct FaultScript {
    /// 0-based index of the first operation to fault.
    pub fault_at: u64,
    /// How many consecutive operations fault (1 = the classic one-shot).
    pub fault_count: u64,
    /// The failure mode injected there.
    pub kind: FaultKind,
    /// Whether all operations after the window fail too (simulated crash).
    pub crash: bool,
}

impl FaultScript {
    /// The classic one-shot script: a single fault at `fault_at`.
    pub fn once(fault_at: u64, kind: FaultKind, crash: bool) -> Self {
        Self {
            fault_at,
            fault_count: 1,
            kind,
            crash,
        }
    }

    /// A transient-then-healthy script: `kind` for `fault_count` ops
    /// starting at `fault_at`, then the storage heals (never crashes).
    pub fn transient(fault_at: u64, fault_count: u64, kind: FaultKind) -> Self {
        Self {
            fault_at,
            fault_count,
            kind,
            crash: false,
        }
    }
}

enum Fault {
    /// Fail the op with this error; touch nothing.
    Error(io::Error),
    /// Persist only this many bytes of the write, then fail.
    Torn(usize),
    /// Skip the sync (data stays volatile) and report failure.
    SyncLost,
}

struct FaultState {
    ops: AtomicU64,
    script: Option<FaultScript>,
    log: Mutex<Vec<String>>,
}

impl FaultState {
    /// Admits one operation: counts it, logs it, and decides its fate.
    /// `write_len` is `Some(n)` for operations that persist `n` bytes
    /// (those are eligible for torn/short truncation).
    fn admit(&self, desc: String, write_len: Option<usize>) -> Result<(), Fault> {
        let idx = self.ops.fetch_add(1, Ordering::SeqCst);
        if let Ok(mut log) = self.log.lock() {
            log.push(format!("{idx}: {desc}"));
        }
        let Some(script) = self.script else {
            return Ok(());
        };
        let window_end = script.fault_at.saturating_add(script.fault_count.max(1));
        if script.crash && idx >= window_end {
            return Err(Fault::Error(eio("injected crash: process is gone")));
        }
        if idx < script.fault_at || idx >= window_end {
            return Ok(());
        }
        Err(match script.kind {
            FaultKind::Eio => Fault::Error(io::Error::from_raw_os_error(5)),
            FaultKind::Enospc => Fault::Error(io::Error::from_raw_os_error(28)),
            FaultKind::TornWrite => match write_len {
                Some(n) => Fault::Torn(n / 2),
                None => Fault::Error(eio("injected fault (torn write on non-write op)")),
            },
            FaultKind::ShortWrite => match write_len {
                Some(n) => Fault::Torn(n.saturating_sub(1)),
                None => Fault::Error(eio("injected fault (short write on non-write op)")),
            },
            FaultKind::FailSync => Fault::SyncLost,
        })
    }
}

fn eio(msg: &str) -> io::Error {
    io::Error::other(msg.to_string())
}

fn fault_err(fault: Fault) -> io::Error {
    match fault {
        Fault::Error(e) => e,
        Fault::Torn(_) => eio("injected torn write"),
        Fault::SyncLost => eio("injected fsync failure"),
    }
}

/// A [`StorageIo`] that forwards to an inner implementation while
/// counting every operation and injecting one scripted fault (see
/// [`FaultScript`]). Construct without a script ([`FaultIo::counting`])
/// to measure how many operations a workload performs — the matrix
/// bound — and with one ([`FaultIo::scripted`]) to break the workload
/// at a precise point.
pub struct FaultIo {
    inner: Arc<dyn StorageIo>,
    state: Arc<FaultState>,
}

impl FaultIo {
    /// Counts operations without ever faulting.
    pub fn counting(inner: Arc<dyn StorageIo>) -> Self {
        Self {
            inner,
            state: Arc::new(FaultState {
                ops: AtomicU64::new(0),
                script: None,
                log: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Injects `script` over the inner VFS.
    pub fn scripted(inner: Arc<dyn StorageIo>, script: FaultScript) -> Self {
        Self {
            inner,
            state: Arc::new(FaultState {
                ops: AtomicU64::new(0),
                script: Some(script),
                log: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Operations admitted so far (including faulted ones).
    pub fn ops(&self) -> u64 {
        self.state.ops.load(Ordering::SeqCst)
    }

    /// The `"index: operation"` log, for diagnosing a failing matrix cell.
    #[cfg(test)]
    fn op_log(&self) -> Vec<String> {
        self.state.log.lock().map(|l| l.clone()).unwrap_or_default()
    }
}

struct FaultLog {
    inner: Box<dyn LogFile>,
    state: Arc<FaultState>,
    name: String,
}

impl LogFile for FaultLog {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        match self.state.admit(
            format!("append {} ({}B)", self.name, bytes.len()),
            Some(bytes.len()),
        ) {
            Ok(()) => self.inner.append(bytes),
            Err(Fault::Torn(keep)) => {
                self.inner.append(&bytes[..keep]).ok();
                Err(eio("injected torn write"))
            }
            Err(f) => Err(fault_err(f)),
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        match self.state.admit(format!("sync {}", self.name), None) {
            Ok(()) => self.inner.sync(),
            Err(f) => Err(fault_err(f)),
        }
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        match self
            .state
            .admit(format!("truncate {} to {len}", self.name), None)
        {
            Ok(()) => self.inner.truncate(len),
            Err(f) => Err(fault_err(f)),
        }
    }
}

fn name_of(path: &Path) -> String {
    path.file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("?")
        .to_string()
}

impl StorageIo for FaultIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        match self.state.admit(format!("read {}", name_of(path)), None) {
            Ok(()) => self.inner.read(path),
            Err(f) => Err(fault_err(f)),
        }
    }

    fn create_write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.state.admit(
            format!("create_write {} ({}B)", name_of(path), bytes.len()),
            Some(bytes.len()),
        ) {
            Ok(()) => self.inner.create_write(path, bytes),
            Err(Fault::Torn(keep)) => {
                self.inner.create_write(path, &bytes[..keep]).ok();
                Err(eio("injected torn write"))
            }
            Err(Fault::SyncLost) => {
                // The bytes land but the promised fsync never happens;
                // report the failure the caller must react to.
                self.inner.create_write(path, bytes).ok();
                Err(eio("injected fsync failure"))
            }
            Err(f) => Err(fault_err(f)),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match self
            .state
            .admit(format!("rename {} -> {}", name_of(from), name_of(to)), None)
        {
            Ok(()) => self.inner.rename(from, to),
            Err(f) => Err(fault_err(f)),
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        match self.state.admit(format!("remove {}", name_of(path)), None) {
            Ok(()) => self.inner.remove_file(path),
            Err(f) => Err(fault_err(f)),
        }
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        match self.state.admit(format!("sync_dir {}", name_of(dir)), None) {
            Ok(()) => self.inner.sync_dir(dir),
            Err(f) => Err(fault_err(f)),
        }
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        match self.state.admit(format!("list_dir {}", name_of(dir)), None) {
            Ok(()) => self.inner.list_dir(dir),
            Err(f) => Err(fault_err(f)),
        }
    }

    fn file_len(&self, path: &Path) -> io::Result<Option<u64>> {
        match self
            .state
            .admit(format!("file_len {}", name_of(path)), None)
        {
            Ok(()) => self.inner.file_len(path),
            Err(f) => Err(fault_err(f)),
        }
    }

    fn open_log(&self, path: &Path) -> io::Result<Box<dyn LogFile>> {
        match self
            .state
            .admit(format!("open_log {}", name_of(path)), None)
        {
            Ok(()) => {
                let inner = self.inner.open_log(path)?;
                Ok(Box::new(FaultLog {
                    inner,
                    state: self.state.clone(),
                    name: name_of(path),
                }))
            }
            Err(f) => Err(fault_err(f)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rabitq-io-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn disk_atomic_write_round_trips_and_cleans_tmp() {
        let dir = tmp_dir("atomic");
        let path = dir.join("file.bin");
        let io = DiskIo;
        atomic_write(&io, &path, b"first").unwrap();
        assert_eq!(io.read(&path).unwrap(), b"first");
        atomic_write(&io, &path, b"second").unwrap();
        assert_eq!(io.read(&path).unwrap(), b"second");
        assert!(!tmp_sibling(&path).exists());
        assert_eq!(io.file_len(&path).unwrap(), Some(6));
        assert_eq!(io.file_len(&dir.join("missing")).unwrap(), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_write_persists_a_prefix_and_errors() {
        let dir = tmp_dir("torn");
        let path = dir.join("file.bin");
        let io = FaultIo::scripted(disk_io(), FaultScript::once(0, FaultKind::TornWrite, false));
        assert!(io.create_write(&path, b"0123456789").is_err());
        // Half the bytes made it — the torn-write signature.
        assert_eq!(std::fs::read(&path).unwrap(), b"01234");
        // The fault is one-shot without `crash`; the next op succeeds.
        io.create_write(&path, b"ok").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"ok");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_mode_fails_everything_after_the_fault() {
        let dir = tmp_dir("crash");
        let path = dir.join("file.bin");
        let io = FaultIo::scripted(disk_io(), FaultScript::once(1, FaultKind::Enospc, true));
        io.create_write(&path, b"pre-fault").unwrap();
        let err = io.create_write(&path, b"fails").unwrap_err();
        assert_eq!(err.raw_os_error(), Some(28)); // ENOSPC
        assert!(io.read(&path).is_err()); // dead after the crash point
        assert!(io.rename(&path, &dir.join("x")).is_err());
        assert_eq!(io.ops(), 4);
        assert_eq!(io.op_log().len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn transient_window_faults_then_heals() {
        let dir = tmp_dir("transient");
        let path = dir.join("file.bin");
        let io = FaultIo::scripted(disk_io(), FaultScript::transient(1, 2, FaultKind::Eio));
        io.create_write(&path, b"a").unwrap(); // op 0: clean
        let err = io.create_write(&path, b"b").unwrap_err(); // op 1: faulted
        assert_eq!(err.raw_os_error(), Some(5));
        assert!(io.read(&path).is_err()); // op 2: still inside the window
        io.create_write(&path, b"c").unwrap(); // op 3: healed
        assert_eq!(std::fs::read(&path).unwrap(), b"c");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn counting_mode_never_faults() {
        let dir = tmp_dir("count");
        let io = FaultIo::counting(disk_io());
        let path = dir.join("file.bin");
        io.create_write(&path, b"a").unwrap();
        assert_eq!(io.read(&path).unwrap(), b"a");
        io.remove_file(&path).unwrap();
        assert!(io.ops() >= 3);
        std::fs::remove_dir_all(&dir).ok();
    }
}

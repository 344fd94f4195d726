//! Typed store errors and the collection health surface.
//!
//! A collection is not binary healthy/broken: a corrupted segment is
//! quarantined and the rest keep serving (**degraded**), and a
//! write-path I/O error freezes mutations while searches continue
//! (**read-only**). [`HealthState`] is the shared, atomically updated
//! record of those conditions; [`HealthReport`] is its point-in-time
//! copy handed to callers (the serving layer's `/stats` and `/healthz`,
//! the CLI's `verify`).

use std::fmt;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Why a mutation failed.
#[derive(Debug)]
pub enum StoreError {
    /// The collection froze itself after a write-path I/O error (or an
    /// operator froze it); searches keep working, mutations are
    /// rejected until the collection is reopened on healthy storage.
    ReadOnly {
        /// What flipped the collection read-only.
        reason: String,
    },
    /// The underlying I/O operation failed (this very failure is what
    /// flips the collection read-only for subsequent mutations).
    Io(io::Error),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::ReadOnly { reason } => {
                write!(f, "collection is read-only: {reason}")
            }
            StoreError::Io(e) => write!(f, "storage I/O error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::ReadOnly { .. } => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl StoreError {
    /// Whether this is the typed read-only rejection (as opposed to the
    /// I/O error that caused the freeze).
    pub fn is_read_only(&self) -> bool {
        matches!(self, StoreError::ReadOnly { .. })
    }
}

/// Shared mutable health flags, updated by the writer and read by any
/// number of detached readers (lock-free for the flags; the reason and
/// notes take a short mutex only when someone asks for a report).
#[derive(Debug, Default)]
pub struct HealthState {
    read_only: AtomicBool,
    degraded: AtomicBool,
    quarantined: AtomicU64,
    reason: Mutex<Option<String>>,
    notes: Mutex<Vec<String>>,
    /// Whether the current freeze may self-heal: set by fault-induced
    /// freezes (the storage may recover), cleared by operator freezes
    /// (only the operator should unfreeze what an operator froze).
    auto_thaw: AtomicBool,
    /// When the recovery probe last ran (or the freeze happened) — the
    /// cooldown clock for [`HealthState::thaw_probe_due`].
    last_probe: Mutex<Option<std::time::Instant>>,
}

impl HealthState {
    /// Fresh, healthy state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether mutations are currently rejected.
    pub fn is_read_only(&self) -> bool {
        self.read_only.load(Ordering::Acquire)
    }

    /// Whether the collection opened with pieces missing (quarantined
    /// segments) but keeps serving the rest.
    fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }

    /// Freezes mutations, keeping the first reason (later failures while
    /// already frozen don't overwrite the root cause). Returns whether
    /// this call performed the flip — callers count transitions, not
    /// repeat failures.
    pub fn set_read_only(&self, reason: impl Into<String>) -> bool {
        let flipped = self.freeze(reason);
        if flipped {
            // Operator freezes are deliberate: the recovery probe must
            // not silently undo them.
            self.auto_thaw.store(false, Ordering::Release);
        }
        flipped
    }

    /// [`HealthState::set_read_only`] for fault-induced freezes: marks
    /// the freeze eligible for automatic recovery once the write path
    /// probes healthy again, and starts the probe cooldown clock.
    pub fn set_read_only_recoverable(&self, reason: impl Into<String>) -> bool {
        let flipped = self.freeze(reason);
        if flipped {
            self.auto_thaw.store(true, Ordering::Release);
            if let Ok(mut t) = self.last_probe.lock() {
                *t = Some(std::time::Instant::now());
            }
        }
        flipped
    }

    fn freeze(&self, reason: impl Into<String>) -> bool {
        if !self.read_only.swap(true, Ordering::AcqRel) {
            if let Ok(mut r) = self.reason.lock() {
                r.get_or_insert(reason.into());
            }
            return true;
        }
        false
    }

    /// Whether a recovery probe should run now: the collection is frozen
    /// by a fault (not an operator), and `cooldown` has elapsed since the
    /// freeze or the last probe. A `true` return *consumes* the slot —
    /// the cooldown clock restarts — so probes can't stampede.
    pub fn thaw_probe_due(&self, cooldown: std::time::Duration) -> bool {
        if !self.is_read_only() || !self.auto_thaw.load(Ordering::Acquire) {
            return false;
        }
        let Ok(mut t) = self.last_probe.lock() else {
            return false;
        };
        let now = std::time::Instant::now();
        let due = t.is_none_or(|last| now.duration_since(last) >= cooldown);
        if due {
            *t = Some(now);
        }
        due
    }

    /// Thaws a read-only collection after its write path re-tested
    /// healthy: clears the flag and the stored reason. Returns whether
    /// this call performed the transition (mirroring
    /// [`HealthState::set_read_only`]), so callers count thaws rather
    /// than repeat probes.
    pub fn clear_read_only(&self) -> bool {
        if self.read_only.swap(false, Ordering::AcqRel) {
            if let Ok(mut r) = self.reason.lock() {
                *r = None;
            }
            return true;
        }
        false
    }

    /// Records one quarantined segment and marks the collection degraded.
    pub fn record_quarantine(&self, note: impl Into<String>) {
        self.quarantined.fetch_add(1, Ordering::AcqRel);
        self.degraded.store(true, Ordering::Release);
        self.note(note);
    }

    /// Appends an open-time observation (orphan GC, best-effort repair
    /// failures) to the report's notes.
    pub fn note(&self, note: impl Into<String>) {
        if let Ok(mut notes) = self.notes.lock() {
            notes.push(note.into());
        }
    }

    /// Segments quarantined at open.
    pub fn quarantined_segments(&self) -> u64 {
        self.quarantined.load(Ordering::Acquire)
    }

    /// A point-in-time copy of everything.
    pub fn report(&self) -> HealthReport {
        HealthReport {
            read_only: self.is_read_only(),
            degraded: self.is_degraded(),
            quarantined_segments: self.quarantined_segments(),
            read_only_reason: self.reason.lock().ok().and_then(|r| r.clone()),
            notes: self.notes.lock().map(|n| n.clone()).unwrap_or_default(),
        }
    }
}

/// A point-in-time copy of a collection's health flags.
#[derive(Clone, Debug)]
pub struct HealthReport {
    /// Mutations are rejected with [`StoreError::ReadOnly`].
    pub read_only: bool,
    /// Some segments were quarantined at open; the rest keep serving.
    pub degraded: bool,
    /// Number of segments quarantined at open.
    pub quarantined_segments: u64,
    /// The first write-path failure that froze the collection, if any.
    pub read_only_reason: Option<String>,
    /// Open-time observations: quarantines, orphan GC, repair attempts.
    pub notes: Vec<String>,
}

impl HealthReport {
    /// Whether the collection is fully healthy (writable, nothing lost).
    pub fn is_healthy(&self) -> bool {
        !self.read_only && !self.degraded
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_only_keeps_the_first_reason() {
        let h = HealthState::new();
        assert!(!h.is_read_only());
        h.set_read_only("ENOSPC during WAL append");
        h.set_read_only("later noise");
        let report = h.report();
        assert!(report.read_only);
        assert_eq!(
            report.read_only_reason.as_deref(),
            Some("ENOSPC during WAL append")
        );
    }

    #[test]
    fn thaw_clears_flag_and_reason_and_counts_transitions() {
        let h = HealthState::new();
        assert!(!h.clear_read_only(), "thawing a healthy state is a no-op");
        h.set_read_only("transient EIO");
        assert!(h.clear_read_only(), "first thaw performs the transition");
        assert!(!h.clear_read_only(), "repeat thaws don't");
        let report = h.report();
        assert!(!report.read_only);
        assert_eq!(report.read_only_reason, None);
        // A later freeze records its own (new) reason.
        h.set_read_only("second failure");
        assert_eq!(
            h.report().read_only_reason.as_deref(),
            Some("second failure")
        );
    }

    #[test]
    fn quarantine_marks_degraded_and_counts() {
        let h = HealthState::new();
        assert!(h.report().is_healthy());
        h.record_quarantine("seg-000001.rbq: checksum mismatch");
        h.record_quarantine("seg-000003.rbq: truncated");
        let report = h.report();
        assert!(report.degraded);
        assert!(!report.read_only);
        assert_eq!(report.quarantined_segments, 2);
        assert_eq!(report.notes.len(), 2);
        assert!(!report.is_healthy());
    }

    #[test]
    fn thaw_probe_gating() {
        use std::time::Duration;
        let h = HealthState::new();
        assert!(
            !h.thaw_probe_due(Duration::ZERO),
            "healthy: nothing to probe"
        );
        h.set_read_only("maintenance window");
        assert!(
            !h.thaw_probe_due(Duration::ZERO),
            "operator freezes never auto-probe"
        );
        h.clear_read_only();
        h.set_read_only_recoverable("transient EIO");
        assert!(
            !h.thaw_probe_due(Duration::from_secs(3600)),
            "cooldown has not elapsed since the freeze"
        );
        assert!(h.thaw_probe_due(Duration::ZERO), "due once cooldown passes");
        assert!(
            !h.thaw_probe_due(Duration::from_secs(3600)),
            "a granted probe restarts the cooldown clock"
        );
    }

    #[test]
    fn store_error_displays_and_classifies() {
        let ro = StoreError::ReadOnly {
            reason: "frozen".into(),
        };
        assert!(ro.is_read_only());
        assert!(ro.to_string().contains("read-only"));
        let io_err: StoreError = io::Error::from_raw_os_error(28).into();
        assert!(!io_err.is_read_only());
    }
}

//! Cooperative query cancellation.
//!
//! A [`CancelToken`] is a monotonic deadline plus a shared kill flag.
//! It lives in this crate because the index scan is the innermost loop
//! that must observe it: [`crate::IvfRabitq::scan_planned`] checks
//! the token at each probed-bucket boundary, and higher layers
//! (segment loops, batch dispatch, the HTTP router) thread the same
//! token down so one check granularity covers the whole request.
//!
//! Checks are cheap — one relaxed atomic load plus (when a deadline is
//! set) one vDSO clock read — so per-bucket polling adds nothing
//! measurable to a scan that touches thousands of codes per bucket.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A cooperative cancellation handle: an optional monotonic deadline
/// plus a shared kill flag. Cloning is cheap (an `Arc` bump) and every
/// clone observes the same flag, so a router can keep one half while a
/// worker polls the other.
///
/// The default token never cancels — and, crucially, carries no
/// allocation at all (both fields `None`), so the plain search paths
/// that wrap [`CancelToken::none`] around every call keep their
/// zero-heap-allocation guarantee (see `tests/alloc_free.rs`).
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    deadline: Option<Instant>,
    flag: Option<Arc<AtomicBool>>,
}

impl CancelToken {
    /// A token that never reports cancellation — the identity element
    /// for cancellation plumbing. Carries no flag, so
    /// [`CancelToken::cancel`] on it is a no-op; use
    /// [`CancelToken::new`] for a manually cancellable token.
    pub fn none() -> Self {
        Self::default()
    }

    /// A deadline-free token that cancels only when
    /// [`CancelToken::cancel`] fires.
    pub fn new() -> Self {
        Self {
            deadline: None,
            flag: Some(Arc::new(AtomicBool::new(false))),
        }
    }

    /// A token that reports cancellation once `deadline` passes (or
    /// [`CancelToken::cancel`] fires, whichever comes first).
    pub fn with_deadline(deadline: Instant) -> Self {
        Self {
            deadline: Some(deadline),
            flag: Some(Arc::new(AtomicBool::new(false))),
        }
    }

    /// The deadline this token enforces, if any.
    #[inline]
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Trips the kill flag: every clone of this token reports cancelled
    /// from now on. Idempotent; a no-op on the flag-less
    /// [`CancelToken::none`] token.
    pub fn cancel(&self) {
        if let Some(flag) = &self.flag {
            flag.store(true, Ordering::Release);
        }
    }

    /// Whether the work guarded by this token should stop: the flag was
    /// tripped or the deadline has passed. This is the per-checkpoint
    /// poll — a relaxed load, plus one clock read only when a deadline
    /// is set.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        let Some(flag) = &self.flag else {
            return false;
        };
        if flag.load(Ordering::Relaxed) {
            return true;
        }
        match self.deadline {
            Some(d) if Instant::now() >= d => {
                // Latch the observation so later polls skip the clock
                // read and racing clones agree.
                flag.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn default_token_never_cancels() {
        let t = CancelToken::none();
        assert!(!t.is_cancelled());
        assert_eq!(t.deadline(), None);
        t.cancel();
        assert!(!t.is_cancelled(), "none() carries no flag to trip");
    }

    #[test]
    fn explicit_cancel_trips_every_clone() {
        let t = CancelToken::new();
        let clone = t.clone();
        assert!(!clone.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled());
        assert!(clone.is_cancelled(), "clones share the kill flag");
    }

    #[test]
    fn past_deadline_reports_cancelled() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(t.is_cancelled());
        // Latch: still cancelled on re-poll.
        assert!(t.is_cancelled());
    }

    #[test]
    fn future_deadline_does_not_cancel_yet() {
        let t = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(!t.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled(), "explicit cancel overrides a far deadline");
    }

    #[test]
    fn deadline_expiry_observed_by_clones_after_one_poll() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        let clone = t.clone();
        assert!(t.is_cancelled());
        assert!(clone.is_cancelled());
    }
}

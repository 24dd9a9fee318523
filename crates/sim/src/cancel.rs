//! Cooperative cancellation for long-running device work.
//!
//! A [`CancelToken`] is a cloneable handle carrying an optional wall-clock
//! deadline and a manual cancel flag. It attaches to a
//! [`Queue`](crate::queue::Queue) (like the sanitizer and the fault
//! injector) via [`Queue::set_cancel_token`](crate::queue::Queue::set_cancel_token);
//! the superstep engine polls it at checkpoint boundaries and aborts with
//! [`SimError::Cancelled`] when it fires. The simulator never checks the
//! token inside a kernel: cancellation lands only between supersteps, so
//! an aborted run leaves no half-applied frontier behind.
//!
//! Two producers exist today, both in the service layer: per-job
//! deadlines (client `timeout_ms` capped by server policy) construct
//! tokens with [`CancelToken::with_deadline`], and graceful drain calls
//! [`CancelToken::cancel`] on whatever the workers are currently running
//! once the drain deadline passes.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::error::{SimError, SimResult};

/// Cloneable cancellation handle: manual flag plus optional deadline.
/// All clones share the flag; the deadline is fixed at construction.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that only fires via [`CancelToken::cancel`].
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A token that fires once the wall clock reaches `deadline` (or on
    /// manual cancel, whichever comes first).
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken {
            cancelled: Arc::new(AtomicBool::new(false)),
            deadline: Some(deadline),
        }
    }

    /// The deadline this token carries, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Requests cancellation; every clone observes it.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
    }

    /// Whether the token has fired (manually or by deadline).
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst) || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// `Err(SimError::Cancelled)` once the token has fired. The reason
    /// distinguishes a passed deadline from a manual cancel so callers
    /// can map the two to different typed records.
    pub fn check(&self) -> SimResult<()> {
        if self.cancelled.load(Ordering::SeqCst) {
            return Err(SimError::Cancelled {
                reason: "cancelled by caller".into(),
            });
        }
        if let Some(d) = self.deadline {
            let now = Instant::now();
            if now >= d {
                return Err(SimError::Cancelled {
                    reason: format!(
                        "deadline exceeded by {:.1} ms",
                        (now - d).as_secs_f64() * 1e3
                    ),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fresh_token_passes() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(t.check().is_ok());
    }

    #[test]
    fn manual_cancel_is_shared_across_clones() {
        let t = CancelToken::new();
        let clone = t.clone();
        clone.cancel();
        assert!(t.is_cancelled());
        assert!(matches!(t.check(), Err(SimError::Cancelled { .. })));
    }

    #[test]
    fn deadline_fires_without_manual_cancel() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(t.is_cancelled());
        let err = t.check().unwrap_err();
        assert!(err.to_string().contains("deadline exceeded"));
        let future = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(future.check().is_ok());
    }
}

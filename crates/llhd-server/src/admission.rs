//! Admission control, shared by the server and the router: a cap on jobs
//! *in flight* (admitted and not yet answered). A job group that would
//! push the count past the cap is shed as a whole — never a partial batch
//! — with a retryable `overloaded` error whose `retry_after_ms` hint is
//! 10 ms per job of overshoot, clamped to [10, 1000], so heavier overload
//! backs clients off longer while a marginal overrun retries quickly.

use crate::json::Json;
use crate::protocol::{ErrorKind, ProtoError};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The in-flight count, its cap and the shed counter behind `stats`.
#[derive(Debug, Default)]
pub struct Admission {
    cap: Option<usize>,
    inflight: AtomicUsize,
    shed: AtomicUsize,
}

/// Holds `jobs` of the in-flight count; dropping it (an unwind included)
/// releases them.
#[must_use = "the jobs are released as soon as the permit drops"]
pub struct Permit<'a> {
    admission: &'a Admission,
    jobs: usize,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.admission
            .inflight
            .fetch_sub(self.jobs, Ordering::Relaxed);
    }
}

impl Admission {
    /// A gate admitting at most `cap` jobs at once; `None` or `Some(0)`
    /// admits everything (the count is still kept for `stats`).
    pub fn new(cap: Option<usize>) -> Admission {
        Admission {
            cap: cap.filter(|&cap| cap > 0),
            ..Admission::default()
        }
    }

    /// The cap (`None`: unbounded, nothing sheds).
    pub fn cap(&self) -> Option<usize> {
        self.cap
    }

    /// Jobs admitted and not yet answered.
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::Relaxed)
    }

    /// Job groups shed since start.
    pub fn shed(&self) -> usize {
        self.shed.load(Ordering::Relaxed)
    }

    /// Admit a group of `jobs`, counting `phantom` extra jobs as already
    /// in flight (the fault plan's `queue.pressure`; 0 otherwise).
    ///
    /// # Errors
    ///
    /// A retryable `overloaded` error when the group does not fit.
    pub fn admit(&self, jobs: usize, phantom: usize) -> Result<Permit<'_>, ProtoError> {
        let Some(cap) = self.cap else {
            self.inflight.fetch_add(jobs, Ordering::Relaxed);
            return Ok(Permit {
                admission: self,
                jobs,
            });
        };
        let mut depth = 0;
        let admitted = self
            .inflight
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                depth = n + phantom;
                (depth + jobs <= cap).then_some(n + jobs)
            });
        if admitted.is_ok() {
            return Ok(Permit {
                admission: self,
                jobs,
            });
        }
        self.shed.fetch_add(1, Ordering::Relaxed);
        let overshoot = (depth + jobs - cap) as u128;
        Err(ProtoError::new(
            ErrorKind::Overloaded,
            format!("{} jobs in flight (cap {}); retry later", depth, cap),
        )
        .with_data(
            "retry_after_ms",
            Json::uint((10 * overshoot).clamp(10, 1000)),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permits_release_on_drop_and_overshoot_sets_the_hint() {
        let gate = Admission::new(Some(2));
        let permit = gate.admit(2, 0).unwrap();
        assert_eq!(gate.inflight(), 2);
        let error = gate.admit(3, 0).err().unwrap();
        assert_eq!(error.kind, ErrorKind::Overloaded);
        let hint = error.data.iter().find(|(k, _)| k == "retry_after_ms");
        assert_eq!(hint.map(|(_, v)| v), Some(&Json::uint(30)));
        drop(permit);
        assert_eq!(gate.inflight(), 0);
        assert!(
            gate.admit(1, 1).is_ok(),
            "phantom depth fills the cap exactly"
        );
        assert!(
            gate.admit(1, 2).is_err(),
            "phantom depth pushes past the cap"
        );
        assert_eq!(gate.shed(), 2);
        let unbounded = Admission::new(Some(0));
        let _held = unbounded.admit(1000, 1000).unwrap();
        assert_eq!(unbounded.inflight(), 1000);
    }
}

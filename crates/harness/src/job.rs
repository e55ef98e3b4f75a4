//! Jobs and their outcomes.
//!
//! A [`Job`] is one experiment cell: a human-readable id, an optional
//! cache key (the canonical configuration of the cell), and a pure
//! work closure producing a JSON value. Cells need no other cell's
//! output, so a sweep is a plain slice of jobs; the executor maps over
//! it and returns one [`Outcome`] per job, in slice order.

use std::sync::Arc;
use std::time::Duration;

use serde_json::Value;

/// One schedulable unit of work.
pub struct Job {
    /// Human-readable identity, e.g. `"BFS/kron/TX1/scu-enhanced"`.
    /// Shown in progress lines and failure summaries.
    pub id: String,
    /// Canonical configuration for content-addressed caching; `None`
    /// makes the job uncacheable (always recomputed).
    pub cache_key: Option<Value>,
    /// The work itself. Must be pure: same configuration, same value.
    /// Shared (`Arc`) so a timed-out invocation can be abandoned
    /// without tearing down the closure under it.
    pub(crate) work: Arc<dyn Fn() -> Value + Send + Sync + 'static>,
}

impl Job {
    /// An uncached job.
    pub fn new(id: impl Into<String>, work: impl Fn() -> Value + Send + Sync + 'static) -> Self {
        Job {
            id: id.into(),
            cache_key: None,
            work: Arc::new(work),
        }
    }

    /// Attaches a cache key: the canonical JSON of everything the
    /// result depends on (cell configuration + model version).
    pub fn with_cache_key(mut self, key: Value) -> Self {
        self.cache_key = Some(key);
        self
    }
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("id", &self.id)
            .field("cached", &self.cache_key.is_some())
            .finish()
    }
}

/// What happened to one job. A job runs at most once: cells are
/// deterministic, so a failure would only repeat.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Completed; `cached` tells whether the value came from the
    /// result cache (or resume journal) instead of being computed.
    Done {
        value: Value,
        duration: Duration,
        cached: bool,
    },
    /// The job panicked; the payload's message.
    Failed { error: String },
    /// The job exceeded the configured wall-clock budget and was
    /// abandoned.
    TimedOut { limit: Duration },
    /// The sweep was interrupted (SIGINT) before the job started.
    Cancelled,
}

impl Outcome {
    /// The produced value, if the job completed.
    pub fn value(&self) -> Option<&Value> {
        match self {
            Outcome::Done { value, .. } => Some(value),
            _ => None,
        }
    }

    /// Whether the job completed.
    pub fn is_done(&self) -> bool {
        matches!(self, Outcome::Done { .. })
    }

    /// Whether the value was served from cache.
    pub fn is_cached(&self) -> bool {
        matches!(self, Outcome::Done { cached: true, .. })
    }

    /// One-word status label for progress lines and summaries.
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Done { cached: true, .. } => "cached",
            Outcome::Done { cached: false, .. } => "done",
            Outcome::Failed { .. } => "FAILED",
            Outcome::TimedOut { .. } => "TIMED-OUT",
            Outcome::Cancelled => "cancelled",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_accessors() {
        let done = Outcome::Done {
            value: Value::U64(1),
            duration: Duration::from_millis(5),
            cached: false,
        };
        assert!(done.is_done() && !done.is_cached());
        assert_eq!(done.value(), Some(&Value::U64(1)));
        assert_eq!(done.label(), "done");
        let failed = Outcome::Failed {
            error: "boom".into(),
        };
        assert!(failed.value().is_none());
        assert_eq!(failed.label(), "FAILED");
        assert_eq!(Outcome::Cancelled.label(), "cancelled");
    }
}

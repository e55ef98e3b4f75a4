//! # scu-harness — parallel experiment orchestration
//!
//! The reproduction matrix (algorithm × dataset × platform × machine
//! mode) is 240 independent, deterministic simulator cells. This
//! crate runs them concurrently while keeping the sequential path's
//! guarantees:
//!
//! - **Determinism** — each cell is a pure closure owning its
//!   configuration and needing no other cell's output; outcomes are
//!   returned in submission order, so a run with `--jobs 16` is
//!   byte-identical to `--jobs 1`.
//! - **Content-addressed caching** — results live in an
//!   [`LsmStore`] keyed by the cell configuration plus a model-version
//!   string; after a code tweak that bumps the version, only
//!   invalidated cells recompute. The same store's write-ahead log
//!   journals completions for `--resume`.
//! - **Fault isolation** — each cell runs once; a panicking cell is
//!   caught and reported `FAILED`, a cell over its wall-clock budget
//!   `TIMED-OUT`, and every other cell proceeds. The sweep always
//!   completes and ends with a summary ([`progress::SweepSummary`]);
//!   a failed cell is deterministic, so the remedy is to fix its cause
//!   and rerun with `--resume`, which recomputes only that cell.
//!
//! The executor is a fixed worker pool claiming job indices from one
//! atomic counter: cells are independent, so there is nothing to wait
//! on between them.
//!
//! ```
//! use scu_harness::{Harness, Job};
//! use serde_json::Value;
//!
//! let jobs: Vec<Job> = (0..4u64)
//!     .map(|i| Job::new(format!("cell-{i}"), move || Value::U64(i * i)))
//!     .collect();
//! let sweep = Harness::new().jobs(2).run(&jobs);
//! assert!(sweep.summary.all_done());
//! assert_eq!(sweep.outcomes[3].value(), Some(&Value::U64(9)));
//! ```

pub mod cancel;
pub mod cli;
pub mod error;
pub mod executor;
pub mod failpoint;
pub mod job;
pub mod progress;
pub mod session;

pub use cli::CliArgs;
pub use error::HarnessError;
pub use executor::{default_jobs, ExecContext, ExecOptions, ExecResult};
pub use job::{Job, Outcome};
pub use progress::{Progress, ProgressEvent, ProgressObserver, SweepSummary};
pub use scu_store::{GetResult, LsmStore, ResultStore, StoreStats};

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Opens the result store at `dir` (creating or recovering it) with the
/// harness's failpoints routed into it — how the harness, the sweep
/// server and the binaries open every store.
///
/// # Errors
///
/// Returns [`HarnessError::Io`] when the directory cannot be created or
/// the store cannot be recovered.
pub fn open_store(dir: impl AsRef<Path>) -> Result<LsmStore, HarnessError> {
    failpoint::install_store_hook();
    let dir = dir.as_ref();
    LsmStore::open(dir).map_err(|e| HarnessError::io("open store", dir, e))
}

/// Everything a finished sweep produced.
#[derive(Debug)]
pub struct Sweep {
    /// Per-job outcomes, in the order the jobs were given.
    pub outcomes: Vec<Outcome>,
    /// Aggregate counts, failures and timings.
    pub summary: SweepSummary,
    /// Cache activity during the sweep (zeroes when caching is off).
    pub cache_stats: StoreStats,
}

/// Builder-style front door: configure once, run a slice of [`Job`]s.
#[derive(Clone)]
pub struct Harness {
    jobs: usize,
    cache_dir: Option<PathBuf>,
    store_backend: Option<Arc<dyn ResultStore>>,
    timeout: Option<Duration>,
    narrate: bool,
    progress_file: Option<PathBuf>,
    observer: Option<progress::ProgressObserver>,
    journal_dir: Option<PathBuf>,
    resume: bool,
    strict_resume: bool,
    handle_sigint: bool,
    cancel_flag: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
}

impl std::fmt::Debug for Harness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Harness")
            .field("jobs", &self.jobs)
            .field("cache_dir", &self.cache_dir)
            .field("store_backend", &self.store_backend.is_some())
            .field("timeout", &self.timeout)
            .field("narrate", &self.narrate)
            .field("progress_file", &self.progress_file)
            .field("observer", &self.observer.is_some())
            .field("journal_dir", &self.journal_dir)
            .field("resume", &self.resume)
            .field("strict_resume", &self.strict_resume)
            .field("handle_sigint", &self.handle_sigint)
            .field("cancel_flag", &self.cancel_flag.is_some())
            .finish()
    }
}

impl Default for Harness {
    fn default() -> Self {
        Harness {
            jobs: default_jobs(),
            cache_dir: None,
            store_backend: None,
            timeout: None,
            narrate: false,
            progress_file: None,
            observer: None,
            journal_dir: None,
            resume: false,
            strict_resume: false,
            handle_sigint: false,
            cancel_flag: None,
        }
    }
}

impl Harness {
    /// A harness with default options: all cores, no cache, no
    /// timeout, silent.
    pub fn new() -> Self {
        Harness::default()
    }

    /// Sets the worker-thread count (clamped to at least 1).
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Enables the on-disk result cache rooted at `dir`.
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Uses an already-open store as the result cache instead of
    /// opening [`Harness::cache_dir`]. This is how the sweep server
    /// shares one store between its scheduler and every batch harness
    /// — the LSM layout is single-writer per directory, so two
    /// independent opens of the same directory must not happen.
    /// Takes precedence over `cache_dir`.
    pub fn store_backend(mut self, backend: Arc<dyn ResultStore>) -> Self {
        self.store_backend = Some(backend);
        self
    }

    /// Sets the per-cell wall-clock budget.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Narrates per-cell completions on stderr.
    pub fn narrate(mut self, narrate: bool) -> Self {
        self.narrate = narrate;
        self
    }

    /// Mirrors progress lines into a file (e.g.
    /// `results/reproduce_progress.txt`).
    pub fn progress_file(mut self, path: impl Into<PathBuf>) -> Self {
        self.progress_file = Some(path.into());
        self
    }

    /// Delivers every per-job completion to `observer` as a structured
    /// [`ProgressEvent`], from worker threads — the hook the sweep
    /// server streams to its clients.
    pub fn observer(mut self, observer: progress::ProgressObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Drains the sweep when `flag` rises, exactly like SIGINT does —
    /// in-flight cells finish and reach the journal, unstarted cells
    /// report [`Outcome::Cancelled`] — but scoped to this harness
    /// instead of the process-global signal flag. Takes precedence
    /// over [`Harness::handle_sigint`]'s flag when both are set.
    pub fn cancel_flag(mut self, flag: std::sync::Arc<std::sync::atomic::AtomicBool>) -> Self {
        self.cancel_flag = Some(flag);
        self
    }

    /// Journals each completion so an interrupted sweep can resume.
    /// With a cache mounted the cache store's write-ahead log is the
    /// journal; without one, completions go to a store of their own at
    /// `dir` (e.g. `results/journal`), which never holds cache entries.
    pub fn journal_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.journal_dir = Some(dir.into());
        self
    }

    /// Pre-resolves jobs already journaled by an interrupted sweep
    /// instead of starting the journal afresh. Needs
    /// [`Harness::journal_dir`].
    pub fn resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Fails (rather than warns) a resumed cell whose re-run timeline
    /// digest disagrees with the journaled one — divergence becomes a
    /// failed cell and a non-zero sweep exit.
    pub fn strict_resume(mut self, strict: bool) -> Self {
        self.strict_resume = strict;
        self
    }

    /// Installs a SIGINT handler for the run: the first Ctrl-C drains
    /// in-flight cells into the journal, the second kills.
    pub fn handle_sigint(mut self, handle: bool) -> Self {
        self.handle_sigint = handle;
        self
    }

    /// Applies the shared CLI flags (`--jobs`, `--no-cache`,
    /// `--timeout-secs`, `--resume`, `--strict-resume`) on top of the
    /// current configuration. `default_cache_dir` is used unless
    /// `--no-cache` was given.
    pub fn apply_cli(mut self, args: &CliArgs, default_cache_dir: impl Into<PathBuf>) -> Self {
        self.jobs = args.jobs.max(1);
        self.timeout = args.timeout;
        self.resume = args.resume;
        self.strict_resume = args.strict_resume;
        self.cache_dir = (!args.no_cache).then(|| default_cache_dir.into());
        self
    }

    /// Runs every job to completion (or to a drained cancellation).
    ///
    /// Every harness-side failure degrades rather than kills the
    /// sweep: an unusable cache runs uncached, an unusable journal
    /// runs unjournaled, an unreadable resume journal resumes nothing.
    pub fn run(&self, jobs: &[Job]) -> Sweep {
        if self.handle_sigint {
            cancel::install_sigint_handler();
        }
        let open = |dir: &PathBuf, what: &str, fallback: &str| {
            open_store(dir)
                .map_err(|e| eprintln!("[scu-harness] cannot open {what}: {e}; {fallback}"))
                .ok()
        };
        let opened_cache = match (&self.store_backend, &self.cache_dir) {
            (None, Some(dir)) => open(dir, "cache", "running uncached"),
            _ => None,
        };
        let cache: Option<&dyn ResultStore> = self
            .store_backend
            .as_deref()
            .or(opened_cache.as_ref().map(|s| s as _));
        // With a cache mounted its write-ahead log is the journal;
        // without one, completions go to a store of their own.
        let opened_journal = match (cache, &self.journal_dir) {
            (None, Some(dir)) => open(dir, "journal", "running unjournaled"),
            _ => None,
        };
        let journal: Option<&dyn ResultStore> = self
            .journal_dir
            .as_ref()
            .and(cache.or(opened_journal.as_ref().map(|s| s as _)));
        // Digests cross-check re-run cells against what the interrupted
        // sweep observed (warn, or fail under strict_resume).
        let (resume_map, resume_digests) = match journal.filter(|_| self.resume) {
            Some(journal) => match journal.resume_state() {
                Ok(state) => {
                    if !state.values.is_empty() {
                        eprintln!(
                            "[scu-harness] resuming: {} cell(s) already journaled in {}",
                            state.values.len(),
                            journal.dir().display()
                        );
                    }
                    (Some(state.values), Some(state.digests))
                }
                Err(e) => {
                    eprintln!("[scu-harness] cannot resume: {e}; starting fresh");
                    (None, None)
                }
            },
            None => (None, None),
        };
        // A fresh (non-resumed) sweep starts a new epoch, so the
        // journal only ever describes this sweep's completions while
        // earlier values stay readable.
        let journal = journal.filter(|journal| match journal.begin_sweep(self.resume) {
            Ok(()) => true,
            Err(e) => {
                eprintln!("[scu-harness] cannot start the journal: {e}; running unjournaled");
                false
            }
        });
        let mut progress = if self.narrate {
            Progress::stderr(jobs.len())
        } else {
            Progress::silent(jobs.len())
        };
        if let Some(path) = &self.progress_file {
            match progress.with_file(path) {
                Ok(p) => progress = p,
                Err(e) => {
                    eprintln!(
                        "[scu-harness] cannot write progress to {}: {e}",
                        path.display()
                    );
                    progress = if self.narrate {
                        Progress::stderr(jobs.len())
                    } else {
                        Progress::silent(jobs.len())
                    };
                }
            }
        }
        if let Some(observer) = &self.observer {
            progress = progress.with_observer(std::sync::Arc::clone(observer));
        }
        let opts = ExecOptions {
            jobs: self.jobs,
            timeout: self.timeout,
            strict_resume: self.strict_resume,
        };
        let ctx = ExecContext {
            cache,
            journal,
            resume: resume_map.as_ref(),
            resume_digests: resume_digests.as_ref(),
            cancel: match (&self.cancel_flag, self.handle_sigint) {
                (Some(flag), _) => Some(flag.as_ref()),
                (None, true) => Some(cancel::flag()),
                (None, false) => None,
            },
        };
        let start = Instant::now();
        let result = executor::execute(jobs, &ctx, &opts, &progress);
        let summary = SweepSummary::new(
            jobs,
            &result.outcomes,
            start.elapsed(),
            result.leaked_threads,
        );
        let cache_stats = cache.map(|c| c.stats()).unwrap_or_default();
        Sweep {
            outcomes: result.outcomes,
            summary,
            cache_stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("scu-harness-lib-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn key(n: u64) -> Value {
        Value::Object(vec![("cell".into(), Value::U64(n))])
    }

    fn cell_graph() -> Vec<Job> {
        (0..6u64)
            .map(|i| {
                let key = Value::Object(vec![
                    ("cell".to_string(), Value::U64(i)),
                    ("model".to_string(), Value::Str("v1".into())),
                ]);
                Job::new(format!("cell-{i}"), move || Value::U64(i + 100)).with_cache_key(key)
            })
            .collect()
    }

    #[test]
    fn warm_cache_serves_every_cell() {
        let _sites = crate::failpoint::serial_store_sites();
        let dir = scratch("warm");
        let harness = Harness::new().jobs(4).cache_dir(&dir);
        let cold = harness.run(&cell_graph());
        assert!(cold.summary.all_done());
        assert_eq!(cold.summary.cached, 0);
        assert_eq!(cold.cache_stats.stores, 6);
        let warm = harness.run(&cell_graph());
        assert!(warm.summary.fully_cached());
        assert_eq!(warm.cache_stats.hits, 6);
        let values = |s: &Sweep| -> Vec<Value> {
            s.outcomes
                .iter()
                .map(|o| o.value().unwrap().clone())
                .collect()
        };
        assert_eq!(values(&cold), values(&warm));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let seq = Harness::new().jobs(1).run(&cell_graph());
        let par = Harness::new().jobs(6).run(&cell_graph());
        assert_eq!(seq.outcomes.len(), par.outcomes.len());
        for (a, b) in seq.outcomes.iter().zip(&par.outcomes) {
            assert_eq!(a.value(), b.value());
        }
    }

    #[test]
    fn apply_cli_respects_no_cache() {
        let args = CliArgs::parse(
            ["--no-cache", "--jobs", "2"].map(String::from),
            cli::ALL_FLAGS,
        )
        .unwrap();
        let h = Harness::new().apply_cli(&args, "unused-cache-dir");
        assert_eq!(h.jobs, 2);
        assert!(h.cache_dir.is_none());
        let with_cache = Harness::new().apply_cli(
            &CliArgs::parse(Vec::<String>::new(), cli::ALL_FLAGS).unwrap(),
            "some-dir",
        );
        assert_eq!(
            with_cache.cache_dir.as_deref(),
            Some(std::path::Path::new("some-dir"))
        );
    }

    #[test]
    fn journal_then_resume_serves_journaled_cells() {
        let _sites = crate::failpoint::serial_store_sites();
        let dir = scratch("resume");
        let journal = dir.join("journal");
        let first = Harness::new()
            .jobs(2)
            .journal_dir(&journal)
            .run(&cell_graph());
        assert!(first.summary.all_done());
        assert_eq!(
            open_store(&journal)
                .unwrap()
                .resume_state()
                .unwrap()
                .values
                .len(),
            6
        );
        let resumed = Harness::new()
            .jobs(2)
            .journal_dir(&journal)
            .resume(true)
            .run(&cell_graph());
        assert!(resumed.summary.fully_cached(), "all cells pre-resolved");
        let values = |s: &Sweep| -> Vec<Value> {
            s.outcomes
                .iter()
                .map(|o| o.value().unwrap().clone())
                .collect()
        };
        assert_eq!(values(&first), values(&resumed));
        assert_eq!(resumed.cache_stats, StoreStats::default(), "no cache");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_sweep_truncates_stale_journal() {
        let _sites = crate::failpoint::serial_store_sites();
        let dir = scratch("truncate");
        let journal = dir.join("journal");
        Harness::new().journal_dir(&journal).run(&cell_graph());
        Harness::new()
            .journal_dir(&journal)
            .run(&[Job::new("only", || Value::U64(1))]);
        let state = open_store(&journal).unwrap().resume_state().unwrap();
        assert_eq!(state.values.len(), 1);
        assert_eq!(state.values.get("id:only"), Some(&Value::U64(1)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lsm_cache_unifies_the_journal_and_resumes_without_recompute() {
        let _sites = crate::failpoint::serial_store_sites();
        use std::sync::atomic::{AtomicU32, Ordering};
        let dir = scratch("unified");
        let cache_dir = dir.join("cache");
        let journal = dir.join("journal");
        let runs = Arc::new(AtomicU32::new(0));
        let counted_graph = |runs: &Arc<AtomicU32>| -> Vec<Job> {
            (0..6u64)
                .map(|i| {
                    let key = Value::Object(vec![
                        ("cell".to_string(), Value::U64(i)),
                        ("model".to_string(), Value::Str("v1".into())),
                    ]);
                    let r = Arc::clone(runs);
                    Job::new(format!("cell-{i}"), move || {
                        r.fetch_add(1, Ordering::SeqCst);
                        Value::U64(i + 100)
                    })
                    .with_cache_key(key)
                })
                .collect()
        };
        let first = Harness::new()
            .jobs(2)
            .cache_dir(&cache_dir)
            .journal_dir(&journal)
            .run(&counted_graph(&runs));
        assert!(first.summary.all_done());
        assert_eq!(runs.load(Ordering::SeqCst), 6);
        assert!(
            !journal.exists(),
            "the cache store's WAL is the journal; no other store is opened"
        );
        assert!(cache_dir.join("CURRENT").exists(), "LSM layout in place");
        let resumed = Harness::new()
            .jobs(2)
            .cache_dir(&cache_dir)
            .journal_dir(&journal)
            .resume(true)
            .run(&counted_graph(&runs));
        assert!(resumed.summary.fully_cached(), "all cells pre-resolved");
        assert_eq!(runs.load(Ordering::SeqCst), 6, "resume recomputed nothing");
        let values = |s: &Sweep| -> Vec<Value> {
            s.outcomes
                .iter()
                .map(|o| o.value().unwrap().clone())
                .collect()
        };
        assert_eq!(values(&first), values(&resumed));
        assert!(!journal.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shared_store_backend_is_used_for_caching() {
        let _sites = crate::failpoint::serial_store_sites();
        let dir = scratch("shared-backend");
        let store: Arc<dyn ResultStore> = Arc::new(open_store(&dir).unwrap());
        let warmup = Harness::new()
            .store_backend(Arc::clone(&store))
            .run(&cell_graph());
        assert_eq!(warmup.cache_stats.stores, 6);
        let warm = Harness::new()
            .store_backend(Arc::clone(&store))
            .run(&cell_graph());
        assert!(warm.summary.fully_cached());
        // Counters are store-wide: both sweeps hit the same store.
        assert_eq!(store.stats().stores, 6);
        assert_eq!(store.stats().hits, 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn round_trips_and_counts() {
        let _sites = crate::failpoint::serial_store_sites();
        let dir = scratch("round-trip");
        let store = open_store(&dir).unwrap();
        assert_eq!(store.get(&key(1)), GetResult::Miss);
        store.put(&key(1), &Value::Str("result".into())).unwrap();
        assert_eq!(
            store.get(&key(1)),
            GetResult::Hit(Value::Str("result".into()))
        );
        let stats = store.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.stores, stats.quarantined),
            (1, 1, 1, 0)
        );
        assert_eq!(stats.quarantined_total, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn survives_reopen() {
        let _sites = crate::failpoint::serial_store_sites();
        let dir = scratch("reopen");
        open_store(&dir)
            .unwrap()
            .put(&key(7), &Value::U64(42))
            .unwrap();
        let store = open_store(&dir).unwrap();
        assert_eq!(store.get(&key(7)), GetResult::Hit(Value::U64(42)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_load_fault_misses_without_quarantine() {
        let _sites = crate::failpoint::serial_store_sites();
        let dir = scratch("fp-load");
        let store = open_store(&dir).unwrap();
        store.put(&key(5), &Value::U64(5)).unwrap();
        {
            let _fp = crate::failpoint::scoped("cache-load=io-error");
            assert_eq!(store.get(&key(5)), GetResult::Miss, "injected IO error");
        }
        assert_eq!(store.stats().quarantined, 0, "nothing was actually corrupt");
        assert_eq!(store.get(&key(5)), GetResult::Hit(Value::U64(5)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_store_faults_are_errors_and_skip_the_write() {
        let _sites = crate::failpoint::serial_store_sites();
        let dir = scratch("fp-store");
        let store = open_store(&dir).unwrap();
        store.begin_sweep(false).unwrap();
        {
            let _fp = crate::failpoint::scoped("cache-store=io-error");
            assert!(store.put(&key(6), &Value::U64(6)).is_err());
        }
        {
            let _fp = crate::failpoint::scoped("journal-append=io-error");
            let rec = scu_store::JournalRecord {
                key: Some(key(6)),
                id: "cell-6".into(),
                value: Value::U64(6),
                digest: None,
            };
            assert!(store.journal_append(&rec).is_err());
        }
        assert_eq!(store.stats().stores, 0);
        assert_eq!(store.stats().wal_appends, 1, "only the sweep boundary");
        assert_eq!(store.get(&key(6)), GetResult::Miss);
        assert!(store.resume_state().unwrap().values.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn doc_example_shape() {
        let jobs: Vec<Job> = (0..4u64)
            .map(|i| Job::new(format!("cell-{i}"), move || Value::U64(i * i)))
            .collect();
        let sweep = Harness::new().jobs(2).run(&jobs);
        assert!(sweep.summary.all_done());
        assert_eq!(sweep.outcomes[3].value(), Some(&Value::U64(9)));
    }
}

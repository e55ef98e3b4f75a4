//! The parallel executor: a fixed pool of worker threads mapping over
//! independent jobs.
//!
//! Workers claim the next job index from one shared counter, run that
//! job once, and write its outcome into the job's own slot. Cells need
//! no other cell's output, so there is no ready queue to wait on: a
//! worker that finds no index left simply exits.
//!
//! Determinism: each job owns its inputs and its work closure is pure,
//! so the *values* produced are independent of scheduling; outcomes
//! are returned in slice order regardless of completion order. Running
//! with one worker or sixteen yields byte-identical results.
//!
//! Per job, in order:
//!
//! 1. **Resume** — with a resume map (journaled completions from an
//!    interrupted sweep), a matching job is pre-resolved without
//!    running.
//! 2. **Cache** — a content-addressed hit short-circuits execution.
//! 3. **Isolation** — the job runs once; a panic is caught with
//!    `catch_unwind` and reported as [`Outcome::Failed`], and every
//!    other job proceeds. A cell is deterministic, so running it again
//!    would only repeat the failure: fix the cause and `--resume`
//!    recomputes just that cell.
//!
//! Timeouts: with a configured budget the job runs on a dedicated
//! thread; on expiry the thread is *abandoned* (threads cannot be
//! killed safely) and the worker moves on — pool capacity is restored
//! immediately because the worker itself never ran the cell. Abandoned
//! threads are tracked: those that finish before the sweep ends are
//! joined (reclaimed), the rest are counted as
//! [`ExecResult::leaked_threads`] so a sweep that shed threads says so
//! in its summary instead of leaking silently.
//!
//! Cancellation: when the cancel flag rises (SIGINT), workers finish
//! their in-flight jobs — completions still reach the journal — and
//! claim no new ones; never-started jobs report [`Outcome::Cancelled`].

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use serde_json::Value;

use scu_store::{JournalRecord, ResultStore};

use crate::error::lock_unpoisoned;
use crate::job::{Job, Outcome};
use crate::progress::Progress;

/// Executor knobs.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Worker threads; clamped to `1..=jobs.len()`.
    pub jobs: usize,
    /// Per-job wall-clock budget; `None` disables the watchdog and
    /// runs jobs inline on the workers.
    pub timeout: Option<Duration>,
    /// Treat a resumed cell's timeline-digest mismatch as a failure
    /// instead of a warning (the `--strict-resume` flag). CI uses this
    /// to turn silent model/config divergence into a non-zero exit.
    pub strict_resume: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            jobs: default_jobs(),
            timeout: None,
            strict_resume: false,
        }
    }
}

/// Everything the executor consults besides the jobs themselves.
#[derive(Default)]
pub struct ExecContext<'a> {
    /// Content-addressed result cache, if caching is on.
    pub cache: Option<&'a dyn ResultStore>,
    /// Store whose journal receives each completion, if journaling is
    /// on (the cache itself when one is mounted).
    pub journal: Option<&'a dyn ResultStore>,
    /// Journaled completions from an interrupted sweep, keyed by
    /// [`JournalRecord::resume_key`].
    pub resume: Option<&'a HashMap<String, Value>>,
    /// Timeline digests from the interrupted sweep's journal, keyed by
    /// job id. A cell that *re-runs* during a resumed sweep (its cache
    /// key changed, so the resume map missed it) is cross-checked
    /// against the digest journaled for the same id; a mismatch warns,
    /// or fails the cell under [`ExecOptions::strict_resume`].
    pub resume_digests: Option<&'a HashMap<String, u64>>,
    /// Rises when the sweep should drain and stop (SIGINT).
    pub cancel: Option<&'a AtomicBool>,
}

/// What a finished (or drained) execution produced.
#[derive(Debug)]
pub struct ExecResult {
    /// Per-job outcomes in slice order.
    pub outcomes: Vec<Outcome>,
    /// Timed-out worker threads still running when the sweep ended.
    pub leaked_threads: usize,
}

/// The machine's available parallelism (1 if unknown).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A cell thread abandoned by the timeout watchdog: joinable once
/// `finished` rises, leaked if the sweep ends first.
struct Abandoned {
    handle: std::thread::JoinHandle<()>,
    finished: Arc<AtomicBool>,
}

/// Runs every job once, returning outcomes in slice order plus the
/// count of threads the timeout watchdog had to shed.
pub fn execute(
    jobs: &[Job],
    ctx: &ExecContext<'_>,
    opts: &ExecOptions,
    progress: &Progress,
) -> ExecResult {
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<Outcome>> = jobs.iter().map(|_| OnceLock::new()).collect();
    let abandoned = Mutex::new(Vec::new());
    let cancelled = || ctx.cancel.is_some_and(|c| c.load(Ordering::SeqCst));
    std::thread::scope(|scope| {
        for w in 0..opts.jobs.clamp(1, jobs.len().max(1)) {
            let (next, slots, abandoned, cancelled) = (&next, &slots, &abandoned, &cancelled);
            std::thread::Builder::new()
                .name(format!("scu-harness-{w}"))
                .spawn_scoped(scope, move || {
                    while !cancelled() {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(job) = jobs.get(i) else { break };
                        let outcome = run_one(job, ctx, opts, abandoned);
                        progress.job_finished(&job.id, &outcome);
                        let _ = slots[i].set(outcome);
                    }
                })
                .expect("spawning worker thread");
        }
    });
    ExecResult {
        outcomes: slots
            .into_iter()
            .map(|slot| slot.into_inner().unwrap_or(Outcome::Cancelled))
            .collect(),
        leaked_threads: reclaim(abandoned.into_inner().unwrap_or_else(|p| p.into_inner())),
    }
}

/// Joins abandoned cell threads that finished on their own; returns
/// how many are still running (leaked).
fn reclaim(abandoned: Vec<Abandoned>) -> usize {
    let mut leaked = 0usize;
    for a in abandoned {
        if a.finished.load(Ordering::SeqCst) {
            let _ = a.handle.join();
        } else {
            leaked += 1;
            // Dropping the handle detaches the thread; its closure
            // Arc keeps the environment alive until it returns.
        }
    }
    leaked
}

fn run_one(
    job: &Job,
    ctx: &ExecContext<'_>,
    opts: &ExecOptions,
    abandoned: &Mutex<Vec<Abandoned>>,
) -> Outcome {
    let start = Instant::now();
    if let Some(resume) = ctx.resume {
        let rk = JournalRecord::resume_key(job.cache_key.as_ref(), &job.id);
        if let Some(value) = resume.get(&rk) {
            return Outcome::Done {
                value: value.clone(),
                duration: start.elapsed(),
                cached: true,
            };
        }
    }
    if let (Some(cache), Some(key)) = (ctx.cache, job.cache_key.as_ref()) {
        if let Some(value) = cache.get(key).hit() {
            let outcome = Outcome::Done {
                value,
                duration: start.elapsed(),
                cached: true,
            };
            journal_done(ctx, job, &outcome);
            return outcome;
        }
    }
    let outcome = match opts.timeout {
        None => run_inline(job, start),
        Some(limit) => run_with_watchdog(job, start, limit, abandoned),
    };
    if let (Some(digests), Outcome::Done { value, .. }) = (ctx.resume_digests, &outcome) {
        if let (Some(&journaled), Some(fresh)) = (digests.get(&job.id), timeline_digest(value)) {
            if journaled != fresh {
                if opts.strict_resume {
                    // Divergence is an error: the fresh value is
                    // neither cached nor journaled, so the sweep exits
                    // non-zero and nothing records the ambiguous run.
                    return Outcome::Failed {
                        error: format!(
                            "strict resume: re-ran with timeline digest {fresh:016x} but \
                             the interrupted sweep journaled {journaled:016x} (model or \
                             configuration changed between sweeps)"
                        ),
                    };
                }
                eprintln!(
                    "[scu-harness] warning: cell '{}' re-ran with timeline digest \
                     {fresh:016x} but the interrupted sweep journaled {journaled:016x} \
                     (model or configuration changed between sweeps)",
                    job.id
                );
            }
        }
    }
    if let (Some(cache), Some(key), Outcome::Done { value, .. }) =
        (ctx.cache, job.cache_key.as_ref(), &outcome)
    {
        if let Err(e) = cache.put(key, value) {
            // A write failure degrades caching, not correctness.
            eprintln!("[scu-harness] cache store failed for '{}': {e}", job.id);
        }
    }
    journal_done(ctx, job, &outcome);
    outcome
}

/// The per-cell timeline digest, when the result value carries one.
fn timeline_digest(value: &Value) -> Option<u64> {
    value.get("timeline_digest").and_then(Value::as_u64)
}

/// Appends a completion to the journal, degrading on failure.
fn journal_done(ctx: &ExecContext<'_>, job: &Job, outcome: &Outcome) {
    let (Some(journal), Outcome::Done { value, .. }) = (ctx.journal, outcome) else {
        return;
    };
    let record = JournalRecord {
        key: job.cache_key.clone(),
        id: job.id.clone(),
        value: value.clone(),
        digest: timeline_digest(value),
    };
    if let Err(e) = journal.journal_append(&record) {
        // A short journal only costs recomputation on resume.
        eprintln!("[scu-harness] journal append failed for '{}': {e}", job.id);
    }
}

fn run_inline(job: &Job, start: Instant) -> Outcome {
    let work = &job.work;
    match catch_unwind(AssertUnwindSafe(|| work())) {
        Ok(value) => Outcome::Done {
            value,
            duration: start.elapsed(),
            cached: false,
        },
        Err(payload) => Outcome::Failed {
            error: panic_message(payload.as_ref()),
        },
    }
}

fn run_with_watchdog(
    job: &Job,
    start: Instant,
    limit: Duration,
    abandoned: &Mutex<Vec<Abandoned>>,
) -> Outcome {
    let work = job.work.clone();
    let finished = Arc::new(AtomicBool::new(false));
    let done_flag = Arc::clone(&finished);
    let (tx, rx) = std::sync::mpsc::channel::<Result<Value, String>>();
    let spawned = std::thread::Builder::new()
        .name(format!("scu-cell-{}", job.id))
        .spawn(move || {
            let result =
                catch_unwind(AssertUnwindSafe(|| work())).map_err(|p| panic_message(p.as_ref()));
            // The receiver may have timed out and gone away.
            let _ = tx.send(result);
            done_flag.store(true, Ordering::SeqCst);
        });
    let handle = match spawned {
        Ok(h) => h,
        // Could not get a watchdog thread; run inline instead of
        // failing the cell (the timeout is advisory, the result not).
        Err(_) => return run_inline(job, start),
    };
    match rx.recv_timeout(limit) {
        Ok(Ok(value)) => {
            let _ = handle.join();
            Outcome::Done {
                value,
                duration: start.elapsed(),
                cached: false,
            }
        }
        Ok(Err(error)) => {
            let _ = handle.join();
            Outcome::Failed { error }
        }
        Err(RecvTimeoutError::Timeout) => {
            // Abandon the cell thread — it cannot be killed — but track
            // it so the sweep can reclaim or count it at the end.
            lock_unpoisoned(abandoned, "abandoned threads").push(Abandoned { handle, finished });
            Outcome::TimedOut { limit }
        }
        Err(RecvTimeoutError::Disconnected) => Outcome::Failed {
            error: "cell thread vanished without reporting".to_string(),
        },
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;
    use crate::progress::Progress;

    fn silent() -> Progress {
        Progress::silent(0)
    }

    fn run(jobs: &[Job], workers: usize) -> Vec<Outcome> {
        execute(
            jobs,
            &ExecContext::default(),
            &ExecOptions {
                jobs: workers,
                ..ExecOptions::default()
            },
            &silent(),
        )
        .outcomes
    }

    #[test]
    fn outcomes_are_in_insertion_order_regardless_of_parallelism() {
        let build = || -> Vec<Job> {
            (0..40u64)
                .map(|i| {
                    // Reverse sleep pattern: later jobs finish earlier.
                    Job::new(format!("job-{i}"), move || {
                        std::thread::sleep(Duration::from_micros(40 - i));
                        Value::U64(i * i)
                    })
                })
                .collect()
        };
        let seq: Vec<Outcome> = run(&build(), 1);
        let par: Vec<Outcome> = run(&build(), 8);
        let values = |v: &[Outcome]| -> Vec<Value> {
            v.iter().map(|o| o.value().unwrap().clone()).collect()
        };
        assert_eq!(values(&seq), values(&par));
        assert_eq!(values(&seq)[3], Value::U64(9));
    }

    #[test]
    fn panicking_job_fails_alone() {
        let runs = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&runs);
        let jobs = vec![
            Job::new("ok-1", || Value::U64(1)),
            Job::new("bad", move || {
                r.fetch_add(1, Ordering::SeqCst);
                panic!("deliberate cell failure")
            }),
            Job::new("ok-2", || Value::U64(2)),
        ];
        let out = run(&jobs, 4);
        assert!(out[0].is_done());
        assert!(matches!(&out[1], Outcome::Failed { error } if error.contains("deliberate")));
        assert!(out[2].is_done());
        assert_eq!(runs.load(Ordering::SeqCst), 1, "a failed job is not rerun");
    }

    #[test]
    fn timeout_marks_cell_without_aborting_sweep_and_counts_the_leak() {
        let jobs = vec![
            Job::new("slow", || {
                std::thread::sleep(Duration::from_secs(5));
                Value::Null
            }),
            Job::new("fast", || Value::U64(7)),
        ];
        let opts = ExecOptions {
            jobs: 2,
            timeout: Some(Duration::from_millis(30)),
            ..ExecOptions::default()
        };
        let result = execute(&jobs, &ExecContext::default(), &opts, &silent());
        assert!(matches!(result.outcomes[0], Outcome::TimedOut { .. }));
        assert_eq!(result.outcomes[1].value(), Some(&Value::U64(7)));
        assert_eq!(
            result.leaked_threads, 1,
            "the abandoned 5 s cell thread outlives the sweep"
        );
    }

    #[test]
    fn abandoned_thread_that_finishes_is_reclaimed_not_leaked() {
        let mut jobs = vec![Job::new("brief-overrun", || {
            std::thread::sleep(Duration::from_millis(60));
            Value::Null
        })];
        // Enough in-budget jobs to keep the sweep alive past the
        // abandoned cell's 60 ms, so it finishes and can be joined.
        for i in 0..10u64 {
            jobs.push(Job::new(format!("quick-{i}"), move || {
                std::thread::sleep(Duration::from_millis(15));
                Value::U64(i)
            }));
        }
        let opts = ExecOptions {
            jobs: 1,
            timeout: Some(Duration::from_millis(30)),
            ..ExecOptions::default()
        };
        let result = execute(&jobs, &ExecContext::default(), &opts, &silent());
        assert!(matches!(result.outcomes[0], Outcome::TimedOut { .. }));
        assert_eq!(result.leaked_threads, 0, "finished strays are joined");
    }

    #[test]
    fn cancel_drains_in_flight_and_marks_the_rest_cancelled() {
        let cancel = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&cancel);
        let mut jobs = vec![Job::new("trigger", move || {
            flag.store(true, Ordering::SeqCst);
            Value::U64(1)
        })];
        for i in 1..5u64 {
            jobs.push(Job::new(format!("never-{i}"), move || Value::U64(i)));
        }
        let ctx = ExecContext {
            cancel: Some(&cancel),
            ..ExecContext::default()
        };
        let out = execute(
            &jobs,
            &ctx,
            &ExecOptions {
                jobs: 1,
                ..ExecOptions::default()
            },
            &silent(),
        )
        .outcomes;
        assert!(out[0].is_done(), "in-flight job drains to completion");
        for o in &out[1..] {
            assert_eq!(o, &Outcome::Cancelled);
        }
    }

    #[test]
    fn resume_map_pre_resolves_without_running() {
        let ran = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&ran);
        let key = Value::Str("resume-key".into());
        let jobs = vec![Job::new("resumable", move || {
            flag.store(true, Ordering::SeqCst);
            Value::U64(0)
        })
        .with_cache_key(key.clone())];
        let mut resume = HashMap::new();
        resume.insert(
            JournalRecord::resume_key(Some(&key), "resumable"),
            Value::U64(99),
        );
        let ctx = ExecContext {
            resume: Some(&resume),
            ..ExecContext::default()
        };
        let out = execute(&jobs, &ctx, &ExecOptions::default(), &silent()).outcomes;
        assert_eq!(out[0].value(), Some(&Value::U64(99)));
        assert!(out[0].is_cached());
        assert!(!ran.load(Ordering::SeqCst), "journaled cell must not rerun");
    }

    fn digest_cell() -> Vec<Job> {
        vec![Job::new("cell", || {
            Value::Object(vec![("timeline_digest".into(), Value::U64(0xbeef))])
        })
        .with_cache_key(Value::Str("new-model-key".into()))]
    }

    #[test]
    fn rerun_cell_with_mismatched_journal_digest_warns_but_completes() {
        // The cell's cache key changed between sweeps (e.g. a model
        // bump), so the resume map misses and it re-runs; its fresh
        // digest disagrees with the journaled one. The outcome must
        // still be Done — the mismatch is diagnostic only.
        let resume = HashMap::new(); // no resume match -> re-run
        let mut digests = HashMap::new();
        digests.insert("cell".to_string(), 0xdeadu64);
        let ctx = ExecContext {
            resume: Some(&resume),
            resume_digests: Some(&digests),
            ..ExecContext::default()
        };
        let out = execute(&digest_cell(), &ctx, &ExecOptions::default(), &silent()).outcomes;
        assert!(out[0].is_done(), "digest mismatch must not fail the cell");
        assert!(!out[0].is_cached());
    }

    #[test]
    fn strict_resume_fails_the_cell_on_digest_mismatch() {
        let resume = HashMap::new();
        let mut digests = HashMap::new();
        digests.insert("cell".to_string(), 0xdeadu64);
        let ctx = ExecContext {
            resume: Some(&resume),
            resume_digests: Some(&digests),
            ..ExecContext::default()
        };
        let opts = ExecOptions {
            strict_resume: true,
            ..ExecOptions::default()
        };
        let out = execute(&digest_cell(), &ctx, &opts, &silent()).outcomes;
        match &out[0] {
            Outcome::Failed { error } => {
                assert!(error.contains("strict resume"), "got: {error}");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        // A matching digest passes untouched under strict mode.
        digests.insert("cell".to_string(), 0xbeefu64);
        let ctx = ExecContext {
            resume: Some(&resume),
            resume_digests: Some(&digests),
            ..ExecContext::default()
        };
        let out = execute(&digest_cell(), &ctx, &opts, &silent()).outcomes;
        assert!(out[0].is_done());
    }

    #[test]
    fn cache_round_trip_through_executor() {
        let _sites = crate::failpoint::serial_store_sites();
        let dir =
            std::env::temp_dir().join(format!("scu-harness-exec-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = crate::open_store(&dir).unwrap();
        let key = Value::Str("cell-key".into());
        let build = |key: Value| vec![Job::new("cell", || Value::U64(99)).with_cache_key(key)];
        let ctx = ExecContext {
            cache: Some(&cache),
            ..ExecContext::default()
        };
        let first = execute(
            &build(key.clone()),
            &ctx,
            &ExecOptions::default(),
            &silent(),
        )
        .outcomes;
        assert!(first[0].is_done() && !first[0].is_cached());
        let second = execute(&build(key), &ctx, &ExecOptions::default(), &silent()).outcomes;
        assert!(second[0].is_cached());
        assert_eq!(second[0].value(), first[0].value());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_records_completions_as_they_happen() {
        let _sites = crate::failpoint::serial_store_sites();
        let dir = std::env::temp_dir().join(format!("scu-harness-exec-jnl-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let journal = crate::open_store(dir.join("journal")).unwrap();
        journal.begin_sweep(false).unwrap();
        let jobs = vec![
            Job::new("ok", || Value::U64(5)).with_cache_key(Value::U64(1)),
            Job::new("bad", || panic!("no journal entry for me")),
        ];
        let ctx = ExecContext {
            journal: Some(&journal),
            ..ExecContext::default()
        };
        execute(&jobs, &ctx, &ExecOptions::default(), &silent());
        let state = journal.resume_state().unwrap();
        assert_eq!(state.values.len(), 1, "only completions are journaled");
        assert_eq!(
            state
                .values
                .get(&JournalRecord::resume_key(Some(&Value::U64(1)), "ok")),
            Some(&Value::U64(5))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_job_list_is_a_no_op() {
        assert!(run(&[], 4).is_empty());
    }

    #[test]
    fn oversized_jobs_clamp_to_the_job_count() {
        let jobs: Vec<Job> = (0..6u64)
            .map(|i| Job::new(format!("j{i}"), move || Value::U64(i)))
            .collect();
        let opts = ExecOptions {
            jobs: usize::MAX,
            ..ExecOptions::default()
        };
        let out = execute(&jobs, &ExecContext::default(), &opts, &silent()).outcomes;
        assert_eq!(out.len(), 6);
        assert!(out.iter().all(Outcome::is_done));
    }
}

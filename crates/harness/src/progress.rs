//! Live progress lines and the end-of-sweep summary.

use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::error::lock_unpoisoned;
use crate::job::{Job, Outcome};

/// One per-job completion, as delivered to a progress observer — the
/// hook the sweep server streams to its clients.
#[derive(Debug, Clone, Copy)]
pub struct ProgressEvent<'a> {
    /// 1-based completion sequence number (completion order, not
    /// insertion order).
    pub seq: usize,
    /// Jobs in the sweep.
    pub total: usize,
    /// The job's id.
    pub id: &'a str,
    /// How the job ended, value included.
    pub outcome: &'a Outcome,
    /// Completions per second over the sweep so far.
    pub cells_per_sec: f64,
    /// Projected time to finish the remaining jobs at the current
    /// rate; `None` once everything finished.
    pub eta: Option<Duration>,
}

/// Callback invoked on every job completion, from worker threads.
pub type ProgressObserver = Arc<dyn Fn(&ProgressEvent<'_>) + Send + Sync>;

/// Where per-job completion lines go. Thread-safe; shared by all
/// workers.
pub struct Progress {
    total: usize,
    finished: AtomicUsize,
    start: Instant,
    to_stderr: bool,
    file: Option<Mutex<File>>,
    observer: Option<ProgressObserver>,
}

impl Progress {
    /// Reports nothing (unit tests, library use).
    pub fn silent(total: usize) -> Self {
        Progress {
            total,
            finished: AtomicUsize::new(0),
            start: Instant::now(),
            to_stderr: false,
            file: None,
            observer: None,
        }
    }

    /// Narrates each completion on stderr, like the sequential
    /// reproduction did.
    pub fn stderr(total: usize) -> Self {
        Progress {
            to_stderr: true,
            ..Progress::silent(total)
        }
    }

    /// Additionally appends each line to `path` (the live progress
    /// file under `results/`). Truncates any previous content.
    pub fn with_file(mut self, path: &Path) -> std::io::Result<Self> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        self.file = Some(Mutex::new(File::create(path)?));
        Ok(self)
    }

    /// Additionally delivers every completion to `observer`, from
    /// whichever worker thread finished the job.
    pub fn with_observer(mut self, observer: ProgressObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Throughput over the sweep so far: completions per second and
    /// the projected time to drain the remainder at that rate.
    fn throughput(&self, finished: usize) -> (f64, Option<Duration>) {
        let elapsed = self.start.elapsed().as_secs_f64().max(1e-9);
        let rate = finished as f64 / elapsed;
        let remaining = self.total.saturating_sub(finished);
        let eta =
            (remaining > 0 && rate > 0.0).then(|| Duration::from_secs_f64(remaining as f64 / rate));
        (rate, eta)
    }

    /// Records one finished job and emits its line.
    pub fn job_finished(&self, id: &str, outcome: &Outcome) {
        let n = self.finished.fetch_add(1, Ordering::Relaxed) + 1;
        let (cells_per_sec, eta) = self.throughput(n);
        if let Some(observer) = &self.observer {
            observer(&ProgressEvent {
                seq: n,
                total: self.total,
                id,
                outcome,
                cells_per_sec,
                eta,
            });
        }
        if !self.to_stderr && self.file.is_none() {
            return;
        }
        // The pace suffix turns a silent multi-minute sweep into a
        // live dashboard line: how fast cells land, when it will end.
        let pace = match eta {
            Some(eta) => format!(" [{cells_per_sec:.1} cells/s, ETA {}]", fmt_duration(eta)),
            None => format!(" [{cells_per_sec:.1} cells/s]"),
        };
        let line = match outcome {
            Outcome::Done {
                duration, cached, ..
            } => format!(
                "[{n}/{}] {id} {} ({}){pace}",
                self.total,
                if *cached { "cached" } else { "done" },
                fmt_duration(*duration),
            ),
            Outcome::Failed { error } => {
                let first = error.lines().next().unwrap_or("");
                format!("[{n}/{}] {id} FAILED: {first}", self.total)
            }
            Outcome::TimedOut { limit } => {
                format!(
                    "[{n}/{}] {id} TIMED-OUT after {}",
                    self.total,
                    fmt_duration(*limit)
                )
            }
            Outcome::Cancelled => {
                format!("[{n}/{}] {id} cancelled (sweep interrupted)", self.total)
            }
        };
        if self.to_stderr {
            eprintln!("{line}");
        }
        if let Some(file) = &self.file {
            let mut file = lock_unpoisoned(file, "progress file");
            let _ = writeln!(file, "{line}");
        }
    }

    /// Time since the progress tracker was created.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

/// Everything worth saying after a sweep.
#[derive(Debug, Clone)]
pub struct SweepSummary {
    /// Jobs in the sweep.
    pub total: usize,
    /// Jobs that completed (fresh or cached).
    pub done: usize,
    /// Completions served from the result cache.
    pub cached: usize,
    /// `(job id, panic message)` for each failed job.
    pub failed: Vec<(String, String)>,
    /// Ids of jobs that exceeded the wall-clock budget.
    pub timed_out: Vec<String>,
    /// Ids of jobs never started because the sweep was interrupted.
    pub cancelled: Vec<String>,
    /// Timed-out cell threads still running when the sweep ended.
    pub leaked_threads: usize,
    /// Wall-clock time of the whole sweep.
    pub wall: Duration,
    /// Sum of per-job compute durations (fresh completions only) —
    /// `cell_time / wall` approximates achieved parallelism.
    pub cell_time: Duration,
    /// The slowest fresh completions, `(job id, duration)`,
    /// descending; at most five.
    pub slowest: Vec<(String, Duration)>,
}

impl SweepSummary {
    /// Folds per-job outcomes into a summary. `leaked_threads` comes
    /// from the executor's end-of-sweep accounting of abandoned
    /// (timed-out) cell threads.
    pub fn new(jobs: &[Job], outcomes: &[Outcome], wall: Duration, leaked_threads: usize) -> Self {
        assert_eq!(jobs.len(), outcomes.len());
        let mut s = SweepSummary {
            total: outcomes.len(),
            done: 0,
            cached: 0,
            failed: Vec::new(),
            timed_out: Vec::new(),
            cancelled: Vec::new(),
            leaked_threads,
            wall,
            cell_time: Duration::ZERO,
            slowest: Vec::new(),
        };
        let mut durations: Vec<(String, Duration)> = Vec::new();
        for (job, outcome) in jobs.iter().zip(outcomes) {
            match outcome {
                Outcome::Done {
                    duration, cached, ..
                } => {
                    s.done += 1;
                    if *cached {
                        s.cached += 1;
                    } else {
                        s.cell_time += *duration;
                        durations.push((job.id.clone(), *duration));
                    }
                }
                Outcome::Failed { error, .. } => s.failed.push((job.id.clone(), error.clone())),
                Outcome::TimedOut { .. } => s.timed_out.push(job.id.clone()),
                Outcome::Cancelled => s.cancelled.push(job.id.clone()),
            }
        }
        durations.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        durations.truncate(5);
        s.slowest = durations;
        s
    }

    /// Whether every job completed.
    pub fn all_done(&self) -> bool {
        self.done == self.total
    }

    /// Whether every completion came from the cache.
    pub fn fully_cached(&self) -> bool {
        self.all_done() && self.cached == self.total
    }

    /// Multi-line human-readable rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "sweep: {}/{} cells done ({} from cache) in {}",
            self.done,
            self.total,
            self.cached,
            fmt_duration(self.wall),
        ));
        if self.cell_time > Duration::ZERO {
            out.push_str(&format!(
                " — {} of cell compute ({:.1}x parallel)",
                fmt_duration(self.cell_time),
                self.cell_time.as_secs_f64() / self.wall.as_secs_f64().max(1e-9),
            ));
        }
        out.push('\n');
        if self.leaked_threads > 0 {
            out.push_str(&format!(
                "leaked threads: {} timed-out cell(s) still running at sweep end\n",
                self.leaked_threads
            ));
        }
        if !self.slowest.is_empty() {
            out.push_str("slowest cells:\n");
            for (id, d) in &self.slowest {
                out.push_str(&format!("  {:<44} {}\n", id, fmt_duration(*d)));
            }
        }
        for (id, err) in &self.failed {
            out.push_str(&format!(
                "FAILED    {id}: {}\n",
                err.lines().next().unwrap_or("")
            ));
        }
        for id in &self.timed_out {
            out.push_str(&format!("TIMED-OUT {id}\n"));
        }
        if !self.cancelled.is_empty() {
            out.push_str(&format!(
                "cancelled {} cell(s) (sweep interrupted; rerun with --resume)\n",
                self.cancelled.len()
            ));
        }
        out
    }

    /// Whether the sweep was interrupted before completing.
    pub fn was_interrupted(&self) -> bool {
        !self.cancelled.is_empty()
    }
}

fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s < 0.001 {
        format!("{:.0} us", s * 1e6)
    } else if s < 1.0 {
        format!("{:.1} ms", s * 1e3)
    } else if s < 120.0 {
        format!("{s:.2} s")
    } else {
        format!("{:.1} min", s / 60.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn jobs(ids: &[&str]) -> Vec<Job> {
        ids.iter().map(|&id| Job::new(id, || Value::Null)).collect()
    }

    #[test]
    fn summary_counts_every_outcome_kind() {
        let g = jobs(&["a", "b", "c", "d", "e"]);
        let outcomes = vec![
            Outcome::Done {
                value: Value::Null,
                duration: Duration::from_secs(2),
                cached: false,
            },
            Outcome::Done {
                value: Value::Null,
                duration: Duration::from_millis(1),
                cached: true,
            },
            Outcome::Failed {
                error: "boom\nbacktrace".into(),
            },
            Outcome::TimedOut {
                limit: Duration::from_secs(1),
            },
            Outcome::Cancelled,
        ];
        let s = SweepSummary::new(&g, &outcomes, Duration::from_secs(3), 1);
        assert_eq!((s.total, s.done, s.cached), (5, 2, 1));
        assert_eq!(
            s.failed,
            vec![("c".to_string(), "boom\nbacktrace".to_string())]
        );
        assert_eq!(s.timed_out, vec!["d".to_string()]);
        assert_eq!(s.cancelled, vec!["e".to_string()]);
        assert_eq!(s.leaked_threads, 1);
        assert_eq!(s.cell_time, Duration::from_secs(2));
        assert!(!s.all_done());
        assert!(s.was_interrupted());
        let text = s.render();
        assert!(text.contains("2/5"));
        assert!(text.contains("FAILED    c: boom"));
        assert!(text.contains("TIMED-OUT d"));
        assert!(text.contains("leaked threads: 1"));
        assert!(text.contains("cancelled 1 cell(s)"));
        assert!(
            !text.contains("backtrace"),
            "only first line of panic shown"
        );
    }

    #[test]
    fn fully_cached_detection() {
        let g = jobs(&["a"]);
        let outcomes = vec![Outcome::Done {
            value: Value::Null,
            duration: Duration::ZERO,
            cached: true,
        }];
        let s = SweepSummary::new(&g, &outcomes, Duration::from_millis(1), 0);
        assert!(s.fully_cached());
        assert!(!s.was_interrupted());
    }

    #[test]
    fn slowest_is_sorted_and_capped() {
        let g = jobs(&["a", "b", "c", "d", "e", "f", "g"]);
        let outcomes: Vec<Outcome> = (0..7)
            .map(|i| Outcome::Done {
                value: Value::Null,
                duration: Duration::from_millis(100 - i),
                cached: false,
            })
            .collect();
        let s = SweepSummary::new(&g, &outcomes, Duration::from_secs(1), 0);
        assert_eq!(s.slowest.len(), 5);
        assert_eq!(s.slowest[0].0, "a");
        assert!(s.slowest.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn progress_writes_file_lines() {
        let path =
            std::env::temp_dir().join(format!("scu-harness-progress-{}.txt", std::process::id()));
        let p = Progress::silent(2).with_file(&path).unwrap();
        p.job_finished(
            "cell-a",
            &Outcome::Done {
                value: Value::Null,
                duration: Duration::ZERO,
                cached: false,
            },
        );
        p.job_finished(
            "cell-b",
            &Outcome::Failed {
                error: "why".into(),
            },
        );
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("[1/2] cell-a done"));
        assert!(text.contains("[2/2] cell-b FAILED: why"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn observer_sees_the_outcome_itself() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let p = Progress::silent(1).with_observer(Arc::new(move |e: &ProgressEvent<'_>| {
            lock_unpoisoned(&sink, "seen").push((e.seq, e.id.to_string(), e.outcome.clone()));
        }));
        let outcome = Outcome::Done {
            value: Value::U64(7),
            duration: Duration::ZERO,
            cached: true,
        };
        p.job_finished("cell-a", &outcome);
        assert_eq!(
            *lock_unpoisoned(&seen, "seen"),
            vec![(1, "cell-a".to_string(), outcome)]
        );
    }
}

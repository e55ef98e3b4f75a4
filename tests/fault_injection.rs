//! Fault-injection integration tests: failpoints driving every
//! [`Outcome`] variant through the real harness, crash-resume through
//! the journal, and cache-corruption quarantine.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use scu::bench::experiments::matrix::Matrix;
use scu::bench::ExperimentConfig;
use scu_algos::runner::Mode;
use scu_harness::{cancel, failpoint, Harness, Job, Outcome, ResultStore};
use scu_store::record::{read_frame, JournalRecord, Record};
use serde_json::Value;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scu-fault-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tiny() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::tiny();
    cfg.scale = 1.0 / 256.0;
    cfg
}

/// Tests arming the *global* `cell-run` site (or the global cancel
/// flag) serialise on this lock; tests using private site names run
/// freely in parallel.
fn global_sites() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

const MODES: [Mode; 2] = [Mode::GpuBaseline, Mode::ScuEnhanced];

fn matrix_fnvs(m: &Matrix) -> Vec<(String, u64)> {
    m.entries()
        .iter()
        .map(|e| {
            (
                format!(
                    "{}/{}/{}/{}",
                    e.algo.name(),
                    e.dataset.name(),
                    e.system.name(),
                    e.mode.name()
                ),
                e.values_fnv,
            )
        })
        .collect()
}

#[test]
fn failpoints_drive_every_outcome_variant() {
    let _fp = failpoint::scoped("it-fail=panic(injected hard fault);it-slow=delay(400)");
    let fail_runs = Arc::new(AtomicU32::new(0));
    let runs = Arc::clone(&fail_runs);
    let jobs = vec![
        Job::new("ok", || {
            failpoint::apply("it-ok-unarmed");
            Value::U64(1)
        }),
        Job::new("fail", move || {
            runs.fetch_add(1, Ordering::SeqCst);
            failpoint::apply("it-fail");
            Value::U64(2)
        }),
        Job::new("slow", || {
            failpoint::apply("it-slow");
            Value::U64(3)
        }),
    ];
    let sweep = Harness::new()
        .jobs(2)
        .timeout(std::time::Duration::from_millis(80))
        .run(&jobs);

    assert_eq!(sweep.outcomes[0].value(), Some(&Value::U64(1)));
    match &sweep.outcomes[1] {
        Outcome::Failed { error } => assert!(error.contains("injected hard fault")),
        other => panic!("fail: unexpected outcome {other:?}"),
    }
    assert_eq!(
        fail_runs.load(Ordering::SeqCst),
        1,
        "a deterministic failure is not rerun"
    );
    // "slow" sleeps 400 ms against an 80 ms budget.
    assert!(matches!(sweep.outcomes[2], Outcome::TimedOut { .. }));
    assert_eq!(sweep.summary.done, 1);
    assert_eq!(sweep.summary.failed.len(), 1);
    assert_eq!(sweep.summary.timed_out, vec!["slow".to_string()]);
}

#[test]
fn sigint_style_cancellation_drains_and_resume_finishes() {
    let _guard = global_sites();
    cancel::reset();
    let journal = scratch("cancel").join("journal");

    // First sweep: the third cell raises the cancel flag mid-run, as
    // the SIGINT handler would; with one worker the rest never start.
    let build = |trigger: bool| -> Vec<Job> {
        (0..6u64)
            .map(|i| {
                let key = Value::Object(vec![("cancel-cell".into(), Value::U64(i))]);
                Job::new(format!("cell-{i}"), move || {
                    if trigger && i == 2 {
                        cancel::cancel();
                    }
                    Value::U64(i * i)
                })
                .with_cache_key(key)
            })
            .collect()
    };
    let first = Harness::new()
        .jobs(1)
        .journal_dir(&journal)
        .handle_sigint(true)
        .run(&build(true));
    assert!(first.summary.was_interrupted());
    assert_eq!(first.summary.done, 3, "in-flight cells drained");
    assert_eq!(first.summary.cancelled.len(), 3);
    cancel::reset();

    // Resume: journaled cells are pre-resolved, the rest run now.
    let resumed = Harness::new()
        .jobs(1)
        .journal_dir(&journal)
        .resume(true)
        .run(&build(false));
    assert!(resumed.summary.all_done());
    assert_eq!(resumed.summary.cached, 3, "journaled cells not re-run");
    for (i, o) in resumed.outcomes.iter().enumerate() {
        assert_eq!(o.value(), Some(&Value::U64((i * i) as u64)));
    }
    let _ = std::fs::remove_dir_all(journal.parent().unwrap());
}

#[test]
fn interrupted_matrix_resumes_to_byte_identical_results() {
    let _guard = global_sites();
    let dir = scratch("resume-matrix");
    let journal = dir.join("journal");
    let cfg = tiny();

    // Reference: one clean uninterrupted sweep.
    let (reference, s) = Matrix::collect_with(&cfg, &MODES, &Harness::new().jobs(2), Some("BFS/"));
    assert!(s.summary.all_done());

    // "Interrupted" sweep: every cell-run past the 4th panics, so the
    // journal holds only a prefix — the moral equivalent of a kill.
    {
        let _fp = failpoint::scoped("cell-run=panic(injected kill)@5+");
        let (_, broken) = Matrix::collect_with(
            &cfg,
            &MODES,
            &Harness::new().jobs(1).journal_dir(&journal),
            Some("BFS/"),
        );
        assert!(!broken.summary.all_done());
        assert_eq!(broken.summary.done, 4);
    }

    // Resume with the fault gone: only the missing cells execute, and
    // the grid comes back identical to the uninterrupted reference.
    let (resumed, s2) = Matrix::collect_with(
        &cfg,
        &MODES,
        &Harness::new().jobs(2).journal_dir(&journal).resume(true),
        Some("BFS/"),
    );
    assert!(s2.summary.all_done());
    assert_eq!(s2.summary.cached, 4, "journaled prefix served, not re-run");
    assert_eq!(matrix_fnvs(&reference), matrix_fnvs(&resumed));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_cache_blob_is_quarantined_and_recomputed() {
    let dir = scratch("quarantine");
    let key = |i: u64| Value::Object(vec![("q-cell".into(), Value::U64(i))]);
    let runs = Arc::new(AtomicU32::new(0));
    let build = || -> Vec<Job> {
        (0..6u64)
            .map(|i| {
                let runs = Arc::clone(&runs);
                Job::new(format!("q-{i}"), move || {
                    runs.fetch_add(1, Ordering::SeqCst);
                    Value::Object(vec![("metric".into(), Value::U64(i * 7))])
                })
                .with_cache_key(key(i))
            })
            .collect()
    };
    let values = |s: &scu_harness::Sweep| -> Vec<Value> {
        s.outcomes
            .iter()
            .map(|o| o.value().unwrap().clone())
            .collect()
    };
    let harness = Harness::new().jobs(2).cache_dir(&dir);
    let cold = harness.run(&build());
    assert!(cold.summary.all_done());
    assert_eq!(runs.load(Ordering::SeqCst), 6);

    // Seal the values into a segment, then flip one byte inside the
    // value of cell 3's frame.
    scu_harness::open_store(&dir).unwrap().flush().unwrap();
    let seg = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "seg"))
        .expect("a sealed segment");
    let mut bytes = std::fs::read(&seg).unwrap();
    let index_off = u64::from_le_bytes(bytes[bytes.len() - 24..][..8].try_into().unwrap());
    let victim = JournalRecord::resume_key(Some(&key(3)), "");
    let mut offset = 16;
    let value_end = loop {
        let (body, next) = read_frame(&bytes[..index_off as usize], offset).unwrap();
        if Record::decode_body(body).unwrap().rk == victim {
            break next;
        }
        offset = next;
    };
    bytes[value_end - 1] ^= 0x20;
    std::fs::write(&seg, &bytes).unwrap();

    // The damaged cell reads as a miss, is quarantined and recomputes;
    // the sweep's output does not change.
    let warm = harness.run(&build());
    assert!(warm.summary.all_done());
    assert_eq!(values(&warm), values(&cold));
    assert_eq!(
        runs.load(Ordering::SeqCst),
        7,
        "only the damaged cell re-ran"
    );
    assert!(!warm.outcomes[3].is_cached());
    assert_eq!(warm.summary.cached, 5);
    assert_eq!(warm.cache_stats.quarantined, 1);
    assert_eq!(
        std::fs::read_dir(dir.join("quarantine")).unwrap().count(),
        1
    );

    // The recomputed value supersedes the damaged record.
    let again = harness.run(&build());
    assert!(again.summary.fully_cached());
    assert_eq!(values(&again), values(&cold));
    assert_eq!(runs.load(Ordering::SeqCst), 7);
    let _ = std::fs::remove_dir_all(&dir);
}

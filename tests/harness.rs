//! Integration tests for the parallel experiment harness: the
//! determinism, fault-isolation, and caching guarantees the
//! reproduction binaries rely on.

use std::path::PathBuf;

use scu::bench::experiments::matrix::Matrix;
use scu::bench::ExperimentConfig;
use scu_algos::runner::Mode;
use scu_harness::{Harness, Job, Outcome};
use serde_json::Value;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scu-harness-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tiny() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::tiny();
    cfg.scale = 1.0 / 256.0;
    cfg
}

const MODES: [Mode; 2] = [Mode::GpuBaseline, Mode::ScuEnhanced];

/// Serialises a matrix the way `export_json` does — the byte stream
/// that must not depend on scheduling.
fn matrix_bytes(m: &Matrix) -> String {
    let rows: Vec<Value> = m
        .entries()
        .iter()
        .map(|e| {
            Value::Object(vec![
                (
                    "cell".to_string(),
                    Value::Str(format!(
                        "{}/{}/{}/{}",
                        e.algo.name(),
                        e.dataset.name(),
                        e.system.name(),
                        e.mode.name()
                    )),
                ),
                ("values_fnv".to_string(), Value::U64(e.values_fnv)),
                ("report".to_string(), serde_json::to_value(&e.report)),
            ])
        })
        .collect();
    serde_json::to_string_pretty(&Value::Array(rows)).unwrap()
}

#[test]
fn parallel_sweep_is_byte_identical_to_sequential() {
    let cfg = tiny();
    let (seq, s1) = Matrix::collect_with(&cfg, &MODES, &Harness::new().jobs(1), None);
    let (par, s2) = Matrix::collect_with(&cfg, &MODES, &Harness::new().jobs(8), None);
    assert!(s1.summary.all_done() && s2.summary.all_done());
    assert_eq!(seq.entries().len(), par.entries().len());
    assert_eq!(matrix_bytes(&seq), matrix_bytes(&par));
}

#[test]
fn panicking_cell_fails_alone_and_the_sweep_completes() {
    let jobs: Vec<Job> = (0..8u64)
        .map(|i| {
            if i == 3 {
                Job::new("cell-3", || panic!("injected cell fault"))
            } else {
                Job::new(format!("cell-{i}"), move || Value::U64(i))
            }
        })
        .collect();
    let sweep = Harness::new().jobs(4).run(&jobs);
    assert_eq!(sweep.summary.done, 7);
    assert_eq!(sweep.summary.failed.len(), 1);
    assert_eq!(sweep.summary.failed[0].0, "cell-3");
    assert!(
        sweep.summary.failed[0].1.contains("injected cell fault"),
        "panic message captured: {:?}",
        sweep.summary.failed[0].1
    );
    for (i, outcome) in sweep.outcomes.iter().enumerate() {
        match outcome {
            Outcome::Failed { .. } => assert_eq!(i, 3),
            Outcome::Done { value, .. } => assert_eq!(value, &Value::U64(i as u64)),
            other => panic!("cell-{i}: unexpected outcome {other:?}"),
        }
    }
    let rendered = sweep.summary.render();
    assert!(rendered.contains("7/8"));
    assert!(rendered.contains("FAILED    cell-3"));
}

#[test]
fn second_run_is_served_entirely_from_cache() {
    let dir = scratch("warm-matrix");
    let cfg = tiny();
    let harness = Harness::new().jobs(4).cache_dir(&dir);
    let (cold, s_cold) = Matrix::collect_with(&cfg, &MODES, &harness, None);
    assert!(s_cold.summary.all_done());
    assert_eq!(s_cold.summary.cached, 0, "first run computes everything");
    assert_eq!(s_cold.cache_stats.stores as usize, cold.entries().len());

    let (warm, s_warm) = Matrix::collect_with(&cfg, &MODES, &harness, None);
    assert!(
        s_warm.summary.fully_cached(),
        "rerun must be 100% cache hits"
    );
    assert_eq!(s_warm.cache_stats.hits as usize, warm.entries().len());
    assert_eq!(s_warm.cache_stats.misses, 0);
    assert_eq!(
        matrix_bytes(&cold),
        matrix_bytes(&warm),
        "cache round-trip is lossless"
    );

    // A different configuration must not hit the same cache entries.
    let mut other = cfg.clone();
    other.seed += 1;
    let (_, s_other) = Matrix::collect_with(&other, &MODES, &harness, None);
    assert_eq!(
        s_other.summary.cached, 0,
        "seed participates in the cache key"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn filter_runs_only_matching_cells() {
    let cfg = tiny();
    let (m, sweep) = Matrix::collect_with(&cfg, &MODES, &Harness::new(), Some("PR/kron"));
    assert!(sweep.summary.all_done());
    assert_eq!(m.entries().len(), 4, "PR on kron: 2 systems x 2 modes");
    assert!(m
        .entries()
        .iter()
        .all(|e| e.algo.name() == "PR" && e.dataset.name() == "kron"));
}

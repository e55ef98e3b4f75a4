//! A failed cell fails alone, and `--resume` recovers it.
//!
//! Cells are deterministic, so the harness runs each one once: a panic
//! injected into one cell of a `reproduce_all` sweep leaves that cell
//! `FAILED` (exit 1) while the others complete into the journal. A
//! following `--resume` run without the fault recomputes only that
//! cell, and prints exactly what a fault-free sweep prints.

use std::path::Path;
use std::process::{Command, Output};

const SCALE: &str = "0.0009765625";

/// Runs `reproduce_all --no-cache --jobs 2 --filter BFS/kron` plus
/// `extra` in `dir`, with `failpoints` armed (or none).
fn reproduce(dir: &Path, extra: &[&str], failpoints: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_reproduce_all"));
    cmd.args(["--no-cache", "--jobs", "2", "--filter", "BFS/kron"])
        .args(extra)
        .env("SCU_SCALE", SCALE)
        .env_remove("SCU_FAILPOINTS")
        .current_dir(dir);
    if let Some(spec) = failpoints {
        cmd.env("SCU_FAILPOINTS", spec);
    }
    cmd.output().expect("reproduce_all spawns")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn a_failed_cell_fails_alone_and_resume_recomputes_only_it() {
    let dir = std::env::temp_dir().join(format!("scu-failed-cell-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let clean = reproduce(&dir, &[], None);
    assert!(clean.status.success(), "clean run: {}", stderr_of(&clean));

    let faulted = reproduce(&dir, &[], Some("cell-run=panic(injected)@1"));
    let err = stderr_of(&faulted);
    assert_eq!(faulted.status.code(), Some(1), "faulted run: {err}");
    let failed: Vec<&str> = err.lines().filter(|l| l.starts_with("FAILED")).collect();
    assert_eq!(failed.len(), 1, "exactly one cell fails: {err}");
    assert!(failed[0].contains("injected"), "{}", failed[0]);

    let resumed = reproduce(&dir, &["--resume"], None);
    let err = stderr_of(&resumed);
    assert!(resumed.status.success(), "resumed run: {err}");
    assert!(err.contains("resuming: 7 cell(s)"), "{err}");
    assert!(
        resumed.stdout == clean.stdout,
        "the resumed sweep must print what a fault-free sweep prints:\n{}\nvs\n{}",
        String::from_utf8_lossy(&resumed.stdout),
        String::from_utf8_lossy(&clean.stdout)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

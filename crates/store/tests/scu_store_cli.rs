//! The `scu_store` binary: `stat` describes a store without touching
//! it, and there is no other command.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use scu_store::manifest::segment_file_name;
use scu_store::{LsmStore, ResultStore};
use serde_json::Value;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scu-store-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn scu_store(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scu_store"))
        .args(args)
        .output()
        .expect("scu_store spawns")
}

/// Every file under `dir`, by relative path, with its bytes.
fn snapshot(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut files = BTreeMap::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(at) = pending.pop() {
        for entry in std::fs::read_dir(&at).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                pending.push(path);
            } else {
                let bytes = std::fs::read(&path).unwrap();
                files.insert(path.strip_prefix(dir).unwrap().to_path_buf(), bytes);
            }
        }
    }
    files
}

#[test]
fn stat_reports_repairs_without_making_them() {
    let dir = scratch("stat");
    {
        let store = LsmStore::open(&dir).unwrap();
        store.begin_sweep(false).unwrap();
        for n in 0..4u64 {
            let key = Value::Object(vec![("cell".into(), Value::U64(n))]);
            store
                .journal_append(&scu_store::JournalRecord {
                    key: Some(key),
                    id: format!("cell-{n}"),
                    value: Value::U64(n),
                    digest: None,
                })
                .unwrap();
        }
    }
    // Tear the last WAL frame and leave a segment no manifest names.
    let wal = dir.join("wal.log");
    let bytes = std::fs::read(&wal).unwrap();
    std::fs::write(&wal, &bytes[..bytes.len() - 7]).unwrap();
    std::fs::write(dir.join(segment_file_name(9)), b"half-written flush").unwrap();

    let before = snapshot(&dir);
    let out = scu_store(&["stat", dir.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(snapshot(&dir), before, "stat changed the directory");

    let text = String::from_utf8(out.stdout).unwrap();
    let tail = text
        .lines()
        .find_map(|l| l.strip_prefix("torn wal tail bytes:"))
        .unwrap_or_else(|| panic!("no tail line in:\n{text}"));
    let torn: u64 = tail.split_whitespace().next().unwrap().parse().unwrap();
    assert!(torn > 7, "the whole torn frame is counted: {text}");
    assert!(text.contains("stray segments:       1"), "{text}");
    assert!(text.contains(&segment_file_name(9)), "{text}");
    assert!(text.contains("resumable cells:      3"), "{text}");

    // An open makes exactly the repairs stat named.
    let store = LsmStore::open(&dir).unwrap();
    assert_eq!(store.stats().truncated_tail_bytes, torn);
    assert_eq!(store.resume_state().unwrap().values.len(), 3);
    assert!(!dir.join(segment_file_name(9)).exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stat_refuses_a_missing_directory_without_creating_it() {
    let dir = scratch("missing");
    let out = scu_store(&["stat", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(!dir.exists());
}

#[test]
fn migrate_is_an_unknown_command() {
    let out = scu_store(&["migrate", "--from", "a", "--to", "b"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command 'migrate'"));
}

//! Result directories written by older builds open with no
//! compatibility shim.
//!
//! - A store written before the functional-trace cache was removed
//!   holds kind-3 trace records, both in the write-ahead log and in
//!   flushed segments. This build has no decoder for them: such a
//!   store must still open and compact without panicking, never serve
//!   a wrong value, and a full 240-cell `export_json` over it must be
//!   byte-identical to a cold run — every cell it cannot read back
//!   simply recomputes.
//! - A `results/` tree from before the LSM store holds one
//!   `<digest>.json` envelope per cell in `results/cache` and a
//!   line-JSON `results/manifest.json`. Neither is read: the cache
//!   opens as a fresh store, and `--resume` finds nothing to resume.

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::Command;

use scu_algos::experiment::{plan_cells, ExperimentConfig, ALL_MODES};
use scu_store::record::{read_frame, JournalRecord, Record};
use scu_store::{stable_digest, GetResult, LsmOptions, LsmStore, ResultStore};
use serde_json::Value;

const SCALE: &str = "0.0009765625";

/// Runs `export_json --jobs 2` plus `extra` in `dir`; returns stdout
/// and stderr.
fn export_with(dir: &Path, extra: &[&str]) -> (Vec<u8>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_export_json"))
        .args(["--jobs", "2"])
        .args(extra)
        .env("SCU_SCALE", SCALE)
        .current_dir(dir)
        .output()
        .expect("export_json spawns");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "export_json failed: {stderr}");
    (out.stdout, stderr)
}

fn export(dir: &Path) -> Vec<u8> {
    export_with(dir, &[]).0
}

/// The cache keys of the full 240-cell matrix at [`SCALE`], with
/// their cell ids.
fn matrix_keys() -> Vec<(String, Value)> {
    let mut cfg = ExperimentConfig::from_env();
    cfg.scale = SCALE.parse().unwrap();
    let cells: Vec<(String, Value)> = plan_cells(&cfg, &ALL_MODES, None)
        .iter()
        .map(|c| (c.id(), c.cache_key()))
        .collect();
    assert_eq!(cells.len(), 240);
    cells
}

/// Every file under `dir`, by path, with its bytes.
fn snapshot(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut files = BTreeMap::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(at) = pending.pop() {
        for entry in std::fs::read_dir(&at).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                pending.push(path);
            } else {
                files.insert(path.clone(), std::fs::read(&path).unwrap());
            }
        }
    }
    files
}

/// Rewrites every frame in `bytes[start..end]` whose resume key is in
/// `rks` as the old trace kind (3), re-sealing its CRC so the frame is
/// intact and only its kind is unknown — exactly how the removed trace
/// cache wrote its records. Returns how many frames it retagged.
fn retag_as_trace(bytes: &mut [u8], start: usize, end: usize, rks: &HashSet<String>) -> usize {
    let mut offset = start;
    let mut retagged = 0;
    while offset < end {
        let (body, next) = read_frame(&bytes[..end], offset).expect("intact frame");
        let rec = Record::decode_body(body).expect("decodable frame");
        if rks.contains(&rec.rk) {
            let body_at = offset + 8;
            bytes[body_at] = 3;
            let crc = scu_store::crc::crc32(&bytes[body_at..next]);
            bytes[offset + 4..offset + 8].copy_from_slice(&crc.to_le_bytes());
            retagged += 1;
        }
        offset = next;
    }
    retagged
}

fn trace_key(n: u64) -> Value {
    Value::Object(vec![("trace".to_string(), Value::U64(n))])
}

fn rk(key: &Value) -> String {
    JournalRecord::resume_key(Some(key), "")
}

#[test]
fn stores_with_trace_records_open_cleanly_and_recompute() {
    let root = std::env::temp_dir().join(format!("scu-old-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let (cold_dir, old_dir) = (root.join("cold"), root.join("old"));
    std::fs::create_dir_all(&cold_dir).unwrap();
    std::fs::create_dir_all(old_dir.join("results")).unwrap();

    // A cold export; its store supplies the real cell values.
    let cold = export(&cold_dir);
    let keys: Vec<Value> = matrix_keys().into_iter().map(|(_, k)| k).collect();
    let values: Vec<Value> = {
        let store = LsmStore::open(cold_dir.join("results/cache")).unwrap();
        keys.iter()
            .map(|k| match store.get(k) {
                GetResult::Hit(v) => v,
                other => panic!("cold store misses a cell: {other:?}"),
            })
            .collect()
    };

    // The old store: half the cells plus trace records flushed to a
    // segment, then a trace record in the WAL ahead of the other half.
    let cache = old_dir.join("results/cache");
    let (first, second) = keys.split_at(120);
    let traces: HashSet<String> = (0..4).map(|n| rk(&trace_key(n))).collect();
    {
        let store = LsmStore::open(&cache).unwrap();
        for (k, v) in first.iter().zip(&values) {
            store.put(k, v).unwrap();
        }
        for n in 0..3 {
            store
                .put(&trace_key(n), &Value::Str("trace blob".into()))
                .unwrap();
        }
        store.flush().unwrap();
        assert_eq!(store.segment_count(), 1);
        store
            .put(&trace_key(3), &Value::Str("trace blob".into()))
            .unwrap();
        for (k, v) in second.iter().zip(&values[120..]) {
            store.put(k, v).unwrap();
        }
    }
    let seg = std::fs::read_dir(&cache)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "seg"))
        .expect("flushed segment");
    let mut bytes = std::fs::read(&seg).unwrap();
    let index_off = u64::from_le_bytes(
        bytes[bytes.len() - 24..bytes.len() - 16]
            .try_into()
            .unwrap(),
    );
    assert_eq!(
        retag_as_trace(&mut bytes, 16, index_off as usize, &traces),
        3
    );
    std::fs::write(&seg, &bytes).unwrap();
    let wal = cache.join("wal.log");
    let mut bytes = std::fs::read(&wal).unwrap();
    let end = bytes.len();
    assert_eq!(retag_as_trace(&mut bytes, 8, end, &traces), 1);
    std::fs::write(&wal, &bytes).unwrap();

    // It opens (the WAL stops at the trace record and drops the tail),
    // compacts (the segment's trace records go to quarantine), and
    // never serves anything but the true value.
    {
        let opts = LsmOptions {
            compact_min_segments: 2,
            ..LsmOptions::default()
        };
        let store = LsmStore::open_with(&cache, opts).unwrap();
        let stats = store.stats();
        assert!(stats.truncated_tail_bytes > 0, "{stats:?}");
        let mut served = 0;
        for (k, v) in keys.iter().zip(&values) {
            match store.get(k) {
                GetResult::Hit(got) => {
                    assert_eq!(&got, v);
                    served += 1;
                }
                GetResult::Miss => {}
                GetResult::Corrupt => panic!("a result read as corrupt"),
            }
        }
        assert_eq!(
            served, 120,
            "the segment's half serves, the WAL tail recomputes"
        );
        store.put(&trace_key(9), &Value::U64(9)).unwrap();
        store.flush().unwrap();
    }
    let store = LsmStore::open(&cache).unwrap();
    assert_eq!(
        store.segment_count(),
        1,
        "the two segments compacted into one"
    );
    for (k, v) in first.iter().zip(&values) {
        assert!(matches!(store.get(k), GetResult::Hit(ref got) if got == v));
    }
    drop(store);

    // A full export over the old directory reuses what it can read and
    // recomputes the rest, byte-identical to the cold run.
    assert_eq!(export(&old_dir), cold);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn blob_era_result_directories_are_ignored() {
    let root = std::env::temp_dir().join(format!("scu-blob-era-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let (cold_dir, old_dir) = (root.join("cold"), root.join("old"));
    std::fs::create_dir_all(&cold_dir).unwrap();
    let cold = export(&cold_dir);
    let cells = matrix_keys();
    let values: Vec<Value> = {
        let store = LsmStore::open(cold_dir.join("results/cache")).unwrap();
        cells
            .iter()
            .map(|(_, k)| store.get(k).hit().expect("cold store holds every cell"))
            .collect()
    };

    // The blob-era layout, written as plain files: an envelope per
    // cell named by the key's digest, and one journal line per cell.
    let canonical = |v: &Value| serde_json::to_string(v).unwrap();
    let cache = old_dir.join("results/cache");
    std::fs::create_dir_all(&cache).unwrap();
    let mut manifest = String::new();
    for ((id, key), value) in cells.iter().zip(&values) {
        let envelope = Value::Object(vec![
            ("key".into(), key.clone()),
            ("value".into(), value.clone()),
            (
                "check".into(),
                Value::Str(stable_digest(canonical(value).as_bytes())),
            ),
        ]);
        let name = format!("{}.json", stable_digest(canonical(key).as_bytes()));
        std::fs::write(cache.join(name), canonical(&envelope)).unwrap();
        let mut line = vec![
            ("key".to_string(), key.clone()),
            ("id".to_string(), Value::Str(id.clone())),
            ("value".to_string(), value.clone()),
        ];
        if let Some(d) = value.get("timeline_digest") {
            line.push(("digest".to_string(), d.clone()));
        }
        manifest.push_str(&canonical(&Value::Object(line)));
        manifest.push('\n');
    }
    std::fs::write(old_dir.join("results/manifest.json"), manifest).unwrap();

    // An uncached resume finds nothing to resume, recomputes every
    // cell, and never touches `results/cache`.
    let blobs = snapshot(&cache);
    let (uncached, stderr) = export_with(&old_dir, &["--no-cache", "--resume"]);
    assert!(!stderr.contains("resuming:"), "{stderr}");
    assert_eq!(uncached, cold);
    assert_eq!(snapshot(&cache), blobs, "--no-cache touched results/cache");
    assert!(old_dir.join("results/journal/CURRENT").exists());

    // The blob directory opens as a fresh store …
    {
        let store = LsmStore::open(&cache).unwrap();
        assert_eq!(store.segment_count(), 0);
        assert_eq!(store.stats().recovered_records, 0);
        assert!(store.resume_state().unwrap().values.is_empty());
        assert!(cells.iter().all(|(_, k)| store.get(k) == GetResult::Miss));
    }
    // … so a cached export recomputes (and stores) every cell, and is
    // byte-identical to the cold run.
    assert_eq!(export(&old_dir), cold);
    let store = LsmStore::open(&cache).unwrap();
    for ((_, k), v) in cells.iter().zip(&values) {
        assert_eq!(store.get(k).hit().as_ref(), Some(v));
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&root);
}

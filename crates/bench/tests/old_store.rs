//! A result directory written before the functional-trace cache was
//! removed holds kind-3 trace records, both in the write-ahead log and
//! in flushed segments. This build has no decoder for them and no
//! compatibility shim: such a store must still open and compact
//! without panicking, never serve a wrong value, and a full 240-cell
//! `export_json` over it must be byte-identical to a cold run — every
//! cell it cannot read back simply recomputes.

use std::collections::HashSet;
use std::path::Path;
use std::process::Command;

use scu_algos::experiment::{plan_cells, ExperimentConfig, ALL_MODES};
use scu_store::record::{read_frame, JournalRecord, Record};
use scu_store::{GetResult, LsmOptions, LsmStore, ResultStore};
use serde_json::Value;

const SCALE: &str = "0.0009765625";

fn export(dir: &Path) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_export_json"))
        .args(["--jobs", "2"])
        .env("SCU_SCALE", SCALE)
        .current_dir(dir)
        .output()
        .expect("export_json spawns");
    assert!(
        out.status.success(),
        "export_json failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
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
    let mut cfg = ExperimentConfig::from_env();
    cfg.scale = SCALE.parse().unwrap();
    let keys: Vec<Value> = plan_cells(&cfg, &ALL_MODES, None)
        .iter()
        .map(|c| c.cache_key())
        .collect();
    assert_eq!(keys.len(), 240);
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

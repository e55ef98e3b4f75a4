//! `scu-store`: the persistence layer behind SCU's result cache and
//! sweep journal.
//!
//! One trait, [`ResultStore`], captures the contract the harness and
//! server rely on — content-addressed get/put keyed by canonical JSON,
//! corruption is quarantined and reported as a miss (never served),
//! journal appends give crash-resume — and [`LsmStore`] implements it:
//! an LSM-lite layout where a CRC-framed write-ahead log doubles as the
//! journal, immutable sorted segments are memory-mapped for zero-copy
//! point reads, a `CURRENT` manifest is swapped atomically, and
//! background compaction merges segments without blocking readers or
//! writers.
//!
//! The crate deliberately depends only on the workspace's vendored
//! `serde_json` — no external crates — and hosts the stable hashing
//! ([`hash`]) that addresses store records and verifies graph
//! artifacts.

pub mod crc;
pub mod failpoints;
pub mod hash;
pub mod lsm;
pub mod manifest;
pub mod mmap;
pub mod quarantine;
pub mod record;
pub mod segment;
pub mod wal;

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};

use serde_json::Value;

pub use hash::{stable_addr, stable_digest};
pub use lsm::{LsmOptions, LsmStore};
pub use record::JournalRecord;

/// What a cache lookup found: the value itself ([`ResultStore::get`])
/// or its canonical JSON text ([`ResultStore::get_text`]).
#[derive(Debug, Clone, PartialEq)]
pub enum GetResult<T = Value> {
    /// The stored value, verified end to end.
    Hit(T),
    /// Nothing stored for this key.
    Miss,
    /// Something was stored but failed verification; it has been
    /// quarantined and must be recomputed.
    Corrupt,
}

impl<T> GetResult<T> {
    /// Applies `f` to a hit, keeping misses and corruption as they are.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> GetResult<U> {
        match self {
            GetResult::Hit(v) => GetResult::Hit(f(v)),
            GetResult::Miss => GetResult::Miss,
            GetResult::Corrupt => GetResult::Corrupt,
        }
    }

    /// The hit, if any: callers that recompute on a miss treat
    /// corruption the same way.
    pub fn hit(self) -> Option<T> {
        match self {
            GetResult::Hit(v) => Some(v),
            GetResult::Miss | GetResult::Corrupt => None,
        }
    }
}

/// Everything a resumed sweep needs from the journal: completed values
/// keyed by resume key, plus outcome digests keyed by cell id.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResumeState {
    /// Completed cell values, keyed by [`JournalRecord::resume_key`].
    pub values: HashMap<String, Value>,
    /// Outcome digests keyed by cell id (for strict-resume checking).
    pub digests: HashMap<String, u64>,
}

/// Counters a store exposes for `/metrics` and sweep summaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Verified cache hits.
    pub hits: u64,
    /// Lookups that found nothing (corrupt entries also count a miss).
    pub misses: u64,
    /// Successful stores.
    pub stores: u64,
    /// Entries quarantined since open.
    pub quarantined: u64,
    /// Files currently retained in the quarantine directory.
    pub quarantined_total: u64,
    /// WAL frames appended since open.
    pub wal_appends: u64,
    /// Segment point-reads served since open.
    pub segment_reads: u64,
    /// Background compaction passes completed.
    pub compactions: u64,
    /// Records replayed from the WAL at open.
    pub recovered_records: u64,
    /// Bytes cut off a torn WAL tail at open.
    pub truncated_tail_bytes: u64,
}

/// The single persistence seam: result cache + sweep journal.
///
/// Implementations are internally synchronised — one instance is
/// shared across worker threads (and, in the server, across batches).
/// The contract:
///
/// - `get` never returns bytes that failed verification; corruption is
///   quarantined (kept for post-mortem, bounded by a cap) and surfaces
///   as [`GetResult::Corrupt`], which callers treat as a miss.
/// - `put` is atomic: a reader sees the old entry or the new one,
///   never a torn write.
/// - `journal_append` makes a completed cell durable for resume; after
///   a crash, `resume_state` returns every cell journaled in the
///   current sweep and nothing from older sweeps.
/// - A store directory has a single writing process at a time.
pub trait ResultStore: Send + Sync + std::fmt::Debug {
    /// The directory this store lives in.
    fn dir(&self) -> &Path;

    /// Where corrupt entries are kept for post-mortem.
    fn quarantine_dir(&self) -> PathBuf;

    /// Looks up the value stored for `key`.
    fn get(&self, key: &Value) -> GetResult;

    /// Looks up the value stored for `key` as its canonical JSON text —
    /// exactly what `serde_json::to_string` prints for [`ResultStore::get`]'s
    /// value — under the same verification, quarantine and counters,
    /// without re-encoding it.
    fn get_text(&self, key: &Value) -> GetResult<String>;

    /// Stores `value` under `key`.
    ///
    /// # Errors
    ///
    /// Returns IO failures (including injected ones); callers degrade
    /// to running uncached.
    fn put(&self, key: &Value, value: &Value) -> io::Result<()>;

    /// Journals a completed cell for crash-resume.
    ///
    /// # Errors
    ///
    /// Returns IO failures; callers degrade (the sweep continues, the
    /// journal is just shorter).
    fn journal_append(&self, rec: &JournalRecord) -> io::Result<()>;

    /// Marks a sweep boundary. `resume = false` starts a fresh sweep —
    /// prior completions no longer count for resume (though cached
    /// values remain readable); `resume = true` continues the
    /// interrupted sweep.
    ///
    /// # Errors
    ///
    /// Returns IO failures from recording the boundary.
    fn begin_sweep(&self, resume: bool) -> io::Result<()>;

    /// Every completion journaled in the current sweep.
    ///
    /// # Errors
    ///
    /// Returns IO failures from reading the journal.
    fn resume_state(&self) -> io::Result<ResumeState>;

    /// Current counters.
    fn stats(&self) -> StoreStats;

    /// Forces buffered state durable (flushes the memtable into a
    /// segment).
    ///
    /// # Errors
    ///
    /// Returns IO failures from the flush.
    fn flush(&self) -> io::Result<()>;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("scu-store-lib-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn key(n: u64) -> Value {
        Value::Object(vec![("cell".into(), Value::U64(n))])
    }

    #[test]
    fn blob_directories_open_as_a_fresh_store() {
        // A directory of loose `<digest>.json` blobs, the per-file
        // layout stores used to write, is not read: it opens empty,
        // the blobs are left alone, and what the store writes sticks.
        let dir = scratch("blobs");
        std::fs::create_dir_all(&dir).unwrap();
        let blob = dir.join(format!("{}.json", stable_digest(b"{\"cell\":1}")));
        std::fs::write(&blob, r#"{"key":{"cell":1},"value":1,"check":"x"}"#).unwrap();
        let store = LsmStore::open(&dir).unwrap();
        assert_eq!(store.get(&key(1)), GetResult::Miss);
        assert!(store.resume_state().unwrap().values.is_empty());
        store.put(&key(1), &Value::U64(10)).unwrap();
        store.flush().unwrap();
        drop(store);
        let store = LsmStore::open(&dir).unwrap();
        assert_eq!(store.get(&key(1)), GetResult::Hit(Value::U64(10)));
        assert!(blob.exists(), "foreign files are not the store's to delete");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn get_text_is_the_canonical_encoding() {
        let value = Value::Object(vec![
            ("time_ns".into(), Value::F64(1.0)),
            ("label".into(), Value::Str("BFS/kron \"q\"".into())),
        ]);
        let store = LsmStore::open(scratch("text")).unwrap();
        assert_eq!(store.get_text(&key(1)), GetResult::Miss);
        store.put(&key(1), &value).unwrap();
        assert_eq!(
            store.get_text(&key(1)),
            GetResult::Hit(serde_json::to_string(&value).unwrap())
        );
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn stats_default_is_all_zero() {
        let stats = StoreStats::default();
        assert_eq!(stats.hits + stats.misses + stats.stores, 0);
    }
}

//! Content-addressed result cache — the harness-side front door to
//! [`scu_store::ResultStore`].
//!
//! Historically this module *was* the storage: one JSON blob per entry
//! named by the stable digest of the key's canonical serialisation.
//! That layout now lives in `scu_store::LegacyStore`; the default for
//! new directories is `scu_store::LsmStore` (WAL + mmap segments), and
//! [`ResultCache::open`] auto-detects which one a directory holds, so
//! existing result trees keep working unconverted.
//!
//! The guarantees are the trait's, unchanged from the blob era:
//!
//! - **Corruption-proof reads**: a truncated, flipped, or hand-edited
//!   entry is detected (key check + value digest in the legacy layout;
//!   CRC-framed records in the LSM layout), **quarantined** into
//!   `<dir>/quarantine/` (bounded — oldest evicted beyond a cap) and
//!   reads as a miss. Never a third outcome.
//! - **Atomic writes**: temp-file rename (legacy) or WAL append + an
//!   atomic manifest swap (LSM).
//! - **Thread safety**: all methods take `&self`; one cache may be
//!   shared across worker threads and batches.
//! - **Fault injection**: the `cache-load` and `cache-store` failpoint
//!   sites fire inside whichever backend is active.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use serde_json::Value;

use crate::error::HarnessError;
use crate::failpoint;

pub use scu_store::{GetResult, ResultStore, StoreStats};

/// Counters of one cache's activity within this process.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ResultCacheStats {
    /// Successful loads.
    pub hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Entries written.
    pub stores: u64,
    /// Corrupt entries quarantined by this process.
    pub quarantined: u64,
    /// Files currently retained in the quarantine directory (bounded
    /// by the store's cap; survives across processes).
    pub quarantined_total: u64,
}

/// A directory of content-addressed results, backed by whichever
/// [`ResultStore`] layout the directory holds.
#[derive(Debug, Clone)]
pub struct ResultCache {
    backend: Arc<dyn ResultStore>,
}

impl ResultCache {
    /// Opens (creating if needed) a cache directory, auto-detecting
    /// the layout: an LSM store where its `CURRENT` manifest exists,
    /// the legacy blob layout where loose `*.json` entries do, a fresh
    /// LSM store otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Io`] if the directory cannot be created
    /// or the store cannot be recovered.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, HarnessError> {
        failpoint::install_store_hook();
        let dir = dir.into();
        let backend = scu_store::open_dir(&dir, None)
            .map_err(|e| HarnessError::io("create cache dir", &dir, e))?;
        Ok(ResultCache { backend })
    }

    /// Opens the directory explicitly as the legacy per-file layout
    /// (used by corruption tests and migration tooling that poke blob
    /// files directly).
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Io`] if the directory cannot be created.
    pub fn open_legacy(dir: impl Into<PathBuf>) -> Result<Self, HarnessError> {
        failpoint::install_store_hook();
        let dir = dir.into();
        let backend = scu_store::LegacyStore::open(&dir)
            .map_err(|e| HarnessError::io("create cache dir", &dir, e))?;
        Ok(ResultCache {
            backend: Arc::new(backend),
        })
    }

    /// Wraps an already-open backend (how the server shares one store
    /// across its scheduler and every batch harness).
    pub fn from_backend(backend: Arc<dyn ResultStore>) -> Self {
        failpoint::install_store_hook();
        ResultCache { backend }
    }

    /// The backend, for sharing (see [`crate::Harness::store_backend`])
    /// and for store-level statistics.
    pub fn backend(&self) -> Arc<dyn ResultStore> {
        Arc::clone(&self.backend)
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        self.backend.dir()
    }

    /// Where corrupt entries are moved.
    pub fn quarantine_dir(&self) -> PathBuf {
        self.backend.quarantine_dir()
    }

    /// The digest addressing `key` (the blob filename stem in the
    /// legacy layout; half of the record address in the LSM layout).
    pub fn digest_of(key: &Value) -> String {
        scu_store::LegacyStore::digest_of(key)
    }

    /// Loads the value stored for `key`, if present and intact. A
    /// corrupt entry is quarantined and reads as a miss.
    pub fn load(&self, key: &Value) -> Option<Value> {
        match self.backend.get(key) {
            GetResult::Hit(value) => Some(value),
            GetResult::Miss | GetResult::Corrupt => None,
        }
    }

    /// [`ResultCache::load`] as the value's canonical JSON text (see
    /// [`ResultStore::get_text`]), for callers that only pass it on.
    pub fn load_text(&self, key: &Value) -> Option<String> {
        match self.backend.get_text(key) {
            GetResult::Hit(text) => Some(text),
            GetResult::Miss | GetResult::Corrupt => None,
        }
    }

    /// Stores `value` under `key`, atomically.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Io`] on write failure; callers treat a
    /// failed store as degraded caching, not a failed cell.
    pub fn store(&self, key: &Value, value: &Value) -> Result<(), HarnessError> {
        self.backend
            .put(key, value)
            .map_err(|e| HarnessError::io("store cache entry", self.backend.dir(), e))
    }

    /// This process's hit/miss/store/quarantine counts so far.
    pub fn stats(&self) -> ResultCacheStats {
        let s = self.backend.stats();
        ResultCacheStats {
            hits: s.hits,
            misses: s.misses,
            stores: s.stores,
            quarantined: s.quarantined,
            quarantined_total: s.quarantined_total,
        }
    }

    /// The backend's full counter set (WAL appends, segment reads,
    /// compactions, …) for `/metrics` and diagnostics.
    pub fn store_stats(&self) -> StoreStats {
        self.backend.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "scu-harness-cache-test-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn key(n: u64) -> Value {
        Value::Object(vec![("cell".into(), Value::U64(n))])
    }

    #[test]
    fn round_trips_and_counts() {
        let _sites = crate::failpoint::serial_store_sites();
        let dir = scratch_dir("round-trip");
        let cache = ResultCache::open(&dir).unwrap();
        assert_eq!(cache.load(&key(1)), None);
        cache.store(&key(1), &Value::Str("result".into())).unwrap();
        assert_eq!(cache.load(&key(1)), Some(Value::Str("result".into())));
        assert_eq!(
            cache.stats(),
            ResultCacheStats {
                hits: 1,
                misses: 1,
                stores: 1,
                quarantined: 0,
                quarantined_total: 0,
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn survives_reopen() {
        let _sites = crate::failpoint::serial_store_sites();
        let dir = scratch_dir("reopen");
        ResultCache::open(&dir)
            .unwrap()
            .store(&key(7), &Value::U64(42))
            .unwrap();
        let cache = ResultCache::open(&dir).unwrap();
        assert_eq!(cache.load(&key(7)), Some(Value::U64(42)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_directories_use_the_lsm_backend() {
        let _sites = crate::failpoint::serial_store_sites();
        let dir = scratch_dir("lsm-default");
        let cache = ResultCache::open(&dir).unwrap();
        assert_eq!(cache.store_stats().backend, "lsm");
        assert!(cache.backend().unified_journal());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_blob_directories_are_detected() {
        let _sites = crate::failpoint::serial_store_sites();
        let dir = scratch_dir("legacy-detect");
        ResultCache::open_legacy(&dir)
            .unwrap()
            .store(&key(1), &Value::U64(10))
            .unwrap();
        let cache = ResultCache::open(&dir).unwrap();
        assert_eq!(cache.store_stats().backend, "legacy");
        assert_eq!(cache.load(&key(1)), Some(Value::U64(10)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_mismatch_is_quarantined() {
        let _sites = crate::failpoint::serial_store_sites();
        let dir = scratch_dir("mismatch");
        let cache = ResultCache::open_legacy(&dir).unwrap();
        cache.store(&key(1), &Value::U64(1)).unwrap();
        // Corrupt the envelope by rewriting it under the same digest
        // with a different key.
        let path = dir.join(format!("{}.json", ResultCache::digest_of(&key(1))));
        std::fs::write(&path, r#"{"key":{"cell":999},"value":123}"#).unwrap();
        assert_eq!(cache.load(&key(1)), None);
        assert_eq!(cache.stats().quarantined, 1);
        assert!(!path.exists(), "corrupt entry moved out of the cache");
        assert!(
            cache
                .quarantine_dir()
                .join(path.file_name().unwrap())
                .exists(),
            "corrupt entry kept for post-mortem"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_entry_is_quarantined_and_reads_as_miss() {
        let _sites = crate::failpoint::serial_store_sites();
        let dir = scratch_dir("truncated");
        let cache = ResultCache::open_legacy(&dir).unwrap();
        cache.store(&key(2), &Value::U64(2)).unwrap();
        let path = dir.join(format!("{}.json", ResultCache::digest_of(&key(2))));
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert_eq!(cache.load(&key(2)), None);
        assert_eq!(cache.stats().quarantined, 1);
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn value_byte_flip_is_quarantined_not_served() {
        let _sites = crate::failpoint::serial_store_sites();
        let dir = scratch_dir("byte-flip");
        let cache = ResultCache::open_legacy(&dir).unwrap();
        cache.store(&key(3), &Value::U64(31337)).unwrap();
        let path = dir.join(format!("{}.json", ResultCache::digest_of(&key(3))));
        let text = std::fs::read_to_string(&path).unwrap();
        // Flip one digit inside the value: still valid JSON, key still
        // matches — only the value digest can catch this.
        let flipped = text.replacen("31337", "31338", 1);
        assert_ne!(text, flipped);
        std::fs::write(&path, flipped).unwrap();
        assert_eq!(cache.load(&key(3)), None);
        assert_eq!(cache.stats().quarantined, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_value_digest_is_rejected() {
        let _sites = crate::failpoint::serial_store_sites();
        // Entries written by the pre-digest format must not be served.
        let dir = scratch_dir("old-format");
        let cache = ResultCache::open_legacy(&dir).unwrap();
        let path = dir.join(format!("{}.json", ResultCache::digest_of(&key(4))));
        std::fs::write(&path, r#"{"key":{"cell":4},"value":99}"#).unwrap();
        assert_eq!(cache.load(&key(4)), None);
        assert_eq!(cache.stats().quarantined, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_retention_is_bounded() {
        let _sites = crate::failpoint::serial_store_sites();
        let dir = scratch_dir("q-cap");
        let cache = ResultCache::open_legacy(&dir).unwrap();
        // Corrupt far more entries than the cap retains.
        let over = scu_store::quarantine::DEFAULT_QUARANTINE_CAP as u64 + 10;
        for n in 0..over {
            cache.store(&key(n), &Value::U64(n)).unwrap();
            let path = dir.join(format!("{}.json", ResultCache::digest_of(&key(n))));
            std::fs::write(&path, "garbage").unwrap();
            assert_eq!(cache.load(&key(n)), None);
        }
        let stats = cache.stats();
        assert_eq!(stats.quarantined, over, "every corruption was counted");
        assert_eq!(
            stats.quarantined_total,
            scu_store::quarantine::DEFAULT_QUARANTINE_CAP as u64,
            "retention is capped, oldest evicted"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_load_fault_degrades_to_miss() {
        let _sites = crate::failpoint::serial_store_sites();
        let dir = scratch_dir("fp-load");
        let cache = ResultCache::open_legacy(&dir).unwrap();
        cache.store(&key(5), &Value::U64(5)).unwrap();
        {
            let _fp = crate::failpoint::scoped("cache-load=io-error");
            assert_eq!(cache.load(&key(5)), None, "injected IO error is a miss");
        }
        // The entry itself was untouched by the injected fault, but the
        // load path counted and attempted quarantine; a real hit works
        // again once the fault clears if the file survived the move.
        assert!(cache.stats().misses >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_load_fault_on_lsm_misses_without_quarantine() {
        let _sites = crate::failpoint::serial_store_sites();
        let dir = scratch_dir("fp-load-lsm");
        let cache = ResultCache::open(&dir).unwrap();
        assert_eq!(cache.store_stats().backend, "lsm");
        cache.store(&key(5), &Value::U64(5)).unwrap();
        {
            let _fp = crate::failpoint::scoped("cache-load=io-error");
            assert_eq!(cache.load(&key(5)), None, "injected IO error is a miss");
        }
        assert_eq!(cache.stats().quarantined, 0, "nothing was actually corrupt");
        assert_eq!(cache.load(&key(5)), Some(Value::U64(5)), "entry intact");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_store_fault_is_typed_and_skips_write() {
        let _sites = crate::failpoint::serial_store_sites();
        for cache in [
            ResultCache::open_legacy(scratch_dir("fp-store-legacy")).unwrap(),
            ResultCache::open(scratch_dir("fp-store-lsm")).unwrap(),
        ] {
            let _fp = crate::failpoint::scoped("cache-store=io-error");
            let err = cache.store(&key(6), &Value::U64(6)).unwrap_err();
            assert!(matches!(
                err,
                HarnessError::Io {
                    op: "store cache entry",
                    ..
                }
            ));
            assert_eq!(cache.stats().stores, 0);
            let _ = std::fs::remove_dir_all(cache.dir());
        }
    }

    #[test]
    fn digests_are_canonical_per_key() {
        assert_eq!(
            ResultCache::digest_of(&key(1)),
            ResultCache::digest_of(&key(1))
        );
        assert_ne!(
            ResultCache::digest_of(&key(1)),
            ResultCache::digest_of(&key(2))
        );
    }
}

//! The crash-resume journal.
//!
//! A sweep's journal records every completed cell the moment it
//! finishes, so a SIGKILL loses at most the entry being written and a
//! resumed sweep (`--resume`) serves journaled cells byte-identically
//! with no recomputation. Two shapes exist behind one [`Journal`]:
//!
//! - **File** (`results/manifest.json`): one compact JSON object per
//!   line — `{"key":…,"id":…,"value":…}` — appended and flushed per
//!   cell. [`Journal::load`] tolerates a torn tail by stopping at the
//!   first malformed line and returning the intact prefix.
//! - **Store**: when the cache directory holds an LSM store, the
//!   store's write-ahead log *is* the journal — one durability domain
//!   for cache and resume state instead of two files racing a kill.
//!   Appends become CRC-framed WAL records
//!   (`ResultStore::journal_append`); resume state comes from
//!   [`crate::Harness`] asking the store, not from re-parsing a file.
//!
//! The entry type is [`scu_store::JournalRecord`], re-exported under
//! its historical name so executor code is oblivious to the backend.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use serde_json::Value;

use crate::error::{lock_unpoisoned, HarnessError};
use crate::failpoint;

/// One completed cell, as journaled. (The definition lives in
/// `scu-store`, whose WAL records carry the same fields; the alias
/// keeps the harness's historical API.)
pub use scu_store::JournalRecord as JournalEntry;

use scu_store::ResultStore;

/// An append-only journal of completed cells.
#[derive(Debug)]
pub enum Journal {
    /// The line-JSON file journal (legacy layout, and always the shape
    /// behind an explicit `--manifest` path).
    File {
        /// Where the lines go.
        path: PathBuf,
        /// The open handle, flushed per append.
        file: Mutex<File>,
    },
    /// The store's WAL is the journal.
    Store(Arc<dyn ResultStore>),
}

impl Journal {
    /// Opens `path` for appending, creating parent directories. With
    /// `truncate` any previous journal is discarded (a fresh,
    /// non-resumed sweep must not inherit stale completions).
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Io`] if the file cannot be opened.
    pub fn open(path: impl Into<PathBuf>, truncate: bool) -> Result<Self, HarnessError> {
        let path = path.into();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| HarnessError::io("create journal dir", dir, e))?;
        }
        let file = OpenOptions::new()
            .create(true)
            .append(!truncate)
            .write(true)
            .truncate(truncate)
            .open(&path)
            .map_err(|e| HarnessError::io("open journal", &path, e))?;
        Ok(Journal::File {
            path,
            file: Mutex::new(file),
        })
    }

    /// Wraps a store whose WAL will receive the journal appends. The
    /// caller is responsible for having called
    /// `ResultStore::begin_sweep` to mark the sweep boundary.
    pub fn from_store(backend: Arc<dyn ResultStore>) -> Self {
        Journal::Store(backend)
    }

    /// The journal's path: the line-JSON file, or the store directory
    /// whose WAL absorbs the entries.
    pub fn path(&self) -> &Path {
        match self {
            Journal::File { path, .. } => path,
            Journal::Store(backend) => backend.dir(),
        }
    }

    /// Appends one completed cell durably, so the entry survives a
    /// kill that lands any time after this call returns. (The store
    /// shape fires the `journal-append` failpoint inside the backend;
    /// the file shape fires it here.)
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Io`] on write failure; callers degrade
    /// (the cell still counts as done, the journal is just shorter).
    pub fn append(&self, entry: &JournalEntry) -> Result<(), HarnessError> {
        match self {
            Journal::File { path, file } => {
                failpoint::io("journal-append")
                    .map_err(|e| HarnessError::io("append journal", path, e))?;
                let line = serde_json::to_string(&entry.to_value())
                    .expect("serialising a Value cannot fail");
                let mut file = lock_unpoisoned(file, "journal file");
                writeln!(file, "{line}")
                    .and_then(|()| file.flush())
                    .map_err(|e| HarnessError::io("append journal", path, e))
            }
            Journal::Store(backend) => backend
                .journal_append(entry)
                .map_err(|e| HarnessError::io("append journal", backend.dir(), e)),
        }
    }

    /// Loads the intact prefix of the *file* journal at `path`. A
    /// malformed line (the tail a SIGKILL tore) ends the prefix with a
    /// warning naming the line number, its byte offset, and how many
    /// trailing lines were discarded; a missing file is an empty
    /// journal.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Io`] only if the file exists but cannot
    /// be read.
    pub fn load(path: impl AsRef<Path>) -> Result<Vec<JournalEntry>, HarnessError> {
        let path = path.as_ref();
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(HarnessError::io("read journal", path, e)),
        };
        let mut entries = Vec::new();
        let mut offset = 0usize;
        let mut lines = text.lines().enumerate();
        for (ln, line) in &mut lines {
            let line_offset = offset;
            offset += line.len() + 1;
            if line.trim().is_empty() {
                continue;
            }
            let parsed = serde_json::from_str::<Value>(line)
                .map_err(|e| e.to_string())
                .and_then(|v| JournalEntry::from_value(&v));
            match parsed {
                Ok(entry) => entries.push(entry),
                Err(reason) => {
                    let discarded = 1 + lines.filter(|(_, rest)| !rest.trim().is_empty()).count();
                    let err = HarnessError::CorruptJournal {
                        path: path.to_path_buf(),
                        line: ln + 1,
                        reason,
                    };
                    eprintln!(
                        "[scu-harness] {err} (byte offset {line_offset}); discarding {discarded} \
                         trailing line(s), resuming from the {} intact entries",
                        entries.len()
                    );
                    break;
                }
            }
        }
        Ok(entries)
    }

    /// Loads the file journal as a resume map:
    /// [`JournalEntry::resume_key`] → value. Later entries win (a cell
    /// journaled twice across resumes is the same value anyway).
    pub fn load_resume_map(path: impl AsRef<Path>) -> Result<HashMap<String, Value>, HarnessError> {
        let entries = Journal::load(path)?;
        let mut map = HashMap::with_capacity(entries.len());
        for e in entries {
            map.insert(JournalEntry::resume_key(e.key.as_ref(), &e.id), e.value);
        }
        Ok(map)
    }

    /// Loads the journaled timeline digests keyed by job id. A resumed
    /// sweep uses this to cross-check cells it *re-runs* (because the
    /// model version or configuration changed their cache key) against
    /// what the interrupted sweep observed for the same id.
    pub fn load_digest_map(path: impl AsRef<Path>) -> Result<HashMap<String, u64>, HarnessError> {
        let entries = Journal::load(path)?;
        let mut map = HashMap::new();
        for e in entries {
            if let Some(d) = e.digest {
                map.insert(e.id, d);
            }
        }
        Ok(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("scu-journal-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.join("manifest.json")
    }

    fn entry(n: u64) -> JournalEntry {
        JournalEntry {
            key: Some(Value::Object(vec![("cell".into(), Value::U64(n))])),
            id: format!("cell-{n}"),
            value: Value::U64(n * 10),
            digest: Some(n * 1000),
        }
    }

    #[test]
    fn append_then_load_round_trips() {
        let _sites = crate::failpoint::serial_store_sites();
        let path = scratch("round-trip");
        let j = Journal::open(&path, true).unwrap();
        j.append(&entry(1)).unwrap();
        j.append(&entry(2)).unwrap();
        let loaded = Journal::load(&path).unwrap();
        assert_eq!(loaded, vec![entry(1), entry(2)]);
        let map = Journal::load_resume_map(&path).unwrap();
        assert_eq!(
            map.get(&JournalEntry::resume_key(entry(2).key.as_ref(), "cell-2")),
            Some(&Value::U64(20))
        );
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn truncated_tail_yields_intact_prefix() {
        let _sites = crate::failpoint::serial_store_sites();
        let path = scratch("torn");
        let j = Journal::open(&path, true).unwrap();
        j.append(&entry(1)).unwrap();
        j.append(&entry(2)).unwrap();
        // Tear the final line mid-write, as a SIGKILL would.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 9]).unwrap();
        let loaded = Journal::load(&path).unwrap();
        assert_eq!(loaded, vec![entry(1)]);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn garbage_middle_discards_everything_after_it() {
        let _sites = crate::failpoint::serial_store_sites();
        // The warning counts every discarded trailing line, not just
        // the malformed one — entries past the damage are unreachable.
        let path = scratch("garbage-middle");
        let j = Journal::open(&path, true).unwrap();
        j.append(&entry(1)).unwrap();
        drop(j);
        {
            // Hand-write a malformed line followed by two well-formed
            // ones: the parse stops at the damage, so the trailing
            // entries are discarded (and counted in the warning).
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            writeln!(f, "not json at all").unwrap();
        }
        let j = Journal::open(&path, false).unwrap();
        j.append(&entry(2)).unwrap();
        j.append(&entry(3)).unwrap();
        assert_eq!(Journal::load(&path).unwrap(), vec![entry(1)]);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn store_backed_journal_appends_into_the_wal() {
        let _sites = crate::failpoint::serial_store_sites();
        let dir = std::env::temp_dir().join(format!("scu-journal-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let backend: Arc<dyn ResultStore> = Arc::new(scu_store::LsmStore::open(&dir).unwrap());
        backend.begin_sweep(false).unwrap();
        let j = Journal::from_store(Arc::clone(&backend));
        assert_eq!(j.path(), dir.as_path());
        j.append(&entry(1)).unwrap();
        j.append(&entry(2)).unwrap();
        let state = backend.resume_state().unwrap();
        assert_eq!(state.values.len(), 2);
        assert_eq!(
            state
                .values
                .get(&JournalEntry::resume_key(entry(2).key.as_ref(), "cell-2")),
            Some(&Value::U64(20))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_without_truncate_appends() {
        let _sites = crate::failpoint::serial_store_sites();
        let path = scratch("reopen");
        Journal::open(&path, true)
            .unwrap()
            .append(&entry(1))
            .unwrap();
        Journal::open(&path, false)
            .unwrap()
            .append(&entry(2))
            .unwrap();
        assert_eq!(Journal::load(&path).unwrap().len(), 2);
        Journal::open(&path, true).unwrap();
        assert!(
            Journal::load(&path).unwrap().is_empty(),
            "truncate discards"
        );
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn digests_round_trip_and_pre_digest_journals_load() {
        let _sites = crate::failpoint::serial_store_sites();
        let path = scratch("digest");
        let j = Journal::open(&path, true).unwrap();
        j.append(&entry(3)).unwrap();
        // A line from before digests existed parses with digest: None.
        {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            writeln!(f, r#"{{"key":null,"id":"old","value":7}}"#).unwrap();
        }
        let loaded = Journal::load(&path).unwrap();
        assert_eq!(loaded[0].digest, Some(3000));
        assert_eq!(loaded[1].digest, None);
        let digests = Journal::load_digest_map(&path).unwrap();
        assert_eq!(digests.get("cell-3"), Some(&3000));
        assert!(!digests.contains_key("old"));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn missing_journal_is_empty() {
        assert!(Journal::load("/nonexistent/scu/manifest.json")
            .unwrap()
            .is_empty());
    }

    #[test]
    fn uncacheable_jobs_resume_by_id() {
        let _sites = crate::failpoint::serial_store_sites();
        let e = JournalEntry {
            key: None,
            id: "plain".into(),
            value: Value::Bool(true),
            digest: None,
        };
        let path = scratch("by-id");
        let j = Journal::open(&path, true).unwrap();
        j.append(&e).unwrap();
        let map = Journal::load_resume_map(&path).unwrap();
        assert_eq!(map.get("id:plain"), Some(&Value::Bool(true)));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn injected_io_error_surfaces_typed() {
        let _sites = crate::failpoint::serial_store_sites();
        let _fp = crate::failpoint::scoped("journal-append=io-error");
        let path = scratch("io-fault");
        let j = Journal::open(&path, true).unwrap();
        let err = j.append(&entry(1)).unwrap_err();
        assert!(matches!(
            err,
            HarnessError::Io {
                op: "append journal",
                ..
            }
        ));
        assert!(Journal::load(&path).unwrap().is_empty());
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}

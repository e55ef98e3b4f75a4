//! The write-ahead log: the journal that is also the cache's memtable
//! backing.
//!
//! `wal.log` is `SCUWAL01` followed by CRC-framed records (see
//! [`crate::record`]). Every put and every journal append becomes one
//! frame, written and left in place until a segment flush resets the
//! log. Recovery on open replays the intact prefix:
//!
//! - a torn final frame (SIGKILL mid-append) is **truncated** — the
//!   file is physically cut back to the last intact frame so the
//!   damage can never propagate into later reads;
//! - a file whose magic is wrong is quarantined whole and a fresh log
//!   started — it was not written by this store;
//! - everything before the tear is returned to the caller, which is
//!   exactly the resume guarantee: completed cells survive any kill.
//!
//! Reading and repairing are separate steps — [`WalRecovery::scan`]
//! changes nothing, [`Wal::open`] applies what the scan found — so a
//! diagnostic can report what recovery would cut without cutting it.

use std::fs::{File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::failpoints;
use crate::quarantine;
use crate::record::{read_frame, write_frame, Record};

/// First 8 bytes of every WAL file.
pub const WAL_MAGIC: &[u8; 8] = b"SCUWAL01";

/// What a WAL file holds: its intact prefix, and what recovery must
/// repair around it.
#[derive(Debug, Default)]
pub struct WalRecovery {
    /// The intact records, in append order.
    pub records: Vec<Record>,
    /// Bytes after the intact prefix: the torn tail that recovery cuts
    /// off (0 for a clean log).
    pub truncated_tail_bytes: u64,
    /// Whether the file exists but does not start with [`WAL_MAGIC`];
    /// recovery moves it to quarantine whole.
    pub foreign: bool,
    intact_len: u64,
}

impl WalRecovery {
    /// Reads the log at `path` without modifying it. A missing file is
    /// an empty log.
    ///
    /// # Errors
    ///
    /// Returns IO errors from reading the file. Corrupt *content* is
    /// never an error — that is what recovery absorbs.
    pub fn scan(path: &Path) -> io::Result<WalRecovery> {
        let mut recovery = WalRecovery::default();
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(recovery),
            Err(e) => return Err(e),
        };
        if bytes.is_empty() {
            return Ok(recovery);
        }
        if !bytes.starts_with(WAL_MAGIC) {
            recovery.foreign = true;
            return Ok(recovery);
        }
        let mut offset = WAL_MAGIC.len();
        // A frame that fails its CRC or runs past the file is the torn
        // tail; a frame whose CRC holds but whose body does not parse
        // is treated the same way — nothing after an undecodable
        // record can be trusted.
        while let Ok((body, next)) = read_frame(&bytes, offset) {
            match Record::decode_body(body) {
                Ok(rec) => {
                    recovery.records.push(rec);
                    offset = next;
                }
                Err(_) => break,
            }
            if offset == bytes.len() {
                break;
            }
        }
        recovery.intact_len = offset as u64;
        recovery.truncated_tail_bytes = (bytes.len() - offset) as u64;
        Ok(recovery)
    }
}

/// An open, append-only write-ahead log.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: Mutex<File>,
}

impl Wal {
    /// Opens the log at `path` for appending, first applying the
    /// repairs `recovery` (from [`WalRecovery::scan`] of the same file)
    /// calls for: a foreign file is quarantined into `qdir` (capped at
    /// `cap`) and a fresh log started; a torn tail is truncated.
    ///
    /// # Errors
    ///
    /// Returns IO errors from truncating or creating the file.
    pub fn open(path: &Path, recovery: &WalRecovery, qdir: &Path, cap: usize) -> io::Result<Wal> {
        if recovery.foreign {
            // Not ours. Keep the evidence, start fresh.
            if quarantine::quarantine_move(qdir, path, cap).is_err() {
                let _ = std::fs::remove_file(path);
            }
        } else if recovery.truncated_tail_bytes > 0 {
            let file = OpenOptions::new().write(true).open(path)?;
            file.set_len(recovery.intact_len)?;
        }
        let fresh = !path.exists();
        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        if fresh || std::fs::metadata(path)?.len() == 0 {
            file.write_all(WAL_MAGIC)?;
        }
        Ok(Wal {
            path: path.to_path_buf(),
            file: Mutex::new(file),
        })
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record frame. Carries the `wal-append` failpoint.
    ///
    /// # Errors
    ///
    /// Returns write failures (including injected ones); the caller
    /// degrades — the cell still completed, the log is just shorter.
    pub fn append(&self, rec: &Record) -> io::Result<()> {
        failpoints::io("wal-append")?;
        let mut frame = Vec::new();
        write_frame(&mut frame, &rec.encode_body());
        let mut file = self.file.lock().unwrap_or_else(|p| p.into_inner());
        file.write_all(&frame)
    }

    /// Cuts the log back to just its magic — called after a segment
    /// flush has made the records durable elsewhere. A crash *before*
    /// this call merely replays records that are also in the segment;
    /// the merge makes that benign.
    ///
    /// # Errors
    ///
    /// Returns truncation failures.
    pub fn reset(&self) -> io::Result<()> {
        let file = self.file.lock().unwrap_or_else(|p| p.into_inner());
        file.set_len(WAL_MAGIC.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordKind;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("scu-store-wal-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Scans, then opens with the scan's repairs applied.
    fn open(path: &Path, qdir: &Path) -> (Wal, WalRecovery) {
        let recovery = WalRecovery::scan(path).unwrap();
        (Wal::open(path, &recovery, qdir, 8).unwrap(), recovery)
    }

    fn put(n: u64) -> Record {
        Record {
            kind: RecordKind::Put,
            epoch: 1,
            rk: format!("key:{{\"cell\":{n}}}"),
            id: format!("cell-{n}"),
            digest: Some(n),
            value: format!("{n}").into_bytes(),
        }
    }

    #[test]
    fn append_reopen_replays_in_order() {
        let dir = scratch("replay");
        let path = dir.join("wal.log");
        {
            let (wal, rec) = open(&path, &dir.join("q"));
            assert!(rec.records.is_empty());
            wal.append(&put(1)).unwrap();
            wal.append(&Record::epoch(2)).unwrap();
            wal.append(&put(3)).unwrap();
        }
        let (_, rec) = open(&path, &dir.join("q"));
        assert_eq!(rec.records, vec![put(1), Record::epoch(2), put(3)]);
        assert_eq!(rec.truncated_tail_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_cut_and_never_returns() {
        let dir = scratch("torn");
        let path = dir.join("wal.log");
        {
            let (wal, _) = open(&path, &dir.join("q"));
            wal.append(&put(1)).unwrap();
            wal.append(&put(2)).unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        let (_, rec) = open(&path, &dir.join("q"));
        assert_eq!(rec.records, vec![put(1)]);
        assert!(rec.truncated_tail_bytes > 5, "whole torn frame cut");
        // The file itself was repaired: a second open sees a clean log.
        let (_, again) = open(&path, &dir.join("q"));
        assert_eq!(again.records, vec![put(1)]);
        assert_eq!(again.truncated_tail_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_files_are_quarantined_whole() {
        let dir = scratch("foreign");
        let path = dir.join("wal.log");
        std::fs::write(&path, b"this is not a WAL at all").unwrap();
        let (wal, rec) = open(&path, &dir.join("q"));
        assert!(rec.foreign);
        assert!(rec.records.is_empty());
        assert_eq!(quarantine::retained(&dir.join("q")), 1);
        wal.append(&put(9)).unwrap();
        drop(wal);
        let (_, rec) = open(&path, &dir.join("q"));
        assert_eq!(rec.records, vec![put(9)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reset_empties_the_log_but_keeps_it_usable() {
        let dir = scratch("reset");
        let path = dir.join("wal.log");
        let (wal, _) = open(&path, &dir.join("q"));
        wal.append(&put(1)).unwrap();
        wal.reset().unwrap();
        wal.append(&put(2)).unwrap();
        drop(wal);
        let (_, rec) = open(&path, &dir.join("q"));
        assert_eq!(rec.records, vec![put(2)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_truncation_point_yields_an_intact_prefix() {
        let dir = scratch("every-cut");
        let path = dir.join("wal.log");
        {
            let (wal, _) = open(&path, &dir.join("q"));
            for n in 0..4 {
                wal.append(&put(n)).unwrap();
            }
        }
        let full = std::fs::read(&path).unwrap();
        for cut in WAL_MAGIC.len()..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (_, rec) = open(&path, &dir.join("q"));
            assert!(rec.records.len() <= 4);
            for (i, r) in rec.records.iter().enumerate() {
                assert_eq!(r, &put(i as u64), "prefix intact at cut {cut}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

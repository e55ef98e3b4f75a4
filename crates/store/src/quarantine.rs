//! The quarantine directory: corrupt bytes kept for post-mortem.
//!
//! The store moves (or copies) anything that fails validation into
//! `<dir>/quarantine/` instead of deleting it — a corrupt entry is
//! evidence. Under sustained corruption that directory would grow
//! without bound, so it is capped: past `cap` retained files the
//! oldest (by modification time, name as tie-break) are evicted.

use std::path::{Path, PathBuf};
use std::time::SystemTime;

/// The default retention cap.
pub const DEFAULT_QUARANTINE_CAP: usize = 64;

/// Number of files currently retained in `qdir` (0 if it does not
/// exist).
pub fn retained(qdir: &Path) -> u64 {
    std::fs::read_dir(qdir)
        .map(|entries| entries.filter_map(Result::ok).count() as u64)
        .unwrap_or(0)
}

/// Moves `path` into `qdir` (creating it), then enforces `cap`.
///
/// # Errors
///
/// Returns the underlying IO error when the move fails; the caller
/// logs and carries on — quarantine is best-effort.
pub fn quarantine_move(qdir: &Path, path: &Path, cap: usize) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(qdir)?;
    let dest = unique_dest(
        qdir,
        path.file_name().and_then(|n| n.to_str()).unwrap_or("entry"),
    );
    std::fs::rename(path, &dest)?;
    enforce_cap(qdir, cap);
    Ok(dest)
}

/// Writes `bytes` into `qdir` under `name` (suffixed if taken), then
/// enforces `cap`. Used when the corrupt unit is a slice of a live
/// file that must not itself be moved.
///
/// # Errors
///
/// Returns the underlying IO error when the write fails.
pub fn quarantine_bytes(
    qdir: &Path,
    name: &str,
    bytes: &[u8],
    cap: usize,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(qdir)?;
    let dest = unique_dest(qdir, name);
    std::fs::write(&dest, bytes)?;
    enforce_cap(qdir, cap);
    Ok(dest)
}

fn unique_dest(qdir: &Path, name: &str) -> PathBuf {
    let plain = qdir.join(name);
    if !plain.exists() {
        return plain;
    }
    for n in 1.. {
        let candidate = qdir.join(format!("{name}.{n}"));
        if !candidate.exists() {
            return candidate;
        }
    }
    unreachable!("some suffix is always free")
}

/// Evicts oldest-first until at most `cap` files remain.
pub fn enforce_cap(qdir: &Path, cap: usize) {
    let Ok(entries) = std::fs::read_dir(qdir) else {
        return;
    };
    let mut files: Vec<(SystemTime, PathBuf)> = entries
        .filter_map(Result::ok)
        .map(|e| {
            let mtime = e
                .metadata()
                .and_then(|m| m.modified())
                .unwrap_or(SystemTime::UNIX_EPOCH);
            (mtime, e.path())
        })
        .collect();
    if files.len() <= cap {
        return;
    }
    files.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    let excess = files.len() - cap;
    for (_, path) in files.into_iter().take(excess) {
        let _ = std::fs::remove_file(path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("scu-store-quar-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn cap_evicts_oldest_first() {
        let qdir = scratch("cap");
        for i in 0..6 {
            quarantine_bytes(&qdir, &format!("blob-{i}"), b"bad", 4).unwrap();
        }
        assert_eq!(retained(&qdir), 4);
        // Oldest two are gone; mtime granularity can be coarse, so the
        // name tie-break keeps eviction deterministic here.
        assert!(!qdir.join("blob-0").exists());
        assert!(!qdir.join("blob-1").exists());
        assert!(qdir.join("blob-5").exists());
        let _ = std::fs::remove_dir_all(&qdir);
    }

    #[test]
    fn name_collisions_get_suffixes() {
        let qdir = scratch("collide");
        let a = quarantine_bytes(&qdir, "same", b"one", 8).unwrap();
        let b = quarantine_bytes(&qdir, "same", b"two", 8).unwrap();
        assert_ne!(a, b);
        assert_eq!(retained(&qdir), 2);
        let _ = std::fs::remove_dir_all(&qdir);
    }

    #[test]
    fn moves_keep_the_bytes() {
        let qdir = scratch("move");
        let victim = qdir.with_extension("victim");
        std::fs::write(&victim, b"evidence").unwrap();
        let dest = quarantine_move(&qdir, &victim, 8).unwrap();
        assert!(!victim.exists());
        assert_eq!(std::fs::read(dest).unwrap(), b"evidence");
        let _ = std::fs::remove_dir_all(&qdir);
    }
}

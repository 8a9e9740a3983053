//! Atomic artefact publication and exact integer conversions.
//!
//! Every file the workspace publishes — result documents, snapshots,
//! ingestion reports, benchmark artefacts — goes through
//! [`write_bytes_atomic`], so a concurrent reader or a crash mid-write sees
//! either the previous complete file or the new one, never a torn mixture.
//! `lb lint` rule R04 enforces this at the source level: direct
//! `File::create`/`fs::write` calls outside this module are findings.
//!
//! [`u64_exact`] and [`usize_exact`] are the checked counterparts to the
//! truncating `as` casts that rule R02 rejects in serialization code: the
//! widening direction is proven lossless at compile time, the narrowing
//! direction reports failure instead of wrapping.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide sequence behind [`staging_path`] and [`unique_temp_path`].
static NEXT_UNIQUE: AtomicU64 = AtomicU64::new(0);

/// `{pid}.{n}`: unique across live processes (pid) and across calls within
/// one process (the counter).
fn unique_suffix() -> String {
    let n = NEXT_UNIQUE.fetch_add(1, Ordering::Relaxed);
    format!("{}.{n}", std::process::id())
}

/// The temp sibling an atomic publication of `path` stages into:
/// `.{name}.tmp.{pid}.{n}` in the same directory. No two writers share it —
/// not even two threads of one process writing the same target — so one
/// writer's rename can never steal another's half-written file.
pub fn staging_path(path: &Path) -> PathBuf {
    let name = path
        .file_name()
        .and_then(|name| name.to_str())
        .unwrap_or("artifact");
    let tmp_name = format!(".{name}.tmp.{}", unique_suffix());
    match path.parent().filter(|p| !p.as_os_str().is_empty()) {
        Some(dir) => dir.join(tmp_name),
        None => PathBuf::from(tmp_name),
    }
}

/// A fresh path `{temp_dir}/{pid}.{n}.{name}` that no other call — in this
/// process or another — returns, for tests and benchmarks that run in
/// parallel and must not share scratch files. Nothing is created.
pub fn unique_temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("{}.{name}", unique_suffix()))
}

/// Atomically publishes `bytes` at `path`: write to a temp file in the same
/// directory, fsync, rename over the target, then fsync the directory. A
/// crash at any point leaves either the previous file or the new one under
/// `path`, never a torn mixture.
///
/// # Errors
///
/// Returns the underlying I/O error.
pub fn write_bytes_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let tmp = staging_path(path);
    let result = (|| {
        // lint: allow(R04, this is the staging write inside the atomic path)
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, path)?;
        // Persist the rename itself; best-effort where directories cannot be
        // opened (non-POSIX platforms).
        if let Some(dir) = dir {
            if let Ok(d) = fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

// The widening in `u64_exact` is only lossless where usize fits in u64 —
// true on every supported target, and proven here rather than assumed.
const _: () = assert!(std::mem::size_of::<usize>() <= std::mem::size_of::<u64>());

/// Losslessly widens a `usize` (a length, an index) to the `u64` the
/// serialization formats carry. The compile-time assertion above makes this
/// the audited home for a conversion that would otherwise be a bare `as`
/// cast at every call site.
#[inline]
pub fn u64_exact(n: usize) -> u64 {
    // lint: allow(R02, lossless by the const size assertion above)
    n as u64
}

/// Checked narrowing of a serialized `u64` back to `usize`; `None` when the
/// value does not fit the platform (the caller turns that into its located
/// error, never a wrapped index).
#[inline]
pub fn usize_exact(v: u64) -> Option<usize> {
    usize::try_from(v).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_write_publishes_and_cleans_up() {
        let dir = unique_temp_path("lb-artifact-test");
        fs::create_dir_all(&dir).unwrap();
        let target = dir.join("out.json");
        write_bytes_atomic(&target, b"{\"v\":1}\n").unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"{\"v\":1}\n");
        // Overwrite: the new content fully replaces the old.
        write_bytes_atomic(&target, b"{\"v\":2}\n").unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"{\"v\":2}\n");
        // No temp file left behind.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn exact_conversions_round_trip_and_reject_overflow() {
        assert_eq!(u64_exact(0), 0);
        assert_eq!(u64_exact(usize::MAX), usize::MAX as u64);
        assert_eq!(usize_exact(42), Some(42));
        assert_eq!(usize_exact(u64_exact(usize::MAX)), Some(usize::MAX));
        if usize::BITS < 64 {
            assert_eq!(usize_exact(u64::MAX), None);
        }
    }

    #[test]
    fn concurrent_writers_of_one_target_all_publish_whole_payloads() {
        // Writers in one process used to share a pid-only staging name: one
        // writer's rename stole another's file, which then failed (ENOENT)
        // or published a torn mixture.
        let dir = unique_temp_path("lb-artifact-race");
        fs::create_dir_all(&dir).unwrap();
        let target = dir.join("shared.json");
        let payloads: Vec<Vec<u8>> = (0..8u8)
            .map(|t| vec![b'a' + t; 64 * 1024 + usize::from(t)])
            .collect();
        std::thread::scope(|scope| {
            for payload in &payloads {
                let target = &target;
                scope.spawn(move || {
                    for _ in 0..25 {
                        write_bytes_atomic(target, payload).expect("every write publishes");
                    }
                });
            }
        });
        let published = fs::read(&target).unwrap();
        assert!(
            payloads.contains(&published),
            "final file is not one complete payload ({} bytes)",
            published.len()
        );
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        fs::remove_dir_all(&dir).unwrap();
    }
}

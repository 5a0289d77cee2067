//! Filesystem lease and heartbeat primitives.
//!
//! Multi-process coordination in this workspace (the `ced-fleet`
//! campaign runner, the `ced-store` run leases) is built on three
//! plain-filesystem operations that are atomic or monotone on every
//! platform we target:
//!
//! * **Claim by rename.** A work token is a file; claiming it renames
//!   the file to a claimer-owned path. `rename(2)` is atomic, and the
//!   source disappears when it succeeds, so exactly one claimer wins —
//!   the losers see `NotFound` and move on. No locks, no daemons.
//! * **Heartbeat by mtime.** A live claimer periodically bumps its
//!   lease file's modification time; a watchdog that finds a lease
//!   older than the heartbeat timeout may conclude the claimer is dead
//!   (crashed, killed, unplugged) and reclaim the work.
//! * **Atomic publish with caller-unique temp names.** Results are
//!   written to `.<name>.tmp-<tag>` and renamed into place. Because the
//!   temp name embeds a caller-supplied tag (worker id, pid), two
//!   processes racing to publish the same path never interleave writes
//!   into one temp file; the loser's rename simply replaces the
//!   winner's identical bytes.
//!
//! None of these primitives interpret file contents; payload integrity
//! is the [`crate::checkpoint`] envelope's job.

use crate::checkpoint::{encode_checkpoint, CheckpointError};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

/// Atomically claims a token file by renaming it to `to`.
///
/// Returns `true` when this caller won the claim, `false` when the
/// token was already gone (someone else claimed it, or it never
/// existed — indistinguishable by design).
///
/// # Errors
///
/// [`CheckpointError::Io`] for failures other than the token being
/// gone (permissions, a missing destination directory...).
pub fn claim_by_rename(from: &Path, to: &Path) -> Result<bool, CheckpointError> {
    match fs::rename(from, to) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
        Err(e) => Err(CheckpointError::Io(format!(
            "claiming {}: {e}",
            from.display()
        ))),
    }
}

/// Bumps a lease file's modification time to now (the heartbeat).
///
/// Returns `false` when the lease file no longer exists — the caller
/// lost it (a watchdog expired the lease); it should stop heartbeating
/// and treat the work as reassigned.
///
/// # Errors
///
/// [`CheckpointError::Io`] on failures other than the file being gone.
pub fn touch(path: &Path) -> Result<bool, CheckpointError> {
    let file = match fs::File::options().write(true).open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(false),
        Err(e) => {
            return Err(CheckpointError::Io(format!(
                "touching {}: {e}",
                path.display()
            )))
        }
    };
    file.set_times(fs::FileTimes::new().set_modified(SystemTime::now()))
        .map_err(|e| CheckpointError::Io(format!("touching {}: {e}", path.display())))?;
    Ok(true)
}

/// Age of a file's last modification, saturating to zero for files
/// modified "in the future" (clock skew). `None` when the file does
/// not exist or its metadata cannot be read.
pub fn mtime_age(path: &Path) -> Option<Duration> {
    let modified = fs::metadata(path).ok()?.modified().ok()?;
    Some(
        SystemTime::now()
            .duration_since(modified)
            .unwrap_or(Duration::ZERO),
    )
}

/// The temp-file sibling used by [`publish_envelope`] and
/// [`crate::save_checkpoint`] for `path` and `tag` — exposed so tests
/// can assert no temp files leak.
pub fn publish_tmp_path(path: &Path, tag: &str) -> PathBuf {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    let tmp = format!(".{name}.tmp-{tag}");
    match dir {
        Some(d) => d.join(tmp),
        None => PathBuf::from(tmp),
    }
}

/// Atomically publishes a checkpoint envelope at `path`, writing via a
/// temp file whose name embeds `tag` (worker id, pid...) so concurrent
/// publishers of the same path never share a temp file. Deterministic
/// producers racing on one path is safe: whoever renames last replaces
/// identical bytes.
///
/// # Errors
///
/// [`CheckpointError::Io`] if the write or rename fails.
pub fn publish_envelope(
    path: &Path,
    kind: u16,
    payload: &[u8],
    tag: &str,
) -> Result<(), CheckpointError> {
    let bytes = encode_checkpoint(kind, payload);
    let tmp = publish_tmp_path(path, tag);
    let io = |e: std::io::Error| CheckpointError::Io(format!("publishing {}: {e}", path.display()));
    let mut f = fs::File::create(&tmp).map_err(io)?;
    f.write_all(&bytes).map_err(io)?;
    f.sync_all().map_err(io)?;
    drop(f);
    fs::rename(&tmp, path).map_err(io)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ced-lease-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn exactly_one_claimer_wins() {
        let dir = tmp_dir("claim");
        let token = dir.join("unit-0001.ced");
        fs::write(&token, b"token").unwrap();
        let a = dir.join("unit-0001.alice");
        let b = dir.join("unit-0001.bob");
        let won_a = claim_by_rename(&token, &a).unwrap();
        let won_b = claim_by_rename(&token, &b).unwrap();
        assert!(won_a && !won_b);
        assert!(a.exists() && !b.exists() && !token.exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn touch_refreshes_mtime_and_reports_lost_leases() {
        let dir = tmp_dir("touch");
        let lease = dir.join("unit-0001.alice");
        fs::write(&lease, b"lease").unwrap();
        // Backdate, then heartbeat: the age must drop.
        let old = SystemTime::now() - Duration::from_secs(3600);
        fs::File::options()
            .write(true)
            .open(&lease)
            .unwrap()
            .set_times(fs::FileTimes::new().set_modified(old))
            .unwrap();
        assert!(mtime_age(&lease).unwrap() > Duration::from_secs(1800));
        assert!(touch(&lease).unwrap());
        assert!(mtime_age(&lease).unwrap() < Duration::from_secs(1800));
        // A lease someone expired out from under us: touch says so.
        fs::remove_file(&lease).unwrap();
        assert!(!touch(&lease).unwrap());
        assert_eq!(mtime_age(&lease), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn publish_is_atomic_and_tagged() {
        let dir = tmp_dir("publish");
        let path = dir.join("unit-0001.ced");
        publish_envelope(&path, 7, b"result-a", "alice").unwrap();
        // A racing identical publish under a different tag replaces
        // the file without ever sharing a temp name.
        assert_ne!(
            publish_tmp_path(&path, "alice"),
            publish_tmp_path(&path, "bob")
        );
        publish_envelope(&path, 7, b"result-a", "bob").unwrap();
        assert_eq!(
            crate::checkpoint::load_checkpoint(&path, 7).unwrap(),
            b"result-a"
        );
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(leftovers, vec![std::ffi::OsString::from("unit-0001.ced")]);
        fs::remove_dir_all(&dir).unwrap();
    }
}

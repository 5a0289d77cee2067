//! Which tree a run measured.
//!
//! The benchmark may run in a checkout that is not a git repository, so
//! the primary stamp is a hash of the sources it builds (`Cargo.toml`,
//! `Cargo.lock` and everything under `crates/`). Inside a repository the
//! stamp adds `HEAD` and whether tracked files differ from it.

use ced_runtime::{fnv1a64, Json};
use std::path::{Path, PathBuf};
use std::process::Command;

fn files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let path = e.path();
        if path.is_dir() {
            files_under(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// FNV-1a-64 over the sorted (path, contents) pairs of the measured
/// sources below `root`.
pub fn source_hash(root: &Path) -> u64 {
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    files_under(&root.join("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in files {
        if let Ok(contents) = std::fs::read(&f) {
            let rel = f.strip_prefix(root).unwrap_or(&f);
            bytes.extend_from_slice(rel.to_string_lossy().as_bytes());
            bytes.push(0);
            bytes.extend_from_slice(&fnv1a64(&contents).to_le_bytes());
        }
    }
    fnv1a64(&bytes)
}

fn git(root: &Path, args: &[&str]) -> Option<String> {
    Command::new("git")
        .arg("-C")
        .arg(root)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
}

/// The stamp: source hash, plus git `HEAD` and a dirty flag when
/// `root` is inside a repository (`null` otherwise).
pub fn stamp(root: &Path) -> Json {
    let head = git(root, &["rev-parse", "HEAD"]).map(|s| s.trim().to_string());
    let dirty = head
        .as_ref()
        .and(git(root, &["status", "--porcelain", "--untracked-files=no"]).map(|s| !s.is_empty()));
    Json::Object(vec![
        (
            "source_hash".into(),
            Json::str(&format!("{:016x}", source_hash(root))),
        ),
        (
            "git_head".into(),
            head.map_or(Json::Null, |h| Json::str(&h)),
        ),
        ("dirty".into(), dirty.map_or(Json::Null, Json::Bool)),
    ])
}

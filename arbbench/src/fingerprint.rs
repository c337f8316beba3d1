//! The run fingerprint: what produced a number.
//!
//! A benchmark checkout need not be a git repository, so the code under
//! test is identified by a hash of its sources (every `.rs` and
//! `Cargo.toml` under `src/` and `crates/` of the repository root), plus
//! the git commit when one is available.

use std::path::Path;

/// Cores, build profile, code identity and the workload seed.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// `git:<sha>` when the root is a git checkout, else `unknown`.
    pub commit: String,
    /// FNV-1a hash over the repository's sources.
    pub source_hash: String,
    /// Workload seed.
    pub seed: u64,
}

impl Fingerprint {
    /// Collects the fingerprint for a run rooted at `repo`.
    pub fn collect(repo: &Path, seed: u64) -> Self {
        let commit = repo
            .join(".git")
            .exists()
            .then(|| {
                std::process::Command::new("git")
                    .args(["rev-parse", "HEAD"])
                    .current_dir(repo)
                    .stderr(std::process::Stdio::null())
                    .output()
                    .ok()
            })
            .flatten()
            .filter(|o| o.status.success())
            .map(|o| format!("git:{}", String::from_utf8_lossy(&o.stdout).trim()))
            .unwrap_or_else(|| "unknown".to_owned());
        Self {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            commit,
            source_hash: format!("{:016x}", source_hash(repo)),
            seed,
        }
    }

    /// One line for the run's output.
    pub fn render(&self) -> String {
        format!(
            "fingerprint: cores={} profile={} commit={} sources=fnv1a:{} seed={}",
            self.cores, self.profile, self.commit, self.source_hash, self.seed
        )
    }
}

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs")
            || path.file_name().is_some_and(|n| n == "Cargo.toml")
        {
            out.push(path);
        }
    }
}

/// Hash of the sources under `repo/src` and `repo/crates`, in path order.
pub fn source_hash(repo: &Path) -> u64 {
    let mut files = Vec::new();
    collect_files(&repo.join("src"), &mut files);
    collect_files(&repo.join("crates"), &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let rel = f.strip_prefix(repo).unwrap_or(&f);
        h = fnv1a(h, rel.to_string_lossy().as_bytes());
        if let Ok(bytes) = std::fs::read(&f) {
            h = fnv1a(h, &bytes);
        }
    }
    h
}

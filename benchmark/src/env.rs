//! Where the benchmark ran and what it was built from: recorded in
//! every result, because a number without its machine is not a
//! baseline.

use std::path::{Path, PathBuf};

use crate::json::{obj, Json};

/// `benchmark/`, as the compiler saw it. The driver builds the
/// benchmark inside the checkout it then runs in, so the path holds.
pub fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Where every artefact goes (`benchmark/out/`, git-ignored). Nothing
/// is ever written into the current directory.
pub fn out_dir() -> std::io::Result<PathBuf> {
    let dir = package_dir().join("out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// The `key = value` lines of a manifest's `[profile.release]` table.
fn release_profile(manifest: &str) -> Vec<String> {
    let mut lines: Vec<String> = manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<String>())
        .collect();
    lines.sort();
    lines
}

/// Refuse to measure unless this package builds with the workspace's
/// release profile: it compiles the workspace crates itself (it is its
/// own workspace root), so a drifted profile would benchmark codegen
/// nobody ships.
pub fn check_profile() -> Result<(), String> {
    let read = |path: PathBuf| {
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
    };
    let own = release_profile(&read(package_dir().join("Cargo.toml"))?);
    let workspace = release_profile(&read(package_dir().join("../Cargo.toml"))?);
    if own == workspace {
        Ok(())
    } else {
        Err(format!(
            "benchmark/Cargo.toml [profile.release] {own:?} differs from the workspace's {workspace:?}"
        ))
    }
}

/// The commit checked out at the repo root, read from `.git` by hand
/// (the benchmark starts no processes of its own here). A driver's
/// checkout is not a git repository; then this is `"unknown"`.
fn git_commit() -> String {
    let git = package_dir().join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

pub fn record(seed: u64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    obj([
        ("nproc", Json::Num(nproc as f64)),
        ("cpu_model", Json::Str(cpu_model())),
        // vendor/tokio/src/executor.rs sizes its global pool this way
        // and ignores `worker_threads`; recorded, not fought.
        ("tokio_workers", Json::Num(nproc.clamp(4, 8) as f64)),
        (
            "gf_backend",
            Json::Str(format!(
                "{:?} ({})",
                slicing_gf::simd::backend(),
                slicing_gf::simd::isa()
            )),
        ),
        (
            "crypto_backend",
            Json::Str(format!(
                "{:?} ({})",
                slicing_crypto::simd::backend(),
                slicing_crypto::simd::isa()
            )),
        ),
        ("git_commit", Json::Str(git_commit())),
        ("seed", Json::Num(seed as f64)),
        (
            "network",
            Json::Str("host loopback (127.0.0.1) UDP sockets; no real link was crossed".into()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_section_is_extracted() {
        let manifest = "[package]\nname = \"x\"\n\n[profile.release]\n# why\nlto = \"thin\"\nopt-level=3\n\n[profile.bench]\nlto = \"fat\"\n";
        assert_eq!(release_profile(manifest), ["lto=\"thin\"", "opt-level=3"]);
        assert!(release_profile("[package]\n").is_empty());
    }

    #[test]
    fn own_profile_matches_workspace() {
        check_profile().unwrap();
    }
}

//! Where things are, what built them, and the check that the harness
//! and the shipped binaries are built the same way.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The repository root: the parent of this package's directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits inside the repository")
        .to_path_buf()
}

/// The `key = value` lines of `[profile.release]` in a manifest,
/// comments and blank lines dropped.
pub fn release_profile(manifest: &str) -> BTreeMap<String, String> {
    let mut keys = BTreeMap::new();
    let mut inside = false;
    for line in manifest.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            inside = line == "[profile.release]";
        } else if inside {
            if let Some((k, v)) = line.split_once('=') {
                keys.insert(k.trim().to_string(), v.trim().to_string());
            }
        }
    }
    keys
}

/// The shared release profile, or why the two manifests disagree — in
/// which case the replay would time a differently built program.
pub fn checked_release_profile(root: &Path) -> Result<BTreeMap<String, String>, String> {
    let read = |p: PathBuf| {
        std::fs::read_to_string(&p).map_err(|e| format!("reading {}: {e}", p.display()))
    };
    let ours = release_profile(&read(root.join("benchmark/Cargo.toml"))?);
    let theirs = release_profile(&read(root.join("Cargo.toml"))?);
    if ours != theirs {
        return Err(format!(
            "benchmark/Cargo.toml [profile.release] {ours:?} differs from the root's {theirs:?}: \
             the replay would measure a differently built program"
        ));
    }
    Ok(ours)
}

fn command_line(program: &str, args: &[&str], cwd: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(cwd)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The build/host header: compiler, target, cores, commit.
pub fn describe(root: &Path) -> Vec<(&'static str, String)> {
    let verbose = command_line("rustc", &["-vV"], root).unwrap_or_default();
    let field = |key: &str| {
        verbose
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .map_or("unknown".to_string(), |v| v.trim().to_string())
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        (
            "rustc",
            verbose.lines().next().unwrap_or("unknown").to_string(),
        ),
        ("target", field("host:")),
        ("nproc", nproc.to_string()),
        (
            "commit",
            command_line("git", &["rev-parse", "HEAD"], root).unwrap_or("unknown".to_string()),
        ),
    ]
}

/// The two programs under test, freshly built from source.
pub struct Programs {
    pub minnet: PathBuf,
    pub minnetd: PathBuf,
}

/// `cargo build --release` the CLI and the daemon from the root
/// workspace and return where they landed: `$CARGO_TARGET_DIR` when the
/// caller set one, the root's `target/` otherwise.
pub fn build_programs(root: &Path) -> Result<Programs, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "minnet",
            "-p",
            "minnet-daemon",
        ])
        .current_dir(root)
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of minnet/minnetd failed ({status})"));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        // A relative CARGO_TARGET_DIR is relative to cargo's cwd, which
        // was `root` above.
        Some(dir) => root.join(dir),
        None => root.join("target"),
    };
    let programs = Programs {
        minnet: target.join("release/minnet"),
        minnetd: target.join("release/minnetd"),
    };
    for p in [&programs.minnet, &programs.minnetd] {
        if !p.is_file() {
            return Err(format!("{} was not built", p.display()));
        }
    }
    Ok(programs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn release_profile_reads_only_its_table() {
        let manifest =
            "[package]\nname = \"x\"\n\n[profile.release]\n# why\ndebug = \"line-tables-only\"\n\
                        codegen-units = 1 # one\nlto = \"thin\"\n\n[profile.test]\nopt-level = 2\n";
        let p = release_profile(manifest);
        assert_eq!(p.len(), 3);
        assert_eq!(p["codegen-units"], "1");
        assert_eq!(p["lto"], "\"thin\"");
        assert!(release_profile("[package]\nname = \"x\"\n").is_empty());
    }

    #[test]
    fn this_repo_profiles_agree() {
        let profile = checked_release_profile(&repo_root()).expect("profiles match");
        assert!(!profile.is_empty());
    }
}

//! Deterministic workspace file discovery.
//!
//! The scan set is explicit rather than "everything under the root": Rust
//! sources that ship in the build (`src/`, `crates/*/src/`, `examples/`,
//! `crates/*/benches/`) plus every `Cargo.toml`. Integration-test trees
//! (`tests/`, `crates/*/tests/`) are test code by definition and are not
//! scanned; `crates/lint/fixtures/` holds deliberately-violating inputs and
//! must never be, which falls out of the same policy. Entries are sorted so
//! diagnostics come out in a stable order on every machine.

use std::path::Path;

/// The files one lint run covers, as workspace-relative `/`-paths.
#[derive(Debug, Default)]
pub struct WorkspaceFiles {
    /// Rust sources.
    pub rust: Vec<String>,
    /// Manifests.
    pub manifests: Vec<String>,
}

/// Discovers the scan set under `root`.
pub fn discover(root: &Path) -> std::io::Result<WorkspaceFiles> {
    let mut out = WorkspaceFiles::default();
    if root.join("Cargo.toml").is_file() {
        out.manifests.push("Cargo.toml".to_string());
    }
    collect_rs(root, Path::new("src"), &mut out.rust)?;
    collect_rs(root, Path::new("examples"), &mut out.rust)?;
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for name in sorted_entries(&crates_dir)? {
            let rel = Path::new("crates").join(&name);
            if !root.join(&rel).is_dir() {
                continue;
            }
            if root.join(&rel).join("Cargo.toml").is_file() {
                out.manifests.push(to_rel_string(&rel.join("Cargo.toml")));
            }
            collect_rs(root, &rel.join("src"), &mut out.rust)?;
            collect_rs(root, &rel.join("benches"), &mut out.rust)?;
        }
    }
    out.rust.sort();
    out.manifests.sort();
    Ok(out)
}

/// Recursively collects `*.rs` under `root/rel` (if it exists).
fn collect_rs(root: &Path, rel: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    let abs = root.join(rel);
    if !abs.is_dir() {
        return Ok(());
    }
    for name in sorted_entries(&abs)? {
        let child_rel = rel.join(&name);
        let child_abs = root.join(&child_rel);
        if child_abs.is_dir() {
            collect_rs(root, &child_rel, out)?;
        } else if name.to_string_lossy().ends_with(".rs") {
            out.push(to_rel_string(&child_rel));
        }
    }
    Ok(())
}

/// Directory entries sorted by name (hidden entries and `target` skipped).
fn sorted_entries(dir: &Path) -> std::io::Result<Vec<std::ffi::OsString>> {
    let mut names: Vec<std::ffi::OsString> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.file_name())
        .filter(|n| {
            let s = n.to_string_lossy();
            !s.starts_with('.') && s != "target"
        })
        .collect();
    names.sort();
    Ok(names)
}

/// Renders a relative path with `/` separators regardless of platform.
fn to_rel_string(p: &Path) -> String {
    let mut parts: Vec<String> = Vec::new();
    for c in p.components() {
        parts.push(c.as_os_str().to_string_lossy().into_owned());
    }
    parts.join("/")
}

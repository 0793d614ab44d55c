//! Embeds the build host's provenance into the benchmark binary: the rustc
//! version, the git revision (when the sources are a git checkout), and a
//! content fingerprint of the workspace sources, which identifies the code
//! under test even where no git metadata exists.

use std::path::{Path, PathBuf};
use std::process::Command;

fn main() {
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let root = manifest
        .parent()
        .expect("perfbench lives in the repository root");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let rustc_version =
        command_output(Command::new(rustc).arg("--version")).unwrap_or_else(|| "unknown".into());
    let git_rev = command_output(
        Command::new("git")
            .arg("-C")
            .arg(root)
            .args(["rev-parse", "HEAD"]),
    )
    .unwrap_or_else(|| "none".into());
    let mut files = Vec::new();
    for dir in ["crates", "perfbench/src"] {
        collect(&root.join(dir), &mut files);
    }
    files.sort();
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for f in &files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .into_owned();
        for b in rel.bytes().chain(std::fs::read(f).unwrap_or_default()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    println!("cargo:rustc-env=PERFBENCH_RUSTC={rustc_version}");
    println!("cargo:rustc-env=PERFBENCH_GIT_REV={git_rev}");
    println!("cargo:rustc-env=PERFBENCH_SOURCE_FNV={h:016x}");
    println!("cargo:rerun-if-changed=../crates");
    println!("cargo:rerun-if-changed=src");
}

fn command_output(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?.trim().to_owned();
    (!text.is_empty()).then_some(text)
}

/// Every `.rs` and `Cargo.toml` file below `dir`, skipping build outputs.
fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                collect(&path, out);
            }
        } else if path.file_name().is_some_and(|n| {
            n == "Cargo.toml" || Path::new(n).extension().is_some_and(|e| e == "rs")
        }) {
            out.push(path);
        }
    }
}

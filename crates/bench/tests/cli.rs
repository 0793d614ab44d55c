//! End-to-end checks of the `reproduce` command line.

use std::path::PathBuf;
use std::process::Command;

/// A fresh, empty directory under the system temp dir.
fn fresh_out_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rcr-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create output dir");
    dir
}

#[test]
fn unknown_id_is_rejected_before_any_experiment_runs() {
    let out = fresh_out_dir("bad-id");
    let run = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["e1", "e99", "--out"])
        .arg(&out)
        .output()
        .expect("run reproduce");
    let stdout = String::from_utf8_lossy(&run.stdout);
    let stderr = String::from_utf8_lossy(&run.stderr);
    let written: Vec<_> = std::fs::read_dir(&out)
        .expect("read output dir")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    let _ = std::fs::remove_dir_all(&out);

    assert_eq!(run.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("unknown experiment `e99` (expected e1..e23)"),
        "stderr: {stderr}"
    );
    assert!(!stdout.contains("== E1"), "E1 ran first:\n{stdout}");
    assert!(written.is_empty(), "artifacts written: {written:?}");
}

#[test]
fn bench_diff_rejects_tolerances_that_disable_or_break_the_gate() {
    let summary = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_E22.json");
    let bench_diff = |tol: &str| {
        Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .args(["bench-diff", summary, summary, "--tol", tol])
            .output()
            .expect("run reproduce")
    };
    assert_eq!(bench_diff("0.05").status.code(), Some(0), "valid --tol");
    for tol in ["inf", "-inf", "NaN", "-1", "-0.01", "lots"] {
        let run = bench_diff(tol);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "--tol {tol}: {stderr}");
        assert!(
            stderr.contains("usage: reproduce bench-diff"),
            "--tol {tol}: {stderr}"
        );
    }
}

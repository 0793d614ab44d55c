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

#[test]
fn one_measurement_feeds_every_tier_ladder_table() {
    let out = fresh_out_dir("ladder");
    let run = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["e5", "e11", "e16", "e22", "--smoke", "--out"])
        .arg(&out)
        .output()
        .expect("run reproduce");
    let read = |name: &str| -> serde_json::Value {
        let text = std::fs::read_to_string(out.join(name)).unwrap_or_default();
        serde_json::from_str(&text).unwrap_or(serde_json::Value::Null)
    };
    let [e5, e11, e16, e22] = [
        "e5_perf_gap.json",
        "e11_interp_ablation.json",
        "e16_gap_closure.json",
        "e22_jit_gap.json",
    ]
    .map(read);
    let _ = std::fs::remove_dir_all(&out);

    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(run.status.success(), "stderr: {stderr}");
    assert_eq!(e5, e11, "E5 and E11 print different measurements");
    let kernels = e5.as_array().expect("E5 rows");
    assert_eq!(kernels.len(), 4);
    for (i, g) in kernels.iter().enumerate() {
        let kernel = &g["kernel"];
        let (closure, jit) = (&e16[i], &e22[i]);
        assert_eq!((&closure["kernel"], &jit["kernel"]), (kernel, kernel));
        let median = |tier: &str| &g["tiers"][tier]["median_s"];
        assert!(median("interp").is_number(), "{kernel}: no tree-walk time");
        assert_eq!(&jit["interp_s"], median("interp"), "{kernel}: tree-walk");
        for tier in ["vm", "vm_fused", "vm_jit"] {
            let field = format!("{tier}_s");
            assert_eq!(
                &closure[field.as_str()],
                median(tier),
                "{kernel}: E16 {tier}"
            );
            assert_eq!(&jit[field.as_str()], median(tier), "{kernel}: E22 {tier}");
        }
        assert!(g["checksum"].is_string(), "{kernel}: no checksum in E5");
        assert_eq!(g["checksum"], jit["checksum"], "{kernel}: checksum");
        assert_eq!(g["jit_fns_compiled"], jit["jit_fns_compiled"], "{kernel}");
    }
}

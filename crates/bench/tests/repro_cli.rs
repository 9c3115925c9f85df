//! The `repro` binary's usage errors: a malformed flag value or an unknown
//! experiment exits 2 with the offending flag or experiment named on the
//! first line of stderr, never a panic, and runs nothing (no run banner on
//! stdout). Also runs the ablations that build their filters with explicit
//! tuning at a small size.

use std::process::Command;

/// Runs `repro` with `args` (plus a small run writing only into a scratch
/// directory, in case an experiment does start) and checks the usage error:
/// the first line of stderr must contain every one of `needles`.
fn assert_usage_error(args: &[&str], needles: &[&str]) {
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro_cli");
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .args(["--queries", "100", "--out"])
        .arg(&out_dir)
        .output()
        .expect("spawn repro");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{args:?}: stderr {stderr}");
    let first = stderr.lines().next().unwrap_or_default();
    for needle in needles {
        assert!(first.contains(needle), "{args:?}: stderr {stderr}");
    }
    assert!(!stderr.contains("panicked"), "{args:?}: stderr {stderr}");
    assert!(!stdout.contains("[repro]"), "{args:?}: stdout {stdout}");
}

/// Each malformed command line and what the first stderr line must name.
const CASES: &[(&[&str], &[&str])] = &[
    (&["fig1", "--n", "abc"], &["--n", "abc"]),
    (&["fig1", "--queries", "x"], &["--queries", "x"]),
    (&["fig1", "--seed", "-1"], &["--seed", "-1"]),
    (&["fig1", "--budgets", "8,x"], &["--budgets", "x"]),
    (&["nosuch", "--n", "1000"], &["nosuch"]),
    // Deleted experiments are unknown, not silently ignored.
    (&["serving", "--n", "1000"], &["serving"]),
];

#[test]
fn usage_errors_exit_2_and_name_the_culprit() {
    for &(args, needles) in CASES {
        assert_usage_error(args, needles);
    }
}

/// The ablations that build filters through explicit `GrafiteTuning` /
/// `BucketingTuning` values or a workload-aware query sample.
const TUNED_ABLATIONS: [&str; 3] = [
    "ablation_pow2",
    "ablation_bucketing",
    "ablation_wa_bucketing",
];

#[test]
fn tuned_ablations_run_and_write_their_csv() {
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro_ablations");
    for experiment in TUNED_ABLATIONS {
        let csv = out_dir.join(format!("{experiment}.csv"));
        let _ = std::fs::remove_file(&csv);
        let output = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args([experiment, "--n", "4000", "--queries", "500", "--out"])
            .arg(&out_dir)
            .output()
            .expect("spawn repro");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(0), "{experiment}: {stderr}");
        assert!(!stderr.contains("panicked"), "{experiment}: {stderr}");
        let written = std::fs::read_to_string(&csv).expect("CSV written");
        assert!(
            written.lines().count() > 1,
            "{experiment}: CSV has no rows: {written}"
        );
    }
}

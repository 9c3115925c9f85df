//! The `repro` binary's usage errors: a malformed flag value or an unknown
//! experiment exits 2 with the offending flag or experiment named on the
//! first line of stderr, never a panic, and runs nothing (no run banner on
//! stdout). Also runs every figure of the paper, and the ablations that
//! build their filters with explicit tuning, at a small size, and checks
//! that every CSV they write is well formed.

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
    // No experiment runs on zero keys or queries, or sizes a filter from a
    // budget that is not finite and positive.
    (&["fig6", "--queries", "0"], &["--queries", "0"]),
    (&["fig1", "--n", "0"], &["--n", "0"]),
    (&["fig5", "--budgets", "nan"], &["--budgets", "nan"]),
    (&["fig5", "--budgets", "8,-4"], &["--budgets", "-4"]),
    (&["fig5", "--budgets", "0"], &["--budgets", "0"]),
    (&["fig5", "--budgets", "inf"], &["--budgets", "inf"]),
];

#[test]
fn usage_errors_exit_2_and_name_the_culprit() {
    for &(args, needles) in CASES {
        assert_usage_error(args, needles);
    }
}

/// The field count of every record of an RFC 4180 CSV body: commas and
/// line breaks inside a quoted field do not count.
fn field_counts(csv: &str) -> Vec<usize> {
    let (mut counts, mut fields, mut quoted) = (Vec::new(), 1, false);
    for c in csv.chars() {
        match c {
            '"' => quoted = !quoted,
            ',' if !quoted => fields += 1,
            '\n' if !quoted => {
                counts.push(fields);
                fields = 1;
            }
            _ => {}
        }
    }
    counts
}

/// Runs `experiment` at a small size into `out_dir` and checks that it exits
/// 0 without a panic and writes each of `csvs` with at least one row, every
/// row holding as many fields as the header.
fn assert_runs_and_writes(experiment: &str, csvs: &[&str], out_dir: &std::path::Path) {
    for csv in csvs {
        let _ = std::fs::remove_file(out_dir.join(format!("{csv}.csv")));
    }
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([experiment, "--n", "4000", "--queries", "500", "--out"])
        .arg(out_dir)
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "{experiment}: {stderr}");
    assert!(!stderr.contains("panicked"), "{experiment}: {stderr}");
    for csv in csvs {
        let written = std::fs::read_to_string(out_dir.join(format!("{csv}.csv")))
            .unwrap_or_else(|e| panic!("{experiment}: {csv}.csv not written: {e}"));
        let counts = field_counts(&written);
        assert!(counts.len() > 1, "{csv}: CSV has no rows: {written}");
        assert!(
            counts.iter().all(|&n| n == counts[0]),
            "{csv}: rows {counts:?} fields against a {}-field header: {written}",
            counts[0]
        );
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
        assert_runs_and_writes(experiment, &[experiment], &out_dir);
    }
}

/// Every table and figure of the paper, and the CSVs each writes.
const FIGURES: &[(&str, &[&str])] = &[
    ("fig1", &["fig1"]),
    ("fig3", &["fig3"]),
    ("fig4", &["fig4", "fig4_times"]),
    ("fig5", &["fig5", "fig5_times"]),
    ("fig6", &["fig6"]),
    ("fig7", &["fig7"]),
    ("table1", &["table1"]),
    ("fb", &["fb"]),
    ("normal_check", &["normal_check"]),
];

#[test]
fn figures_run_and_write_well_formed_csvs() {
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro_figures");
    for &(experiment, csvs) in FIGURES {
        assert_runs_and_writes(experiment, csvs, &out_dir);
    }
    // fig7 builds at most `--n` keys: every row's `n` (the first column)
    // is the 4000 asked for.
    let fig7 = std::fs::read_to_string(out_dir.join("fig7.csv")).unwrap();
    let mut lines = fig7.lines();
    assert!(lines.next().is_some_and(|h| h.starts_with("n,")), "{fig7}");
    assert!(lines.all(|row| row.starts_with("4000,")), "{fig7}");
}

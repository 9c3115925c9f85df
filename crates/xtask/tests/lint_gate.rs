//! Self-tests for the xtask lint gate.
//!
//! Two directions: the *real* tree must pass clean (this is what makes the
//! lints self-enforcing under plain `cargo test`), and the committed
//! seeded-violation fixture under `tests/fixtures/seeded/` must make every
//! lint fire at the exact `file:line` it plants.

use std::path::PathBuf;

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/seeded")
}

#[test]
fn real_tree_is_clean() {
    let report = xtask::run_lints(&xtask::workspace_root());
    let rendered: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
    assert!(
        rendered.is_empty(),
        "the tree must stay lint-clean; violations:\n{}",
        rendered.join("\n")
    );
    assert!(report.files_scanned > 10, "scoped lints scanned too little");
}

#[test]
fn seeded_fixture_fires_every_lint() {
    let report = xtask::run_lints(&fixture_root());
    let got: Vec<(String, String, usize)> = report
        .findings
        .iter()
        .map(|f| (f.lint.to_string(), f.file.clone(), f.line))
        .collect();

    let expect = |lint: &str, file: &str, line: usize| {
        assert!(
            got.iter()
                .any(|(l, f, n)| l == lint && f == file && *n == line),
            "expected {lint} at {file}:{line}; got:\n{:#?}",
            report
                .findings
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
        );
    };

    // L1 panic-freedom: bare index, unwrap, panic! in the untrusted file.
    expect("L1", "crates/succinct/src/io.rs", 4);
    expect("L1", "crates/succinct/src/io.rs", 6);
    expect("L1", "crates/succinct/src/io.rs", 9);
    // ...and a bare index inside a `read_from` body of a core file.
    expect("L1", "crates/core/src/persist.rs", 4);
    // L6 confinement: an unjustified `unsafe` inside the allowlisted
    // kernel file, any `unsafe` outside the allowlist, and an atomic
    // ordering other than `Relaxed`.
    expect("L6", "crates/succinct/src/simd/kernels.rs", 12);
    expect("L6", "crates/core/src/persist.rs", 8);
    expect("L6", "crates/store/src/manifest.rs", 10);
    // L7 dataflow taint: the frame-declared `quota` reaches
    // `with_capacity` unlaundered, and a decoded word reaches a bare `*`.
    expect("L7", "crates/server/src/protocol.rs", 6);
    expect("L7", "crates/succinct/src/io.rs", 5);

    // The `.min(payload.len())`-bounded twin (protocol.rs line 13) must
    // NOT fire: the sanitizer launders the taint.
    assert!(
        !got.iter()
            .any(|(l, f, n)| l == "L7" && f == "crates/server/src/protocol.rs" && *n == 13),
        "a bounded allocation size must pass the taint lint"
    );
    // Nor may the `checked_mul` twin (io.rs line 14).
    assert!(
        !got.iter()
            .any(|(l, f, n)| l == "L7" && f == "crates/succinct/src/io.rs" && *n == 14),
        "checked arithmetic must pass the taint lint"
    );
    assert_eq!(
        got.iter().filter(|(l, _, _)| l == "L7").count(),
        2,
        "exactly two taint violations are seeded"
    );
    // The `Relaxed` twin (manifest.rs line 6) must NOT fire.
    assert_eq!(
        got.iter()
            .filter(|(l, f, _)| l == "L6" && f == "crates/store/src/manifest.rs")
            .count(),
        1,
        "only the Acquire load may fire, not its Relaxed twin"
    );

    // The `// safety:`-justified unsafe (kernels.rs line 6) must NOT fire.
    assert!(
        !got.iter()
            .any(|(l, f, n)| l == "L6" && f == "crates/succinct/src/simd/kernels.rs" && *n == 6),
        "a justified unsafe block must pass the confinement audit"
    );

    // The lint:allow'd index (io.rs line 8) is suppressed but counted.
    assert!(
        !got.iter()
            .any(|(_, f, n)| f == "crates/succinct/src/io.rs" && *n == 8),
        "lint:allow must suppress the finding"
    );
    assert_eq!(report.allows.len(), 1, "exactly one suppression is seeded");
    let allow = &report.allows[0];
    assert_eq!(allow.file, "crates/succinct/src/io.rs");
    assert_eq!(allow.line, 8);
    assert_eq!(allow.reason, "fixture demonstrates a counted suppression");
}

#[test]
fn cli_rejects_unknown_usage() {
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("frobnicate")
        .status()
        .expect("spawn xtask");
    assert_eq!(status.code(), Some(2), "unknown subcommand must exit 2");
}

#[test]
fn cli_lint_passes_on_the_real_tree() {
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("lint")
        .output()
        .expect("spawn xtask");
    assert!(
        output.status.success(),
        "xtask lint failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
}

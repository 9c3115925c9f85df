//! `cargo run -p xtask -- lint` — the workspace's static-analysis gate.

use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: cargo run -p xtask -- lint");
    eprintln!();
    eprintln!("Runs the repo-specific lints (L1 panic-freedom, L6 unsafe and");
    eprintln!("atomic-ordering confinement, L7 dataflow taint).");
    eprintln!("Exits 1 if any violation is found.");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") if args.len() == 1 => {}
        _ => return usage(),
    }

    let root = xtask::workspace_root();
    let report = xtask::run_lints(&root);

    for finding in &report.findings {
        println!("{finding}");
    }
    if !report.allows.is_empty() {
        eprintln!(
            "note: {} lint:allow suppression(s) in effect:",
            report.allows.len()
        );
        for allow in &report.allows {
            eprintln!(
                "  {}:{}: [{}] allowed: {}",
                allow.file, allow.line, allow.lint, allow.reason
            );
        }
    }
    let per_lint: Vec<String> = report
        .per_lint
        .iter()
        .map(|s| {
            format!(
                "{} {} ({:.1}ms)",
                s.lint,
                s.findings,
                s.wall.as_secs_f64() * 1e3
            )
        })
        .collect();
    eprintln!("per-lint: {}", per_lint.join(" | "));
    eprintln!(
        "xtask lint: {} file(s) scanned, {} violation(s), {} suppression(s)",
        report.files_scanned,
        report.findings.len(),
        report.allows.len()
    );
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! Repo-specific static analysis for the Grafite workspace.
//!
//! `cargo run -p xtask -- lint` runs three lints (see [`lints`]) that
//! encode the parts of this repository's correctness contract rustc and
//! clippy cannot express:
//!
//! - **L1 panic-freedom** — no `unwrap`/`expect`/panicking macros/bare
//!   indexing in untrusted-input scopes;
//! - **L6 confinement** — `unsafe` only in the allowlisted SIMD kernel
//!   module, every block `// safety:`-justified, and no atomic ordering
//!   but `Relaxed` anywhere in the sweep;
//! - **L7 dataflow taint** — a value *derived from attacker bytes*
//!   (whatever it is named) never reaches an allocation size, slice
//!   index, raw-read offset, shift amount, or bare `+`/`*` operand
//!   without passing a `checked_*`/`saturating_*`/`min`/`clamp`
//!   sanitizer or an explicit bounds comparison ([`dataflow`]).
//!
//! There are no L2, L3, L4, L5 or L8: lint ids are never reused. The
//! workspace's `[workspace.lints]` table makes rustc forbid `unsafe_code`
//! and warn on `missing_docs`, and the golden suites in
//! `tests/format_golden.rs` fail when a format version moves without its
//! regenerated goldens.
//!
//! The crate is dependency-free and fully offline: plain `std::fs` walks
//! plus a hand-rolled Rust lexer ([`scan`]) that masks comments and
//! strings before any rule looks at the tokens. The analysis trades a
//! small amount of precision (recovered via the counted
//! `// lint:allow(reason)` escape hatch) for zero build-time cost, zero
//! dependencies, and rules that are trivially auditable in [`config`].
//! Each source file is read and tokenized exactly once per run; the
//! report carries per-lint wall time so the cost stays observable.

pub mod config;
pub mod dataflow;
pub mod lints;
pub mod scan;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use lints::{Finding, Scopes, Sink};
use scan::{AllowUse, SourceFile};

/// The lint ids, in report order.
pub const LINT_IDS: [&str; 3] = ["L1", "L6", "L7"];

/// Per-lint cost and yield, for the summary footer and the CI step
/// summary.
#[derive(Clone, Debug)]
pub struct LintStat {
    /// Lint id (`"L1"`…`"L7"`).
    pub lint: &'static str,
    /// Violations this lint reported.
    pub findings: usize,
    /// Wall time spent inside this lint's checker.
    pub wall: Duration,
}

/// The outcome of a full lint pass.
#[derive(Default)]
pub struct LintReport {
    /// Violations, sorted by file then line. Non-empty ⇒ the run fails.
    pub findings: Vec<Finding>,
    /// Counted `lint:allow` suppressions, for the summary footer.
    pub allows: Vec<AllowUse>,
    /// How many files the scoped lints actually scanned.
    pub files_scanned: usize,
    /// Per-lint violation counts and wall times, in [`LINT_IDS`] order.
    pub per_lint: Vec<LintStat>,
}

/// Locates the workspace root: the ancestor of this crate's manifest dir
/// that holds the workspace `Cargo.toml`.
pub fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

/// Recursively collects `.rs` files under `root/prefix`, returned as
/// workspace-relative paths with `/` separators, sorted.
fn walk_rs(root: &Path, prefix: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut stack = vec![root.join(prefix)];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                if let Ok(rel) = path.strip_prefix(root) {
                    out.push(rel.to_string_lossy().replace('\\', "/"));
                }
            }
        }
    }
    out.sort();
    out
}

/// Runs all three lints from `root` and returns the combined report.
///
/// Every `.rs` file any lint cares about is read from disk and tokenized
/// exactly once; the resulting [`SourceFile`] cache is shared by L1, L6
/// and L7.
pub fn run_lints(root: &Path) -> LintReport {
    let mut sink = Sink::default();

    // The union of files the scoped lints need, loaded once each.
    let mut scoped_files: Vec<String> = config::UNTRUSTED_FILES
        .iter()
        .map(|s| s.to_string())
        .collect();
    for glob in config::UNTRUSTED_FN_GLOBS {
        scoped_files.extend(walk_rs(root, glob));
    }
    for glob in config::UNSAFE_SCAN_GLOBS {
        scoped_files.extend(walk_rs(root, glob));
    }
    scoped_files.sort();
    scoped_files.dedup();

    let mut cache: BTreeMap<String, SourceFile> = BTreeMap::new();
    for rel in &scoped_files {
        if let Ok(raw) = std::fs::read_to_string(root.join(rel)) {
            cache.insert(rel.clone(), SourceFile::scan(rel, &raw));
        }
    }
    let files_scanned = cache.len();

    let mut wall: BTreeMap<&'static str, Duration> = BTreeMap::new();
    let timed = |wall: &mut BTreeMap<&'static str, Duration>,
                 lint: &'static str,
                 sink: &mut Sink,
                 f: &mut dyn FnMut(&mut Sink)| {
        let t = Instant::now();
        f(sink);
        *wall.entry(lint).or_default() += t.elapsed();
    };

    // L1/L7 share one untrusted-surface scope decision per file.
    for file in cache.values() {
        let Some(scopes) = Scopes::untrusted(file) else {
            continue;
        };
        timed(&mut wall, "L1", &mut sink, &mut |s| {
            lints::panic_freedom::check(file, &scopes, s);
        });
        timed(&mut wall, "L7", &mut sink, &mut |s| {
            lints::taint::check(file, &scopes, s);
        });
    }

    // L6 over the unsafe-scan globs.
    for (rel, file) in &cache {
        if config::UNSAFE_SCAN_GLOBS.iter().any(|g| rel.starts_with(g)) {
            let allowlisted = config::UNSAFE_KERNEL_FILES.contains(&rel.as_str());
            timed(&mut wall, "L6", &mut sink, &mut |s| {
                lints::unsafe_kernels::check(file, allowlisted, s);
            });
        }
    }

    sink.findings
        .sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    sink.allows
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    let per_lint = LINT_IDS
        .iter()
        .map(|&lint| LintStat {
            lint,
            findings: sink.findings.iter().filter(|f| f.lint == lint).count(),
            wall: wall.get(lint).copied().unwrap_or_default(),
        })
        .collect();
    LintReport {
        findings: sink.findings,
        allows: sink.allows,
        files_scanned,
        per_lint,
    }
}

//! The three repo-specific lints behind `cargo run -p xtask -- lint`.
//!
//! | id | name | what it proves |
//! |---|---|---|
//! | L1 | panic-freedom | no `unwrap`/`expect`/`panic!`-family macro/bare indexing in untrusted-input scopes |
//! | L6 | confinement | `unsafe` appears only in the allowlisted SIMD kernel module, every block `// safety:`-justified; no atomic ordering but `Relaxed` appears at all |
//! | L7 | dataflow taint | no untrusted value reaches an allocation size / index / shift / raw read / bare `+`/`*` without a guard |
//!
//! L1, L6's `// safety:` rule, and L7 honour the `// lint:allow(reason)` escape hatch
//! (same line or the line directly above); suppressions are counted and
//! reported, never silent.

pub mod panic_freedom;
pub mod taint;
pub mod unsafe_kernels;

use crate::scan::{AllowUse, SourceFile};

/// One lint violation, pointing at `file:line`.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Lint id (one of [`crate::LINT_IDS`]).
    pub lint: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line (1 for file-level findings).
    pub line: usize,
    /// Human-readable diagnostic.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// Sink shared by every lint: routes each candidate violation either to
/// the findings (fail the build) or, when a `// lint:allow(reason)` covers
/// its line, to the counted suppressions.
#[derive(Default)]
pub struct Sink {
    /// Violations that will fail the run.
    pub findings: Vec<Finding>,
    /// Suppressed-and-counted `lint:allow` uses.
    pub allows: Vec<AllowUse>,
}

impl Sink {
    /// Reports a violation in `file` unless an allow comment covers it.
    pub fn emit(&mut self, file: &SourceFile, lint: &'static str, line: usize, message: String) {
        if let Some(reason) = file.allow_reason(line) {
            self.allows.push(AllowUse {
                file: file.rel.clone(),
                line,
                lint,
                reason,
            });
        } else {
            self.findings.push(Finding {
                lint,
                file: file.rel.clone(),
                line,
                message,
            });
        }
    }

    /// Reports a violation with no allow-comment escape (L6's confinement
    /// and ordering rules cannot be waived inline).
    pub fn emit_unconditional(
        &mut self,
        file: String,
        lint: &'static str,
        line: usize,
        message: String,
    ) {
        self.findings.push(Finding {
            lint,
            file,
            line,
            message,
        });
    }
}

/// Inclusive line ranges a scoped lint applies to.
#[derive(Clone, Debug)]
pub struct Scopes(pub Vec<(usize, usize)>);

impl Scopes {
    /// A scope covering the whole file.
    pub fn whole_file() -> Self {
        Scopes(vec![(1, usize::MAX)])
    }

    /// The union of the extents of the named functions in `file`.
    pub fn of_functions(file: &SourceFile, names: &[&str]) -> Self {
        let mut v = Vec::new();
        for name in names {
            v.extend(file.fn_extents(name));
        }
        Scopes(v)
    }

    /// The shared untrusted-surface scope for `file`, from the single
    /// policy table in [`crate::config`]: the whole file when its path is
    /// in `UNTRUSTED_FILES`, the bodies of the `UNTRUSTED_FNS` family when
    /// it sits under `UNTRUSTED_FN_GLOBS`, `None` otherwise. L1 and L7
    /// both scope through this one decision.
    pub fn untrusted(file: &SourceFile) -> Option<Scopes> {
        let rel = file.rel.as_str();
        if crate::config::UNTRUSTED_FILES.contains(&rel) {
            return Some(Scopes::whole_file());
        }
        if crate::config::UNTRUSTED_FN_GLOBS
            .iter()
            .any(|g| rel.starts_with(g))
        {
            let s = Scopes::of_functions(file, crate::config::UNTRUSTED_FNS);
            return (!s.is_empty()).then_some(s);
        }
        None
    }

    /// Whether `line` is in scope and outside `#[cfg(test)]` code.
    pub fn contains(&self, file: &SourceFile, line: usize) -> bool {
        !file.in_test_code(line) && self.0.iter().any(|&(a, b)| a <= line && line <= b)
    }

    /// Whether any scope exists at all.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both scoped lints must consume the one untrusted-surface table:
    /// a bare index and decoded-value arithmetic inside a `read_from` body
    /// under a fn-glob path flag for L1 and L7 through the *same*
    /// `Scopes::untrusted` decision, while the identical code outside that
    /// scope stays silent.
    #[test]
    fn panic_freedom_and_arithmetic_share_the_untrusted_table() {
        let src = "\
pub fn read_from(words: &[u64]) -> u64 {
    let x = words[words[0] as usize + 1];
    x
}
pub fn trusted_helper(words: &[u64]) -> u64 {
    let x = words[words[0] as usize + 1];
    x
}
";
        // A path under UNTRUSTED_FN_GLOBS but not in UNTRUSTED_FILES.
        let file = SourceFile::scan("crates/core/src/synthetic.rs", src);
        let scopes = Scopes::untrusted(&file).expect("read_from body must be in scope");
        let mut sink = Sink::default();
        crate::lints::panic_freedom::check(&file, &scopes, &mut sink);
        crate::lints::taint::check(&file, &scopes, &mut sink);
        let lines: Vec<(&'static str, usize)> =
            sink.findings.iter().map(|f| (f.lint, f.line)).collect();
        assert!(lines.contains(&("L1", 2)), "{lines:?}");
        assert!(
            sink.findings
                .iter()
                .any(|f| f.lint == "L7" && f.line == 2 && f.message.contains("arithmetic")),
            "{lines:?}"
        );
        assert!(
            lines.iter().all(|&(_, l)| l == 2),
            "the trusted twin must stay out of scope: {lines:?}"
        );

        // A path outside every glob gets no scope at all.
        let outside = SourceFile::scan("shims/proptest/src/synthetic.rs", src);
        assert!(Scopes::untrusted(&outside).is_none());
    }

    /// Whole-file scope comes from the same table's UNTRUSTED_FILES list.
    #[test]
    fn untrusted_files_scope_whole_file() {
        let file = SourceFile::scan("crates/server/src/protocol.rs", "fn any() {}\n");
        let scopes = Scopes::untrusted(&file).expect("listed file must be whole-file scoped");
        assert!(scopes.contains(&file, 1));
    }
}

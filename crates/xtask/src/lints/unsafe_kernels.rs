//! L6 — unsafe-kernel confinement.
//!
//! The workspace is `unsafe`-free by policy (L2), with exactly one
//! carve-out: the SIMD kernel module(s) listed in
//! [`crate::config::UNSAFE_KERNEL_FILES`]. This lint makes the carve-out
//! auditable from both sides:
//!
//! * an `unsafe` token in any swept file **outside** the allowlist is a
//!   violation outright — the allowlist is a config change, reviewed as
//!   such, never an inline waiver;
//! * inside an allowlisted file, every `unsafe` token must carry a
//!   `// safety: …` justification on the same line or within the few
//!   lines above (mirroring L8's `// ordering:` discipline), stating the
//!   invariant that makes the block sound — the CPU-feature check, the
//!   bounds argument for a raw load or gather.
//!
//! The scan runs over lexed tokens of masked source, so `unsafe` in
//! comments, strings, or doc text never matches, and the module-level
//! `#![allow(unsafe_code)]` attribute (identifier `unsafe_code`) is a
//! different token and is ignored.

use crate::config::{SAFETY_COMMENT_WINDOW, SAFETY_JUSTIFICATION};
use crate::lints::Sink;
use crate::scan::SourceFile;

/// Runs L6 over `file` (already filtered to the sweep globs by the
/// caller). `allowlisted` says whether the file may contain justified
/// `unsafe` at all.
pub fn check(file: &SourceFile, allowlisted: bool, sink: &mut Sink) {
    for t in &file.tokens {
        if t.text != "unsafe" || file.in_test_code(t.line) {
            continue;
        }
        if !allowlisted {
            sink.emit_unconditional(
                file.rel.clone(),
                "L6",
                t.line,
                "`unsafe` outside the kernel allowlist (config::UNSAFE_KERNEL_FILES)".into(),
            );
            continue;
        }
        let lo = t.line.saturating_sub(SAFETY_COMMENT_WINDOW);
        let justified = (lo..=t.line).any(|l| {
            file.comment_on(l)
                .is_some_and(|c| c.contains(SAFETY_JUSTIFICATION))
        });
        if !justified {
            sink.emit(
                file,
                "L6",
                t.line,
                format!(
                    "`unsafe` without a `// safety:` justification within \
                     {SAFETY_COMMENT_WINDOW} lines"
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str, allowlisted: bool) -> Vec<String> {
        let f = SourceFile::scan("t.rs", src);
        let mut sink = Sink::default();
        check(&f, allowlisted, &mut sink);
        sink.findings.iter().map(|f| f.to_string()).collect()
    }

    #[test]
    fn unsafe_outside_allowlist_flags() {
        let found = run("pub fn f(p: *const u64) -> u64 { unsafe { *p } }", false);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("allowlist"));
    }

    #[test]
    fn unjustified_unsafe_in_kernel_flags() {
        let found = run("pub fn f(p: *const u64) -> u64 { unsafe { *p } }", true);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("safety:"));
    }

    #[test]
    fn justified_unsafe_in_kernel_passes() {
        let found = run(
            "pub fn f(p: *const u64) -> u64 {\n    // safety: caller guarantees p is valid\n    unsafe { *p }\n}",
            true,
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn mentions_in_comments_and_idents_ignored() {
        let found = run(
            "//! talks about unsafe in prose\n#![allow(unsafe_code)]\npub fn f() {} // unsafe here too\n",
            false,
        );
        assert!(found.is_empty(), "{found:?}");
    }
}

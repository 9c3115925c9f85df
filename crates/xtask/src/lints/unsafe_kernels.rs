//! L6 — confinement of `unsafe` and of atomic orderings.
//!
//! The workspace is `unsafe`-free by policy (`[workspace.lints]` forbids
//! `unsafe_code`; `grafite-succinct` denies it), with exactly one
//! carve-out: the SIMD kernel module(s) listed in
//! [`crate::config::UNSAFE_KERNEL_FILES`]. This lint makes the carve-out
//! auditable from both sides:
//!
//! * an `unsafe` token in any swept file **outside** the allowlist is a
//!   violation outright — the allowlist is a config change, reviewed as
//!   such, never an inline waiver;
//! * inside an allowlisted file, every `unsafe` token must carry a
//!   `// safety: …` justification on the same line or within the few
//!   lines above, stating the invariant that makes the block sound — the
//!   CPU-feature check, the bounds argument for a raw load or gather.
//!
//! Every atomic in the swept trees is `Relaxed`: atomics count events or
//! latch a flag, and no data is published through one (shared state
//! moves behind locks and `Arc` swaps). So the token sequence
//! `Ordering :: {Acquire|Release|AcqRel|SeqCst}` is a violation outright
//! too, with no inline waiver: a protocol that needs one is a design
//! change, reviewed as such.
//!
//! The scan runs over lexed tokens of masked source, so `unsafe` or an
//! ordering in comments, strings, or doc text never matches, and the
//! module-level `#![allow(unsafe_code)]` attribute (identifier
//! `unsafe_code`) is a different token and is ignored. `#[cfg(test)]`
//! code is skipped.

use crate::config::{SAFETY_COMMENT_WINDOW, SAFETY_JUSTIFICATION};
use crate::lints::Sink;
use crate::scan::SourceFile;

/// The atomic orderings stronger than `Relaxed`, none of which may appear.
const STRONG_ORDERINGS: &[&str] = &["Acquire", "Release", "AcqRel", "SeqCst"];

/// Runs L6 over `file` (already filtered to the sweep globs by the
/// caller). `allowlisted` says whether the file may contain justified
/// `unsafe` at all.
pub fn check(file: &SourceFile, allowlisted: bool, sink: &mut Sink) {
    let toks = &file.tokens;
    for (i, t) in toks.iter().enumerate() {
        if file.in_test_code(t.line) {
            continue;
        }
        if t.text == "Ordering" {
            if let (Some(sep), Some(v)) = (toks.get(i + 1), toks.get(i + 2)) {
                if sep.text == "::" && STRONG_ORDERINGS.contains(&v.text.as_str()) {
                    sink.emit_unconditional(
                        file.rel.clone(),
                        "L6",
                        t.line,
                        format!("`Ordering::{}`: every atomic must be `Relaxed`", v.text),
                    );
                }
            }
            continue;
        }
        if t.text != "unsafe" {
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

    /// Every ordering but `Relaxed` flags wherever it appears outside test
    /// code, even in an allowlisted file and under a `lint:allow`; the
    /// same words in a comment, a string, `std::cmp::Ordering` or a
    /// `#[cfg(test)]` module do not.
    #[test]
    fn only_relaxed_orderings_pass() {
        // `@` stands for `Ordering::`, so a text search of the tree for
        // strong orderings finds none in this fixture.
        let src = "\
pub fn f(a: &AtomicU64) -> u64 {
    a.fetch_add(1, @Relaxed);
    // lint:allow(a waiver does not apply)
    a.load(@Acquire)
}
pub fn g(a: &AtomicU64) { a.store(1, std::sync::atomic::@Release) }
pub fn h(a: &AtomicU64) { let _ = a.compare_exchange(0, 1, @AcqRel, @SeqCst); }
pub fn k(x: u8) -> bool { x.cmp(&1) == std::cmp::@Less } // @SeqCst
pub const S: &str = \"@Acquire\";
#[cfg(test)]
mod tests {
    fn t(a: &AtomicU64) -> u64 { a.load(@SeqCst) }
}
"
        .replace('@', "Ordering::");
        for allowlisted in [false, true] {
            let found = run(&src, allowlisted);
            let lines: Vec<&str> = found
                .iter()
                .map(|f| f.split(": [L6]").next().unwrap_or(""))
                .collect();
            assert_eq!(lines, ["t.rs:4", "t.rs:6", "t.rs:7", "t.rs:7"], "{found:?}");
        }
    }
}

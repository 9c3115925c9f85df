//! L7 — dataflow taint analysis for untrusted-input scopes.
//!
//! L7 asks "did this *value* come from attacker bytes?", not "does this
//! *name* look like a length?". Sources are the word-stream and
//! frame-payload decoders plus attacker-named parameters
//! ([`crate::config::TAINT_SOURCE_CALLS`] /
//! [`crate::config::TAINT_SOURCE_PARAMS`]); sinks are allocation sizes,
//! `vec![_; n]` lengths, slice indices, raw-read offsets, shift amounts,
//! and operands of bare `+`/`*`/`+=`/`*=`; taint clears only through
//! `checked_*`/`saturating_*` arithmetic, `min`/`clamp`, or an explicit
//! bounds comparison (which vouches for the whole definition chain it
//! compares). Scoping is the same single untrusted-surface table L1 uses
//! ([`crate::lints::Scopes::untrusted`]); `// lint:allow(reason)` applies
//! as everywhere else.

use std::collections::BTreeSet;

use crate::dataflow;
use crate::lints::{Scopes, Sink};
use crate::scan::SourceFile;

/// Runs L7 over `file` within `scopes`.
pub fn check(file: &SourceFile, scopes: &Scopes, sink: &mut Sink) {
    // Nested functions appear both standalone and inside their parent's
    // span; dedupe findings by (line, message) so each fires once.
    let mut seen: BTreeSet<(usize, String)> = BTreeSet::new();
    for span in file.fn_spans() {
        if !scopes.contains(file, span.lines.0) {
            continue;
        }
        let flow = dataflow::parse_fn(file, &span);
        for finding in dataflow::analyze(&flow) {
            if file.in_test_code(finding.line) {
                continue;
            }
            if seen.insert((finding.line, finding.message.clone())) {
                sink.emit(
                    file,
                    "L7",
                    finding.line,
                    format!("in `{}`: {}", span.name, finding.message),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<String> {
        let f = SourceFile::scan("t.rs", src);
        let mut sink = Sink::default();
        check(&f, &Scopes::whole_file(), &mut sink);
        sink.findings.iter().map(|f| f.to_string()).collect()
    }

    #[test]
    fn provenance_beats_name_heuristics() {
        // `quota` has no length-ish name; L7 tracks the value from the
        // decode call to the allocation.
        let found = run(
            "fn decode(payload: &[u8]) -> Vec<u8> {\n    let quota = u32_at(payload, 0).unwrap_or(0) as usize;\n    Vec::with_capacity(quota)\n}",
        );
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("[L7]"), "{found:?}");
        assert!(found[0].starts_with("t.rs:3:"), "{found:?}");
    }

    #[test]
    fn guarded_flow_is_silent() {
        let found = run(
            "fn decode(payload: &[u8]) -> Vec<u8> {\n    let n = u32_at(payload, 0).unwrap_or(0) as usize;\n    if n > 4096 {\n        return Vec::new();\n    }\n    Vec::with_capacity(n)\n}",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn lint_allow_suppresses_and_counts() {
        let src = "fn decode(payload: &[u8]) -> Vec<u8> {\n    let n = u32_at(payload, 0).unwrap_or(0) as usize;\n    // lint:allow(capacity is a hint, not a hard allocation)\n    Vec::with_capacity(n)\n}";
        let f = SourceFile::scan("t.rs", src);
        let mut sink = Sink::default();
        check(&f, &Scopes::whole_file(), &mut sink);
        assert!(sink.findings.is_empty(), "{:?}", sink.findings);
        assert_eq!(sink.allows.len(), 1);
    }

    #[test]
    fn test_code_is_skipped() {
        let found = run(
            "#[cfg(test)]\nmod tests {\n    fn decode(payload: &[u8]) -> Vec<u8> {\n        let n = u32_at(payload, 0).unwrap_or(0) as usize;\n        Vec::with_capacity(n)\n    }\n}",
        );
        assert!(found.is_empty(), "{found:?}");
    }
}

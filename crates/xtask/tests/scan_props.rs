//! Property tests for the lint scanner.
//!
//! Every lint downstream of [`xtask::scan::SourceFile`] assumes three
//! things of the masking pass: it never panics (the linter must survive
//! any file in the tree, including ones mid-edit), it preserves byte
//! length and newline positions (findings are reported by `file:line`),
//! and it is *idempotent* — masking already-masked text changes nothing,
//! because masking only ever removes comment/literal delimiters, never
//! introduces them.

use proptest::prelude::*;
use xtask::scan::SourceFile;

/// Adversarial almost-Rust fragments: raw-string openers/closers with
/// mismatched hash counts, nested block comments, escaped quotes, byte
/// strings, lifetimes next to char literals — the constructs the masking
/// pass special-cases.
const FRAGMENTS: &[&str] = &[
    "r#\"",
    "\"#",
    "r\"",
    "br#\"",
    "b\"",
    "\"",
    "\\\"",
    "\\\\",
    "'",
    "'a,",
    "'x'",
    "'\\n'",
    "//",
    "/*",
    "*/",
    "/**/",
    "/* /* */",
    "fn f() {",
    "}",
    "{",
    "\n",
    "let x = 1;",
    "v[i]",
    "Ordering::Relaxed",
    "#[cfg(test)]",
    "ident",
    "0xFF",
    " ",
    "#",
    "r",
    "b",
    "é",
    "->",
    ";",
    "..=",
];

/// Joins fragment-pool picks into one adversarial source string.
fn soup(idxs: &[usize]) -> String {
    idxs.iter().map(|&i| FRAGMENTS[i]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary (lossy-decoded) byte soup: the scanner must not panic,
    /// and the mask must be a byte-for-byte overlay of the input.
    #[test]
    fn scan_survives_byte_soup(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let file = SourceFile::scan("soup.rs", &text);
        prop_assert_eq!(file.masked.len(), text.len());
        prop_assert_eq!(
            file.masked.matches('\n').count(),
            text.matches('\n').count()
        );
    }

    /// Masking a masked file is a fixpoint, even for inputs built from
    /// the scanner's own special cases.
    #[test]
    fn masking_is_idempotent_on_almost_rust(
        idxs in prop::collection::vec(0usize..FRAGMENTS.len(), 0..64),
    ) {
        let text = soup(&idxs);
        let first = SourceFile::scan("soup.rs", &text);
        let second = SourceFile::scan("soup.rs", &first.masked);
        prop_assert_eq!(&second.masked, &first.masked);
        prop_assert_eq!(second.tokens.len(), first.tokens.len());
        // A masked file carries no comments: they were spaced out.
        prop_assert!(second.comments.is_empty());
    }

    /// …and for unstructured byte soup too.
    #[test]
    fn masking_is_idempotent_on_byte_soup(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let first = SourceFile::scan("soup.rs", &text);
        let second = SourceFile::scan("soup.rs", &first.masked);
        prop_assert_eq!(&second.masked, &first.masked);
    }

    /// The derived views stay panic-free on adversarial input.
    #[test]
    fn derived_views_survive_almost_rust(
        idxs in prop::collection::vec(0usize..FRAGMENTS.len(), 0..64),
        line in 0usize..128,
    ) {
        let text = soup(&idxs);
        let file = SourceFile::scan("soup.rs", &text);
        let _ = file.fn_spans();
        let _ = file.in_test_code(line);
        let _ = file.comment_on(line);
        let _ = file.allow_reason(line);
    }
}

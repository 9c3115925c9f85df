//! A deliberately small Rust source scanner: enough lexical structure for
//! repo-specific lints, nothing more.
//!
//! The scanner never parses Rust properly. It produces four things the
//! lints consume:
//!
//! * a **masked** copy of the source — every comment and every string /
//!   char / byte-string literal replaced by spaces (newlines preserved), so
//!   token searches cannot fire inside prose or literals;
//! * a **token stream** over the masked text (identifiers, numbers,
//!   punctuation) with line numbers;
//! * per-line **comment text**, which backs the `// lint:allow(reason)`
//!   escape hatch and the `// safety:` justification convention;
//! * structural helpers: `#[cfg(test)]` module extents and the brace
//!   extents of named functions, both found by brace matching over the
//!   masked text (safe precisely because strings are masked).

/// One lexical token of the masked source.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    /// Token text (identifier/number spelling, or a 1–3 char operator).
    pub text: String,
    /// 1-based line.
    pub line: usize,
    /// Byte offset into the masked source.
    pub offset: usize,
    /// Whether the token is an identifier or keyword (vs. number/punct).
    pub is_ident: bool,
}

/// A scanned source file.
pub struct SourceFile {
    /// Path relative to the workspace root, with `/` separators.
    pub rel: String,
    /// Comment/string-masked text, byte-for-byte aligned with the raw file.
    pub masked: String,
    /// Token stream over `masked`.
    pub tokens: Vec<Token>,
    /// `(line, text)` of every comment, `//`/`/* */` markers stripped.
    pub comments: Vec<(usize, String)>,
    /// Line ranges (1-based, inclusive) covered by `#[cfg(test)]` items.
    pub test_ranges: Vec<(usize, usize)>,
}

/// A `// lint:allow(reason)` suppression found next to a flagged line.
#[derive(Clone, Debug)]
pub struct AllowUse {
    /// File the suppression lives in.
    pub file: String,
    /// Line of the suppressed finding.
    pub line: usize,
    /// Lint that was suppressed.
    pub lint: &'static str,
    /// The reason inside the parentheses.
    pub reason: String,
}

impl SourceFile {
    /// Scans `raw`, recording `rel` as the diagnostic path.
    pub fn scan(rel: &str, raw: &str) -> SourceFile {
        let (masked, comments) = mask(raw);
        let tokens = tokenize(&masked);
        let test_ranges = find_test_ranges(&masked, &tokens);
        SourceFile {
            rel: rel.to_string(),
            masked,
            tokens,
            comments,
            test_ranges,
        }
    }

    /// Whether `line` falls inside a `#[cfg(test)]` item.
    pub fn in_test_code(&self, line: usize) -> bool {
        self.test_ranges
            .iter()
            .any(|&(a, b)| a <= line && line <= b)
    }

    /// The comment text on `line`, if any.
    pub fn comment_on(&self, line: usize) -> Option<&str> {
        self.comments
            .iter()
            .find(|&&(l, _)| l == line)
            .map(|(_, t)| t.as_str())
    }

    /// Looks for a `lint:allow(reason)` comment covering `line`: on the
    /// line itself (trailing) or on the directly preceding line. Returns
    /// the reason when present and non-empty.
    pub fn allow_reason(&self, line: usize) -> Option<String> {
        for l in [line, line.saturating_sub(1)] {
            if l == 0 {
                continue;
            }
            // A trailing comment on the *previous* code line does not
            // carry down: the preceding-line form must be comment-only.
            if l != line && self.tokens.iter().any(|t| t.line == l) {
                continue;
            }
            if let Some(text) = self.comment_on(l) {
                if let Some(reason) = parse_allow(text) {
                    return Some(reason);
                }
            }
        }
        None
    }

    /// Line extents (1-based, inclusive) of the bodies of every function
    /// named `name`. Signature lines are included. Functions declared
    /// without a body (trait methods) are skipped.
    pub fn fn_extents(&self, name: &str) -> Vec<(usize, usize)> {
        self.fn_spans()
            .into_iter()
            .filter(|s| s.name == name)
            .map(|s| s.lines)
            .collect()
    }

    /// Every function item with a body in the file, in source order,
    /// including nested and `impl`-block functions. Backbone of both the
    /// named-function scoping (L1) and the dataflow layer (L7).
    pub fn fn_spans(&self) -> Vec<FnSpan> {
        let mut out = Vec::new();
        let toks = &self.tokens;
        for i in 0..toks.len() {
            let name = match (toks[i].text.as_str(), toks.get(i + 1)) {
                ("fn", Some(n)) if n.is_ident => n.text.clone(),
                _ => continue,
            };
            // Walk to the body's opening brace; a `;` first means no body.
            let mut j = i + 2;
            let mut depth_angle: i32 = 0;
            let open = loop {
                let Some(t) = toks.get(j) else { break None };
                match t.text.as_str() {
                    "{" if depth_angle <= 0 => break Some(j),
                    ";" if depth_angle <= 0 => break None,
                    "<" | "<<" => depth_angle += if t.text == "<<" { 2 } else { 1 },
                    ">" | ">>" => depth_angle -= if t.text == ">>" { 2 } else { 1 },
                    _ => {}
                }
                j += 1;
            };
            let Some(open) = open else { continue };
            if let Some(close) = match_brace(toks, open) {
                out.push(FnSpan {
                    name,
                    sig_start: i,
                    open,
                    close,
                    lines: (toks[i].line, toks[close].line),
                });
            }
        }
        out
    }
}

/// One function item with a body, located by token indices.
#[derive(Clone, Debug)]
pub struct FnSpan {
    /// The function's name.
    pub name: String,
    /// Token index of the `fn` keyword.
    pub sig_start: usize,
    /// Token index of the body's `{`.
    pub open: usize,
    /// Token index of the body's matching `}`.
    pub close: usize,
    /// 1-based inclusive line extent (signature line through close brace).
    pub lines: (usize, usize),
}

/// Parses `lint:allow(reason)` out of a comment's text.
fn parse_allow(comment: &str) -> Option<String> {
    let at = comment.find("lint:allow(")?;
    let rest = &comment[at + "lint:allow(".len()..];
    let close = rest.find(')')?;
    let reason = rest[..close].trim();
    if reason.is_empty() {
        None
    } else {
        Some(reason.to_string())
    }
}

/// Replaces comments and string/char literals with spaces (newlines kept),
/// collecting comment text per line on the way.
fn mask(raw: &str) -> (String, Vec<(usize, String)>) {
    let bytes = raw.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut comments: Vec<(usize, String)> = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;

    let push_comment = |line: usize, text: &str, comments: &mut Vec<(usize, String)>| {
        let trimmed = text.trim();
        if trimmed.is_empty() {
            return;
        }
        match comments.last_mut() {
            Some((l, existing)) if *l == line => {
                existing.push(' ');
                existing.push_str(trimmed);
            }
            _ => comments.push((line, trimmed.to_string())),
        }
    };

    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'\n' => {
                out.push(b'\n');
                line += 1;
                i += 1;
            }
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let start = i + 2;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'\n' {
                    j += 1;
                }
                let text = String::from_utf8_lossy(&bytes[start..j]);
                push_comment(line, text.trim_start_matches(['/', '!']), &mut comments);
                out.resize(out.len() + (j - i), b' ');
                i = j;
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                // Find the (nesting-aware) end of the block comment first…
                let mut depth = 1;
                let mut j = i + 2;
                while j < bytes.len() && depth > 0 {
                    if bytes[j] == b'*' && bytes.get(j + 1) == Some(&b'/') {
                        depth -= 1;
                        j += 2;
                    } else if bytes[j] == b'/' && bytes.get(j + 1) == Some(&b'*') {
                        depth += 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                // …then emit the mask and attribute the text line by line.
                for (seg, piece) in String::from_utf8_lossy(&bytes[i..j])
                    .split('\n')
                    .enumerate()
                {
                    let text = piece
                        .trim_start_matches(['/', '*', '!', ' '])
                        .trim_end_matches(['/', '*', ' ']);
                    push_comment(line + seg, text, &mut comments);
                }
                for &masked in &bytes[i..j] {
                    if masked == b'\n' {
                        out.push(b'\n');
                        line += 1;
                    } else {
                        out.push(b' ');
                    }
                }
                i = j;
            }
            b'"' => {
                i = mask_cooked_string(bytes, i, &mut out, &mut line);
            }
            b'b' if bytes.get(i + 1) == Some(&b'"') && !ident_byte_before(bytes, i) => {
                // Cooked byte string `b"…"`: escape-aware, exactly like a
                // plain string literal. (It must NOT take the raw-string
                // path below — `b"\""` contains an escaped quote a raw
                // scan would mistake for the closer.)
                out.push(b' ');
                i = mask_cooked_string(bytes, i + 1, &mut out, &mut line);
            }
            b'r' | b'b' if is_raw_string_start(bytes, i) => {
                // r"...", r#"..."#, br"...", br#"..."# — find the hash
                // count, then the matching closer. Raw strings have no
                // escapes by definition.
                let mut j = i;
                if bytes[j] == b'b' {
                    j += 1;
                }
                if bytes.get(j) == Some(&b'r') {
                    j += 1;
                }
                let mut hashes = 0;
                while bytes.get(j) == Some(&b'#') {
                    hashes += 1;
                    j += 1;
                }
                // j at the opening quote.
                j += 1;
                loop {
                    match bytes.get(j) {
                        None => break,
                        Some(&b'"') => {
                            let mut h = 0;
                            while h < hashes && bytes.get(j + 1 + h) == Some(&b'#') {
                                h += 1;
                            }
                            if h == hashes {
                                j += 1 + hashes;
                                break;
                            }
                            j += 1;
                        }
                        Some(&b'\n') => {
                            j += 1;
                        }
                        _ => j += 1,
                    }
                }
                for &masked in &bytes[i..j.min(bytes.len())] {
                    out.push(if masked == b'\n' { b'\n' } else { b' ' });
                    if masked == b'\n' {
                        line += 1;
                    }
                }
                i = j;
            }
            b'\'' => {
                // Char literal vs. lifetime: a literal closes with `'`
                // within a few bytes; a lifetime never closes.
                let lit_end = char_literal_end(bytes, i);
                if let Some(end) = lit_end {
                    out.resize(out.len() + (end - i), b' ');
                    i = end;
                } else {
                    out.push(b'\'');
                    i += 1;
                }
            }
            _ => {
                out.push(b);
                i += 1;
            }
        }
    }
    (
        String::from_utf8(out).expect("masking preserves UTF-8 structure"),
        comments,
    )
}

/// Masks an escape-aware (cooked) string literal whose opening `"` sits at
/// byte `i`. Returns the index one past the closing quote (or EOF).
fn mask_cooked_string(bytes: &[u8], i: usize, out: &mut Vec<u8>, line: &mut usize) -> usize {
    debug_assert_eq!(bytes[i], b'"');
    out.push(b' ');
    let mut i = i + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => {
                out.push(b' ');
                if i + 1 < bytes.len() {
                    out.push(if bytes[i + 1] == b'\n' { b'\n' } else { b' ' });
                    if bytes[i + 1] == b'\n' {
                        *line += 1;
                    }
                }
                i += 2;
            }
            b'"' => {
                out.push(b' ');
                return i + 1;
            }
            b'\n' => {
                out.push(b'\n');
                *line += 1;
                i += 1;
            }
            _ => {
                out.push(b' ');
                i += 1;
            }
        }
    }
    i
}

/// Whether the byte before `i` could be part of an identifier (in which
/// case a `b`/`r` at `i` is the tail of a name, not a literal prefix).
fn ident_byte_before(bytes: &[u8], i: usize) -> bool {
    i > 0 && {
        let p = bytes[i - 1];
        p == b'_' || p.is_ascii_alphanumeric()
    }
}

fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    // Raw forms only: `r"…"`, `r#"…"#`, `br"…"`, `br#"…"#`. Cooked `b"…"`
    // is escape-aware and handled by the string branch above.
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    if bytes.get(j) != Some(&b'r') {
        return false;
    }
    j += 1;
    // Require that `i` is not inside an identifier (names like `number`
    // contain `b`/`r`): the previous byte must not be ident-ish.
    if ident_byte_before(bytes, i) {
        return false;
    }
    let mut k = j;
    while bytes.get(k) == Some(&b'#') {
        k += 1;
    }
    bytes.get(k) == Some(&b'"')
}

/// If `i` starts a char literal, the byte index one past its closing quote.
fn char_literal_end(bytes: &[u8], i: usize) -> Option<usize> {
    let mut j = i + 1;
    if bytes.get(j) == Some(&b'\\') {
        // Escape: \n, \', \u{...}, \x7F…
        j += 1;
        if bytes.get(j) == Some(&b'u') {
            while j < bytes.len() && bytes[j] != b'}' && bytes[j] != b'\n' {
                j += 1;
            }
            j += 1;
        } else {
            j += 1;
            // \xNN
            while j < bytes.len() && bytes[j].is_ascii_hexdigit() && j < i + 5 {
                j += 1;
            }
        }
        (bytes.get(j) == Some(&b'\'')).then_some(j + 1)
    } else {
        // One (possibly multi-byte) char then a quote.
        j += 1;
        while j < bytes.len() && j < i + 6 {
            if bytes[j] == b'\'' {
                return Some(j + 1);
            }
            if !(128..192).contains(&bytes[j]) && j > i + 2 {
                break;
            }
            j += 1;
        }
        None
    }
}

fn tokenize(masked: &str) -> Vec<Token> {
    let bytes = masked.as_bytes();
    let mut tokens = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'\n' {
            line += 1;
            i += 1;
            continue;
        }
        if b.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        if b == b'_' || b.is_ascii_alphabetic() {
            let start = i;
            while i < bytes.len() && (bytes[i] == b'_' || bytes[i].is_ascii_alphanumeric()) {
                i += 1;
            }
            tokens.push(Token {
                text: masked[start..i].to_string(),
                line,
                offset: start,
                is_ident: true,
            });
            continue;
        }
        if b.is_ascii_digit() {
            let start = i;
            while i < bytes.len()
                && (bytes[i] == b'_' || bytes[i] == b'.' || bytes[i].is_ascii_alphanumeric())
            {
                // Stop a `..` range from gluing onto a number.
                if bytes[i] == b'.' && bytes.get(i + 1) == Some(&b'.') {
                    break;
                }
                i += 1;
            }
            tokens.push(Token {
                text: masked[start..i].to_string(),
                line,
                offset: start,
                is_ident: false,
            });
            continue;
        }
        // Multi-char operators the lints care about; everything else is a
        // single punct char.
        let two = bytes.get(i + 1).map(|&n| [b, n]);
        let three = (i + 2 < bytes.len()).then(|| [b, bytes[i + 1], bytes[i + 2]]);
        let text = match (b, two, three) {
            (b'<', _, Some([b'<', b'<', b'='])) => "<<=",
            (b'<', Some([b'<', b'<']), _) => "<<",
            (b'<', Some([b'<', b'=']), _) => "<=",
            (b'>', _, Some([b'>', b'>', b'='])) => ">>=",
            (b'>', Some([b'>', b'>']), _) => ">>",
            (b'>', Some([b'>', b'=']), _) => ">=",
            (b'=', Some([b'=', b'=']), _) => "==",
            (b'!', Some([b'!', b'=']), _) => "!=",
            (b'&', Some([b'&', b'&']), _) => "&&",
            (b'|', Some([b'|', b'|']), _) => "||",
            (b'+', Some([b'+', b'=']), _) => "+=",
            (b'*', Some([b'*', b'=']), _) => "*=",
            (b'-', Some([b'-', b'=']), _) => "-=",
            (b':', Some([b':', b':']), _) => "::",
            (b'.', Some([b'.', b'.']), _) => "..",
            (b'-', Some([b'-', b'>']), _) => "->",
            (b'=', Some([b'=', b'>']), _) => "=>",
            _ => {
                tokens.push(Token {
                    text: (b as char).to_string(),
                    line,
                    offset: i,
                    is_ident: false,
                });
                i += 1;
                continue;
            }
        };
        tokens.push(Token {
            text: text.to_string(),
            line,
            offset: i,
            is_ident: false,
        });
        i += text.len();
    }
    tokens
}

/// Token index of the `}` matching the `{` at token index `open`.
fn match_brace(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

/// Extents of items annotated `#[cfg(test)]` (modules, functions, impls).
fn find_test_ranges(masked: &str, tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut search = 0usize;
    while let Some(found) = masked[search..].find("#[cfg(test)]") {
        let at = search + found;
        search = at + 1;
        // First token at or after the end of the attribute.
        let after = at + "#[cfg(test)]".len();
        let Some(first) = tokens.iter().position(|t| t.offset >= after) else {
            continue;
        };
        // Skip further attributes, then find the item's opening brace.
        let mut j = first;
        while let Some(t) = tokens.get(j) {
            if t.text == "#" {
                // Skip the whole `#[...]`.
                let mut depth = 0;
                j += 1;
                while let Some(t2) = tokens.get(j) {
                    match t2.text.as_str() {
                        "[" => depth += 1,
                        "]" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                j += 1;
                continue;
            }
            break;
        }
        let start_line = tokens.get(first).map(|t| t.line).unwrap_or(1);
        let mut open = None;
        while let Some(t) = tokens.get(j) {
            match t.text.as_str() {
                "{" => {
                    open = Some(j);
                    break;
                }
                ";" => break,
                _ => j += 1,
            }
        }
        if let Some(open) = open {
            if let Some(close) = match_brace(tokens, open) {
                ranges.push((start_line, tokens[close].line));
            }
        }
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masking_blanks_comments_and_strings() {
        let src = "let a = \"unwrap()\"; // .unwrap() here\nlet b = 'x';\n";
        let f = SourceFile::scan("t.rs", src);
        assert!(!f.masked.contains("unwrap"));
        assert_eq!(f.comment_on(1), Some(".unwrap() here"));
        assert_eq!(f.masked.lines().count(), src.lines().count());
    }

    #[test]
    fn raw_strings_and_lifetimes() {
        let src = "fn f<'a>(x: &'a str) { let s = r#\"panic!()\"#; }";
        let f = SourceFile::scan("t.rs", src);
        assert!(!f.masked.contains("panic"));
        assert!(f.masked.contains("'a"));
    }

    #[test]
    fn cooked_byte_strings_honor_escapes() {
        // `b"\""` used to be treated as a raw string: the escaped quote
        // "closed" the literal and the trailing `unwrap()` leaked into the
        // masked text as phantom live tokens.
        let src = "let a = b\"\\\"unwrap()\"; let b = 1;\n";
        let f = SourceFile::scan("t.rs", src);
        assert!(!f.masked.contains("unwrap"), "masked: {:?}", f.masked);
        assert!(f.masked.contains("let b = 1"), "masked: {:?}", f.masked);
    }

    #[test]
    fn raw_byte_strings_still_mask_without_escapes() {
        // In `br"\"` the backslash is a literal byte and the quote closes.
        let src = "let a = br\"\\\"; let live = 2;\n";
        let f = SourceFile::scan("t.rs", src);
        assert!(f.masked.contains("let live = 2"), "masked: {:?}", f.masked);
        let src = "let a = br#\"has \"quote\" inside\"#; let live = 3;\n";
        let f = SourceFile::scan("t.rs", src);
        assert!(!f.masked.contains("quote"), "masked: {:?}", f.masked);
        assert!(f.masked.contains("let live = 3"), "masked: {:?}", f.masked);
    }

    #[test]
    fn nested_block_comments_mask_fully() {
        let src =
            "/* outer /* inner unwrap() */ still comment */ let live = 4;\n/**/ let also = 5;\n";
        let f = SourceFile::scan("t.rs", src);
        assert!(!f.masked.contains("unwrap"));
        assert!(!f.masked.contains("still"));
        assert!(f.masked.contains("let live = 4"));
        assert!(f.masked.contains("let also = 5"));
    }

    #[test]
    fn comparison_operators_tokenize_as_units() {
        let f = SourceFile::scan("t.rs", "if a <= b && c != d || e >= f { g == h; }");
        let texts: Vec<&str> = f.tokens.iter().map(|t| t.text.as_str()).collect();
        for op in ["<=", "&&", "!=", "||", ">=", "=="] {
            assert!(texts.contains(&op), "missing {op} in {texts:?}");
        }
    }

    #[test]
    fn fn_spans_enumerate_all_bodies() {
        let src = "fn a() { fn inner() {} }\nimpl X { fn b(&self) -> u8 { 0 } }\ntrait T { fn no_body(); }\n";
        let f = SourceFile::scan("t.rs", src);
        let names: Vec<String> = f.fn_spans().into_iter().map(|s| s.name).collect();
        assert_eq!(names, ["a", "inner", "b"]);
    }

    #[test]
    fn allow_reason_found_same_and_previous_line() {
        let src = "// lint:allow(slice is length-checked above)\nlet x = a[0];\nlet y = b[1]; // lint:allow(fixed array)\nlet z = c[2];\n";
        let f = SourceFile::scan("t.rs", src);
        assert_eq!(
            f.allow_reason(2).as_deref(),
            Some("slice is length-checked above")
        );
        assert_eq!(f.allow_reason(3).as_deref(), Some("fixed array"));
        assert_eq!(f.allow_reason(4), None);
    }

    #[test]
    fn test_ranges_cover_cfg_test_modules() {
        let src =
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\nfn also_live() {}\n";
        let f = SourceFile::scan("t.rs", src);
        assert!(!f.in_test_code(1));
        assert!(f.in_test_code(4));
        assert!(!f.in_test_code(6));
    }

    #[test]
    fn fn_extents_find_named_bodies() {
        let src = "impl X {\n    pub fn read_from(a: u8) -> Result<u8, ()> {\n        Ok(a)\n    }\n    fn other() {}\n}\n";
        let f = SourceFile::scan("t.rs", src);
        assert_eq!(f.fn_extents("read_from"), vec![(2, 4)]);
        assert_eq!(f.fn_extents("missing"), vec![]);
    }

    #[test]
    fn generic_signatures_do_not_confuse_extents() {
        let src = "fn read_from<S: Fn() -> Vec<u8>>(s: S) -> Result<(), ()> where S: Sized {\n    Ok(())\n}\n";
        let f = SourceFile::scan("t.rs", src);
        assert_eq!(f.fn_extents("read_from"), vec![(1, 3)]);
    }
}

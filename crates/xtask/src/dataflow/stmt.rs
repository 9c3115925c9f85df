//! Statement/expression extraction over the masked token stream.
//!
//! A function body is split into *fragments* at `;` (outside brackets),
//! `{`, `}`, and top-level `,` boundaries. Each fragment is summarized
//! into a [`Stmt`]: variables defined, identifiers read, calls made,
//! whether the fragment is a bounds-compare guard, plus every taint sink
//! occurrence inside it. No type information, no expression trees — just
//! enough def-use structure for the worklist propagator in
//! [`super::taint`].

use crate::config::{
    NON_INDEX_KEYWORDS, TAINT_FILL_CALLS, TAINT_SANITIZER_METHODS, TAINT_SANITIZER_PREFIXES,
    TAINT_SINK_CALLS, TAINT_SOURCE_CALLS,
};
use crate::scan::{FnSpan, SourceFile, Token};

/// What kind of sink an occurrence is (for diagnostics).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SinkKind {
    /// `with_capacity`/`reserve`/`resize`/`set_len`/… call argument.
    SizedCall,
    /// `vec![init; len]` repeat length.
    VecRepeat,
    /// `<<` / `>>` shift amount.
    ShiftAmount,
    /// Bare slice index `buf[i]`.
    SliceIndex,
    /// Operand of a bare `+` / `*` / `+=` / `*=`, which wraps silently in
    /// release builds.
    Arithmetic,
}

impl SinkKind {
    /// Short diagnostic label.
    pub fn label(self) -> &'static str {
        match self {
            SinkKind::SizedCall => "size/offset argument",
            SinkKind::VecRepeat => "`vec![_; n]` length",
            SinkKind::ShiftAmount => "shift amount",
            SinkKind::SliceIndex => "slice index",
            SinkKind::Arithmetic => "arithmetic operand of",
        }
    }
}

/// One sink occurrence inside a fragment.
#[derive(Clone, Debug)]
pub struct SinkUse {
    /// Sink kind.
    pub kind: SinkKind,
    /// Callee or operator, for the message (`with_capacity`, `<<`, …).
    pub callee: String,
    /// 1-based line of the sink token itself.
    pub line: usize,
    /// Identifiers appearing in the sink's argument expression.
    pub arg_vars: Vec<String>,
    /// Whether the argument contains a taint-source call directly.
    pub arg_has_source: bool,
    /// Whether the argument routes through a sanitizer (`min`, `checked_*`…).
    pub arg_sanitized: bool,
}

/// One statement-ish fragment of a function body.
#[derive(Clone, Debug, Default)]
pub struct Stmt {
    /// 1-based line of the fragment's first token.
    pub line: usize,
    /// Variables this fragment binds or assigns.
    pub defines: Vec<String>,
    /// Identifiers the fragment reads (receivers, operands; `.len()`
    /// receivers excluded — a length of a tainted buffer is trusted).
    pub deps: Vec<String>,
    /// Whether the fragment calls a taint source.
    pub has_source: bool,
    /// Whether the fragment's value routes through a sanitizer.
    pub sanitized: bool,
    /// Buffer arguments of fill calls (`read_exact(&mut buf)`).
    pub fills: Vec<String>,
    /// Whether the fragment is a guard (a definition-free bounds compare).
    pub is_guard: bool,
    /// Identifiers compared in a guard fragment.
    pub guard_vars: Vec<String>,
    /// Sink occurrences inside the fragment.
    pub sinks: Vec<SinkUse>,
}

/// A parsed function: parameter names plus the fragment list, in source
/// order (nested blocks flattened).
#[derive(Clone, Debug)]
pub struct FnFlow {
    /// The function's name.
    pub name: String,
    /// 1-based line of the signature.
    pub line: usize,
    /// Parameter names, pattern-bound names included.
    pub params: Vec<String>,
    /// Body fragments in source order.
    pub stmts: Vec<Stmt>,
}

/// Rust keywords and primitive type names never treated as dataflow
/// variables.
const NON_VAR_WORDS: &[&str] = &[
    "let", "mut", "ref", "move", "if", "else", "match", "return", "as", "in", "fn", "pub", "use",
    "break", "continue", "while", "for", "loop", "where", "impl", "dyn", "box", "const", "static",
    "type", "struct", "enum", "trait", "mod", "crate", "super", "self", "true", "false", "unsafe",
    "async", "await", "usize", "u8", "u16", "u32", "u64", "u128", "isize", "i8", "i16", "i32",
    "i64", "i128", "f32", "f64", "bool", "str", "char",
];

fn is_var_word(text: &str) -> bool {
    !NON_VAR_WORDS.contains(&text)
        && text
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_lowercase() || c == '_')
}

fn is_sanitizer(name: &str) -> bool {
    TAINT_SANITIZER_METHODS.contains(&name)
        || TAINT_SANITIZER_PREFIXES.iter().any(|p| name.starts_with(p))
}

/// Parses the function at `span` into a [`FnFlow`].
pub fn parse_fn(file: &SourceFile, span: &FnSpan) -> FnFlow {
    let toks = &file.tokens;
    FnFlow {
        name: span.name.clone(),
        line: span.lines.0,
        params: parse_params(&toks[span.sig_start..span.open]),
        stmts: split_fragments(&toks[span.open + 1..span.close])
            .into_iter()
            .map(analyze_fragment)
            .collect(),
    }
}

/// Extracts parameter names from the signature tokens (`fn` through the
/// token before the body `{`).
fn parse_params(sig: &[Token]) -> Vec<String> {
    // The parameter list is the first `(` at angle depth 0 (generic
    // parameter lists may contain `Fn()` bounds behind `<`).
    let mut angle: i32 = 0;
    let mut open = None;
    for (i, t) in sig.iter().enumerate() {
        match t.text.as_str() {
            "(" if angle <= 0 => {
                open = Some(i);
                break;
            }
            "<" | "<<" => angle += if t.text == "<<" { 2 } else { 1 },
            ">" | ">>" => angle -= if t.text == ">>" { 2 } else { 1 },
            _ => {}
        }
    }
    let Some(open) = open else { return Vec::new() };
    let mut depth = 0usize;
    let mut close = open;
    for (i, t) in sig.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    close = i;
                    break;
                }
            }
            _ => {}
        }
    }
    // Split on top-level commas; each segment's pattern is everything
    // before its first top-level `:`.
    let mut params = Vec::new();
    let mut seg_start = open + 1;
    let mut paren = 0i32;
    let mut angle = 0i32;
    let mut i = open + 1;
    while i <= close {
        let text = sig[i].text.as_str();
        match text {
            "(" | "[" => paren += 1,
            ")" | "]" => paren -= 1,
            "<" => angle += 1,
            ">" => angle -= 1,
            _ => {}
        }
        let boundary = (text == "," && paren == 0 && angle <= 0) || i == close;
        if boundary {
            let seg = &sig[seg_start..i];
            let pat_end = seg.iter().position(|t| t.text == ":").unwrap_or(seg.len());
            for t in &seg[..pat_end] {
                if t.is_ident && is_var_word(&t.text) && t.text != "_" {
                    params.push(t.text.clone());
                }
            }
            seg_start = i + 1;
        }
        i += 1;
    }
    params
}

/// Splits body tokens into fragments at `;` (outside `[]`/`()`), `{`,
/// `}`, and top-level `,`.
fn split_fragments(body: &[Token]) -> Vec<&[Token]> {
    let mut out = Vec::new();
    let mut start = 0usize;
    let mut paren = 0i32;
    let mut bracket = 0i32;
    for (i, t) in body.iter().enumerate() {
        let boundary = match t.text.as_str() {
            "(" => {
                paren += 1;
                false
            }
            ")" => {
                paren -= 1;
                false
            }
            "[" => {
                bracket += 1;
                false
            }
            "]" => {
                bracket -= 1;
                false
            }
            ";" => paren == 0 && bracket == 0,
            "," => paren == 0 && bracket == 0,
            "{" | "}" => true,
            _ => false,
        };
        if boundary {
            if i > start {
                out.push(&body[start..i]);
            }
            start = i + 1;
        }
    }
    if body.len() > start {
        out.push(&body[start..]);
    }
    out
}

/// Collects variable reads from `toks`, skipping call names, path
/// prefixes, macro names, and `.len()`/`.is_empty()` receivers.
fn collect_deps(toks: &[Token], deps: &mut Vec<String>) {
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident || !is_var_word(&t.text) || t.text == "_" {
            continue;
        }
        match toks.get(i + 1).map(|n| n.text.as_str()) {
            Some("(") | Some("::") | Some("!") => continue,
            _ => {}
        }
        // `buf.len()` / `buf.is_empty()`: the receiver's *length* is
        // trusted even when its contents are not.
        if toks.get(i + 1).is_some_and(|n| n.text == ".")
            && toks
                .get(i + 2)
                .is_some_and(|m| m.text == "len" || m.text == "is_empty")
            && toks.get(i + 3).is_some_and(|p| p.text == "(")
        {
            continue;
        }
        if !deps.contains(&t.text) {
            deps.push(t.text.clone());
        }
    }
}

/// Matching `)` for the `(` at `open` within `toks`.
fn close_paren(toks: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    toks.len()
}

/// Summarizes one argument-expression token range for sink reporting.
fn sink_args(toks: &[Token]) -> (Vec<String>, bool, bool) {
    let mut vars = Vec::new();
    collect_deps(toks, &mut vars);
    // `&mut buf` arguments are output buffers (e.g. `read_exact_at`'s
    // destination), not size/offset inputs — their taint is irrelevant to
    // the sink.
    for (i, t) in toks.iter().enumerate() {
        if t.text == "mut" && i > 0 && toks[i - 1].text == "&" {
            if let Some(b) = toks.get(i + 1) {
                vars.retain(|v| v != &b.text);
            }
        }
    }
    let mut has_source = false;
    let mut sanitized = false;
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident && toks.get(i + 1).is_some_and(|n| n.text == "(") {
            if TAINT_SOURCE_CALLS.contains(&t.text.as_str()) {
                has_source = true;
            }
            if is_sanitizer(&t.text) {
                sanitized = true;
            }
        }
    }
    (vars, has_source, sanitized)
}

/// Whether `t` can end an operand, making a following `+`/`*` binary
/// rather than a deref (`&mut *x`) or a pointer type (`as *const T`).
fn ends_operand(t: &Token) -> bool {
    (t.is_ident && !NON_INDEX_KEYWORDS.contains(&t.text.as_str()))
        || matches!(t.text.as_str(), ")" | "]" | "?")
        || t.text.starts_with(|c: char| c.is_ascii_digit())
}

/// Whether `t` continues a postfix operand chain (`self.n`, `f(x)?`,
/// `v[i] as usize`); bracketed groups are taken whole by the callers.
fn in_operand(t: &Token) -> bool {
    t.is_ident
        || matches!(t.text.as_str(), "." | "::" | "?")
        || t.text.starts_with(|c: char| c.is_ascii_digit())
}

/// The operand chain ending just before the operator at `op`; `None` for
/// a lifetime bound (`'a + Send`).
fn left_operand(toks: &[Token], op: usize) -> Option<&[Token]> {
    let mut depth = 0usize;
    let mut start = op;
    while let Some(k) = start.checked_sub(1) {
        match toks[k].text.as_str() {
            ")" | "]" => depth += 1,
            "(" | "[" if depth == 0 => break,
            "(" | "[" => depth -= 1,
            "'" if depth == 0 => return None,
            _ if depth == 0 && !in_operand(&toks[k]) => break,
            _ => {}
        }
        start = k;
    }
    Some(&toks[start..op])
}

/// The operand chain after the operator at `op`, unary `&`/`*`/`-`/`!`
/// prefixes included.
fn right_operand(toks: &[Token], op: usize) -> &[Token] {
    let rest = &toks[op + 1..];
    let prefix = rest
        .iter()
        .take_while(|t| matches!(t.text.as_str(), "&" | "*" | "-" | "!"))
        .count();
    let mut depth = 0usize;
    let mut end = prefix;
    for t in &rest[prefix..] {
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" if depth == 0 => break,
            ")" | "]" => depth -= 1,
            _ if depth == 0 && !in_operand(t) => break,
            _ => {}
        }
        end += 1;
    }
    &rest[..end]
}

/// Builds the [`Stmt`] summary for one fragment.
fn analyze_fragment(frag: &[Token]) -> Stmt {
    let mut st = Stmt {
        line: frag.first().map(|t| t.line).unwrap_or(0),
        ..Stmt::default()
    };

    // --- definition structure -------------------------------------------
    let is_let = frag.first().is_some_and(|t| t.text == "let");
    // A single top-level `=` splits pattern/lhs from rhs. (The tokenizer
    // emits `==`, `<=`, `>=`, `!=`, `=>` as units, so a bare `=` really is
    // an assignment.)
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut eq_at = None;
    for (i, t) in frag.iter().enumerate() {
        match t.text.as_str() {
            "(" => paren += 1,
            ")" => paren -= 1,
            "[" => bracket += 1,
            "]" => bracket -= 1,
            "=" if paren == 0 && bracket == 0 && eq_at.is_none() => eq_at = Some(i),
            _ => {}
        }
    }
    let compound_at = frag
        .iter()
        .position(|t| matches!(t.text.as_str(), "+=" | "-=" | "*=" | "<<=" | ">>="));

    let is_for = frag.first().is_some_and(|t| t.text == "for");
    let for_in = is_for
        .then(|| frag.iter().position(|t| t.text == "in"))
        .flatten();

    let (pat, rhs): (&[Token], &[Token]) = match (is_for, for_in, is_let, eq_at, compound_at) {
        (true, Some(p), ..) => (&frag[1..p], &frag[p + 1..]),
        (_, _, true, Some(e), _) => (&frag[1..e], &frag[e + 1..]),
        (_, _, true, None, _) => (&frag[1..], &frag[..0]),
        (_, _, false, Some(e), _) => (&frag[..e], &frag[e + 1..]),
        (_, _, false, None, Some(c)) => (&frag[..c], &frag[c + 1..]),
        (_, _, false, None, None) => (&frag[..0], frag),
    };

    if is_let || (is_for && for_in.is_some()) {
        // Pattern idents (stop at a top-level `:` type annotation).
        let mut depth = 0i32;
        for (i, t) in pat.iter().enumerate() {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                ":" if depth == 0 => break,
                _ => {}
            }
            if t.is_ident
                && is_var_word(&t.text)
                && t.text != "_"
                && !pat.get(i + 1).is_some_and(|n| n.text == "::")
            {
                st.defines.push(t.text.clone());
            }
        }
    } else if eq_at.is_some() || compound_at.is_some() {
        // Assignment target: the last ident of the lhs path (`self.pos`
        // defines `pos`; `arr[i]` defines `arr`).
        if let Some(t) = pat
            .iter()
            .rev()
            .find(|t| t.is_ident && is_var_word(&t.text))
        {
            st.defines.push(t.text.clone());
        }
        if compound_at.is_some() {
            // `x += e` also reads x.
            collect_deps(pat, &mut st.deps);
        }
    }

    collect_deps(rhs, &mut st.deps);
    if !is_let && !is_for && eq_at.is_some() && pat.iter().any(|t| t.text == "[") {
        // Index-assign (`arr[i] = e`) reads the index expression too.
        collect_deps(pat, &mut st.deps);
    }

    // --- calls: sources, sanitizers, fills, sized sinks -----------------
    let scan_range: &[Token] = frag;
    for (i, t) in scan_range.iter().enumerate() {
        if !t.is_ident || !scan_range.get(i + 1).is_some_and(|n| n.text == "(") {
            continue;
        }
        let name = t.text.as_str();
        if TAINT_SOURCE_CALLS.contains(&name) {
            st.has_source = true;
        }
        if is_sanitizer(name) {
            st.sanitized = true;
        }
        if TAINT_FILL_CALLS.contains(&name) {
            // Only `&mut buf` arguments are written by a fill call; the
            // offset/length arguments are plain reads.
            let close = close_paren(scan_range, i + 1);
            let args = &scan_range[i + 2..close];
            for (k, a) in args.iter().enumerate() {
                if a.text == "mut" && k > 0 && args[k - 1].text == "&" {
                    if let Some(b) = args.get(k + 1) {
                        if b.is_ident && is_var_word(&b.text) {
                            st.fills.push(b.text.clone());
                        }
                    }
                }
            }
        }
        if TAINT_SINK_CALLS.contains(&name) {
            let close = close_paren(scan_range, i + 1);
            let (arg_vars, arg_has_source, arg_sanitized) = sink_args(&scan_range[i + 2..close]);
            st.sinks.push(SinkUse {
                kind: SinkKind::SizedCall,
                callee: name.to_string(),
                line: t.line,
                arg_vars,
                arg_has_source,
                arg_sanitized,
            });
        }
    }

    // --- `vec![init; len]` ----------------------------------------------
    let mut i = 0;
    while i + 2 < scan_range.len() {
        if scan_range[i].text == "vec"
            && scan_range[i + 1].text == "!"
            && scan_range[i + 2].text == "["
        {
            let mut depth = 0i32;
            let mut semi = None;
            let mut end = scan_range.len();
            for (j, t) in scan_range.iter().enumerate().skip(i + 2) {
                match t.text.as_str() {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            end = j;
                            break;
                        }
                    }
                    ";" if depth == 1 => semi = Some(j),
                    _ => {}
                }
            }
            if let Some(semi) = semi {
                let (arg_vars, arg_has_source, arg_sanitized) =
                    sink_args(&scan_range[semi + 1..end]);
                st.sinks.push(SinkUse {
                    kind: SinkKind::VecRepeat,
                    callee: "vec![_; _]".to_string(),
                    line: scan_range[i].line,
                    arg_vars,
                    arg_has_source,
                    arg_sanitized,
                });
            }
            i = end;
        }
        i += 1;
    }

    // --- shift amounts ---------------------------------------------------
    for (i, t) in scan_range.iter().enumerate() {
        if !matches!(t.text.as_str(), "<<" | ">>" | "<<=" | ">>=") {
            continue;
        }
        // The right operand: an ident chain (possibly parenthesized).
        let mut j = i + 1;
        while scan_range.get(j).is_some_and(|n| n.text == "(") {
            j += 1;
        }
        let Some(rhs_tok) = scan_range.get(j) else {
            continue;
        };
        if rhs_tok.is_ident && is_var_word(&rhs_tok.text) {
            let upto = (j + 4).min(scan_range.len());
            let (_, _, arg_sanitized) = sink_args(&scan_range[j..upto]);
            st.sinks.push(SinkUse {
                kind: SinkKind::ShiftAmount,
                callee: t.text.clone(),
                line: t.line,
                arg_vars: vec![rhs_tok.text.clone()],
                arg_has_source: false,
                arg_sanitized,
            });
        }
    }

    // --- arithmetic operands ----------------------------------------------
    // Subtraction is left to the hardened-profile sweep (most `a - b`
    // sites sit behind an `a >= b` guard); `/` and `%` cannot overflow on
    // unsigned operands.
    for (i, t) in scan_range.iter().enumerate() {
        let binary = match t.text.as_str() {
            "+=" | "*=" => true,
            "+" | "*" => i
                .checked_sub(1)
                .is_some_and(|p| ends_operand(&scan_range[p])),
            _ => false,
        };
        if !binary {
            continue;
        }
        for operand in [
            left_operand(scan_range, i),
            Some(right_operand(scan_range, i)),
        ]
        .into_iter()
        .flatten()
        {
            let (arg_vars, arg_has_source, arg_sanitized) = sink_args(operand);
            if !arg_vars.is_empty() || arg_has_source {
                st.sinks.push(SinkUse {
                    kind: SinkKind::Arithmetic,
                    callee: t.text.clone(),
                    line: t.line,
                    arg_vars,
                    arg_has_source,
                    arg_sanitized,
                });
            }
        }
    }

    // --- bare slice indexing ---------------------------------------------
    for (i, t) in scan_range.iter().enumerate() {
        if t.text != "[" || i == 0 {
            continue;
        }
        let prev = &scan_range[i - 1];
        let indexable = (prev.is_ident && !NON_INDEX_KEYWORDS.contains(&prev.text.as_str()))
            || prev.text == ")"
            || prev.text == "]";
        if !indexable {
            continue;
        }
        let mut depth = 0i32;
        let mut end = scan_range.len();
        for (j, t2) in scan_range.iter().enumerate().skip(i) {
            match t2.text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        end = j;
                        break;
                    }
                }
                _ => {}
            }
        }
        let inner = &scan_range[i + 1..end];
        // Range-less constant indices and `..` slicing of constants are
        // L1's business; L7 only cares when a variable appears.
        let (arg_vars, arg_has_source, arg_sanitized) = sink_args(inner);
        if !arg_vars.is_empty() || arg_has_source {
            st.sinks.push(SinkUse {
                kind: SinkKind::SliceIndex,
                callee: format!("{}[...]", prev.text),
                line: t.line,
                arg_vars,
                arg_has_source,
                arg_sanitized,
            });
        }
    }

    // --- guard detection --------------------------------------------------
    // A definition-free fragment containing a comparison clears the
    // compared chain (bounds-compare guard). `<`/`>` next to `::` are
    // turbofish, not comparisons.
    if st.defines.is_empty() {
        let mut compared = false;
        for (i, t) in scan_range.iter().enumerate() {
            let is_cmp = match t.text.as_str() {
                "==" | "!=" | "<=" | ">=" => true,
                "<" | ">" => {
                    let turbofish = (i > 0 && scan_range[i - 1].text == "::")
                        || scan_range.get(i + 1).is_some_and(|n| n.text == "::");
                    !turbofish
                }
                _ => false,
            };
            if is_cmp {
                compared = true;
                break;
            }
        }
        if compared {
            st.is_guard = true;
            collect_deps(scan_range, &mut st.guard_vars);
        }
    }

    st.deps.dedup();
    st
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow_of(src: &str) -> FnFlow {
        let f = SourceFile::scan("t.rs", src);
        let spans = f.fn_spans();
        parse_fn(&f, &spans[0])
    }

    #[test]
    fn params_and_let_defs() {
        let flow = flow_of("fn f(payload: &[u8], off: usize) { let (a, b) = (off, 1); }");
        assert_eq!(flow.params, ["payload", "off"]);
        let defs: Vec<_> = flow.stmts.iter().flat_map(|s| s.defines.clone()).collect();
        assert!(defs.contains(&"a".to_string()) && defs.contains(&"b".to_string()));
    }

    #[test]
    fn generic_params_parse() {
        let flow = flow_of("fn f<S: Fn() -> Vec<u8>>(src: S, map: HashMap<u8, u8>) {}");
        assert_eq!(flow.params, ["src", "map"]);
    }

    #[test]
    fn source_and_sink_recognized() {
        let flow = flow_of(
            "fn f(payload: &[u8]) { let n = u32_at(payload, 0); let v = Vec::with_capacity(n); }",
        );
        assert!(flow.stmts.iter().any(|s| s.has_source));
        let sink = flow
            .stmts
            .iter()
            .flat_map(|s| s.sinks.iter())
            .find(|s| s.kind == SinkKind::SizedCall)
            .expect("with_capacity sink");
        assert_eq!(sink.arg_vars, ["n"]);
    }

    #[test]
    fn vec_repeat_and_shift_sinks() {
        let flow = flow_of("fn f(n: usize, w: u32) { let b = vec![0u8; n]; let x = 1u64 << w; }");
        let kinds: Vec<SinkKind> = flow
            .stmts
            .iter()
            .flat_map(|s| s.sinks.iter().map(|k| k.kind))
            .collect();
        assert!(kinds.contains(&SinkKind::VecRepeat), "{kinds:?}");
        assert!(kinds.contains(&SinkKind::ShiftAmount), "{kinds:?}");
    }

    #[test]
    fn guards_detected_only_without_defs() {
        let flow = flow_of("fn f(n: usize) { if n > 16 { } let ok = n == 3; }");
        assert!(flow
            .stmts
            .iter()
            .any(|s| s.is_guard && s.guard_vars.contains(&"n".to_string())));
        // The `let ok = …` fragment defines, so it is not a guard.
        assert!(flow
            .stmts
            .iter()
            .filter(|s| s.defines.contains(&"ok".to_string()))
            .all(|s| !s.is_guard));
    }

    #[test]
    fn len_receiver_is_not_a_dep() {
        let flow = flow_of("fn f(body: &[u8], want: usize) { if body.len() != want { } }");
        let guard = flow.stmts.iter().find(|s| s.is_guard).expect("guard");
        assert!(guard.guard_vars.contains(&"want".to_string()));
        assert!(!guard.guard_vars.contains(&"body".to_string()));
    }

    #[test]
    fn sanitized_rhs_flagged() {
        let flow = flow_of("fn f(n: usize) { let w = n.checked_mul(16); }");
        assert!(flow.stmts.iter().any(|s| s.sanitized));
    }

    #[test]
    fn fill_calls_taint_buffers() {
        let flow = flow_of("fn f(r: &mut R) { let mut buf = [0u8; 4]; r.read_exact(&mut buf); }");
        assert!(flow
            .stmts
            .iter()
            .any(|s| s.fills.contains(&"buf".to_string())));
    }
}

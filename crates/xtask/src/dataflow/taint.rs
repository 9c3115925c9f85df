//! The worklist taint propagator over a [`FnFlow`].
//!
//! State is a map `variable → provenance line`. Seeds: parameters whose
//! names are in [`crate::config::TAINT_SOURCE_PARAMS`], plus every
//! definition whose right-hand side calls a
//! [`crate::config::TAINT_SOURCE_CALLS`] source or reads an
//! already-tainted variable. Sanitized definitions
//! (`checked_*`/`saturating_*`/`min`/`clamp`) bind clean; a
//! definition-free bounds comparison clears the compared variables *and*
//! their definition-dependency closure (guarding `want` vouches for the
//! `count` it was derived from). The fragment list is re-iterated to a
//! fixpoint so loop back-edges converge; findings are collected on the
//! final, stable pass so guard kills are applied positionally.

use std::collections::{BTreeMap, BTreeSet};

use crate::config::TAINT_SOURCE_PARAMS;
use crate::dataflow::stmt::FnFlow;

/// One taint violation inside a function.
#[derive(Clone, Debug)]
pub struct TaintFinding {
    /// 1-based line of the sink.
    pub line: usize,
    /// Diagnostic text.
    pub message: String,
}

/// Maximum fixpoint passes; the state is monotone between guard kills, so
/// real functions stabilize in 2–3.
const MAX_PASSES: usize = 8;

/// Removes `var` and its definition-dependency closure from the taint map.
fn clear_chain(
    var: &str,
    taint: &mut BTreeMap<String, usize>,
    defdeps: &BTreeMap<String, Vec<String>>,
) {
    let mut stack = vec![var.to_string()];
    let mut seen = BTreeSet::new();
    while let Some(v) = stack.pop() {
        if !seen.insert(v.clone()) {
            continue;
        }
        taint.remove(&v);
        if let Some(deps) = defdeps.get(&v) {
            stack.extend(deps.iter().cloned());
        }
    }
}

/// Runs the propagator and returns the violations.
pub fn analyze(flow: &FnFlow) -> Vec<TaintFinding> {
    let mut taint: BTreeMap<String, usize> = BTreeMap::new();
    let mut defdeps: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for p in &flow.params {
        if TAINT_SOURCE_PARAMS.contains(&p.as_str()) {
            taint.insert(p.clone(), flow.line);
        }
    }
    let seeds = taint.clone();

    let mut findings: BTreeMap<(usize, String), String> = BTreeMap::new();
    let mut prev_keys: Option<Vec<String>> = None;
    for pass in 0..MAX_PASSES {
        // Re-seed parameters each pass: a guard kill on a parameter chain
        // is positional, not permanent, and the pass starts at fn entry.
        for (k, v) in &seeds {
            taint.entry(k.clone()).or_insert(*v);
        }
        let keys: Vec<String> = taint.keys().cloned().collect();
        let stable = prev_keys.as_ref() == Some(&keys);
        prev_keys = Some(keys);
        let report = stable || pass == MAX_PASSES - 1;

        for st in &flow.stmts {
            if st.is_guard {
                for v in &st.guard_vars {
                    clear_chain(v, &mut taint, &defdeps);
                }
            }

            if report {
                for sink in &st.sinks {
                    if sink.arg_sanitized {
                        continue;
                    }
                    let tainted_var = sink.arg_vars.iter().find(|v| taint.contains_key(*v));
                    let origin = match (tainted_var, sink.arg_has_source) {
                        (Some(v), _) => Some(format!(
                            "tainted `{v}` (untrusted since line {})",
                            taint[v.as_str()]
                        )),
                        (None, true) => Some("a freshly decoded untrusted value".to_string()),
                        (None, false) => None,
                    };
                    if let Some(origin) = origin {
                        findings.insert(
                            (sink.line, sink.callee.clone()),
                            format!(
                                "{origin} reaches {} `{}` unguarded: clamp/checked_* it or \
                                 compare it against a trusted bound first",
                                sink.kind.label(),
                                sink.callee
                            ),
                        );
                    }
                }
            }

            // Fill calls taint their buffer arguments in place.
            for f in &st.fills {
                taint.entry(f.clone()).or_insert(st.line);
            }

            if st.defines.is_empty() {
                continue;
            }
            let rhs_tainted = st.has_source || st.deps.iter().any(|d| taint.contains_key(d));
            for d in &st.defines {
                defdeps.insert(d.clone(), st.deps.clone());
                if st.sanitized || !rhs_tainted {
                    taint.remove(d);
                } else {
                    let line = st
                        .deps
                        .iter()
                        .find_map(|dep| taint.get(dep).copied())
                        .unwrap_or(st.line);
                    taint.insert(d.clone(), line);
                }
            }
        }

        if report {
            break;
        }
    }

    findings
        .into_iter()
        .map(|((line, _), message)| TaintFinding { line, message })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::stmt::parse_fn;
    use crate::scan::SourceFile;

    fn run(src: &str) -> Vec<TaintFinding> {
        let f = SourceFile::scan("t.rs", src);
        let spans = f.fn_spans();
        let mut out = Vec::new();
        for span in &spans {
            out.extend(analyze(&parse_fn(&f, span)));
        }
        out
    }

    #[test]
    fn decoded_length_reaching_with_capacity_flags() {
        let found = run(
            "fn f(payload: &[u8]) -> Vec<u8> {\n    let n = u32_at(payload, 0).unwrap_or(0) as usize;\n    Vec::with_capacity(n)\n}",
        );
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].line, 3);
        assert!(found[0].message.contains("`n`"), "{}", found[0].message);
    }

    #[test]
    fn bounds_guard_clears_taint() {
        let found = run(
            "fn f(payload: &[u8]) -> Vec<u8> {\n    let n = u32_at(payload, 0).unwrap_or(0) as usize;\n    if n > 1024 {\n        return Vec::new();\n    }\n    Vec::with_capacity(n)\n}",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn guard_on_derived_value_clears_the_chain() {
        // Guarding `want` (derived from `count`) vouches for `count` too —
        // the decode_batch shape.
        let found = run(
            "fn f(payload: &[u8], body: &[u8]) -> Vec<u8> {\n    let count = u32_at(payload, 0).unwrap_or(0) as usize;\n    let want = count.checked_mul(16).unwrap_or(0);\n    if body.len() != want {\n        return Vec::new();\n    }\n    Vec::with_capacity(count)\n}",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn sanitizer_in_sink_arg_passes() {
        let found = run(
            "fn f(payload: &[u8]) -> Vec<u8> {\n    let n = u32_at(payload, 0).unwrap_or(0) as usize;\n    Vec::with_capacity(n.min(1024))\n}",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn sanitized_definition_binds_clean() {
        let found = run(
            "fn f(payload: &[u8]) -> Vec<u8> {\n    let n = u32_at(payload, 0).unwrap_or(0) as usize;\n    let m = n.min(64);\n    Vec::with_capacity(m)\n}",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn taint_survives_value_laundering_through_locals() {
        // Neutral names all the way: only provenance connects them.
        let found = run(
            "fn f(payload: &[u8]) -> Vec<u8> {\n    let quota = u32_at(payload, 0).unwrap_or(0) as usize;\n    let budget = quota;\n    Vec::with_capacity(budget)\n}",
        );
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].line, 4);
    }

    #[test]
    fn loop_carried_taint_converges() {
        let found = run(
            "fn f(payload: &[u8]) -> Vec<u8> {\n    let mut acc = 0usize;\n    for off in 0..4 {\n        acc = u32_at(payload, off).unwrap_or(0) as usize;\n    }\n    Vec::with_capacity(acc)\n}",
        );
        assert_eq!(found.len(), 1, "{found:?}");
    }

    #[test]
    fn tainted_shift_amount_flags() {
        let found = run(
            "fn f(payload: &[u8]) -> u64 {\n    let w = u32_at(payload, 0).unwrap_or(0);\n    1u64 << w\n}",
        );
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("shift"), "{}", found[0].message);
    }

    #[test]
    fn tainted_shift_right_assign_flags() {
        let found = run(
            "fn f(payload: &[u8], mut x: u64) -> u64 {\n    let w = u32_at(payload, 0).unwrap_or(0);\n    x >>= w;\n    x\n}",
        );
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].line, 3);
        assert!(found[0].message.contains("`>>=`"), "{}", found[0].message);
    }

    #[test]
    fn tainted_parameter_as_shift_width_flags() {
        // The shift amount is a parameter straight off the untrusted
        // surface, with no decode call in between.
        let found = run("fn f(declared: u32) -> u64 {\n    1u64 << declared\n}");
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].line, 2);
        assert!(found[0].message.contains("shift"), "{}", found[0].message);
    }

    #[test]
    fn guarded_shift_is_silent() {
        // The string-Grafite `read_payload` shape: the exponent is range
        // checked before it sizes a shift.
        let found = run(
            "fn read_payload(src: &mut S, codes: &C) -> Option<u64> {\n    let k = src.word()?;\n    if k == 0 || k >= 61 {\n        return None;\n    }\n    if codes.universe() != 1u64 << k {\n        return None;\n    }\n    Some(k)\n}",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn bare_ops_on_tainted_operands_flag() {
        let found = run(
            "fn f(payload: &[u8]) -> usize {\n    let n = u32_at(payload, 0).unwrap_or(0) as usize;\n    let pos = u32_at(payload, 4).unwrap_or(0) as usize;\n    n + pos * 8\n}",
        );
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found.iter().all(|f| f.line == 4), "{found:?}");
        assert!(found[0].message.contains("arithmetic"), "{found:?}");
    }

    #[test]
    fn checked_and_clamped_arithmetic_passes() {
        let found = run(
            "fn f(payload: &[u8], cap: usize) -> Option<usize> {\n    let n = u32_at(payload, 0).unwrap_or(0) as usize;\n    n.checked_add(cap)?.checked_mul(8)\n}",
        );
        assert!(found.is_empty(), "{found:?}");
        let found = run(
            "fn g(payload: &[u8]) -> usize {\n    let n = u32_at(payload, 0).unwrap_or(0) as usize;\n    n.min(1024) * 8 + n.clamp(1, 64)\n}",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn untainted_arithmetic_passes_whatever_its_names() {
        let found = run("fn f(len: usize, pos: usize) -> usize { len + pos * 8 }");
        assert!(found.is_empty(), "{found:?}");
        let found = run("fn g(words: &[u64]) -> usize { words.len() + 1 }");
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn tainted_compound_add_flags() {
        let found = run(
            "fn f(payload: &[u8]) -> usize {\n    let mut pos = u32_at(payload, 0).unwrap_or(0) as usize;\n    pos += 1;\n    pos\n}",
        );
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].line, 3);
    }

    #[test]
    fn deref_lifetimes_and_trait_bounds_pass() {
        // `buf` is tainted, but `'buf + Send` is a bound, not a sum, and
        // `*x` is a deref, not a product.
        let found = run(
            "fn f<'buf>(buf: &'buf [u8]) -> u8 {\n    let r: &(dyn 'buf + Send + Sync) = &buf;\n    let x = &buf[0];\n    let y = *x;\n    y\n}",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn tainted_field_paths_and_derefs_flag() {
        let found = run("fn f(frame: &H) -> u64 {\n    40 + frame.payload_words\n}");
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].line, 2);
        let found = run("fn g(frame: &H) -> u64 {\n    let w = &frame.words;\n    40 * *w\n}");
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].line, 3);
    }

    #[test]
    fn wrapping_arithmetic_does_not_launder() {
        let found = run(
            "fn f(payload: &[u8]) -> usize {\n    let n = u32_at(payload, 0).unwrap_or(0) as usize;\n    n.wrapping_mul(8) + 1\n}",
        );
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].line, 3);
    }

    #[test]
    fn tainted_slice_index_flags() {
        let found = run(
            "fn f(payload: &[u8], table: &[u8]) -> u8 {\n    let i = u32_at(payload, 0).unwrap_or(0) as usize;\n    table[i]\n}",
        );
        assert_eq!(found.len(), 1, "{found:?}");
    }

    #[test]
    fn fill_call_taints_buffer_contents() {
        let found = run(
            "fn f(r: &mut R, table: &[u8]) -> u8 {\n    let mut four = [0u8; 4];\n    r.read_exact(&mut four);\n    let i = four[0] as usize;\n    table[i]\n}",
        );
        // four[0] itself is a constant index of a fixed array (not
        // flagged); `table[i]` with i derived from the filled buffer is.
        assert!(
            found.iter().any(|f| f.line == 5),
            "expected the table[i] index to flag: {found:?}"
        );
    }

    #[test]
    fn len_of_tainted_buffer_is_clean() {
        let found = run(
            "fn f(payload: &[u8]) -> Vec<u8> {\n    let n = payload.len();\n    Vec::with_capacity(n)\n}",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn untainted_function_is_silent() {
        let found = run("fn f(n_local: usize) -> Vec<u8> { Vec::with_capacity(n_local) }");
        assert!(found.is_empty(), "{found:?}");
    }
}

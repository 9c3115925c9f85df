//! L8 — atomics happens-before checker.
//!
//! Every atomic `Ordering::{Relaxed, Acquire, Release, AcqRel, SeqCst}` in
//! the audited crates — fences included — must carry an `// ordering:`
//! comment on the same line or within the few lines above. Memory-ordering
//! bugs do not show up in tests on x86; the comment is the only reviewable
//! artifact, so L8 also proves it *means something*. Each comment must
//! follow the machine-checkable grammar documented in [`crate::config`]:
//!
//! ```text
//! // ordering: <class> [pairs-with <var>.<method>[, <var>.<method>…]] [; prose]
//! ```
//!
//! where `<class>` is one of [`crate::config::ORDERING_CLASSES`]. The
//! checker then verifies, *globally across the audited files*:
//!
//! - the declared class is consistent with the `Ordering::` variant at the
//!   site (`Relaxed-*` ⇔ `Relaxed`, `Release->Acquire` ⇔
//!   `Release`/`Acquire`, `AcqRel` ⇔ `AcqRel`; `SeqCst` has no class and
//!   needs a counted `lint:allow`),
//! - publish classes name at least one `pairs-with` partner and
//!   `Relaxed-*` classes name none (a declared publish edge can never run
//!   at `Relaxed`),
//! - every named partner resolves to a real atomic site on the *same*
//!   variable with a compatible ordering — a `Release` store must reach an
//!   `Acquire`-side load, and vice versa.
//!
//! `std::cmp` comparison `Ordering`s (`Less`/`Equal`/`Greater`) are not
//! atomic orderings and are ignored.

use std::collections::BTreeMap;

use crate::config::{
    ATOMIC_OP_METHODS, ATOMIC_ORDERINGS, ORDERING_CLASSES, ORDERING_COMMENT_WINDOW,
    ORDERING_JUSTIFICATION, ORDERING_PAIRS_WITH,
};
use crate::lints::Sink;
use crate::scan::SourceFile;

/// A parsed `// ordering:` declaration.
#[derive(Clone, Debug)]
pub struct OrderingDecl {
    /// The declared class (one of [`ORDERING_CLASSES`]).
    pub class: String,
    /// `pairs-with` targets as `(variable, method)` pairs.
    pub pairs_with: Vec<(String, String)>,
}

/// One atomic operation site in an audited file.
#[derive(Clone, Debug)]
pub struct AtomicSite {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the `Ordering::` token.
    pub line: usize,
    /// Receiver variable/field name (`published_version`, `stop`, …).
    pub var: String,
    /// Atomic method (`load`, `store`, `fetch_add`, …).
    pub method: String,
    /// The `Ordering::` variant at the site (first one for
    /// `compare_exchange`-family calls).
    pub ordering: String,
    /// The parsed declaration, if the comment was grammatical.
    pub decl: Option<OrderingDecl>,
}

impl AtomicSite {
    /// Whether this site can act as the release half of a publish edge.
    fn is_release_side(&self) -> bool {
        matches!(self.ordering.as_str(), "Release" | "AcqRel" | "SeqCst") && self.method != "load"
    }

    /// Whether this site can act as the acquire half of a publish edge.
    fn is_acquire_side(&self) -> bool {
        matches!(self.ordering.as_str(), "Acquire" | "AcqRel" | "SeqCst") && self.method != "store"
    }
}

/// The class the grammar requires for a given `Ordering::` variant, as a
/// human-readable expectation string (for diagnostics).
fn expected_classes(ordering: &str) -> &'static str {
    match ordering {
        "Relaxed" => "`Relaxed-counter` or `Relaxed-flag`",
        "Acquire" | "Release" => "`Release->Acquire`",
        "AcqRel" => "`AcqRel`",
        _ => "no class (SeqCst needs a counted lint:allow)",
    }
}

/// Whether `class` is consistent with the site's `Ordering::` variant.
fn class_matches(class: &str, ordering: &str) -> bool {
    match ordering {
        "Relaxed" => class.starts_with("Relaxed-"),
        "Acquire" | "Release" => class == "Release->Acquire",
        "AcqRel" => class == "AcqRel",
        _ => false,
    }
}

/// Parses the machine part of an `// ordering:` comment. Returns
/// `Err(reason)` when the text does not follow the grammar.
fn parse_decl(comment: &str) -> Result<OrderingDecl, String> {
    let after = comment
        .split_once(ORDERING_JUSTIFICATION)
        .map(|(_, rest)| rest)
        .unwrap_or("");
    // Everything after the first `;` is free prose.
    let machine = after.split(';').next().unwrap_or("").trim();
    let mut words = machine.split_whitespace();
    let class = words.next().unwrap_or("");
    if !ORDERING_CLASSES.contains(&class) {
        return Err(format!(
            "`{}` is not a declared class (expected one of {})",
            class,
            ORDERING_CLASSES.join(", ")
        ));
    }
    let rest: Vec<&str> = words.collect();
    let mut pairs_with = Vec::new();
    if !rest.is_empty() {
        if rest[0] != ORDERING_PAIRS_WITH {
            return Err(format!(
                "expected `{ORDERING_PAIRS_WITH}` after the class, found `{}`",
                rest[0]
            ));
        }
        for target in rest[1..].join(" ").split(',') {
            let target = target.trim();
            let Some((var, method)) = target.split_once('.') else {
                return Err(format!(
                    "pairing target `{target}` is not of the form `<var>.<method>`"
                ));
            };
            if var.is_empty() || !ATOMIC_OP_METHODS.contains(&method) {
                return Err(format!(
                    "pairing target `{target}` is not of the form `<var>.<method>`"
                ));
            }
            pairs_with.push((var.to_string(), method.to_string()));
        }
        if pairs_with.is_empty() {
            return Err(format!("`{ORDERING_PAIRS_WITH}` with no targets"));
        }
    }
    Ok(OrderingDecl {
        class: class.to_string(),
        pairs_with,
    })
}

/// Collects every atomic site in `file`, emitting missing-comment, grammar
/// and class-consistency violations as it goes. Well-formed sites are
/// returned for the global pairing pass ([`check_global`]).
pub fn collect(file: &SourceFile, sink: &mut Sink) -> Vec<AtomicSite> {
    let toks = &file.tokens;
    let mut sites = Vec::new();
    let mut last_call: Option<usize> = None;
    for (i, t) in toks.iter().enumerate() {
        if t.text != "Ordering" || file.in_test_code(t.line) {
            continue;
        }
        let variant = match (toks.get(i + 1), toks.get(i + 2)) {
            (Some(sep), Some(v)) if sep.text == "::" => v.text.clone(),
            _ => continue,
        };
        if !ATOMIC_ORDERINGS.contains(&variant.as_str()) {
            continue;
        }
        // Nearest `// ordering:` comment at or above the site. Checked
        // before the call walk so fences need a justification too.
        let lo = t.line.saturating_sub(ORDERING_COMMENT_WINDOW);
        let comment = (lo..=t.line).rev().find_map(|l| {
            file.comment_on(l)
                .filter(|c| c.contains(ORDERING_JUSTIFICATION))
        });
        if comment.is_none() {
            sink.emit(
                file,
                "L8",
                t.line,
                format!(
                    "`Ordering::{variant}` without an `// ordering:` justification within \
                     {ORDERING_COMMENT_WINDOW} lines"
                ),
            );
        }
        // Walk back to the enclosing atomic call: `<var> . <method> (`.
        let Some(j) = (0..i).rev().find(|&j| {
            ATOMIC_OP_METHODS.contains(&toks[j].text.as_str())
                && toks.get(j + 1).is_some_and(|n| n.text == "(")
        }) else {
            continue; // fences etc.: no call to pair
        };
        // compare_exchange passes two orderings; count the call once.
        if last_call == Some(j) {
            continue;
        }
        last_call = Some(j);
        let var = match (toks.get(j.wrapping_sub(2)), toks.get(j.wrapping_sub(1))) {
            (Some(v), Some(dot)) if j >= 2 && dot.text == "." => v.text.clone(),
            _ => continue,
        };
        let method = toks[j].text.clone();

        let Some(comment) = comment else {
            sites.push(AtomicSite {
                file: file.rel.clone(),
                line: t.line,
                var,
                method,
                ordering: variant,
                decl: None,
            });
            continue;
        };

        let decl = match parse_decl(comment) {
            Ok(decl) => decl,
            Err(reason) => {
                sink.emit(
                    file,
                    "L8",
                    t.line,
                    format!("`// ordering:` comment does not parse: {reason}"),
                );
                continue;
            }
        };
        if !class_matches(&decl.class, &variant) {
            sink.emit(
                file,
                "L8",
                t.line,
                format!(
                    "class `{}` does not admit `Ordering::{variant}` here (expected {})",
                    decl.class,
                    expected_classes(&variant)
                ),
            );
            continue;
        }
        let is_publish = decl.class == "Release->Acquire" || decl.class == "AcqRel";
        if is_publish && decl.pairs_with.is_empty() {
            sink.emit(
                file,
                "L8",
                t.line,
                format!(
                    "publish class `{}` must name its partner: `{ORDERING_PAIRS_WITH} \
                     <var>.<method>`",
                    decl.class
                ),
            );
            continue;
        }
        if !is_publish && !decl.pairs_with.is_empty() {
            sink.emit(
                file,
                "L8",
                t.line,
                format!(
                    "class `{}` declares no synchronization, so `{ORDERING_PAIRS_WITH}` is \
                     contradictory — use `Release->Acquire` if this is a publish edge",
                    decl.class
                ),
            );
            continue;
        }
        sites.push(AtomicSite {
            file: file.rel.clone(),
            line: t.line,
            var,
            method,
            ordering: variant,
            decl: Some(decl),
        });
    }
    sites
}

/// Emits an L8 finding at `rel:line`, honouring `lint:allow` when the
/// source file is available.
fn emit_at(
    sink: &mut Sink,
    files: &BTreeMap<String, SourceFile>,
    rel: &str,
    line: usize,
    message: String,
) {
    match files.get(rel) {
        Some(f) => sink.emit(f, "L8", line, message),
        None => sink.emit_unconditional(rel.to_string(), "L8", line, message),
    }
}

/// The global pairing pass over every collected site: each `pairs-with`
/// target must resolve to a live site of the same variable whose ordering
/// completes the happens-before edge.
pub fn check_global(sites: &[AtomicSite], files: &BTreeMap<String, SourceFile>, sink: &mut Sink) {
    for site in sites {
        let Some(decl) = &site.decl else { continue };
        for (var, method) in &decl.pairs_with {
            if var != &site.var {
                emit_at(
                    sink,
                    files,
                    &site.file,
                    site.line,
                    format!(
                        "`{}.{}` pairs across atomics: a happens-before edge must stay on \
                         `{}` (one atomic, one protocol)",
                        var, method, site.var
                    ),
                );
                continue;
            }
            let partner = sites.iter().find(|p| {
                &p.var == var
                    && &p.method == method
                    && if site.is_release_side() {
                        p.is_acquire_side()
                    } else {
                        p.is_release_side()
                    }
            });
            if partner.is_none() {
                let want = if site.is_release_side() {
                    "Acquire-side"
                } else {
                    "Release-side"
                };
                emit_at(
                    sink,
                    files,
                    &site.file,
                    site.line,
                    format!(
                        "`Ordering::{}` {} of `{}` pairs-with `{var}.{method}`, but no {want} \
                         `{var}.{method}` site exists in the audited tree",
                        site.ordering, site.method, site.var
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(sources: &[(&str, &str)]) -> (Vec<String>, Vec<AtomicSite>) {
        let mut files = BTreeMap::new();
        for (rel, src) in sources {
            files.insert(rel.to_string(), SourceFile::scan(rel, src));
        }
        let mut sink = Sink::default();
        let mut sites = Vec::new();
        for f in files.values() {
            sites.extend(collect(f, &mut sink));
        }
        check_global(&sites, &files, &mut sink);
        let found = sink.findings.iter().map(|f| f.to_string()).collect();
        (found, sites)
    }

    #[test]
    fn relaxed_counter_passes() {
        let (found, sites) = run(&[(
            "a.rs",
            "fn f(c: &C) {\n    // ordering: Relaxed-counter; monotone event count\n    c.hits.fetch_add(1, Ordering::Relaxed);\n}",
        )]);
        assert!(found.is_empty(), "{found:?}");
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].var, "hits");
        assert_eq!(sites[0].method, "fetch_add");
    }

    #[test]
    fn prose_comment_fails_the_grammar() {
        let (found, _) = run(&[(
            "a.rs",
            "fn f(c: &C) {\n    // ordering: monotone counter, readers tolerate staleness\n    c.hits.fetch_add(1, Ordering::Relaxed);\n}",
        )]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("does not parse"), "{found:?}");
    }

    #[test]
    fn release_acquire_pair_resolves_across_files() {
        let (found, _) = run(&[
            (
                "w.rs",
                "fn publish(s: &S) {\n    // ordering: Release->Acquire pairs-with version.load; publishes the swap\n    s.version.store(1, Ordering::Release);\n}",
            ),
            (
                "r.rs",
                "fn observe(s: &S) -> u64 {\n    // ordering: Release->Acquire pairs-with version.store; sees the swap\n    s.version.load(Ordering::Acquire)\n}",
            ),
        ]);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn unpaired_release_flags() {
        let (found, _) = run(&[(
            "w.rs",
            "fn publish(s: &S) {\n    // ordering: Release->Acquire pairs-with version.load\n    s.version.store(1, Ordering::Release);\n}",
        )]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("no Acquire-side"), "{found:?}");
    }

    #[test]
    fn publish_class_requires_a_partner() {
        let (found, _) = run(&[(
            "w.rs",
            "fn publish(s: &S) {\n    // ordering: Release->Acquire; publishes the swap\n    s.version.store(1, Ordering::Release);\n}",
        )]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("must name its partner"), "{found:?}");
    }

    #[test]
    fn relaxed_in_a_declared_publish_edge_flags() {
        let (found, _) = run(&[(
            "w.rs",
            "fn publish(s: &S) {\n    // ordering: Release->Acquire pairs-with version.load\n    s.version.store(1, Ordering::Relaxed);\n}",
        )]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("does not admit"), "{found:?}");
    }

    #[test]
    fn relaxed_class_forbids_pairs_with() {
        let (found, _) = run(&[(
            "w.rs",
            "fn f(c: &C) {\n    // ordering: Relaxed-counter pairs-with hits.load\n    c.hits.fetch_add(1, Ordering::Relaxed);\n}",
        )]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("contradictory"), "{found:?}");
    }

    #[test]
    fn cross_variable_pairing_flags() {
        let (found, _) = run(&[(
            "w.rs",
            "fn publish(s: &S) {\n    // ordering: Release->Acquire pairs-with other.load\n    s.version.store(1, Ordering::Release);\n}",
        )]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("one atomic, one protocol"), "{found:?}");
    }

    #[test]
    fn seqcst_has_no_class() {
        let (found, _) = run(&[(
            "w.rs",
            "fn f(s: &S) {\n    // ordering: AcqRel pairs-with version.load\n    s.version.swap(1, Ordering::SeqCst);\n}",
        )]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("does not admit"), "{found:?}");
    }

    #[test]
    fn compare_exchange_counts_one_site() {
        let (found, sites) = run(&[
            (
                "w.rs",
                "fn f(s: &S) {\n    // ordering: AcqRel pairs-with version.load; rmw publish\n    let _ = s.version.compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire);\n}",
            ),
            (
                "r.rs",
                "fn g(s: &S) -> u64 {\n    // ordering: Release->Acquire pairs-with version.compare_exchange\n    s.version.load(Ordering::Acquire)\n}",
            ),
        ]);
        assert!(found.is_empty(), "{found:?}");
        assert_eq!(
            sites
                .iter()
                .filter(|s| s.method == "compare_exchange")
                .count(),
            1
        );
    }

    #[test]
    fn missing_comment_is_reported_as_l8() {
        let (found, sites) = run(&[(
            "a.rs",
            "fn f(c: &C) {\n    c.hits.fetch_add(1, Ordering::Relaxed);\n}",
        )]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(
            found[0].contains("[L8]") && found[0].contains("Relaxed"),
            "{found:?}"
        );
        assert_eq!(sites.len(), 1);
        assert!(sites[0].decl.is_none());
    }

    /// Fences have no call to pair but still need a justification.
    #[test]
    fn unjustified_ordering_flags() {
        let (found, sites) = run(&[("a.rs", "fn f() {\n    fence(Ordering::SeqCst);\n}")]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(sites.is_empty());
    }

    #[test]
    fn cmp_ordering_is_ignored() {
        let (found, sites) = run(&[(
            "a.rs",
            "fn f(a: u32, b: u32) -> bool { a.cmp(&b) == Ordering::Less }",
        )]);
        assert!(found.is_empty(), "{found:?}");
        assert!(sites.is_empty());
    }

    #[test]
    fn lint_allow_suppresses_grammar_findings() {
        let src = "fn f(s: &S) {\n    // ordering: legacy prose justification\n    // lint:allow(migrating this module to the grammar next release)\n    s.version.swap(1, Ordering::SeqCst);\n}";
        let files: BTreeMap<String, SourceFile> =
            [("a.rs".to_string(), SourceFile::scan("a.rs", src))].into();
        let mut sink = Sink::default();
        for f in files.values() {
            collect(f, &mut sink);
        }
        assert!(sink.findings.is_empty(), "{:?}", sink.findings);
        assert_eq!(sink.allows.len(), 1);
    }
}

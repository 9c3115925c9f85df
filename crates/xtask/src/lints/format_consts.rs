//! L3 — format-constant consistency.
//!
//! The persistence contract lives in three places that can drift apart:
//! the constants in `crates/core/src/persist.rs` (`FORMAT_VERSION`, the
//! `spec_id` table), the store manifest codec (`STORE_FORMAT_VERSION`), and
//! the committed golden blobs under `tests/golden/v{FORMAT_VERSION}/` and
//! the golden store manifest under
//! `tests/golden/store_v{STORE_FORMAT_VERSION}/`. This lint re-derives each
//! side *statically* — the constants lexically from source, the blob and
//! manifest headers from their first 16 bytes — and cross-checks them, so
//! that bumping either version without committing its golden set fails
//! before any test runs.

use std::collections::BTreeMap;
use std::path::Path;

use crate::lints::Sink;
use crate::scan::SourceFile;

/// The blob magic, kept in sync with `grafite_core::persist::MAGIC`.
const BLOB_MAGIC: [u8; 8] = *b"GRAFILT\0";

/// The store manifest magic, kept in sync with
/// `grafite_store::manifest::STORE_MAGIC`.
const STORE_MAGIC: [u8; 8] = *b"GRAFSHRD";

/// The golden store manifest's file name inside `tests/golden/store_v{N}/`.
const STORE_GOLDEN_FILE: &str = "store.bin";

/// Spec ids every golden set must cover: the paper's eleven-way registry.
const REQUIRED_SPEC_IDS: std::ops::RangeInclusive<u32> = 1..=11;

/// A `pub const NAME: u32 = N;` constant pulled lexically from source.
fn parse_u32_const(file: &SourceFile, name: &str) -> Option<u32> {
    let toks = &file.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.text == name
            && t.is_ident
            && toks.get(i + 1).is_some_and(|c| c.text == ":")
            && toks.get(i + 2).is_some_and(|ty| ty.text == "u32")
            && toks.get(i + 3).is_some_and(|e| e.text == "=")
        {
            return toks.get(i + 4).and_then(|v| v.text.parse().ok());
        }
    }
    None
}

/// Every `pub const NAME: u32 = N;` inside `pub mod spec_id { … }`.
fn parse_spec_table(file: &SourceFile) -> BTreeMap<String, u32> {
    let mut out = BTreeMap::new();
    let toks = &file.tokens;
    // Find `mod spec_id {`, then collect consts until the matching `}`.
    let Some(open) = toks
        .iter()
        .enumerate()
        .find(|(i, t)| t.text == "spec_id" && *i > 0 && toks[i - 1].text == "mod")
        .and_then(|(i, _)| {
            toks[i..]
                .iter()
                .position(|t| t.text == "{")
                .map(|off| i + off)
        })
    else {
        return out;
    };
    let mut depth = 0usize;
    let mut i = open;
    while let Some(t) = toks.get(i) {
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            "const" => {
                if let (Some(name), Some(val)) = (toks.get(i + 1), toks.get(i + 5)) {
                    if toks.get(i + 3).is_some_and(|ty| ty.text == "u32") {
                        if let Ok(v) = val.text.parse() {
                            out.insert(name.text.clone(), v);
                        }
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// One `name id fingerprint` line from a golden `manifest.txt`.
struct ManifestEntry {
    name: String,
    id: u32,
}

fn parse_manifest(text: &str) -> Vec<ManifestEntry> {
    text.lines()
        .filter_map(|line| {
            let mut parts = line.split_whitespace();
            let name = parts.next()?.to_string();
            let id = parts.next()?.parse().ok()?;
            Some(ManifestEntry { name, id })
        })
        .collect()
}

/// The `(low, high)` halves of the second header word of a file whose
/// first word must be `magic`: a blob's or a store manifest's spec id and
/// format version.
fn read_head(path: &Path, magic: &[u8; 8]) -> Result<(u32, u32), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("unreadable: {e}"))?;
    let Some(head) = bytes.get(..16) else {
        return Err(format!(
            "only {} bytes, need 16 for the header",
            bytes.len()
        ));
    };
    if head[..8] != magic[..] {
        return Err(format!(
            "magic is not {}",
            String::from_utf8_lossy(magic).trim_end_matches('\0')
        ));
    }
    let word1 = head
        .get(8..16)
        .map(|c| {
            c.iter()
                .rev()
                .fold(0u64, |acc, &b| (acc << 8) | u64::from(b))
        })
        .unwrap_or(0);
    Ok((word1 as u32, (word1 >> 32) as u32))
}

/// Cross-checks the golden directory for `format_version` against the
/// spec table: every blob header must carry exactly that version.
fn check_golden_dir(
    root: &Path,
    format_version: u32,
    spec_table: &BTreeMap<String, u32>,
    sink: &mut Sink,
) {
    let rel_dir = format!("tests/golden/v{format_version}");
    let manifest_rel = format!("{rel_dir}/manifest.txt");
    let manifest_text = match std::fs::read_to_string(root.join(&manifest_rel)) {
        Ok(t) => t,
        Err(e) => {
            sink.emit_unconditional(
                manifest_rel,
                "L3",
                1,
                format!(
                    "golden manifest missing ({e}): a FORMAT_VERSION bump requires regenerating \
                     this golden set (cargo test --test format_golden -- --ignored \
                     regenerate_golden_files)"
                ),
            );
            return;
        }
    };
    let entries = parse_manifest(&manifest_text);
    let known_ids: Vec<u32> = spec_table.values().copied().collect();
    let mut seen_ids = Vec::new();
    for (lineno, entry) in entries.iter().enumerate() {
        seen_ids.push(entry.id);
        if !known_ids.contains(&entry.id) {
            sink.emit_unconditional(
                manifest_rel.clone(),
                "L3",
                lineno + 1,
                format!(
                    "`{}` declares spec id {} which is absent from persist.rs's spec_id table",
                    entry.name, entry.id
                ),
            );
        }
        let blob_rel = format!("{rel_dir}/{}.bin", entry.name);
        match read_head(&root.join(&blob_rel), &BLOB_MAGIC) {
            Err(why) => sink.emit_unconditional(blob_rel, "L3", 1, format!("golden blob {why}")),
            Ok((spec, version)) => {
                if spec != entry.id {
                    sink.emit_unconditional(
                        blob_rel.clone(),
                        "L3",
                        1,
                        format!(
                            "header says spec id {spec} but the manifest says {}",
                            entry.id
                        ),
                    );
                }
                if version != format_version {
                    sink.emit_unconditional(
                        blob_rel,
                        "L3",
                        1,
                        format!(
                            "header format version {version} differs from FORMAT_VERSION \
                             {format_version} — regenerate the goldens"
                        ),
                    );
                }
            }
        }
    }
    for id in REQUIRED_SPEC_IDS {
        if !seen_ids.contains(&id) {
            sink.emit_unconditional(
                manifest_rel.clone(),
                "L3",
                1,
                format!("registry spec id {id} has no golden blob in this set"),
            );
        }
    }
}

/// The golden store manifest for `store_version` must exist and carry
/// exactly that version in its header.
fn check_store_golden(root: &Path, store_version: u32, sink: &mut Sink) {
    let rel = format!("tests/golden/store_v{store_version}/{STORE_GOLDEN_FILE}");
    match read_head(&root.join(&rel), &STORE_MAGIC) {
        Err(why) => sink.emit_unconditional(
            rel,
            "L3",
            1,
            format!(
                "golden store manifest {why}: a STORE_FORMAT_VERSION bump requires committing \
                 this golden (cargo test --test format_golden -- --ignored \
                 regenerate_store_golden)"
            ),
        ),
        Ok((_, version)) if version != store_version => sink.emit_unconditional(
            rel,
            "L3",
            1,
            format!(
                "header store format version {version} differs from STORE_FORMAT_VERSION \
                 {store_version} — regenerate the store golden"
            ),
        ),
        Ok(_) => {}
    }
}

/// Runs L3 from the workspace root.
pub fn check(root: &Path, sink: &mut Sink) {
    let persist_rel = "crates/core/src/persist.rs";
    let persist_src = match std::fs::read_to_string(root.join(persist_rel)) {
        Ok(s) => s,
        Err(e) => {
            sink.emit_unconditional(persist_rel.into(), "L3", 1, format!("unreadable: {e}"));
            return;
        }
    };
    let persist = SourceFile::scan(persist_rel, &persist_src);
    let Some(format_version) = parse_u32_const(&persist, "FORMAT_VERSION") else {
        sink.emit_unconditional(
            persist_rel.into(),
            "L3",
            1,
            "FORMAT_VERSION: u32 constant not found".into(),
        );
        return;
    };
    let spec_table = parse_spec_table(&persist);
    if spec_table.is_empty() {
        sink.emit_unconditional(
            persist_rel.into(),
            "L3",
            1,
            "spec_id table not found or empty".into(),
        );
        return;
    }
    // Append-only table: ids must be unique.
    let mut ids: Vec<u32> = spec_table.values().copied().collect();
    ids.sort_unstable();
    ids.dedup();
    if ids.len() != spec_table.len() {
        sink.emit_unconditional(
            persist_rel.into(),
            "L3",
            1,
            "spec_id table contains duplicate ids (the table is append-only)".into(),
        );
    }

    // The golden set must exist for the *current* FORMAT_VERSION and carry
    // exactly that version in every header.
    check_golden_dir(root, format_version, &spec_table, sink);

    // Store manifest codec: the version constant must exist and be ≥ 1.
    let store_rel = "crates/store/src/manifest.rs";
    match std::fs::read_to_string(root.join(store_rel)) {
        Err(e) => sink.emit_unconditional(store_rel.into(), "L3", 1, format!("unreadable: {e}")),
        Ok(src) => {
            let store = SourceFile::scan(store_rel, &src);
            match parse_u32_const(&store, "STORE_FORMAT_VERSION") {
                None => sink.emit_unconditional(
                    store_rel.into(),
                    "L3",
                    1,
                    "STORE_FORMAT_VERSION: u32 constant not found".into(),
                ),
                Some(0) => sink.emit_unconditional(
                    store_rel.into(),
                    "L3",
                    1,
                    "STORE_FORMAT_VERSION must be ≥ 1".into(),
                ),
                Some(version) => check_store_golden(root, version, sink),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_const_parses() {
        let f = SourceFile::scan("t.rs", "pub const FORMAT_VERSION: u32 = 2;\n");
        assert_eq!(parse_u32_const(&f, "FORMAT_VERSION"), Some(2));
        assert_eq!(parse_u32_const(&f, "MISSING"), None);
    }

    #[test]
    fn spec_table_parses() {
        let src = "pub mod spec_id {\n    /// a\n    pub const A: u32 = 1;\n    pub const B: u32 = 32;\n}\n";
        let f = SourceFile::scan("t.rs", src);
        let table = parse_spec_table(&f);
        assert_eq!(table.get("A"), Some(&1));
        assert_eq!(table.get("B"), Some(&32));
    }

    #[test]
    fn manifest_lines_parse() {
        let entries = parse_manifest("grafite 1 0xdead\nbucketing 2 0xbeef\n");
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[1].name, "bucketing");
        assert_eq!(entries[1].id, 2);
    }

    #[test]
    fn store_golden_must_exist_and_match_the_version() {
        let dir = std::env::temp_dir().join(format!("xtask_l3_store_{}", std::process::id()));
        let golden = dir.join("tests/golden/store_v3");
        std::fs::create_dir_all(&golden).unwrap();
        let count = |version: u32| {
            let mut sink = Sink::default();
            check_store_golden(&dir, version, &mut sink);
            sink.findings.len()
        };
        // A bump to 4 with no `store_v4/` set fails; so does a missing file.
        assert_eq!(count(4), 1);
        assert_eq!(count(3), 1);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&STORE_MAGIC);
        bytes.extend_from_slice(&((1u64) | (3u64 << 32)).to_le_bytes());
        std::fs::write(golden.join(STORE_GOLDEN_FILE), &bytes).unwrap();
        assert_eq!(count(3), 0);
        // A golden stamped with another version fails.
        bytes[12] = 2;
        std::fs::write(golden.join(STORE_GOLDEN_FILE), &bytes).unwrap();
        assert_eq!(count(3), 1);
        // A filter blob is not a store manifest.
        bytes[..8].copy_from_slice(&BLOB_MAGIC);
        bytes[12] = 3;
        std::fs::write(golden.join(STORE_GOLDEN_FILE), &bytes).unwrap();
        assert_eq!(count(3), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn blob_head_decodes_spec_and_version() {
        let dir = std::env::temp_dir().join("xtask_l3_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blob.bin");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&BLOB_MAGIC);
        bytes.extend_from_slice(&((7u64) | (2u64 << 32)).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(read_head(&path, &BLOB_MAGIC), Ok((7, 2)));
    }
}

//! Format-stability goldens: one small serialized filter per family is
//! committed under `tests/golden/v{FORMAT_VERSION}/`. This suite asserts
//! current code still loads each one and answers the fixed probe workload
//! exactly as recorded in that directory's `manifest.txt`, catching silent
//! format breaks (a payload re-ordering, a changed directory layout, a
//! checksum rule drift) that round-trip tests alone cannot see. Blobs of any
//! other format version — the retired v1 and v2 included — must be refused
//! typed.
//!
//! After an *intentional* format change (bump
//! `grafite_core::persist::FORMAT_VERSION` first!) regenerate the set with:
//!
//! ```text
//! cargo test --test format_golden -- --ignored regenerate_golden_files
//! ```
//!
//! The store manifest has its own golden: one small multi-shard manifest
//! under `tests/golden/store_v{STORE_FORMAT_VERSION}/`, which must re-open,
//! re-serialize byte-identically and answer as recorded
//! (`tests/mapped_store.rs` re-stamps it with other versions and checks
//! both opens refuse it). After an intentional
//! manifest change (bump `grafite_store::STORE_FORMAT_VERSION` first),
//! regenerate it with:
//!
//! ```text
//! cargo test --test format_golden -- --ignored regenerate_store_golden
//! ```

use std::collections::BTreeMap;
use std::path::PathBuf;

use grafite_core::registry::FilterSpec;
use grafite_core::{FilterConfig, FilterError, PersistentFilter, StringGrafite};
use grafite_filters::standard_registry;

/// The command that rewrites the filter golden set; a `FORMAT_VERSION`
/// bump requires running it.
const REGENERATE_GOLDENS: &str =
    "cargo test --test format_golden -- --ignored regenerate_golden_files";

/// The command that rewrites the store golden; a `STORE_FORMAT_VERSION`
/// bump requires running it.
const REGENERATE_STORE_GOLDEN: &str =
    "cargo test --test format_golden -- --ignored regenerate_store_golden";

/// The current-format golden set.
fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(format!("tests/golden/v{}", grafite_core::FORMAT_VERSION))
}

/// 257 deterministic keys — small enough for a few-KB blob per family,
/// enough to exercise multi-block succinct structures.
fn golden_keys() -> Vec<u64> {
    let mut state = 0x601DEA_u64 ^ 0x9E3779B97F4A7C15;
    (0..257)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        })
        .collect()
}

fn golden_config(keys: &[u64]) -> (FilterConfig<'_>, Vec<(u64, u64)>) {
    let sample: Vec<(u64, u64)> = (0..64u64).map(|i| (i << 40, (i << 40) + 31)).collect();
    let cfg = FilterConfig::new(keys)
        .bits_per_key(20.0)
        .max_range(1 << 10)
        .seed(0x601D);
    (cfg, sample)
}

/// The fixed probe workload whose answer fingerprint is recorded in the
/// manifest: key hits, near-misses, empties, and universe edges.
fn golden_probes(keys: &[u64]) -> Vec<(u64, u64)> {
    let mut probes = Vec::new();
    for (i, &k) in keys.iter().enumerate() {
        probes.push((k, k));
        probes.push((k.saturating_add(2), k.saturating_add(33)));
        let far = (i as u64).wrapping_mul(0xABCDEF9876543210);
        probes.push((far, far.saturating_add(31)));
    }
    probes.push((0, 1 << 20));
    probes.push((u64::MAX - (1 << 20), u64::MAX));
    probes
}

/// FNV-1a over the answer booleans: the manifest's per-family fingerprint.
fn fingerprint(answers: impl IntoIterator<Item = bool>) -> u64 {
    let mut acc = 0xCBF2_9CE4_8422_2325u64;
    for a in answers {
        acc = (acc ^ (a as u64 + 1)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    acc
}

fn families() -> Vec<(String, FilterSpec)> {
    FilterSpec::ALL
        .into_iter()
        .map(|spec| (spec.label().to_lowercase().replace('-', "_"), spec))
        .collect()
}

const STRING_GRAFITE_FILE: &str = "string_grafite";

fn string_golden_words() -> Vec<String> {
    (0..200).map(|i| format!("golden-{i:04}-key")).collect()
}

/// Writes every golden blob and its manifest under
/// `tests/golden/v{FORMAT_VERSION}/`.
/// `#[ignore]`d: run explicitly (see module docs) only when the format
/// intentionally changes.
#[test]
#[ignore = "regenerates the committed golden files; run explicitly on intentional format changes"]
fn regenerate_golden_files() {
    let dir = golden_dir();
    std::fs::create_dir_all(&dir).unwrap();
    let keys = golden_keys();
    let (cfg, sample) = golden_config(&keys);
    let cfg = cfg.sample(&sample);
    let probes = golden_probes(&keys);
    let registry = standard_registry();
    let mut manifest = String::new();
    for (name, spec) in families() {
        let filter = registry.build(spec, &cfg).unwrap();
        let blob = filter.to_bytes();
        let mut answers = Vec::new();
        filter.may_contain_ranges(&probes, &mut answers);
        std::fs::write(dir.join(format!("{name}.bin")), &blob).unwrap();
        manifest.push_str(&format!(
            "{name} {} {:#018x}\n",
            filter.spec_id(),
            fingerprint(answers)
        ));
    }
    // StringGrafite rides along: not a registry spec, but part of the
    // format surface.
    let sg = StringGrafite::new(&string_golden_words(), 14.0, 0x601D).unwrap();
    let mut answers = Vec::new();
    grafite_core::RangeFilter::may_contain_ranges(&sg, &probes, &mut answers);
    std::fs::write(
        dir.join(format!("{STRING_GRAFITE_FILE}.bin")),
        sg.to_bytes(),
    )
    .unwrap();
    manifest.push_str(&format!(
        "{STRING_GRAFITE_FILE} {} {:#018x}\n",
        sg.spec_id(),
        fingerprint(answers)
    ));
    std::fs::write(dir.join("manifest.txt"), manifest).unwrap();
}

fn read_manifest() -> BTreeMap<String, (u32, u64)> {
    let path = golden_dir().join("manifest.txt");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{} missing ({e}): a FORMAT_VERSION bump requires regenerating the golden set \
             with `{REGENERATE_GOLDENS}`",
            path.display()
        )
    });
    text.lines()
        .map(|line| {
            let mut parts = line.split_whitespace();
            let name = parts.next().unwrap().to_string();
            let spec: u32 = parts.next().unwrap().parse().unwrap();
            let fp =
                u64::from_str_radix(parts.next().unwrap().trim_start_matches("0x"), 16).unwrap();
            (name, (spec, fp))
        })
        .collect()
}

/// Loads and probes every committed golden blob, asserting the recorded
/// answers.
#[test]
fn committed_goldens_still_load_and_answer_identically() {
    let dir = golden_dir();
    let keys = golden_keys();
    let probes = golden_probes(&keys);
    let registry = standard_registry();
    let manifest = read_manifest();
    for (name, spec) in families() {
        let (want_spec, want_fp) = *manifest.get(&name).unwrap_or_else(|| {
            panic!(
                "{name} has no line in the golden manifest: regenerate with `{REGENERATE_GOLDENS}`"
            )
        });
        let blob = std::fs::read(dir.join(format!("{name}.bin")))
            .unwrap_or_else(|e| panic!("golden blob for {name} missing: {e}"));
        let filter = registry.load(&blob).unwrap_or_else(|e| {
            panic!(
                "golden {name} no longer loads: {e}; a format change requires a \
                     FORMAT_VERSION bump and regenerating with `{REGENERATE_GOLDENS}`"
            )
        });
        assert_eq!(filter.spec_id(), want_spec, "{name}: spec id drifted");
        assert_eq!(
            filter.spec_id(),
            spec.spec_id(),
            "{name}: registry mapping drifted"
        );
        assert_eq!(filter.num_keys(), keys.len(), "{name}: key count drifted");
        // No false negatives on the golden key set…
        for &k in &keys {
            assert!(filter.may_contain(k), "{name}: golden blob lost key {k}");
        }
        // …and the exact recorded answers on the full probe workload.
        let mut answers = Vec::new();
        filter.may_contain_ranges(&probes, &mut answers);
        assert_eq!(
            fingerprint(answers),
            want_fp,
            "{name}: loaded answers drifted from the committed fingerprint — \
             the on-disk format changed semantically; if intentional, bump \
             FORMAT_VERSION and regenerate with `{REGENERATE_GOLDENS}`"
        );
    }
    // StringGrafite golden.
    let (want_spec, want_fp) = manifest[STRING_GRAFITE_FILE];
    let blob = std::fs::read(dir.join(format!("{STRING_GRAFITE_FILE}.bin"))).unwrap();
    let sg = StringGrafite::deserialize(&blob)
        .unwrap_or_else(|e| panic!("string_grafite golden no longer loads: {e}"));
    assert_eq!(sg.spec_id(), want_spec);
    for w in string_golden_words() {
        assert!(sg.may_contain(w.as_bytes()), "string golden lost {w}");
    }
    let mut answers = Vec::new();
    grafite_core::RangeFilter::may_contain_ranges(&sg, &probes, &mut answers);
    assert_eq!(
        fingerprint(answers),
        want_fp,
        "string_grafite answers drifted"
    );
}

/// Corrupt, truncated, and wrong-version variants of a committed golden
/// must come back as typed [`FilterError`]s — never a panic, never a
/// silently wrong filter.
#[test]
fn corrupted_goldens_fail_typed() {
    let registry = standard_registry();
    let blob = std::fs::read(golden_dir().join("grafite.bin")).unwrap();

    // Bad magic.
    let mut bad = blob.clone();
    bad[0] ^= 0x5A;
    assert!(matches!(registry.load(&bad), Err(FilterError::BadMagic(_))));

    // Unsupported format versions on either side of the accepted one.
    for version in [0u32, 1, 9] {
        let mut bad = blob.clone();
        bad[12..16].copy_from_slice(&version.to_le_bytes());
        assert!(
            matches!(
                registry.load(&bad),
                Err(FilterError::UnsupportedFormatVersion { .. })
            ),
            "version {version} unexpectedly accepted"
        );
    }

    // Unknown spec id.
    let mut bad = blob.clone();
    bad[8] = 250;
    assert!(matches!(
        registry.load(&bad),
        Err(FilterError::UnknownSpecId(250))
    ));

    // Truncations: **every** prefix length must fail typed, never panic.
    // (The full every-blob, every-header-bit sweep lives in
    // `tests/corruption_sweep.rs`; this keeps the strict
    // TruncatedBuffer-variant assertion close to the other golden checks.)
    for cut in 0..blob.len() {
        match registry.load(&blob[..cut]) {
            Err(FilterError::TruncatedBuffer { .. }) => {}
            Err(other) => panic!("truncation at {cut} gave error {other:?}"),
            Ok(_) => panic!("truncation at {cut} unexpectedly loaded"),
        }
    }

    // Payload bit-flips: the checksum catches every single-bit flip of
    // every payload byte (all eight masks per byte).
    for pos in 40..blob.len() {
        for bit in 0..8u8 {
            let mut bad = blob.clone();
            bad[pos] ^= 1 << bit;
            assert!(
                matches!(
                    registry.load(&bad),
                    Err(FilterError::ChecksumMismatch { .. })
                ),
                "flip at byte {pos} bit {bit} escaped the checksum"
            );
        }
    }

    // Header length field inflated beyond the buffer.
    let mut bad = blob.clone();
    bad[24] = bad[24].wrapping_add(1);
    assert!(matches!(
        registry.load(&bad),
        Err(FilterError::TruncatedBuffer { .. })
    ));
}

/// The retired v1 and v2 formats are refused on every load path. The input
/// is the current Grafite golden restamped with the old version and its
/// checksum recomputed, so the version word is the only thing that differs
/// from a loadable blob.
#[test]
fn retired_versions_are_refused_on_every_load_path() {
    use grafite_core::persist::{blob_checksum, words_of_bytes, HEADER_BYTES};
    use grafite_core::{GrafiteFilter, Header, FORMAT_VERSION};
    use grafite_store::FamilySpec;

    let golden = std::fs::read(golden_dir().join("grafite.bin")).unwrap();
    for found in [1u32, 2] {
        let mut blob = golden.clone();
        let mut header = Header::peek(&blob).unwrap();
        header.version = found;
        header.checksum = blob_checksum(
            header.spec_version_word(),
            header.n_keys,
            header.payload_words,
            words_of_bytes(&blob[HEADER_BYTES..]),
        );
        let mut header_bytes = Vec::new();
        header.write(&mut header_bytes).unwrap();
        blob[..HEADER_BYTES].copy_from_slice(&header_bytes);

        let refused = |path: &str, err: FilterError| {
            assert_eq!(
                err,
                FilterError::UnsupportedFormatVersion {
                    found,
                    supported: FORMAT_VERSION
                },
                "{path} did not refuse the v{found} blob"
            );
        };
        refused(
            "Registry::load",
            standard_registry().load(&blob).err().unwrap(),
        );
        refused(
            "GrafiteFilter::deserialize",
            <GrafiteFilter>::deserialize(&blob).err().unwrap(),
        );
        // The store's shard loader, eager and mapped alike.
        refused(
            "FamilySpec::load",
            FamilySpec::Registry(FilterSpec::Grafite)
                .load(&standard_registry(), &blob)
                .err()
                .unwrap(),
        );
        refused("Header::peek", Header::peek(&blob).err().unwrap());
    }
}

/// The current store-manifest golden set.
fn store_golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!(
        "tests/golden/store_v{}",
        grafite_store::STORE_FORMAT_VERSION
    ))
}

/// 1200 deterministic keys in three range shards of about 400: every shard
/// holds a full key block and a short one.
fn store_golden_keys() -> Vec<u64> {
    golden_keys_n(1200).into_iter().map(|k| k >> 8).collect()
}

fn golden_keys_n(n: usize) -> Vec<u64> {
    let mut state = 0x5707E_u64 ^ 0x9E3779B97F4A7C15;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        })
        .collect()
}

fn store_golden_config(threads: usize) -> grafite_store::StoreConfig {
    use grafite_store::{FamilySpec, Partitioning, StoreConfig};
    StoreConfig::new(FamilySpec::Registry(FilterSpec::Grafite))
        .bits_per_key(16.0)
        .max_range(64)
        .seed(0x601D)
        .sample((0..4u64).map(|i| (i << 50, (i << 50) + 63)).collect())
        .partitioning(Partitioning::Range { shards: 3 })
        .parallelism(grafite_core::Parallelism::fixed(threads))
}

/// FNV-1a over the store's answers on the golden probes.
fn store_fingerprint(store: &grafite_store::FilterStore) -> u64 {
    let mut answers = Vec::new();
    store.query_ranges(&golden_probes(&store_golden_keys()), &mut answers);
    fingerprint(answers)
}

/// Writes the store golden (`store.bin`) and its answer fingerprint
/// (`answers.txt`) under `tests/golden/store_v{N}/`. `#[ignore]`d: run
/// explicitly (see module docs) only when the manifest format
/// intentionally changes.
#[test]
#[ignore = "regenerates the committed store golden; run explicitly on intentional manifest changes"]
fn regenerate_store_golden() {
    let dir = store_golden_dir();
    std::fs::create_dir_all(&dir).unwrap();
    let store = grafite_store::FilterStore::build(
        &standard_registry(),
        store_golden_config(1),
        &store_golden_keys(),
    )
    .unwrap();
    std::fs::write(dir.join("store.bin"), store.to_bytes()).unwrap();
    std::fs::write(
        dir.join("answers.txt"),
        format!("{:#018x}\n", store_fingerprint(&store)),
    )
    .unwrap();
}

/// The committed store golden opens eagerly and lazily, answers exactly as
/// recorded, and re-serializes byte-identically; serial and parallel
/// builds of its keys write it byte for byte.
#[test]
fn committed_store_golden_reserializes_and_answers_identically() {
    use grafite_store::FilterStore;

    let dir = store_golden_dir();
    let path = dir.join("store.bin");
    let golden = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "{} missing ({e}): a STORE_FORMAT_VERSION bump requires regenerating the store \
             golden with `{REGENERATE_STORE_GOLDEN}`",
            path.display()
        )
    });
    let text = std::fs::read_to_string(dir.join("answers.txt")).unwrap();
    let want = u64::from_str_radix(text.trim().trim_start_matches("0x"), 16).unwrap();
    let registry = standard_registry();

    let eager = FilterStore::open(&registry, &golden).unwrap();
    let mapped = FilterStore::open_mapped(&registry, &path).unwrap();
    for (what, store) in [("open", &eager), ("open_mapped", &mapped)] {
        assert_eq!(
            store_fingerprint(store),
            want,
            "{what}: store golden answers drifted — if the manifest format changed \
             intentionally, bump STORE_FORMAT_VERSION and regenerate with \
             `{REGENERATE_STORE_GOLDEN}`"
        );
        for &k in &store_golden_keys() {
            assert!(store.may_contain(k), "{what}: store golden lost key {k}");
        }
        assert!(
            store.to_bytes() == golden,
            "{what}: re-serialization differs from the golden"
        );
    }
    for threads in [1, 4] {
        let built = FilterStore::build(
            &registry,
            store_golden_config(threads),
            &store_golden_keys(),
        )
        .unwrap();
        assert!(
            built.to_bytes() == golden,
            "a {threads}-thread build writes a different manifest"
        );
    }
}

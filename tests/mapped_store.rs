//! Acceptance suite for the lazily-mapped serving path: `open_mapped`
//! must be indistinguishable from `open` to a reader.
//!
//! * For every family, a mapped store answers **bit-identically** to an
//!   eagerly-opened store over the same manifest, and re-serializes
//!   byte-identically once materialized.
//! * Cold start is genuinely lazy: opening touches no shard bodies, and a
//!   point query materializes exactly the one shard it routes to.
//! * `reload_mapped` swaps manifests atomically under four concurrent
//!   reader threads with zero failed queries: every answer matches the
//!   old or the new snapshot exactly.
//! * A byte-flip sweep over the manifest file: every corruption either
//!   fails typed at `open_mapped` or degrades the damaged shard to a
//!   fail-open placeholder — present keys still answer `true`, the load
//!   error is retained, and `save_to`/`apply` refuse the degraded store.
//!   Every byte of one shard's blocked Elias–Fano key record, flipped in
//!   turn, degrades exactly that shard; damage after open fails the calls
//!   that re-read keys with `ChecksumMismatch`.
//! * Manifests of any other store format version — v2 and v3 included —
//!   are refused typed by both opens.
//! * `FilterStore::space` adds up: a mapped store's filter, key-record and
//!   framing bytes are its manifest's length.
//! * Both opens share one reader: a registry without the family's loader
//!   fails both with `Unregistered`, and shard damage that only the
//!   per-shard checks can see (manifest checksums re-forged) fails the
//!   eager open with `ShardLoad` naming the shard and degrades exactly that
//!   shard of a mapped store.

use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use grafite::grafite_core::persist::checksum_words;
use grafite::grafite_store::STORE_FORMAT_VERSION;
use grafite::{
    standard_registry, FamilySpec, FilterError, FilterStore, Partitioning, Registry, StoreConfig,
    Update,
};

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state
}

/// Sorted, deduplicated keys with universe edges and tight clusters.
fn dataset(n: usize, seed: u64) -> Vec<u64> {
    let mut keys = vec![0, 1, 2, 255, 256, 257, u64::MAX - 1, u64::MAX];
    let mut state = seed;
    for _ in 0..n {
        keys.push(lcg(&mut state));
    }
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// Key-avoiding empty ranges for the auto-tuned families.
fn sample_queries(sorted_keys: &[u64]) -> Vec<(u64, u64)> {
    let mut sample = Vec::new();
    let mut state = 3u64;
    while sample.len() < 64 {
        let a = lcg(&mut state);
        let Some(b) = a.checked_add(31) else { continue };
        let i = sorted_keys.partition_point(|&k| k < a);
        if i < sorted_keys.len() && sorted_keys[i] <= b {
            continue;
        }
        sample.push((a, b));
    }
    sample
}

/// A mixed probe batch: key-anchored hits, near misses, far misses, edges.
fn probes(keys: &[u64]) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    for &k in keys.iter().step_by(3) {
        out.push((k, k));
        out.push((k.saturating_sub(7), k.saturating_add(7)));
    }
    let mut state = 0xBEEF;
    for _ in 0..600 {
        let a = lcg(&mut state);
        for width in [0u64, 1, 31, 63] {
            out.push((a, a.saturating_add(width)));
        }
    }
    out.push((0, 63));
    out.push((u64::MAX - 63, u64::MAX));
    out
}

fn store_config(family: FamilySpec, sample: Vec<(u64, u64)>, p: Partitioning) -> StoreConfig {
    StoreConfig::new(family)
        .bits_per_key(18.0)
        .max_range(64)
        .seed(13)
        .sample(sample)
        .partitioning(p)
}

/// Writes `bytes` to a process-unique temp file and returns the path.
fn temp_manifest(name: &str, bytes: &[u8]) -> PathBuf {
    let path = std::env::temp_dir().join(format!("grafite-mapped-{name}-{}", std::process::id()));
    std::fs::write(&path, bytes).unwrap();
    path
}

/// For every family under both partitionings: `open_mapped` answers
/// bit-identically to `open` over the same manifest file, loses no key,
/// and — once every shard has materialized — re-serializes
/// byte-identically.
#[test]
fn mapped_open_matches_eager_open_for_every_family() {
    let registry = standard_registry();
    let keys = dataset(1100, 0xACCE_55ED);
    let sample = sample_queries(&keys);
    let queries = probes(&keys);
    for family in FamilySpec::ALL {
        for partitioning in [
            Partitioning::Range { shards: 4 },
            Partitioning::Hash { shards: 4 },
        ] {
            let config = store_config(family, sample.clone(), partitioning);
            let store = FilterStore::build(&registry, config, &keys)
                .unwrap_or_else(|e| panic!("{}: store build failed: {e}", family.label()));
            let bytes = store.to_bytes();
            let path = temp_manifest(&format!("{}-{partitioning:?}", family.label()), &bytes);

            let eager = FilterStore::open(&registry, &bytes)
                .unwrap_or_else(|e| panic!("{}: open failed: {e}", family.label()));
            let mapped = FilterStore::open_mapped(&registry, &path)
                .unwrap_or_else(|e| panic!("{}: open_mapped failed: {e}", family.label()));

            let (eager_snap, mapped_snap) = (eager.snapshot(), mapped.snapshot());
            let (mut want, mut got) = (Vec::new(), Vec::new());
            eager_snap.query_ranges(&queries, &mut want);
            mapped_snap.query_ranges(&queries, &mut got);
            assert_eq!(
                want,
                got,
                "{}/{partitioning:?}: mapped answers diverged from eager open",
                family.label()
            );
            for &(a, b) in queries.iter().step_by(17) {
                assert_eq!(
                    mapped_snap.may_contain_range(a, b),
                    eager_snap.may_contain_range(a, b),
                    "{}/{partitioning:?}: single-query path diverged on [{a}, {b}]",
                    family.label()
                );
            }
            for &k in keys.iter().step_by(13) {
                assert!(
                    mapped_snap.may_contain(k),
                    "{}/{partitioning:?}: mapped store lost key {k}",
                    family.label()
                );
            }

            assert!(
                mapped.stats().lazy_shard_loads() > 0,
                "{}/{partitioning:?}: no shard was lazily materialized",
                family.label()
            );
            assert_eq!(
                mapped.stats().shard_load_errors(),
                0,
                "{}/{partitioning:?}: clean manifest reported load errors",
                family.label()
            );
            // The strongest statement: the fully-materialized mapped store
            // writes back the exact bytes it was opened from.
            assert_eq!(
                mapped.to_bytes(),
                bytes,
                "{}/{partitioning:?}: mapped store re-serializes differently",
                family.label()
            );
            let _ = std::fs::remove_file(&path);
        }
    }
}

/// Opening a mapped store touches no shard bodies; a point query
/// materializes exactly the shard it routes to.
#[test]
fn mapped_open_is_lazy_per_shard() {
    let registry = standard_registry();
    let keys = dataset(2000, 0x1A2B);
    let config = store_config(
        FamilySpec::Registry(grafite::FilterSpec::Grafite),
        Vec::new(),
        Partitioning::Range { shards: 8 },
    );
    let store = FilterStore::build(&registry, config, &keys).unwrap();
    let path = temp_manifest("lazy", &store.to_bytes());

    let mapped = FilterStore::open_mapped(&registry, &path).unwrap();
    let snap = mapped.snapshot();
    assert_eq!(snap.num_shards(), 8);
    assert_eq!(
        mapped.stats().lazy_shard_loads(),
        0,
        "opening the store materialized shards eagerly"
    );

    // One point query routes to one shard: exactly one materialization.
    let k = keys[keys.len() / 2];
    assert!(snap.may_contain(k));
    assert_eq!(
        mapped.stats().lazy_shard_loads(),
        1,
        "a point query materialized more than its own shard"
    );

    // Applying updates only materializes the dirty shards it rebuilds
    // (plus nothing else beyond what queries already loaded).
    let loads_before = mapped.stats().lazy_shard_loads();
    mapped.apply(&[Update::Insert(k.wrapping_add(1))]).unwrap();
    assert!(
        mapped.stats().lazy_shard_loads() <= loads_before + 1,
        "apply materialized unrelated shards"
    );
    assert!(mapped.may_contain(k.wrapping_add(1)));

    let _ = std::fs::remove_file(&path);
}

/// `reload_mapped` under four concurrent reader threads: zero failed
/// queries, every answer matches the old or the new snapshot exactly, and
/// the new key set serves after the swap.
#[test]
fn reload_mapped_under_concurrent_readers_drops_zero_queries() {
    let registry = standard_registry();
    let old_keys = dataset(1500, 0x0111);
    let new_keys = dataset(1500, 0x9999);
    let family = FamilySpec::Registry(grafite::FilterSpec::Grafite);
    let old_store = FilterStore::build(
        &registry,
        store_config(family, Vec::new(), Partitioning::Range { shards: 4 }),
        &old_keys,
    )
    .unwrap();
    let new_store = FilterStore::build(
        &registry,
        store_config(family, Vec::new(), Partitioning::Range { shards: 4 }),
        &new_keys,
    )
    .unwrap();
    let old_path = temp_manifest("reload-old", &old_store.to_bytes());
    let new_path = temp_manifest("reload-new", &new_store.to_bytes());
    let (old_snap, new_snap) = (old_store.snapshot(), new_store.snapshot());

    let served = Arc::new(FilterStore::open_mapped(&registry, &old_path).unwrap());
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..4u64)
        .map(|t| {
            let served = Arc::clone(&served);
            let stop = Arc::clone(&stop);
            let old_snap = Arc::clone(&old_snap);
            let new_snap = Arc::clone(&new_snap);
            std::thread::spawn(move || {
                let mut answered = 0u64;
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let a = (t * 7919 + i).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 1;
                    let b = a.saturating_add(i % 48);
                    let got = served.may_contain_range(a, b);
                    assert!(
                        got == old_snap.may_contain_range(a, b)
                            || got == new_snap.may_contain_range(a, b),
                        "answer matches neither snapshot at [{a}, {b}]"
                    );
                    answered += 1;
                    i += 1;
                }
                answered
            })
        })
        .collect();

    std::thread::sleep(std::time::Duration::from_millis(50));
    let version = served.reload_mapped(&new_path).unwrap();
    assert_eq!(version, 1);
    std::thread::sleep(std::time::Duration::from_millis(50));
    stop.store(true, Ordering::Relaxed);
    let total: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(total > 0, "readers answered nothing");

    assert_eq!(served.stats().reloads(), 1);
    for &k in new_keys.iter().step_by(19) {
        assert!(served.may_contain(k), "post-reload FN at {k}");
    }

    let _ = std::fs::remove_file(&old_path);
    let _ = std::fs::remove_file(&new_path);
}

/// `reload_mapped` from a freshly written replacement file serves the new
/// key set, and a missing manifest path fails typed without touching the
/// served store.
#[test]
fn reload_mapped_from_a_temp_file_and_missing_paths() {
    let registry = standard_registry();
    let keys_a = dataset(400, 0xAAAA);
    let keys_b = dataset(400, 0xBBBB);
    let family = FamilySpec::Registry(grafite::FilterSpec::Grafite);
    let build = |keys: &[u64]| {
        FilterStore::build(
            &registry,
            store_config(family, Vec::new(), Partitioning::Range { shards: 2 }),
            keys,
        )
        .unwrap()
    };
    let served = build(&keys_a);
    let replacement = temp_manifest("reload-replacement", &build(&keys_b).to_bytes());

    assert_eq!(served.reload_mapped(&replacement).unwrap(), 1);
    for &k in keys_b.iter().step_by(7) {
        assert!(served.may_contain(k), "post-reload FN at {k}");
    }

    // A missing file fails typed and leaves the served snapshot alone.
    let gone = std::env::temp_dir().join(format!("grafite-mapped-missing-{}", std::process::id()));
    assert!(matches!(
        served.reload_mapped(&gone),
        Err(FilterError::Io { .. })
    ));
    assert!(served.may_contain(keys_b[0]));
    assert_eq!(
        served.snapshot().version(),
        1,
        "failed reload bumped the version"
    );
    let _ = std::fs::remove_file(&replacement);
}

/// Byte-flip sweep over a saved manifest: every corruption either fails
/// typed at `open_mapped` (scan-time validation) or opens into a store
/// whose damaged shard degrades to fail-open — so present keys still
/// answer `true` — with the load error retained and `save_to`/`apply`
/// refusing the degraded store.
#[test]
fn corrupted_mapped_manifests_fail_typed_or_fail_open() {
    let registry = standard_registry();
    let keys = dataset(300, 0xC0DE);
    let config = store_config(
        FamilySpec::Registry(grafite::FilterSpec::Grafite),
        Vec::new(),
        Partitioning::Range { shards: 3 },
    );
    let store = FilterStore::build(&registry, config, &keys).unwrap();
    let bytes = store.to_bytes();
    let path = std::env::temp_dir().join(format!("grafite-mapped-sweep-{}", std::process::id()));

    let mut typed_failures = 0usize;
    let mut degraded_opens = 0usize;
    let mut clean_opens = 0usize;
    for at in (0..bytes.len()).step_by(3) {
        let mut corrupt = bytes.clone();
        corrupt[at] ^= 0xA5;
        std::fs::write(&path, &corrupt).unwrap();
        match FilterStore::open_mapped(&registry, &path) {
            Err(_) => typed_failures += 1,
            Ok(mapped) => {
                // Fail-open invariant: no corruption may introduce a false
                // negative — a damaged shard answers `true` for everything.
                let snap = mapped.snapshot();
                for &k in keys.iter().step_by(5) {
                    assert!(
                        snap.may_contain(k),
                        "byte {at}: corruption caused a false negative at {k}"
                    );
                }
                if let Some(err) = snap.load_error() {
                    degraded_opens += 1;
                    assert!(
                        matches!(err, FilterError::ShardLoad { .. }),
                        "byte {at}: load error is not ShardLoad: {err}"
                    );
                    assert!(
                        mapped.stats().shard_load_errors() > 0,
                        "byte {at}: degraded shard not counted"
                    );
                    // A degraded store refuses to re-serialize itself or to
                    // rebuild the damaged shard over bad data.
                    let mut sink = Vec::new();
                    assert!(
                        mapped.save_to(&mut sink).is_err(),
                        "byte {at}: degraded store serialized anyway"
                    );
                    let deg = snap
                        .shards()
                        .iter()
                        .position(|s| s.load_error().is_some())
                        .unwrap();
                    let (lo, _) = snap.routing().shard_span(deg);
                    assert!(
                        mapped.apply(&[Update::Insert(lo)]).is_err(),
                        "byte {at}: degraded shard accepted an update"
                    );
                } else {
                    clean_opens += 1;
                }
            }
        }
    }
    let _ = std::fs::remove_file(&path);

    // The sweep must have exercised all three regimes: header/structure
    // damage (typed scan failure), shard-body damage (fail-open), and
    // harmless damage (padding bytes).
    assert!(typed_failures > 0, "no corruption failed at scan time");
    assert!(degraded_opens > 0, "no corruption degraded a shard");
    // Truncation fails typed too.
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    assert!(FilterStore::open_mapped(&registry, &path).is_err());
    std::fs::write(&path, &bytes[..40]).unwrap();
    assert!(FilterStore::open_mapped(&registry, &path).is_err());
    let _ = std::fs::remove_file(&path);
    // `clean_opens` may legitimately be zero if every byte is covered by a
    // checksum; it exists so the compiler sees the counter used.
    let _ = clean_opens;
}

/// A registry that cannot load the manifest's family fails both opens with
/// `Unregistered` before any shard is touched, Grafite included.
#[test]
fn unregistered_family_fails_both_opens() {
    let registry = standard_registry();
    let keys = dataset(500, 0x5EED);
    let sample = sample_queries(&keys);
    for spec in [grafite::FilterSpec::Grafite, grafite::FilterSpec::Snarf] {
        let config = store_config(
            FamilySpec::Registry(spec),
            sample.clone(),
            Partitioning::Range { shards: 3 },
        );
        let bytes = FilterStore::build(&registry, config, &keys)
            .unwrap()
            .to_bytes();
        let path = temp_manifest(&format!("unregistered-{}", spec.label()), &bytes);
        let eager = FilterStore::open(&Registry::empty(), &bytes);
        assert!(
            matches!(eager, Err(FilterError::Unregistered(_))),
            "{}: open gave {:?}",
            spec.label(),
            eager.err()
        );
        let mapped = FilterStore::open_mapped(&Registry::empty(), &path);
        assert!(
            matches!(mapped, Err(FilterError::Unregistered(_))),
            "{}: open_mapped gave {:?}",
            spec.label(),
            mapped.err()
        );
        let _ = std::fs::remove_file(&path);
    }
}

fn word_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// Where one shard's records sit in a manifest, in bytes.
struct ShardLayout {
    /// The key record: block directory, then the encoded key blocks.
    keys: Range<usize>,
    /// The encoded key blocks alone.
    blocks: Range<usize>,
    /// The filter blob (unpadded).
    blob: Range<usize>,
}

/// An independent walk of the manifest layout: every shard's key record
/// and blob, and the framing words the metadata checksum covers.
fn manifest_layout(bytes: &[u8]) -> (Vec<ShardLayout>, Vec<u64>) {
    let mut framing: Vec<u64> = (1..9).map(|w| word_at(bytes, 8 * w)).collect();
    let n_shards = word_at(bytes, 24) as usize;
    let mut at = 88; // the ten header words, then the metadata checksum
    if word_at(bytes, 16) == 0 {
        // Range routing: one start key per shard.
        framing.extend((0..n_shards).map(|s| word_at(bytes, at + 8 * s)));
        at += 8 * n_shards;
    }
    let sample_words = 2 * word_at(bytes, at) as usize;
    framing.extend((0..=sample_words).map(|w| word_at(bytes, at + 8 * w)));
    at += 8 * (1 + sample_words);
    let mut shards = Vec::new();
    for _ in 0..n_shards {
        // Key count, keys checksum, key-block words, blob length.
        let record: Vec<u64> = (0..4).map(|w| word_at(bytes, at + 8 * w)).collect();
        framing.extend(&record);
        at += 32;
        let directory = 16 * (record[0] as usize).div_ceil(256);
        let keys = at..at + directory + 8 * record[2] as usize;
        let blocks = at + directory..keys.end;
        at = keys.end;
        let blob = at..at + record[3] as usize;
        at += blob.len().div_ceil(8) * 8;
        shards.push(ShardLayout { keys, blocks, blob });
    }
    assert_eq!(at, bytes.len(), "the layout walk missed bytes");
    (shards, framing)
}

/// Recomputes the metadata checksum (body word 0) and the whole-body
/// checksum (header word 9) over an edited manifest, so only the per-shard
/// checks can catch the edit.
fn reforge_checksums(bytes: &mut [u8]) {
    let (_, framing) = manifest_layout(bytes);
    let meta = checksum_words(framing);
    bytes[80..88].copy_from_slice(&meta.to_le_bytes());
    let body_words = word_at(bytes, 64) as usize;
    let covered = (1..9).chain(10..10 + body_words);
    let whole = checksum_words(covered.map(|w| word_at(bytes, 8 * w)));
    bytes[72..80].copy_from_slice(&whole.to_le_bytes());
}

/// One flipped byte inside shard `i`'s blob, under re-forged manifest
/// checksums: eager `open` fails with `ShardLoad { shard: i }`, and
/// `open_mapped` degrades exactly shard `i`, counts one load error, and
/// loses no key.
#[test]
fn shard_damage_under_reforged_checksums_is_caught_per_shard() {
    let registry = standard_registry();
    let keys = dataset(800, 0xF00D);
    for spec in [grafite::FilterSpec::Grafite, grafite::FilterSpec::Bucketing] {
        let config = store_config(
            FamilySpec::Registry(spec),
            Vec::new(),
            Partitioning::Range { shards: 4 },
        );
        let bytes = FilterStore::build(&registry, config, &keys)
            .unwrap()
            .to_bytes();
        let mut reforged = bytes.clone();
        reforge_checksums(&mut reforged);
        assert_eq!(reforged, bytes, "the test-side layout walk is wrong");

        let (shards, _) = manifest_layout(&bytes);
        for (target, ShardLayout { blob, .. }) in shards.iter().enumerate() {
            let mut bad = bytes.clone();
            bad[blob.start + blob.len() / 2] ^= 0x5A;
            reforge_checksums(&mut bad);

            match FilterStore::open(&registry, &bad) {
                Err(FilterError::ShardLoad { shard, .. }) => assert_eq!(
                    shard as usize,
                    target,
                    "{}: eager open blamed the wrong shard",
                    spec.label()
                ),
                other => panic!(
                    "{} shard {target}: eager open gave {:?}",
                    spec.label(),
                    other.err()
                ),
            }

            let path = temp_manifest(&format!("reforged-{}-{target}", spec.label()), &bad);
            let mapped = FilterStore::open_mapped(&registry, &path).unwrap();
            assert!(!mapped.stats().is_degraded(), "{}", spec.label());
            let snap = mapped.snapshot();
            for &k in &keys {
                assert!(
                    snap.may_contain(k),
                    "{} shard {target}: lost key {k}",
                    spec.label()
                );
            }
            let degraded: Vec<usize> = snap
                .shards()
                .iter()
                .enumerate()
                .filter(|(_, s)| s.load_error().is_some())
                .map(|(i, _)| i)
                .collect();
            assert_eq!(degraded, vec![target], "{}", spec.label());
            assert_eq!(mapped.stats().shard_load_errors(), 1, "{}", spec.label());
            assert!(mapped.stats().is_degraded(), "{}", spec.label());
            let _ = std::fs::remove_file(&path);
        }
    }
}

/// Damage to the file after `open_mapped` and warm-up. Queries answer as
/// before: the filters are in memory. `holds_key` on the damaged block
/// answers or fails typed, never panics. `read_keys`, and `apply` to the
/// damaged shard and `save_to`, which re-read its keys, fail
/// `ChecksumMismatch` and leave the version unchanged, while other shards
/// keep accepting updates. Before the damage, the warmed store writes back
/// exactly its file.
#[test]
fn key_damage_after_open_fails_typed_where_keys_are_read() {
    use std::io::{Seek, SeekFrom, Write};

    let registry = standard_registry();
    let keys = dataset(3000, 0xDA6E);
    let config = store_config(
        FamilySpec::Registry(grafite::FilterSpec::Grafite),
        Vec::new(),
        Partitioning::Range { shards: 4 },
    );
    let bytes = FilterStore::build(&registry, config, &keys)
        .unwrap()
        .to_bytes();
    let path = temp_manifest("damage-after-open", &bytes);
    let mapped = FilterStore::open_mapped(&registry, &path).unwrap();
    let snap = mapped.snapshot();
    let queries = probes(&keys);
    let mut before = Vec::new();
    snap.query_ranges(&queries, &mut before);
    assert!(snap.shards().iter().all(|s| s.is_materialized()));
    assert_eq!(
        mapped.to_bytes(),
        bytes,
        "warmed store re-serializes differently"
    );

    // Flip a byte in the middle of shard 1's encoded key blocks in the
    // file. The walk is right if the block directory opens with the
    // shard's first key, and block 1's fence is its key 256.
    let (layout, _) = manifest_layout(&bytes);
    let shard_keys = snap.shards()[1].read_keys().unwrap().into_owned();
    assert!(shard_keys.len() > 2 * 256);
    let directory = layout[1].keys.start;
    assert_eq!(
        word_at(&bytes, directory),
        shard_keys[0],
        "directory offset is wrong"
    );
    assert_eq!(word_at(&bytes, directory + 16), shard_keys[256]);
    let blocks = &layout[1].blocks;
    let at = blocks.start + blocks.len() / 2;
    let mut file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    file.seek(SeekFrom::Start(at as u64)).unwrap();
    file.write_all(&[bytes[at] ^ 0x5A]).unwrap();
    drop(file);

    // Sampled refutation reads the damaged block unverified: an error or
    // an answer, never a panic.
    for &k in shard_keys.iter().step_by(7) {
        for (a, b) in [(k, k), (k + 1, k + 1), (k.saturating_sub(3), k + 3)] {
            let _ = snap.shards()[1].holds_key(a, b);
        }
    }
    assert!(
        matches!(
            snap.shards()[1].read_keys(),
            Err(FilterError::ChecksumMismatch { .. })
        ),
        "read_keys returned damaged keys"
    );
    let mut after = Vec::new();
    snap.query_ranges(&queries, &mut after);
    assert_eq!(after, before, "file damage changed an answer");
    let version = mapped.snapshot().version();
    let into_shard_1 = Update::Insert(shard_keys[10] + 1);
    assert!(
        matches!(
            mapped.apply(&[into_shard_1]),
            Err(FilterError::ChecksumMismatch { .. })
        ),
        "apply rebuilt from damaged keys"
    );
    assert_eq!(mapped.snapshot().version(), version);
    let mut sink = Vec::new();
    assert!(
        matches!(
            mapped.save_to(&mut sink),
            Err(FilterError::ChecksumMismatch { .. })
        ),
        "save_to wrote damaged keys"
    );
    let (lo, _) = snap.routing().shard_span(0);
    let into_shard_0 = (lo..).find(|&k| !snap.shards()[0].holds_key(k, k).unwrap());
    let report = mapped
        .apply(&[Update::Insert(into_shard_0.unwrap())])
        .unwrap();
    assert_eq!(report.version, version + 1);
    let _ = std::fs::remove_file(&path);
}

/// Every byte of one shard's key record — block directory and encoded
/// key blocks — flipped in turn. The metadata checksum does not cover
/// those bytes, so `open_mapped` succeeds; that shard, and only it,
/// degrades to pass-all when it loads, with a `ChecksumMismatch` inside its
/// `ShardLoad`, and no key answers `false`.
#[test]
fn every_key_record_flip_degrades_only_its_shard() {
    let registry = standard_registry();
    let keys = dataset(900, 0xB10C);
    let config = store_config(
        FamilySpec::Registry(grafite::FilterSpec::Grafite),
        Vec::new(),
        Partitioning::Range { shards: 3 },
    );
    let bytes = FilterStore::build(&registry, config, &keys)
        .unwrap()
        .to_bytes();
    let (layout, _) = manifest_layout(&bytes);
    let target = 1;
    let record = layout[target].keys.clone();
    assert!(
        record.len() > 16 * 2 && layout[target].blocks.start > record.start,
        "the target shard needs two blocks"
    );
    let path = std::env::temp_dir().join(format!("grafite-mapped-flips-{}", std::process::id()));
    for at in record {
        let mut bad = bytes.clone();
        bad[at] ^= 1 << (at % 8);
        std::fs::write(&path, &bad).unwrap();
        let mapped = FilterStore::open_mapped(&registry, &path)
            .unwrap_or_else(|e| panic!("byte {at}: open_mapped failed: {e}"));
        assert!(!mapped.stats().is_degraded(), "byte {at}");
        let snap = mapped.snapshot();
        for &k in &keys {
            assert!(snap.may_contain(k), "byte {at}: false negative at {k}");
        }
        for (i, shard) in snap.shards().iter().enumerate() {
            match (i == target, shard.load_error()) {
                (true, Some(FilterError::ShardLoad { shard, source })) => {
                    assert_eq!(*shard as usize, target);
                    assert!(
                        matches!(**source, FilterError::ChecksumMismatch { .. }),
                        "byte {at}: {source}"
                    );
                }
                (false, None) => {}
                (_, err) => panic!("byte {at}: shard {i} load error {err:?}"),
            }
        }
        assert_eq!(mapped.stats().shard_load_errors(), 1, "byte {at}");
        assert!(mapped.stats().is_degraded(), "byte {at}");
    }
    let _ = std::fs::remove_file(&path);
}

/// `FilterStore::space` against ground truth. A built or eagerly opened
/// store holds 8 bytes per key in memory and none on disk. A mapped store
/// holds nothing before its shards load and their block directories (16
/// bytes per block of 256 keys) after; cold or warm, its filters, key
/// records and framing add up to the manifest's length.
#[test]
fn space_by_layer_matches_ground_truth() {
    let registry = standard_registry();
    let keys = dataset(2500, 0x5BACE);
    let sample = sample_queries(&keys);
    for spec in [grafite::FilterSpec::Grafite, grafite::FilterSpec::Bucketing] {
        for partitioning in [
            Partitioning::Range { shards: 4 },
            Partitioning::Hash { shards: 3 },
        ] {
            let what = format!("{}/{partitioning:?}", spec.label());
            let config = store_config(FamilySpec::Registry(spec), sample.clone(), partitioning);
            let built = FilterStore::build(&registry, config, &keys).unwrap();
            let bytes = built.to_bytes();
            let eager = FilterStore::open(&registry, &bytes).unwrap();
            for store in [&built, &eager] {
                let space = store.space();
                assert_eq!(space.num_keys, keys.len(), "{what}");
                assert_eq!(space.keys_resident_bytes, 8 * keys.len(), "{what}");
                assert_eq!(space.keys_on_disk_bytes, 0, "{what}");
            }

            let path = temp_manifest(&format!("space-{}-{partitioning:?}", spec.label()), &bytes);
            let mapped = FilterStore::open_mapped(&registry, &path).unwrap();
            let cold = mapped.space();
            assert_eq!(
                mapped.stats().lazy_shard_loads(),
                0,
                "{what}: space materialized"
            );
            assert_eq!(cold.keys_resident_bytes, 0, "{what}");
            assert_eq!(cold.num_keys, keys.len(), "{what}");
            let directories: usize = mapped
                .snapshot()
                .shards()
                .iter()
                .map(|s| 16 * s.num_keys().div_ceil(256))
                .sum();
            let warm = mapped.space();
            assert_eq!(warm.keys_resident_bytes, directories, "{what}");
            for space in [cold, warm] {
                assert_eq!(
                    space.filter_bytes + space.keys_on_disk_bytes + space.framing_bytes,
                    bytes.len(),
                    "{what}: layers do not add up to the manifest"
                );
                assert_eq!(space.filter_bytes, eager.space().filter_bytes, "{what}");
                assert_eq!(space.framing_bytes, eager.space().framing_bytes, "{what}");
            }
            let _ = std::fs::remove_file(&path);
        }
    }
}

/// Version 2 manifests (raw key words), version 3 manifests (blobs of
/// filter format v2) and any other foreign version are refused typed by
/// both opens. The input is the committed store golden
/// re-stamped with the version and its checksums re-forged, so the version
/// word is the only thing wrong with it.
#[test]
fn v2_store_manifests_are_refused_by_both_opens() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!(
        "tests/golden/store_v{STORE_FORMAT_VERSION}/store.bin"
    ));
    let golden = std::fs::read(path).unwrap();
    let registry = standard_registry();
    let restamp = |version: u32| {
        let mut bytes = golden.clone();
        let spec = word_at(&bytes, 8) & 0xFFFF_FFFF;
        bytes[8..16].copy_from_slice(&((u64::from(version) << 32) | spec).to_le_bytes());
        reforge_checksums(&mut bytes);
        bytes
    };
    assert!(
        restamp(STORE_FORMAT_VERSION) == golden,
        "the re-stamp changed more than the version"
    );
    for version in [3u32, 2, 1, STORE_FORMAT_VERSION + 1] {
        let old = restamp(version);
        let path = temp_manifest(&format!("store-v{version}"), &old);
        let want = FilterError::UnsupportedFormatVersion {
            found: version,
            supported: STORE_FORMAT_VERSION,
        };
        assert_eq!(FilterStore::open(&registry, &old).err(), Some(want.clone()));
        assert_eq!(FilterStore::open_mapped(&registry, &path).err(), Some(want));
        let _ = std::fs::remove_file(&path);
    }
}

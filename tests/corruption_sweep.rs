//! Corruption sweep: the dynamic twin of `cargo run -p xtask -- lint`'s
//! static untrusted-input passes (L1/L7).
//!
//! The lint proves the untrusted load paths *contain* no panicking
//! operations; this suite proves the paths *behave*: every truncation
//! prefix of every committed golden blob, every single-bit flip of every
//! header byte (all eight masks), one flip per byte over whole blobs, and
//! the same treatment for a serialized `FilterStore` manifest must come
//! back as a typed [`FilterError`] — never a panic, never an abort, never a
//! silently wrong filter. Payload words forged to hostile values under a
//! recomputed checksum must load or fail typed, never panic, and a
//! bit-flip forgery that loads must answer queries without panicking. CI
//! runs this under the `hardened` profile (overflow-checks +
//! debug-assertions on), so any arithmetic wrap on the way to the typed
//! error aborts the test too.

use std::path::PathBuf;

use grafite::grafite_core::persist::{
    blob_checksum, words_of_bytes, Header, FORMAT_VERSION, HEADER_BYTES,
};
use grafite::{
    standard_registry, FamilySpec, FilterError, FilterSpec, FilterStore, Partitioning, Registry,
    StoreConfig,
};
use proptest::prelude::*;

/// The committed golden set (`tests/golden/v{FORMAT_VERSION}/`, one blob
/// per format family).
fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/v{FORMAT_VERSION}"))
}

/// Every committed golden blob: `(label, bytes)`.
fn golden_blobs() -> Vec<(String, Vec<u8>)> {
    let mut entries: Vec<_> = std::fs::read_dir(golden_dir())
        .expect("golden dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "bin"))
        .collect();
    entries.sort();
    let out: Vec<_> = entries
        .into_iter()
        .map(|path| {
            let label = format!(
                "v{FORMAT_VERSION}/{}",
                path.file_name().unwrap().to_string_lossy()
            );
            (label, std::fs::read(&path).expect("golden blob"))
        })
        .collect();
    assert_eq!(out.len(), 12, "expected all 12 current goldens");
    out
}

/// Loading corrupt bytes must produce `Err`, never `Ok`. A panic fails the
/// test on its own; the typed-error contract is the `Err` assertion.
fn assert_rejects(registry: &Registry, bytes: &[u8], what: &str) {
    match registry.load(bytes) {
        Err(FilterError::Io { .. }) => panic!("{what}: in-memory load reported an I/O error"),
        Err(_) => {}
        Ok(_) => panic!("{what}: corrupt blob unexpectedly loaded"),
    }
}

/// Exhaustive truncation: all prefixes `0..len` of every golden blob.
#[test]
fn every_truncation_prefix_of_every_golden_fails_typed() {
    let registry = standard_registry();
    for (label, blob) in golden_blobs() {
        for cut in 0..blob.len() {
            assert_rejects(&registry, &blob[..cut], &format!("{label} cut at {cut}"));
        }
    }
}

/// Every bit of the five-word header, individually flipped: all eight
/// masks over bytes `0..40` of every golden blob.
#[test]
fn every_header_bit_flip_of_every_golden_fails_typed() {
    let registry = standard_registry();
    for (label, blob) in golden_blobs() {
        for byte in 0..40.min(blob.len()) {
            for bit in 0..8u8 {
                let mut bad = blob.clone();
                bad[byte] ^= 1 << bit;
                assert_rejects(
                    &registry,
                    &bad,
                    &format!("{label} header byte {byte} bit {bit}"),
                );
            }
        }
    }
}

/// One flip per byte over the *whole* blob (mask rotates with position):
/// the checksum must catch every payload corruption.
#[test]
fn every_byte_flip_of_every_golden_fails_typed() {
    let registry = standard_registry();
    for (label, blob) in golden_blobs() {
        for byte in 0..blob.len() {
            let mut bad = blob.clone();
            bad[byte] ^= 1 << (byte % 8);
            assert_rejects(&registry, &bad, &format!("{label} byte {byte}"));
        }
    }
}

/// `header` over a forged `payload`, with the checksum recomputed: a blob
/// whose tampering the checksum cannot reveal.
fn reseal(header: Header, payload: &[u8]) -> Vec<u8> {
    let mut resealed = header;
    resealed.checksum = blob_checksum(
        header.spec_version_word(),
        header.n_keys,
        header.payload_words,
        words_of_bytes(payload),
    );
    let mut bytes = Vec::with_capacity(HEADER_BYTES + payload.len());
    resealed.write(&mut bytes).expect("write to a Vec");
    bytes.extend_from_slice(payload);
    bytes
}

/// Forged lengths under a valid checksum. The threat model admits that a
/// blob whose checksum was recomputed after tampering may still load, so
/// every payload word of every golden is overwritten with each of a set of
/// hostile values (huge, overflow-adjacent, and just past a 32-bit or an
/// `n · 8` boundary) and the blob is resealed through [`Header::write`].
/// Each load must come back `Ok` or a typed non-I/O `Err`; a length
/// computation that overflows panics here under the debug and hardened
/// profiles.
#[test]
fn resealed_forged_payload_words_load_or_fail_typed() {
    const HOSTILE: [u64; 6] = [
        1 << 62,
        u64::MAX,
        (1 << 61) + 3,
        1 << 40,
        (1 << 32) + 1,
        u64::MAX / 8 + 1,
    ];
    let registry = standard_registry();
    let mut loads = 0usize;
    for (label, blob) in golden_blobs() {
        let header = Header::peek(&blob).expect("golden header");
        let payload = &blob[HEADER_BYTES..];
        for word in 0..payload.len() / 8 {
            for value in HOSTILE {
                let mut forged = payload.to_vec();
                forged[word * 8..word * 8 + 8].copy_from_slice(&value.to_le_bytes());
                let bytes = reseal(header, &forged);
                if let Err(FilterError::Io { .. }) = registry.load(&bytes) {
                    panic!("{label} payload word {word} = {value:#x}: in-memory load reported an I/O error");
                }
                loads += 1;
            }
        }
    }
    assert!(loads > 6_000, "sweep shrank to {loads} loads");
}

/// The fixed probe set every loaded forgery must answer: points and short
/// ranges at and beside the golden keys, far ranges of growing width, and
/// the universe edges.
fn forgery_probes() -> Vec<(u64, u64)> {
    // The golden key generator of `tests/format_golden.rs`, first 64 keys.
    let mut state = 0x601DEA_u64 ^ 0x9E3779B97F4A7C15;
    let mut probes = Vec::new();
    for i in 0..64u64 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let k = state;
        probes.push((k, k));
        probes.push((k.saturating_add(2), k.saturating_add(33)));
        let far = i.wrapping_mul(0xABCDEF9876543210);
        probes.push((far, far.saturating_add(1 << (i % 11))));
        probes.push((far ^ 0x5555, far ^ 0x5555));
    }
    probes.extend([
        (0, 0),
        (0, 1 << 10),
        (0, u64::MAX),
        (u64::MAX, u64::MAX),
        (u64::MAX - (1 << 10), u64::MAX),
    ]);
    probes
}

/// Forged blobs that load must also *answer*. Every payload word of every
/// golden gets one of six bits flipped and the blob is resealed, as in the
/// sweep above; each forgery that loads answers [`forgery_probes`] one by
/// one under `catch_unwind`. A wrong answer is allowed (the forger owns the
/// bits), a panic or an abort is not.
#[test]
fn resealed_bit_flip_forgeries_that_load_answer_without_panicking() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    const BITS: [u32; 6] = [0, 1, 5, 17, 33, 63];
    let registry = standard_registry();
    let probes = forgery_probes();
    let (mut answered, mut panics) = (0usize, Vec::new());
    for (label, blob) in golden_blobs() {
        let header = Header::peek(&blob).expect("golden header");
        let payload = &blob[HEADER_BYTES..];
        for word in 0..payload.len() / 8 {
            for bit in BITS {
                let mut forged = payload.to_vec();
                forged[word * 8 + (bit / 8) as usize] ^= 1 << (bit % 8);
                let Ok(filter) = registry.load(&reseal(header, &forged)) else {
                    continue;
                };
                let asked = catch_unwind(AssertUnwindSafe(|| {
                    for &(a, b) in &probes {
                        std::hint::black_box(filter.may_contain_range(a, b));
                    }
                }));
                match asked {
                    Ok(()) => answered += 1,
                    Err(_) => panics.push(format!("{label} word {word} bit {bit}")),
                }
            }
        }
    }
    assert!(
        panics.is_empty(),
        "{} loaded forgeries panicked at query time: {panics:?}",
        panics.len()
    );
    assert!(
        answered > 1_000,
        "sweep shrank to {answered} answering loads"
    );
}

fn sample_store_bytes(registry: &Registry) -> Vec<u8> {
    let keys: Vec<u64> = (0..200u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let config = StoreConfig::new(FamilySpec::Registry(FilterSpec::Grafite))
        .bits_per_key(16.0)
        .max_range(1 << 8)
        .partitioning(Partitioning::Range { shards: 3 });
    let store = FilterStore::build(registry, config, &keys).expect("build store");
    store.to_bytes()
}

/// The `FilterStore` manifest gets the same two sweeps: every truncation
/// prefix and one bit flip per byte must fail typed through
/// [`FilterStore::open`].
#[test]
fn store_manifest_corruption_fails_typed() {
    let registry = standard_registry();
    let bytes = sample_store_bytes(&registry);
    for cut in 0..bytes.len() {
        match FilterStore::open(&registry, &bytes[..cut]) {
            Err(_) => {}
            Ok(_) => panic!("manifest cut at {cut} unexpectedly opened"),
        }
    }
    for byte in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[byte] ^= 1 << (byte % 8);
        match FilterStore::open(&registry, &bad) {
            Err(_) => {}
            Ok(_) => panic!("manifest flip at byte {byte} unexpectedly opened"),
        }
    }
    // The pristine image still opens — the sweep isn't vacuous.
    assert!(FilterStore::open(&registry, &bytes).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Randomized multi-site corruption: between 1 and 8 byte positions
    /// XORed with arbitrary nonzero masks. A 64-bit checksum forgery from
    /// random flips is ~2^-64; every case must reject typed.
    #[test]
    fn random_multi_flip_corruption_fails_typed(
        seed in any::<u64>(),
        flips in 1usize..8,
    ) {
        let registry = standard_registry();
        let blob = std::fs::read(golden_dir().join("grafite.bin")).expect("golden blob");
        let mut bad = blob.clone();
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state
        };
        for _ in 0..flips {
            let pos = (next() as usize) % bad.len();
            let mask = (next() % 255 + 1) as u8;
            bad[pos] ^= mask;
        }
        if bad != blob {
            prop_assert!(registry.load(&bad).is_err(), "corrupt blob loaded");
        }
    }
}

//! `grafite-server gen` over a manifest that a store is already serving:
//! the documented flow regenerates the manifest in place and then sends an
//! empty `RELOAD`, so until that reload the serving store must keep
//! answering from the manifest it opened. Its lazy shards read their bytes
//! from the open file on first touch, so `gen` must replace the file
//! rather than rewrite it under them.

use std::path::Path;
use std::process::Command;

use grafite_core::registry::Registry;
use grafite_store::FilterStore;

const KEYS: u64 = 20_000;

/// The key set `gen --keys KEYS --seed seed` builds over.
fn gen_keys(seed: u64) -> Vec<u64> {
    (0..KEYS)
        .map(|i| i.wrapping_add(seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 1)
        .collect()
}

fn gen(path: &Path, seed: u64) {
    let output = Command::new(env!("CARGO_BIN_EXE_grafite-server"))
        .args(["gen", "--keys", &KEYS.to_string(), "--shards", "4"])
        .args(["--seed", &seed.to_string(), "--out"])
        .arg(path)
        .output()
        .expect("spawn grafite-server");
    assert!(
        output.status.success(),
        "gen --seed {seed}: {}",
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn gen_replaces_a_served_manifest_without_corrupting_its_lazy_shards() {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("gen-over-served-{}.bin", std::process::id()));
    gen(&path, 7);
    let store = FilterStore::open_mapped(&Registry::new(), &path).expect("open_mapped");
    gen(&path, 8);

    let snap = store.snapshot();
    for (i, shard) in snap.shards().iter().enumerate() {
        assert!(
            shard.load_error().is_none(),
            "shard {i} failed to materialize: {:?}",
            shard.load_error()
        );
    }
    assert_eq!(store.stats().shard_load_errors(), 0);
    for k in gen_keys(7) {
        assert!(snap.may_contain(k), "seed-7 key {k} lost");
    }
    let _ = std::fs::remove_file(&path);
}

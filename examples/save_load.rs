//! Save/load walkthrough: build filters offline, ship them as flat-byte
//! blobs, and serve them after a rebuild-free load — the deployment shape
//! the persistence layer exists for (one builder, many serving shards).
//!
//! ```sh
//! cargo run --release --example save_load
//! ```

use std::time::Instant;

use grafite::{
    standard_registry, FilterConfig, FilterSpec, GrafiteFilter, PersistentFilter, RangeFilter,
};

fn main() {
    let dir = std::env::temp_dir().join("grafite-save-load-example");
    std::fs::create_dir_all(&dir).expect("create temp dir");

    // ── The build box: construct once, serialize to disk ────────────────
    let keys: Vec<u64> = (0..1_000_000u64)
        .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15))
        .collect();
    let cfg = FilterConfig::new(&keys)
        .bits_per_key(16.0)
        .max_range(1 << 10);
    let registry = standard_registry();

    println!(
        "== build box: serialize every family to {} ==",
        dir.display()
    );
    for spec in [
        FilterSpec::Grafite,
        FilterSpec::Bucketing,
        FilterSpec::Snarf,
    ] {
        let filter = registry.build(spec, &cfg).expect("feasible at 16 bits/key");
        let path = dir.join(format!("{}.grafilt", filter.name().to_lowercase()));
        let mut file = std::fs::File::create(&path).expect("create blob");
        let bytes = filter.serialize_into(&mut file).expect("serialize");
        println!(
            "  {:<12} {:>9} bytes  = {:.2} measured bits/key",
            filter.name(),
            bytes,
            filter.serialized_bits() as f64 / filter.num_keys() as f64
        );
    }

    // ── A serving shard: load blobs without knowing what they hold ──────
    // The header is self-describing (magic, version, spec id, key count,
    // checksum), so `Registry::load` dispatches to the right family; the
    // rank/select directories come verbatim from the blob — no rebuild.
    println!("== serving shard: load + answer ==");
    for entry in std::fs::read_dir(&dir).expect("list blobs") {
        let path = entry.expect("entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("grafilt") {
            continue;
        }
        let blob = std::fs::read(&path).expect("read blob");
        let start = Instant::now();
        let filter = registry.load(&blob).expect("valid blob");
        let load = start.elapsed();
        // Serve a quick batch to show the loaded filter is live.
        let queries: Vec<(u64, u64)> = keys.iter().step_by(9973).map(|&k| (k, k + 64)).collect();
        let mut out = Vec::new();
        filter.may_contain_ranges(&queries, &mut out);
        assert!(out.iter().all(|&hit| hit), "no false negatives after load");
        println!(
            "  {:<12} loaded {:>9} bytes in {:>7.1?} ({} keys), {} queries answered",
            filter.name(),
            blob.len(),
            load,
            filter.num_keys(),
            queries.len()
        );
    }

    // ── Typed load: the family is known up front ─────────────────────────
    // `PersistentFilter::deserialize` loads one concrete type (a blob of
    // another family is a typed `SpecMismatch`); a damaged blob fails its
    // checksum instead of loading as a wrong filter.
    let blob = std::fs::read(dir.join("grafite.grafilt")).expect("grafite blob");
    let start = Instant::now();
    let grafite = GrafiteFilter::deserialize(&blob).expect("valid blob");
    let open = start.elapsed();
    assert!(grafite.may_contain(keys[123_456]));
    let mut damaged = blob.clone();
    let last = damaged.len() - 1;
    damaged[last] ^= 1;
    let refused = GrafiteFilter::deserialize(&damaged).expect_err("checksum catches the flip");
    println!(
        "== typed GrafiteFilter load in {open:?} ({} keys); one flipped bit: {refused} ==",
        grafite.num_keys()
    );

    std::fs::remove_dir_all(&dir).ok();
}

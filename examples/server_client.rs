//! Network-serving walkthrough: the full deployment loop — **save →
//! cold-start → serve → query → update → hot-reload → telemetry** — that
//! `grafite-server` adds on top of the sharded [`FilterStore`]. A saved
//! multi-shard manifest cold-starts lazily (`open_mapped` reads only the
//! routing table; shards materialize on first probe), a dependency-free
//! TCP server answers single and batched range probes over a
//! length-prefixed binary protocol, and `RELOAD` swaps a rewritten
//! manifest in atomically without failing one in-flight query.
//!
//! ```sh
//! cargo run --release --example server_client
//! ```
//!
//! [`FilterStore`]: grafite::FilterStore

use std::io::BufWriter;
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use grafite::{
    serve, standard_registry, Client, FamilySpec, FilterSpec, FilterStore, Partitioning,
    StoreConfig,
};

fn main() {
    let registry = standard_registry();
    let keys: Vec<u64> = (0..1_000_000u64)
        .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15))
        .collect();

    // ── Build: range-partition 1M keys across 8 Grafite shards, then
    //    save the whole store as one multi-shard manifest ───────────────
    let config = StoreConfig::new(FamilySpec::Registry(FilterSpec::Grafite))
        .bits_per_key(16.0)
        .max_range(1 << 8)
        .partitioning(Partitioning::Range { shards: 8 });
    let store = FilterStore::build(&registry, config, &keys).expect("feasible at 16 bits/key");
    let manifest = std::env::temp_dir().join(format!(
        "grafite_server_example_{}.store",
        std::process::id()
    ));
    let file = std::fs::File::create(&manifest).expect("create manifest file");
    let mut writer = BufWriter::new(file);
    let written = store.save_to(&mut writer).expect("serialize store");
    drop(writer);
    println!(
        "== saved {} keys / {} shards ({} KiB manifest) ==",
        store.num_keys(),
        store.snapshot().num_shards(),
        written / 1024
    );
    drop(store);

    // ── Cold-start: open the manifest lazily and put it on the wire.
    //    `open_mapped` is O(shards) small reads — nothing materializes
    //    until a probe routes to a shard ──────────────────────────────────
    let start = Instant::now();
    let served =
        Arc::new(FilterStore::open_mapped(&registry, &manifest).expect("scan manifest header"));
    println!(
        "open_mapped: {:.2?}, {} of 8 shards materialized",
        start.elapsed(),
        served.stats().lazy_shard_loads()
    );
    let handle = serve(Arc::clone(&served), "127.0.0.1:0", Some(manifest.clone()))
        .expect("bind an ephemeral port");
    let addr = handle.addr();
    println!("serving on {addr}");

    // ── Query: a single probe, then one batch ───────────────────────────
    let mut client = Client::connect(addr).expect("connect");
    assert!(
        client.query(keys[7], keys[7]).expect("QUERY round-trip"),
        "no false negatives, ever"
    );
    let probes: Vec<(u64, u64)> = keys
        .iter()
        .step_by(4_096)
        .map(|&k| (k, k.saturating_add(16)))
        .collect();
    let answers = client.query_batch(&probes).expect("BATCH_QUERY round-trip");
    assert!(answers.iter().all(|&hit| hit));
    println!(
        "batch of {} probes answered, {} of 8 shards now materialized",
        probes.len(),
        served.stats().lazy_shard_loads()
    );

    // Concurrent connections: each connection thread answers its own
    // probes against one store snapshot, without waiting on the others.
    thread::scope(|scope| {
        for t in 0..4u64 {
            let probes = &probes;
            scope.spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                for &(a, b) in probes.iter().skip(t as usize * 13).take(64) {
                    assert!(c.query(a, b).expect("QUERY round-trip"));
                }
            });
        }
    });

    // ── Update over the wire, persist, hot-reload: `APPLY` rebuilds only
    //    the dirty shards; rewriting the manifest and sending `RELOAD`
    //    swaps the new file in without dropping in-flight queries ────────
    let summary = client
        .apply(&[(true, 42), (false, keys[0])])
        .expect("APPLY round-trip");
    println!(
        "applied: +{} -{} keys -> store version {}",
        summary.inserted, summary.deleted, summary.version
    );
    assert!(client.query(42, 42).expect("QUERY round-trip"));
    let file = std::fs::File::create(&manifest).expect("rewrite manifest file");
    let mut writer = BufWriter::new(file);
    served
        .save_to(&mut writer)
        .expect("serialize updated store");
    drop(writer);
    let version = client.reload(None).expect("RELOAD round-trip");
    println!("hot-reloaded manifest -> store version {version}");
    // The insert survived the save/reload round-trip (a true positive —
    // the delete is only *probably* gone: filters never promise absence).
    assert!(client.query(42, 42).expect("QUERY round-trip"));

    // ── Telemetry: one JSON document over STATS ─────────────────────────
    let stats = client.stats_json().expect("STATS round-trip");
    println!("stats: {stats}");
    assert!(stats.contains("\"total_errors\":0,"));

    client.shutdown().expect("SHUTDOWN round-trip");
    handle.join();
    std::fs::remove_file(&manifest).ok();
    println!("== server drained and shut down ==");
}

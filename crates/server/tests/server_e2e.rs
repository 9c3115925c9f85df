//! End-to-end tests over a live server: bit-identical answers vs the
//! direct store from one connection and from eight at once, atomic hot
//! reload under concurrent readers, one snapshot per request across a
//! concurrent APPLY, APPLY and STATS round trips against ground truth,
//! wire latency, pipelined and split frames, and an exhaustive
//! frame-corruption sweep proving the server survives arbitrary garbage.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use grafite_core::registry::{FilterSpec, Registry};
use grafite_server::protocol::{self, verb};
use grafite_server::telemetry::REFUTE_EVERY;
use grafite_server::{serve, Client};
use grafite_store::manifest::FENCE_EVERY;
use grafite_store::{FamilySpec, FilterStore, Partitioning, Routing, StoreConfig, Update};

fn test_keys(n: u64, seed: u64) -> Vec<u64> {
    (0..n)
        .map(|i| i.wrapping_add(seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 1)
        .collect()
}

fn build_store(keys: &[u64], shards: usize) -> FilterStore {
    let config = StoreConfig::new(FamilySpec::Registry(FilterSpec::Grafite))
        .bits_per_key(14.0)
        .max_range(64)
        .partitioning(Partitioning::Range { shards });
    FilterStore::build(&Registry::new(), config, keys).unwrap()
}

fn save_manifest(store: &FilterStore, name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("grafite-e2e-{name}-{}", std::process::id()));
    std::fs::write(&path, store.to_bytes()).unwrap();
    path
}

#[test]
fn served_answers_are_bit_identical_to_the_direct_store() {
    let keys = test_keys(6000, 1);
    let store = build_store(&keys, 5);
    let snap = store.snapshot();
    let handle = serve(Arc::new(build_store(&keys, 5)), "127.0.0.1:0", None).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let queries: Vec<(u64, u64)> = (0..3000u64)
        .map(|i| {
            let a = i.wrapping_mul(0xD134_2543_DE82_EF95) >> 1;
            (a, a.saturating_add(i % 61))
        })
        .collect();
    let direct: Vec<bool> = queries
        .iter()
        .map(|&(a, b)| snap.may_contain_range(a, b))
        .collect();
    // Batch path.
    let batched = client.query_batch(&queries).unwrap();
    assert_eq!(batched, direct, "batch answers diverged");
    // Single path (sampled).
    for (i, &(a, b)) in queries.iter().enumerate().step_by(101) {
        assert_eq!(client.query(a, b).unwrap(), direct[i], "[{a}, {b}]");
    }
    // Present keys can never answer false over the wire.
    for &k in keys.iter().step_by(37) {
        assert!(client.query(k, k).unwrap(), "network FN at {k}");
    }

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn apply_over_the_wire_updates_the_store() {
    let keys = test_keys(2000, 2);
    let handle = serve(Arc::new(build_store(&keys, 3)), "127.0.0.1:0", None).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let fresh = 0xDEAD_BEEF_0000_0042u64;
    assert!(!client.query(fresh, fresh).unwrap());
    let summary = client.apply(&[(true, fresh)]).unwrap();
    assert_eq!((summary.inserted, summary.deleted), (1, 0));
    assert_eq!(summary.version, 1);
    assert!(client.query(fresh, fresh).unwrap());
    let summary = client.apply(&[(false, fresh)]).unwrap();
    assert_eq!(summary.deleted, 1);
    assert!(handle.store().num_keys() <= keys.len());

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn reload_under_concurrent_readers_drops_zero_queries() {
    let old_keys = test_keys(4000, 3);
    let new_keys = test_keys(4000, 900_000);
    let old_store = build_store(&old_keys, 4);
    let new_store = build_store(&new_keys, 4);
    let new_path = save_manifest(&new_store, "reload-new");
    let old_snap = old_store.snapshot();
    let new_snap = new_store.snapshot();

    let handle = serve(Arc::new(old_store), "127.0.0.1:0", None).unwrap();
    let addr = handle.addr();
    let stop = Arc::new(AtomicBool::new(false));

    // Four concurrent readers hammer the server across the swap. Every
    // request must succeed, and every answer must match either the old or
    // the new snapshot exactly (the swap is atomic: no blended state).
    let readers: Vec<_> = (0..4u64)
        .map(|t| {
            let stop = Arc::clone(&stop);
            let old_snap = Arc::clone(&old_snap);
            let new_snap = Arc::clone(&new_snap);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut served = 0u64;
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let a = (t * 7919 + i).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 1;
                    let b = a.saturating_add(i % 48);
                    let got = client
                        .query(a, b)
                        .unwrap_or_else(|e| panic!("query failed during reload: {e}"));
                    let old_ans = old_snap.may_contain_range(a, b);
                    let new_ans = new_snap.may_contain_range(a, b);
                    assert!(
                        got == old_ans || got == new_ans,
                        "answer matches neither snapshot at [{a}, {b}]"
                    );
                    served += 1;
                    i += 1;
                }
                served
            })
        })
        .collect();

    // Let the readers get going, then swap, then let them keep going.
    std::thread::sleep(std::time::Duration::from_millis(100));
    let mut admin = Client::connect(addr).unwrap();
    let version = admin.reload(Some(new_path.to_str().unwrap())).unwrap();
    assert_eq!(version, 1);
    std::thread::sleep(std::time::Duration::from_millis(100));
    stop.store(true, Ordering::Relaxed);
    let total: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(total > 0, "readers served nothing");

    // After the swap the server answers for the NEW key set.
    for &k in new_keys.iter().step_by(29) {
        assert!(admin.query(k, k).unwrap(), "post-reload FN at {k}");
    }

    let stats = admin.stats_json().unwrap();
    assert!(stats.contains("\"reloads\":1"), "stats: {stats}");
    assert!(stats.contains("\"total_errors\":0"), "stats: {stats}");

    admin.shutdown().unwrap();
    handle.join();
    let _ = std::fs::remove_file(&new_path);
}

/// Each `QUERY` and `BATCH_QUERY` is one store batch: after 64 QUERYs
/// and one 512-probe BATCH_QUERY, STATS `batch.*` counts exactly 65
/// batches of 576 probes, 576/65 probes per request, and no dedup hits.
#[test]
fn stats_count_each_request_as_one_store_batch() {
    let keys = test_keys(3000, 4);
    let handle = serve(Arc::new(build_store(&keys, 4)), "127.0.0.1:0", None).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    // Querying far outside the key range guarantees some positives are
    // refutable and negatives dominate; querying keys guarantees
    // non-refutable positives.
    for &k in keys.iter().take(64) {
        assert!(client.query(k, k).unwrap());
    }
    let far: Vec<(u64, u64)> = (0..512u64).map(|i| (i * 3, i * 3 + 1)).collect();
    let _ = client.query_batch(&far).unwrap();

    let stats = client.stats_json().unwrap();
    assert!(stats.contains("\"schema\":\"grafite-server-stats-v1\""));
    let factor = 576.0 / 65.0;
    assert!(
        stats.contains(&format!(
            "\"batch\":{{\"batches\":65,\"probes\":576,\"dedup_hits\":0,\"coalescing_factor\":{factor:.3}}}"
        )),
        "stats: {stats}"
    );
    assert!(stats.contains("\"observed_rate\":"));
    assert!(stats.contains("\"shard_probes\":["));
    assert!(stats.contains("\"accept_errors\":0,"), "stats: {stats}");
    let telemetry = handle.telemetry();
    assert_eq!((telemetry.batches(), telemetry.batched_probes()), (65, 576));
    assert_eq!(telemetry.coalescing_factor(), factor);
    assert_eq!(telemetry.total_errors(), 0);

    client.shutdown().unwrap();
    handle.join();
}

/// Eight connections at once, each sending 200 QUERYs and a few
/// BATCH_QUERYs, every answer bit-identical to the direct snapshot: each
/// connection thread answers its own probes, and no connection gets
/// another's answers.
#[test]
fn concurrent_connections_answer_like_the_direct_store() {
    let keys = test_keys(2000, 10);
    let direct = build_store(&keys, 4).snapshot();
    let handle = serve(Arc::new(build_store(&keys, 4)), "127.0.0.1:0", None).unwrap();
    let addr = handle.addr();
    let probe = |t: u64, i: u64| {
        let a = (t * 7919 + i).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 1;
        (a, a.saturating_add(i % 32))
    };
    std::thread::scope(|scope| {
        for t in 0..8u64 {
            let direct = &direct;
            let keys = &keys;
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for i in 0..200u64 {
                    let (a, b) = probe(t, i);
                    let want = direct.may_contain_range(a, b);
                    assert_eq!(client.query(a, b).unwrap(), want, "[{a}, {b}]");
                }
                for round in 0..4u64 {
                    let batch: Vec<(u64, u64)> = (0..100u64)
                        .map(|i| match i % 4 {
                            0 => {
                                let k = keys[((t * 4 + round) * 100 + i) as usize % keys.len()];
                                (k, k)
                            }
                            _ => probe(t, 1000 + round * 100 + i),
                        })
                        .collect();
                    let want: Vec<bool> = batch
                        .iter()
                        .map(|&(a, b)| direct.may_contain_range(a, b))
                        .collect();
                    assert_eq!(client.query_batch(&batch).unwrap(), want, "round {round}");
                }
            });
        }
    });
    let telemetry = handle.telemetry();
    assert_eq!(telemetry.batches(), 8 * (200 + 4));
    assert_eq!(telemetry.batched_probes(), 8 * (200 + 4 * 100));
    assert_eq!(telemetry.total_errors(), 0);

    handle.shutdown();
}

/// STATS `shard_probes` against ground truth from the routing: a probe
/// counts once in every shard it routes to. Under range routing that is
/// every shard from `a`'s to `b`'s; under hash routing it is the key's
/// shard for a point and every shard for a wider range.
#[test]
fn shard_probes_count_every_routed_shard() {
    let keys = test_keys(3000, 11);
    for partitioning in [
        Partitioning::Range { shards: 5 },
        Partitioning::Hash { shards: 5 },
    ] {
        let config = StoreConfig::new(FamilySpec::Registry(FilterSpec::Grafite))
            .bits_per_key(14.0)
            .max_range(64)
            .partitioning(partitioning);
        let store = FilterStore::build(&Registry::new(), config, &keys).unwrap();
        let snap = store.snapshot();
        let routing = snap.routing().clone();
        let handle = serve(Arc::new(store), "127.0.0.1:0", None).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();

        // Points, ranges inside one shard, ranges across each range-routing
        // boundary, and one range over the whole universe.
        let n = snap.num_shards();
        let mut probes: Vec<(u64, u64)> = keys.iter().step_by(41).map(|&k| (k, k)).collect();
        probes.extend(keys.iter().step_by(53).map(|&k| (k, k.saturating_add(9))));
        let boundaries: Vec<u64> = match &routing {
            Routing::Range { starts } => starts[1..].to_vec(),
            Routing::Hash { .. } => keys.iter().step_by(600).copied().collect(),
        };
        for lo in boundaries {
            probes.push((lo.saturating_sub(3), lo.saturating_add(3)));
            probes.push((lo.saturating_sub(1), lo));
        }
        probes.push((0, u64::MAX));
        let (singles, batched) = probes.split_at(probes.len() / 3);
        for &(a, b) in singles {
            client.query(a, b).unwrap();
        }
        for chunk in batched.chunks(20) {
            client.query_batch(chunk).unwrap();
        }

        let mut want = vec![0u64; n];
        for &(a, b) in &probes {
            let routed = match routing {
                Routing::Range { .. } => routing.shard_of(a)..=routing.shard_of(b),
                Routing::Hash { .. } if a == b => routing.shard_of(a)..=routing.shard_of(a),
                Routing::Hash { .. } => 0..=n - 1,
            };
            for s in routed {
                want[s] += 1;
            }
        }
        assert!(
            want.iter().sum::<u64>() > probes.len() as u64,
            "{partitioning:?}: no probe spans shards"
        );
        let listed: Vec<String> = want.iter().map(u64::to_string).collect();
        let stats = client.stats_json().unwrap();
        assert!(
            stats.contains(&format!("\"shard_probes\":[{}]", listed.join(","))),
            "{partitioning:?} stats: {stats}"
        );

        client.shutdown().unwrap();
        handle.join();
    }
}

/// One snapshot answers, routes and refutes each request, so an `APPLY`
/// landing mid-request can never make a freshly inserted key look like a
/// confirmed false positive. One connection APPLYs batches of fresh keys
/// while three others QUERY the keys whose APPLY has returned (which must
/// answer true) and BATCH_QUERY the batch in flight. Every fresh key was
/// chosen to answer negative on every snapshot before its insert (checked
/// on a replica store that applies the same batches), so a positive is
/// always a true one and `fp.refuted` must stay 0.
#[test]
fn apply_between_queries_never_refutes_a_fresh_key() {
    const BATCHES: usize = 24;
    const BATCH: usize = 40;
    let keys = test_keys(3000, 12);
    let replica = build_store(&keys, 3);
    let mut snapshots = vec![replica.snapshot()];
    let mut fresh: Vec<Vec<u64>> = Vec::new();
    let mut candidates =
        (0u64..).map(|i| i.wrapping_add(0x5EED).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 1);
    for _ in 0..BATCHES {
        let batch: Vec<u64> = candidates
            .by_ref()
            .filter(|&k| {
                !keys.contains(&k)
                    && !fresh.iter().flatten().any(|&f| f == k)
                    && snapshots.iter().all(|snap| !snap.may_contain(k))
            })
            .take(BATCH)
            .collect();
        let updates: Vec<Update> = batch.iter().map(|&k| Update::Insert(k)).collect();
        replica.apply(&updates).unwrap();
        snapshots.push(replica.snapshot());
        fresh.push(batch);
    }

    let handle = serve(Arc::new(build_store(&keys, 3)), "127.0.0.1:0", None).unwrap();
    let addr = handle.addr();
    let applied = AtomicUsize::new(0);
    let in_flight_probes = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let (applied, in_flight_probes, fresh) = (&applied, &in_flight_probes, &fresh);
        scope.spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            for batch in fresh {
                let inserts: Vec<(bool, u64)> = batch.iter().map(|&k| (true, k)).collect();
                client.apply(&inserts).unwrap();
                applied.fetch_add(1, Ordering::SeqCst);
            }
        });
        for t in 0..3usize {
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut i = t;
                loop {
                    let done = applied.load(Ordering::SeqCst);
                    if let Some(batch) = fresh.get(done) {
                        let probes: Vec<(u64, u64)> = batch.iter().map(|&k| (k, k)).collect();
                        client.query_batch(&probes).unwrap();
                        in_flight_probes.fetch_add(probes.len(), Ordering::SeqCst);
                    }
                    if done > 0 {
                        let k = fresh[i % done][(i / done) % BATCH];
                        assert!(
                            client.query(k, k).unwrap(),
                            "applied key {k} answered false"
                        );
                    }
                    if done == BATCHES {
                        return;
                    }
                    i += 1;
                }
            });
        }
    });
    assert!(in_flight_probes.into_inner() > 0, "no probe raced an APPLY");

    let telemetry = handle.telemetry();
    assert!(telemetry.sampled() > 0, "no positive was sampled");
    assert_eq!(telemetry.refuted(), 0, "a fresh key was refuted");
    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats_json().unwrap();
    assert!(stats.contains("\"refuted\":0,"), "stats: {stats}");
    assert!(stats.contains("\"total_errors\":0,"), "stats: {stats}");
    client.shutdown().unwrap();
    handle.join();
}

/// `fp.*` against ground truth on one connection, where positives are
/// numbered in the order the probes were sent: the sampled positives are
/// numbers 0, 64, 128, …, the refuted ones are the false positives among
/// them (from the direct store's answers and the key set), and
/// `observed_rate` and `fpr` are the estimates they give.
#[test]
fn stats_fpr_matches_ground_truth() {
    let keys = test_keys(3000, 6);
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    let direct = build_store(&keys, 4).snapshot();
    let handle = serve(Arc::new(build_store(&keys, 4)), "127.0.0.1:0", None).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let batched: Vec<(u64, u64)> = (0..40_000u64)
        .map(|i| {
            let a = i.wrapping_mul(0xD134_2543_DE82_EF95) >> 1;
            (a, a.saturating_add(i % 61))
        })
        .chain(keys.iter().step_by(50).map(|&k| (k, k)))
        .collect();
    for chunk in batched.chunks(500) {
        client.query_batch(chunk).unwrap();
    }
    let singles: Vec<(u64, u64)> = batched.iter().copied().step_by(97).collect();
    for &(a, b) in &singles {
        client.query(a, b).unwrap();
    }

    let every = REFUTE_EVERY;
    let (mut positives, mut sampled, mut refuted, mut negatives) = (0u64, 0u64, 0u64, 0u64);
    let mut false_positives = 0u64;
    for &(a, b) in batched.iter().chain(&singles) {
        let holds_key = sorted
            .get(sorted.partition_point(|&k| k < a))
            .is_some_and(|&k| k <= b);
        if direct.may_contain_range(a, b) {
            if positives % every == 0 {
                sampled += 1;
                refuted += u64::from(!holds_key);
            }
            positives += 1;
            false_positives += u64::from(!holds_key);
        } else {
            negatives += 1;
        }
    }
    assert!(
        refuted > 0 && refuted < sampled && false_positives > refuted && negatives > 0,
        "vacuous probe set: {sampled} sampled, {refuted} refuted"
    );

    let telemetry = handle.telemetry();
    assert_eq!(telemetry.positives(), positives);
    assert_eq!(telemetry.sampled(), sampled);
    assert_eq!(telemetry.refuted(), refuted);
    assert_eq!(telemetry.negatives(), negatives);
    let observed_rate = refuted as f64 / sampled as f64;
    let estimated_fps = observed_rate * positives as f64;
    let fpr = estimated_fps / (estimated_fps + negatives as f64);
    assert!((telemetry.observed_fp_rate() - observed_rate).abs() < 1e-12);
    assert!((telemetry.fpr() - fpr).abs() < 1e-12);

    let stats = client.stats_json().unwrap();
    assert!(
        stats.contains(&format!(
            "\"fp\":{{\"positives\":{positives},\"sample_every\":{every},\"sampled\":{sampled},\
             \"refuted\":{refuted},\"observed_rate\":{observed_rate:.6},\
             \"negatives\":{negatives},\"fpr\":{fpr:.6}}}"
        )),
        "stats: {stats}"
    );

    client.shutdown().unwrap();
    handle.join();
}

/// The unsigned integer after `"field":` in a `STATS` document.
fn stats_field(stats: &str, field: &str) -> usize {
    let key = format!("\"{field}\":");
    let at = stats.find(&key).expect("field") + key.len();
    let digits: String = stats[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().unwrap()
}

/// `store.resident_key_bytes` against ground truth on a mapped store:
/// 0 before any shard loads, 16·Σ⌈nᵢ/256⌉ (the block directories: a fence
/// and an offset/width word per block) once every shard has, and after an
/// `APPLY` rebuilds shard `i`, larger by exactly its new key count's bytes
/// minus its directory's bytes. Alongside, `store.space` by layer: once
/// warmed, filter + keys on disk + framing is the manifest's length and
/// keys in memory are the directories.
#[test]
fn stats_resident_key_bytes_match_ground_truth() {
    let keys = test_keys(5000, 8);
    let store = build_store(&keys, 5);
    let path = save_manifest(&store, "resident");
    let manifest_len = std::fs::metadata(&path).unwrap().len() as usize;
    let mapped = FilterStore::open_mapped(&Registry::new(), &path).unwrap();
    let handle = serve(Arc::new(mapped), "127.0.0.1:0", Some(path.clone())).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let resident =
        |client: &mut Client| stats_field(&client.stats_json().unwrap(), "resident_key_bytes");
    assert_eq!(resident(&mut client), 0);

    let snap = store.snapshot();
    let starts: Vec<(u64, u64)> = (0..snap.num_shards())
        .map(|s| snap.routing().shard_span(s).0)
        .map(|k| (k, k))
        .collect();
    client.query_batch(&starts).unwrap();
    let counts: Vec<usize> = snap.shards().iter().map(|s| s.num_keys()).collect();
    let fence_bytes = |n: usize| 16 * n.div_ceil(FENCE_EVERY);
    let warm: usize = counts.iter().map(|&n| fence_bytes(n)).sum();
    assert_eq!(resident(&mut client), warm);
    let stats = client.stats_json().unwrap();
    assert_eq!(
        stats_field(&stats, "num_keys"),
        counts.iter().sum::<usize>()
    );
    assert_eq!(stats_field(&stats, "keys_resident_bytes"), warm);
    assert_eq!(
        stats_field(&stats, "filter_bytes")
            + stats_field(&stats, "keys_on_disk_bytes")
            + stats_field(&stats, "framing_bytes"),
        manifest_len
    );

    // One fresh key in shard 2 dirties exactly that shard.
    let (lo, _) = snap.routing().shard_span(2);
    let fresh = (lo..)
        .find(|&k| !snap.shards()[2].holds_key(k, k).unwrap())
        .unwrap();
    let summary = client.apply(&[(true, fresh)]).unwrap();
    assert_eq!(summary.inserted, 1);
    assert_eq!(
        resident(&mut client),
        warm - fence_bytes(counts[2]) + 8 * (counts[2] + 1)
    );

    client.shutdown().unwrap();
    handle.join();
    let _ = std::fs::remove_file(&path);
}

/// The p50 a round trip must beat. A Nagle stall (a frame split over
/// several writes, no `TCP_NODELAY`) makes every response wait ~40 ms for
/// the peer's delayed ACK; the ceiling is generous enough for an
/// unoptimized build on a loaded machine.
const ROUND_TRIP_CEILING: Duration = Duration::from_millis(5);

/// The median of `samples` (sorted in place).
fn p50(samples: &mut [Duration]) -> Duration {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// A request costs one round trip, not a Nagle stall.
#[test]
fn loopback_round_trip_is_not_stalled() {
    let keys = test_keys(4000, 7);
    let handle = serve(Arc::new(build_store(&keys, 4)), "127.0.0.1:0", None).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let mut singles: Vec<Duration> = (0..200u64)
        .map(|i| {
            let a = i.wrapping_mul(0xD134_2543_DE82_EF95) >> 1;
            let started = Instant::now();
            client.query(a, a.saturating_add(i % 61)).unwrap();
            started.elapsed()
        })
        .collect();
    let mut batches: Vec<Duration> = (0..50u64)
        .map(|round| {
            let batch: Vec<(u64, u64)> = (0..512u64)
                .map(|i| {
                    let a = (round * 512 + i).wrapping_mul(0xD134_2543_DE82_EF95) >> 1;
                    (a, a.saturating_add(i % 61))
                })
                .collect();
            let started = Instant::now();
            client.query_batch(&batch).unwrap();
            started.elapsed()
        })
        .collect();
    let (query_p50, batch_p50) = (p50(&mut singles), p50(&mut batches));
    assert!(query_p50 < ROUND_TRIP_CEILING, "QUERY p50 {query_p50:?}");
    assert!(
        batch_p50 < ROUND_TRIP_CEILING,
        "BATCH_QUERY x512 p50 {batch_p50:?}"
    );

    client.shutdown().unwrap();
    handle.join();
}

/// Reads one response frame from a raw stream and checks its verb.
fn read_ok(stream: &mut TcpStream, request: u8) -> Vec<u8> {
    let frame = protocol::read_frame(stream).unwrap();
    assert_eq!(frame.verb, protocol::ok_verb(request));
    frame.payload
}

/// Frames written back to back in one `write` are all answered, in order
/// and without a stall: the server's read buffer may hold several frames
/// at once.
#[test]
fn pipelined_frames_are_answered_in_order() {
    let keys = test_keys(3000, 8);
    let direct = build_store(&keys, 3).snapshot();
    let handle = serve(Arc::new(build_store(&keys, 3)), "127.0.0.1:0", None).unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    let miss = (1..u64::MAX)
        .find(|&x| !direct.may_contain_range(x, x))
        .unwrap();
    let mut rounds: Vec<Duration> = (1..=21u64)
        .map(|round| {
            let key = keys[round as usize];
            let probes = [(key, key), (miss, miss.saturating_add(round % 2))];
            let mut bytes = Vec::new();
            for &(a, b) in &probes {
                protocol::write_frame(&mut bytes, verb::QUERY, &protocol::encode_query(a, b))
                    .unwrap();
            }
            protocol::write_frame(&mut bytes, verb::STATS, &[]).unwrap();
            let started = Instant::now();
            stream.write_all(&bytes).unwrap();
            for &(a, b) in &probes {
                let payload = read_ok(&mut stream, verb::QUERY);
                let want = u8::from(direct.may_contain_range(a, b));
                assert_eq!(payload, [want], "round {round} [{a}, {b}]");
            }
            let stats = String::from_utf8(read_ok(&mut stream, verb::STATS)).unwrap();
            let elapsed = started.elapsed();
            let served = format!("\"query\":{{\"count\":{},", 2 * round);
            assert!(stats.contains(&served), "round {round} stats: {stats}");
            elapsed
        })
        .collect();
    let round_p50 = p50(&mut rounds);
    assert!(
        round_p50 < ROUND_TRIP_CEILING,
        "pipelined round p50 {round_p50:?}"
    );

    drop(stream);
    handle.shutdown();
}

/// A frame that trickles in one byte at a time, each pause well inside
/// the server's poll interval, is still one frame.
#[test]
fn split_frame_is_served() {
    let keys = test_keys(2000, 9);
    let handle = serve(Arc::new(build_store(&keys, 2)), "127.0.0.1:0", None).unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    let key = keys[17];
    let mut bytes = Vec::new();
    protocol::write_frame(&mut bytes, verb::QUERY, &protocol::encode_query(key, key)).unwrap();
    for byte in &bytes {
        stream.write_all(std::slice::from_ref(byte)).unwrap();
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(read_ok(&mut stream, verb::QUERY), [1], "key {key}");

    drop(stream);
    handle.shutdown();
}

/// Raw-socket corruption sweep: every frame prefix/verb/payload mutation
/// must produce a typed ERR response (or a clean disconnect) and must
/// leave the server serving the *next* connection — never a panic, never
/// a hang.
#[test]
fn hostile_frames_never_take_the_server_down() {
    let keys = test_keys(1500, 5);
    let handle = serve(Arc::new(build_store(&keys, 2)), "127.0.0.1:0", None).unwrap();
    let addr = handle.addr();

    let good_query = {
        let mut f = Vec::new();
        protocol::write_frame(&mut f, verb::QUERY, &protocol::encode_query(1, 2)).unwrap();
        f
    };

    let mut hostile: Vec<Vec<u8>> = vec![
        vec![],                              // connect-and-close
        vec![0x01],                          // truncated length prefix
        0u32.to_le_bytes().to_vec(),         // zero-length frame
        u32::MAX.to_le_bytes().to_vec(),     // oversized declared length
        (1u32 << 27).to_le_bytes().to_vec(), // just past MAX_FRAME
        vec![5, 0, 0, 0, verb::QUERY],       // declares 5, sends 1
        vec![1, 0, 0, 0, 0x00],              // verb 0 (unknown)
        vec![1, 0, 0, 0, 0x7E],              // verb 126 (unknown)
        vec![1, 0, 0, 0, verb::ERR],         // a client sending ERR
        vec![1, 0, 0, 0, verb::QUERY],       // query with empty payload
    ];
    // Truncations of a valid frame at every boundary.
    for cut in 0..good_query.len() {
        hostile.push(good_query[..cut].to_vec());
    }
    // Single-byte corruptions of a valid frame.
    for at in 0..good_query.len() {
        let mut mutated = good_query.clone();
        mutated[at] ^= 0xA5;
        hostile.push(mutated);
    }
    // An inverted range under the right verb (encode_query doesn't
    // validate, so build the frame by hand).
    hostile.push({
        let mut f = Vec::new();
        f.extend_from_slice(&17u32.to_le_bytes());
        f.push(verb::QUERY);
        f.extend_from_slice(&9u64.to_le_bytes());
        f.extend_from_slice(&3u64.to_le_bytes());
        f
    });

    for (i, bytes) in hostile.iter().enumerate() {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(std::time::Duration::from_millis(150)))
            .unwrap();
        s.write_all(bytes).unwrap();
        // Drain whatever comes back (ERR frame, EOF, or our own timeout);
        // all are acceptable for a hostile sender.
        let mut sink = Vec::new();
        let _ = (&mut s).take(1 << 16).read_to_end(&mut sink);
        drop(s);
        // The server must still answer a well-formed request afterwards.
        let probe = keys[i % keys.len()];
        let mut client = Client::connect(addr)
            .unwrap_or_else(|e| panic!("server unreachable after hostile frame {i}: {e}"));
        assert!(
            client.query(probe, probe).unwrap(),
            "server lost key {probe} after hostile frame {i}"
        );
    }

    let mut client = Client::connect(addr).unwrap();
    client.shutdown().unwrap();
    handle.join();
}

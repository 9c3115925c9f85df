//! Concurrent serving smoke test: N reader threads query snapshots while
//! one updater applies insert/delete batches, for **every** servable
//! family (the eleven registry specs plus StringGrafite) under both
//! partitionings.
//!
//! The property under test is the serving-side no-false-negative
//! guarantee across the snapshot swap boundary:
//!
//! * a key in the *stable core* (never updated) answers `true` in every
//!   snapshot any reader ever observes, point, range, and batch alike;
//! * as soon as `apply` returns, a fresh snapshot serves the batch;
//! * snapshots taken *before* a batch keep answering the old truth.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread;

use grafite_core::Parallelism;
use grafite_filters::standard_registry;
use grafite_store::{FamilySpec, FilterStore, Partitioning, StoreConfig, Update};

const READERS: usize = 4;
const ROUNDS: usize = 3;

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state
}

/// `n` distinct pseudo-random keys, disjoint across different `tag`s by
/// construction (tag selects a high bit pattern).
fn keys(n: usize, tag: u64) -> Vec<u64> {
    let mut state = 0x5EED ^ (tag << 8);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        // Clear the top bit, then stamp the tag into bits 62..61 so core
        // and volatile sets cannot collide.
        let k = (lcg(&mut state) >> 3) | (tag << 61);
        out.push(k);
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Key-avoiding empty ranges for the auto-tuned families' samples.
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

fn run_family(family: FamilySpec, partitioning: Partitioning) {
    let registry = standard_registry();
    let core = keys(900, 0);
    let volatile = keys(300, 1);
    let mut all: Vec<u64> = core.iter().chain(&volatile).copied().collect();
    all.sort_unstable();
    let config = StoreConfig::new(family)
        .bits_per_key(18.0)
        .max_range(64)
        .seed(13)
        .sample(sample_queries(&all))
        .partitioning(partitioning);
    let store = FilterStore::build(&registry, config, &core)
        .unwrap_or_else(|e| panic!("{} build failed: {e}", family.label()));

    let stop = AtomicBool::new(false);
    let reader_rounds = AtomicUsize::new(0);
    thread::scope(|s| {
        for _ in 0..READERS {
            s.spawn(|| {
                let mut first = true;
                while first || !stop.load(Ordering::Relaxed) {
                    first = false;
                    let snap = store.snapshot();
                    // Core keys are never updated: no snapshot may ever
                    // lose one, whichever side of a swap it was taken on.
                    for &k in core.iter().step_by(5) {
                        assert!(
                            snap.may_contain(k),
                            "{}: reader saw point FN on core key {k} at version {}",
                            family.label(),
                            snap.version()
                        );
                    }
                    let queries: Vec<(u64, u64)> = core
                        .iter()
                        .step_by(7)
                        .map(|&k| (k.saturating_sub(3), k.saturating_add(3)))
                        .collect();
                    let mut out = Vec::new();
                    snap.query_ranges(&queries, &mut out);
                    assert!(
                        out.iter().all(|&hit| hit),
                        "{}: reader saw batch FN on a core-anchored range at version {}",
                        family.label(),
                        snap.version()
                    );
                    reader_rounds.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        s.spawn(|| {
            for _ in 0..ROUNDS {
                let inserts: Vec<Update> = volatile.iter().map(|&k| Update::Insert(k)).collect();
                let report = store.apply(&inserts).unwrap();
                assert_eq!(report.inserted, volatile.len(), "{}", family.label());
                let snap = store.snapshot();
                for &k in &volatile {
                    assert!(
                        snap.may_contain(k),
                        "{}: applied insert of {k} not visible in the next snapshot",
                        family.label()
                    );
                }
                // A snapshot taken before the delete keeps the old truth.
                let before_delete = store.snapshot();
                let deletes: Vec<Update> = volatile.iter().map(|&k| Update::Delete(k)).collect();
                let report = store.apply(&deletes).unwrap();
                assert_eq!(report.deleted, volatile.len(), "{}", family.label());
                for &k in volatile.iter().step_by(17) {
                    assert!(
                        before_delete.may_contain(k),
                        "{}: pre-delete snapshot lost {k} after the swap",
                        family.label()
                    );
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
    });
    assert_eq!(store.num_keys(), core.len(), "{}", family.label());
    assert!(
        reader_rounds.load(Ordering::Relaxed) >= READERS,
        "every reader must complete at least one full scan"
    );
}

/// `apply` rebuilding dirty shards on an 8-thread fan-out must not
/// disturb concurrent readers: the same no-false-negative guarantee as
/// above, but with the rebuild itself running parallel shard builds, so
/// the snapshot swap happens under maximal construction concurrency.
#[test]
fn parallel_apply_under_concurrent_readers() {
    let registry = standard_registry();
    let core = keys(2000, 0);
    let volatile = keys(600, 1);
    let mut all: Vec<u64> = core.iter().chain(&volatile).copied().collect();
    all.sort_unstable();
    let config = StoreConfig::new(FamilySpec::ALL[0])
        .bits_per_key(18.0)
        .max_range(64)
        .seed(13)
        .sample(sample_queries(&all))
        .partitioning(Partitioning::Range { shards: 8 })
        .parallelism(Parallelism::fixed(8));
    let store = FilterStore::build(&registry, config, &core).unwrap();

    let stop = AtomicBool::new(false);
    thread::scope(|s| {
        for _ in 0..READERS {
            s.spawn(|| {
                let mut first = true;
                let mut last_version = 0;
                while first || !stop.load(Ordering::Relaxed) {
                    first = false;
                    let snap = store.snapshot();
                    assert!(
                        snap.version() >= last_version,
                        "snapshot version went back from {last_version} to {}",
                        snap.version()
                    );
                    last_version = snap.version();
                    for &k in core.iter().step_by(3) {
                        assert!(
                            snap.may_contain(k),
                            "reader saw FN on core key {k} during a parallel apply \
                             (snapshot version {})",
                            snap.version()
                        );
                    }
                }
            });
        }
        s.spawn(|| {
            for _ in 0..ROUNDS {
                let inserts: Vec<Update> = volatile.iter().map(|&k| Update::Insert(k)).collect();
                let report = store.apply(&inserts).unwrap();
                assert_eq!(report.inserted, volatile.len());
                let snap = store.snapshot();
                assert!(volatile.iter().all(|&k| snap.may_contain(k)));
                let deletes: Vec<Update> = volatile.iter().map(|&k| Update::Delete(k)).collect();
                let report = store.apply(&deletes).unwrap();
                assert_eq!(report.deleted, volatile.len());
            }
            stop.store(true, Ordering::Relaxed);
        });
    });
    assert_eq!(store.num_keys(), core.len());
    // Every `apply` published exactly one version.
    assert_eq!(store.snapshot().version(), 2 * ROUNDS as u64);
    // The telemetry gauge must reflect the 8-way fan-out request (capped
    // by how many shards the final batch actually dirtied).
    let workers = store.stats().rebuild_workers();
    assert!(
        (1..=8).contains(&workers),
        "rebuild_workers gauge out of range: {workers}"
    );
}

#[test]
fn concurrent_readers_see_no_false_negatives_range_partitioned() {
    for family in FamilySpec::ALL {
        run_family(family, Partitioning::Range { shards: 3 });
    }
}

#[test]
fn concurrent_readers_see_no_false_negatives_hash_partitioned() {
    for family in FamilySpec::ALL {
        run_family(family, Partitioning::Hash { shards: 3 });
    }
}

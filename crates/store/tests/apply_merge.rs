//! `FilterStore::apply` merging update batches into Grafite shards instead
//! of rebuilding them. After every batch of random sequences (balanced,
//! shrinking, growing and shard-straddling batches, under range and hash
//! partitioning, at 10, 16 and 16.9 bits per key):
//!
//! * every shard's blob is byte-identical to a build of its keys pinned at
//!   the shard's reduced universe `r`, and `r` lies in
//!   `[r(n'), r(n') + r(n')/8]` for the `r(n')` a fresh build would size;
//! * no stored key answers false;
//! * the false-positive bound is the paper's `ℓ/2^(B−2)`;
//! * the blob takes at most `B + 1/8` bits per key plus framing.

use std::collections::BTreeSet;

use grafite_core::registry::{FilterSpec, Registry};
use grafite_core::{BuildableFilter, FilterConfig, GrafiteFilter, PersistentFilter, RangeFilter};
use grafite_hash::LocalityHash;
use grafite_store::{FamilySpec, FilterStore, Partitioning, StoreConfig, Update};
use proptest::prelude::*;

const SEED: u64 = 0x5EED_A991;

/// Header, hash parameters, container lengths and partial last words.
const FRAMING_WORDS: usize = 24;

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 1
}

fn store(keys: &[u64], bits: f64, partitioning: Partitioning) -> FilterStore {
    let config = StoreConfig::new(FamilySpec::Registry(FilterSpec::Grafite))
        .bits_per_key(bits)
        .max_range(64)
        .seed(SEED)
        .partitioning(partitioning);
    FilterStore::build(&Registry::new(), config, keys).unwrap()
}

/// Every property the module docs list, over every shard.
fn check(store: &FilterStore, truth: &BTreeSet<u64>, bits: f64) {
    let snap = store.snapshot();
    let mut held = 0;
    for (s, shard) in snap.shards().iter().enumerate() {
        let keys = shard.read_keys().unwrap();
        held += keys.len();
        let blob = shard.filter().to_bytes();
        let filter = GrafiteFilter::deserialize(&blob).unwrap();
        let r = filter.reduced_universe();
        let pinned = GrafiteFilter::from_hash(LocalityHash::from_seed(SEED, r), &keys);
        assert!(
            pinned.to_bytes() == blob,
            "shard {s}: blob differs from a build pinned at r = {r}"
        );
        let cfg = FilterConfig::new(&keys).bits_per_key(bits).seed(SEED);
        let fresh = GrafiteFilter::build(&cfg).unwrap().reduced_universe();
        assert!(
            fresh <= r && r - fresh <= fresh / 8,
            "shard {s}: r = {r} outside [{fresh}, {fresh} + {fresh}/8]"
        );
        for l in [1u64, 8, 64, 1024] {
            let bound = l as f64 / (bits - 2.0).exp2();
            assert!(
                filter.fpp_for_range_size(l) <= bound * (1.0 + 1e-12),
                "shard {s}: bound at l = {l} above {bound}"
            );
        }
        let budget = (keys.len() as f64 * (bits + 0.125)) as usize + FRAMING_WORDS * 64;
        assert!(
            blob.len() * 8 <= budget,
            "shard {s}: {} bits for {} keys at B = {bits}",
            blob.len() * 8,
            keys.len()
        );
    }
    assert_eq!(held, truth.len());
    for &k in truth {
        assert!(snap.may_contain(k), "false negative on {k}");
    }
}

/// One batch of `kind` and `size` against the current key set: balanced
/// (deletes and as many inserts in one shard), shrinking, growing (both
/// in one shard), or straddling (balanced, spread over every shard).
fn batch(
    store: &FilterStore,
    truth: &BTreeSet<u64>,
    kind: u8,
    size: usize,
    state: &mut u64,
) -> Vec<Update> {
    let snap = store.snapshot();
    let routing = snap.routing();
    let present: Vec<u64> = truth.iter().copied().collect();
    let shard = routing.shard_of(present[lcg(state) as usize % present.len()]);
    let in_shard = |k: u64| kind == 3 || routing.shard_of(k) == shard;
    let mut updates = Vec::new();
    if kind != 2 {
        let candidates: Vec<u64> = present.iter().copied().filter(|&k| in_shard(k)).collect();
        for _ in 0..size.min(candidates.len().saturating_sub(1)) {
            updates.push(Update::Delete(
                candidates[lcg(state) as usize % candidates.len()],
            ));
        }
    }
    if kind != 1 {
        let mut inserted = 0;
        while inserted < size {
            let k = lcg(state);
            if in_shard(k) && !truth.contains(&k) {
                updates.push(Update::Insert(k));
                inserted += 1;
            }
        }
    }
    updates
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn merged_shards_equal_pinned_builds(
        partition in 0u8..2,
        bits_idx in 0usize..3,
        batches in prop::collection::vec((0u8..4, 1usize..40), 1..10),
        seed in any::<u64>(),
    ) {
        let bits = [10.0, 16.0, 16.9][bits_idx];
        let partitioning = if partition == 0 {
            Partitioning::Range { shards: 3 }
        } else {
            Partitioning::Hash { shards: 3 }
        };
        let mut state = seed;
        let keys: Vec<u64> = (0..1_500).map(|_| lcg(&mut state)).collect();
        let mut truth: BTreeSet<u64> = keys.iter().copied().collect();
        let store = store(&keys, bits, partitioning);
        check(&store, &truth, bits);
        for &(kind, size) in &batches {
            let updates = batch(&store, &truth, kind, size, &mut state);
            let report = store.apply(&updates).unwrap();
            prop_assert!(report.merged_shards <= report.dirty_shards);
            for u in &updates {
                match *u {
                    Update::Insert(k) => truth.insert(k),
                    Update::Delete(k) => truth.remove(&k),
                };
            }
            check(&store, &truth, bits);
        }
    }
}

/// A balanced batch merges, a growing one rebuilds, and at 16.9 bits per
/// key a shrink that steps the low width up still merges while the codes
/// fit `B + 1/8` bits per key, then rebuilds once they would not.
#[test]
fn merge_and_rebuild_paths_are_each_taken() {
    let bits = 16.9;
    let mut state = 7u64;
    let keys: Vec<u64> = (0..2_000).map(|_| lcg(&mut state)).collect();
    let mut truth: BTreeSet<u64> = keys.iter().copied().collect();
    let store = store(&keys, bits, Partitioning::Range { shards: 1 });
    let apply = |updates: Vec<Update>, truth: &mut BTreeSet<u64>| {
        for u in &updates {
            match *u {
                Update::Insert(k) => truth.insert(k),
                Update::Delete(k) => truth.remove(&k),
            };
        }
        let report = store.apply(&updates).unwrap();
        check(&store, truth, bits);
        report
    };
    let present: Vec<u64> = truth.iter().copied().collect();
    let balanced: Vec<Update> = present[..50]
        .iter()
        .map(|&k| Update::Delete(k))
        .chain((0..50).map(|i| Update::Insert(present[50 + i] + 1)))
        .collect();
    let report = apply(balanced, &mut truth);
    assert_eq!((report.merged_shards, report.rebuilt_keys), (1, 0));
    // 8 % fewer keys: r₀/n' passes 2^15, so the low width steps from 14 to
    // 15 and every code re-encodes, at 17.01 bits per key.
    let present: Vec<u64> = truth.iter().copied().collect();
    let shrink: Vec<Update> = present[..160].iter().map(|&k| Update::Delete(k)).collect();
    let report = apply(shrink, &mut truth);
    assert_eq!(report.merged_shards, 1);
    // 2 % fewer again (10 % in all) would take 17.04 bits per key: rebuild.
    let present: Vec<u64> = truth.iter().copied().collect();
    let shrink: Vec<Update> = present[..40].iter().map(|&k| Update::Delete(k)).collect();
    let report = apply(shrink, &mut truth);
    assert_eq!(
        (report.merged_shards, report.rebuilt_keys),
        (0, truth.len())
    );
    // One key more than the last build sized for: rebuild.
    let report = apply(vec![Update::Insert(u64::MAX)], &mut truth);
    assert_eq!((report.merged_shards, report.dirty_shards), (0, 1));
    assert_eq!(store.stats().merged_shards(), 2);
    assert_eq!(store.stats().rebuilt_shards(), 2);
}

/// Two keys share one code; deleting one takes out one copy of the code,
/// and the other key still answers true.
#[test]
fn deleting_one_of_two_colliding_keys_keeps_the_other() {
    let bits = 12.0;
    let mut state = 11u64;
    let mut keys: Vec<u64> = (0..1_000).map(|_| lcg(&mut state) >> 8).collect();
    // `r` depends on the key count alone, so size it on `keys` as they
    // are, then swap `keys[1]` for a key sharing `keys[0]`'s code.
    let cfg = FilterConfig::new(&keys).bits_per_key(bits).seed(SEED);
    let r = GrafiteFilter::build(&cfg).unwrap().reduced_universe();
    let h = LocalityHash::from_seed(SEED, r);
    let block = h.block(keys[0]) + 1;
    let twin = block * r + (h.eval(keys[0]) + r - h.eval(block * r)) % r;
    assert_eq!(h.eval(twin), h.eval(keys[0]));
    keys[1] = twin;
    let store = store(&keys, bits, Partitioning::Range { shards: 1 });
    let filter = store.snapshot().shards()[0].filter().to_bytes();
    let filter = GrafiteFilter::deserialize(&filter).unwrap();
    assert_eq!(
        filter.num_codes(),
        filter.num_keys(),
        "the code is repeated"
    );

    let report = store.apply(&[Update::Delete(keys[0])]).unwrap();
    assert_eq!(report.merged_shards, 1);
    assert!(store.may_contain(twin), "the colliding key lost its code");
    let truth: BTreeSet<u64> = keys[1..].iter().copied().collect();
    check(&store, &truth, bits);
}

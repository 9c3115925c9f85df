//! Parallel builds must be byte-identical to serial builds.
//!
//! The construction pipeline (chunked hashing, partitioned radix sort,
//! shard fan-out) is parallel only in *schedule*, never in
//! *outcome*: for every servable family, both partitionings, and any
//! thread count, `FilterStore::build` and `apply` must produce the same
//! serialized manifest as a forced-serial run. This is what lets CI pin
//! `GRAFITE_THREADS=1` on one leg and diff artifacts across legs.

use grafite_core::{BuildableFilter, FilterConfig, GrafiteFilter, Parallelism, PersistentFilter};
use grafite_filters::standard_registry;
use grafite_store::{FamilySpec, FilterStore, Partitioning, StoreConfig, Update};

/// Thread counts exercised against the serial reference: an even split,
/// a prime that divides nothing, and the paper's 8-thread sweet spot.
const THREADS: [usize; 3] = [2, 7, 8];

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state
}

fn keys(n: usize, tag: u64) -> Vec<u64> {
    let mut state = 0xDE7E_2213 ^ (tag << 9);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        out.push((lcg(&mut state) >> 3) | (tag << 61));
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Key-avoiding ranges for the auto-tuned families' workload samples.
fn sample_queries(sorted_keys: &[u64]) -> Vec<(u64, u64)> {
    let mut sample = Vec::new();
    let mut state = 11u64;
    while sample.len() < 64 {
        let a = lcg(&mut state);
        let Some(b) = a.checked_add(47) else { continue };
        let i = sorted_keys.partition_point(|&k| k < a);
        if i < sorted_keys.len() && sorted_keys[i] <= b {
            continue;
        }
        sample.push((a, b));
    }
    sample
}

fn config(family: FamilySpec, partitioning: Partitioning, sample: &[(u64, u64)]) -> StoreConfig {
    StoreConfig::new(family)
        .bits_per_key(16.0)
        .max_range(64)
        .seed(97)
        .sample(sample.to_vec())
        .partitioning(partitioning)
}

fn build_bytes(
    family: FamilySpec,
    partitioning: Partitioning,
    parallelism: Parallelism,
    core: &[u64],
    sample: &[(u64, u64)],
) -> Vec<u8> {
    let registry = standard_registry();
    let store = FilterStore::build(
        &registry,
        config(family, partitioning, sample).parallelism(parallelism),
        core,
    )
    .unwrap_or_else(|e| panic!("{} build failed: {e}", family.label()));
    store.to_bytes()
}

/// `build` then one insert batch and one delete batch; returns the
/// manifest after each step so `apply`'s rebuild path is diffed too.
fn apply_bytes(
    family: FamilySpec,
    partitioning: Partitioning,
    parallelism: Parallelism,
    core: &[u64],
    volatile: &[u64],
    sample: &[(u64, u64)],
) -> [Vec<u8>; 2] {
    let registry = standard_registry();
    let store = FilterStore::build(
        &registry,
        config(family, partitioning, sample).parallelism(parallelism),
        core,
    )
    .unwrap_or_else(|e| panic!("{} build failed: {e}", family.label()));
    let inserts: Vec<Update> = volatile.iter().map(|&k| Update::Insert(k)).collect();
    store.apply(&inserts).unwrap();
    let after_insert = store.to_bytes();
    let deletes: Vec<Update> = volatile.iter().map(|&k| Update::Delete(k)).collect();
    store.apply(&deletes).unwrap();
    [after_insert, store.to_bytes()]
}

fn run_family(family: FamilySpec, partitioning: Partitioning) {
    let core = keys(1200, 0);
    let volatile = keys(300, 1);
    let all: Vec<u64> = {
        let mut v: Vec<u64> = core.iter().chain(&volatile).copied().collect();
        v.sort_unstable();
        v
    };
    let sample = sample_queries(&all);

    let serial = build_bytes(family, partitioning, Parallelism::serial(), &core, &sample);
    let serial_applied = apply_bytes(
        family,
        partitioning,
        Parallelism::serial(),
        &core,
        &volatile,
        &sample,
    );
    for threads in THREADS {
        let par = Parallelism::fixed(threads);
        assert_eq!(
            build_bytes(family, partitioning, par, &core, &sample),
            serial,
            "{} {partitioning:?}: {threads}-thread build differs from serial",
            family.label()
        );
        let applied = apply_bytes(family, partitioning, par, &core, &volatile, &sample);
        assert_eq!(
            applied,
            serial_applied,
            "{} {partitioning:?}: {threads}-thread apply differs from serial",
            family.label()
        );
    }
}

#[test]
fn all_families_byte_identical_range_partitioned() {
    for family in FamilySpec::ALL {
        run_family(family, Partitioning::Range { shards: 5 });
    }
}

#[test]
fn all_families_byte_identical_hash_partitioned() {
    for family in FamilySpec::ALL {
        run_family(family, Partitioning::Hash { shards: 5 });
    }
}

/// `Parallelism::auto()` (whatever `GRAFITE_THREADS` / core count says)
/// must also match the forced-serial manifest. On CI's forced-serial leg
/// this pins the env override; elsewhere it pins the default thread pool.
#[test]
fn auto_parallelism_matches_forced_serial() {
    let core = keys(1500, 2);
    let sample = sample_queries(&core);
    let family = FamilySpec::ALL[0];
    for partitioning in [
        Partitioning::Range { shards: 4 },
        Partitioning::Hash { shards: 4 },
    ] {
        assert_eq!(
            build_bytes(family, partitioning, Parallelism::auto(), &core, &sample),
            build_bytes(family, partitioning, Parallelism::serial(), &core, &sample),
            "auto-parallelism build differs from serial under {partitioning:?}"
        );
    }
}

/// Filter-level byte identity at a size that actually crosses the
/// parallel threshold (`PARTITION_PARALLEL_MIN` is 1 << 15), so the
/// partitioned sort and parallel hashing both genuinely run.
#[test]
fn grafite_filter_parallel_paths_byte_identical() {
    let n = (1 << 15) + 4113;
    let mut state = 0xFEED_F00Du64;
    let keys: Vec<u64> = (0..n).map(|_| lcg(&mut state)).collect();
    let serial = GrafiteFilter::build(
        &FilterConfig::new(&keys)
            .bits_per_key(14.0)
            .parallelism(Parallelism::serial()),
    )
    .unwrap()
    .to_bytes();
    for threads in THREADS {
        let parallel = GrafiteFilter::build(
            &FilterConfig::new(&keys)
                .bits_per_key(14.0)
                .parallelism(Parallelism::fixed(threads)),
        )
        .unwrap()
        .to_bytes();
        assert_eq!(
            parallel, serial,
            "{threads}-thread GrafiteFilter build differs from serial at n={n}"
        );
    }
}

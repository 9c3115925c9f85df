//! Serialization round-trips for every filter family in the workspace:
//! arbitrary key sets → build → serialize → load → **bit-identical**
//! answers on point, range, edge-of-universe, and batch queries — through
//! both the typed `deserialize` path and the spec-dispatching
//! `Registry::load` path.

use grafite_core::persist::spec_id;
use grafite_core::registry::FilterSpec;
use grafite_core::{
    BuildableFilter, FilterConfig, FilterError, PersistentFilter, StringGrafite,
    WorkloadAwareBucketing,
};
use grafite_filters::standard_registry;

fn pseudo_keys(n: usize, seed: u64) -> Vec<u64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        })
        .collect()
}

/// Point, small-range, key-hugging, block-spanning, and universe-edge
/// queries — the shapes that exercise every code path of every family.
fn probe_queries(keys: &[u64]) -> Vec<(u64, u64)> {
    let mut queries = Vec::new();
    for (i, &k) in keys.iter().enumerate().step_by(7) {
        queries.push((k, k)); // point on a key
        queries.push((k.saturating_sub(3), k.saturating_add(3)));
        queries.push((k.saturating_add(1), k.saturating_add(32))); // hugging
        let far = (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
        queries.push((far, far.saturating_add(31))); // usually empty
    }
    // Universe edges.
    queries.push((0, 0));
    queries.push((0, 1000));
    queries.push((u64::MAX - 1000, u64::MAX));
    queries.push((u64::MAX, u64::MAX));
    queries.sort_unstable();
    queries
}

fn assert_bit_identical(
    built: &dyn PersistentFilter,
    loaded: &dyn PersistentFilter,
    queries: &[(u64, u64)],
    label: &str,
) {
    assert_eq!(loaded.name(), built.name(), "{label}: name drifted");
    assert_eq!(
        loaded.num_keys(),
        built.num_keys(),
        "{label}: key count drifted"
    );
    for &(a, b) in queries {
        assert_eq!(
            loaded.may_contain_range(a, b),
            built.may_contain_range(a, b),
            "{label}: answer diverged on [{a}, {b}]"
        );
    }
    // Batch path.
    let (mut want, mut got) = (Vec::new(), Vec::new());
    built.may_contain_ranges(queries, &mut want);
    loaded.may_contain_ranges(queries, &mut got);
    assert_eq!(got, want, "{label}: batch answers diverged");
    // The loaded filter serializes back to the identical blob: the format
    // is a fixed point, not merely query-equivalent.
    assert_eq!(
        loaded.to_bytes(),
        built.to_bytes(),
        "{label}: re-serialization drifted"
    );
}

#[test]
fn every_registry_spec_roundtrips_through_registry_load() {
    let registry = standard_registry();
    let keys = pseudo_keys(3000, 0xF11735);
    let sample: Vec<(u64, u64)> = (0..256u64).map(|i| (i << 40, (i << 40) + 31)).collect();
    let queries = probe_queries(&keys);
    // 20 bits/key keeps every family above its structural floor, so all
    // eleven configurations build (and must then round-trip).
    let cfg = FilterConfig::new(&keys)
        .bits_per_key(20.0)
        .max_range(1 << 10)
        .sample(&sample)
        .seed(77);
    for spec in FilterSpec::ALL {
        let built = registry
            .build(spec, &cfg)
            .unwrap_or_else(|e| panic!("{} failed to build: {e}", spec.label()));
        let blob = built.to_bytes();
        assert_eq!(
            blob.len() * 8,
            built.serialized_bits(),
            "{}: serialized_bits disagrees with the actual blob",
            spec.label()
        );
        let loaded = registry
            .load(&blob)
            .unwrap_or_else(|e| panic!("{} failed to load: {e}", spec.label()));
        assert_eq!(
            loaded.spec_id(),
            spec.spec_id(),
            "{}: spec id drifted",
            spec.label()
        );
        assert_bit_identical(built.as_ref(), loaded.as_ref(), &queries, spec.label());
    }
}

#[test]
fn empty_and_tiny_key_sets_roundtrip() {
    let registry = standard_registry();
    for keys in [vec![], vec![42u64], vec![0, u64::MAX]] {
        let cfg = FilterConfig::new(&keys).bits_per_key(20.0).max_range(32);
        let queries = vec![(0u64, 0u64), (0, u64::MAX), (41, 43), (u64::MAX, u64::MAX)];
        for spec in FilterSpec::ALL {
            let built = match registry.build(spec, &cfg) {
                Ok(f) => f,
                Err(_) => continue, // infeasible corner (e.g. SuRF floor)
            };
            let loaded = registry.load(&built.to_bytes()).expect("load");
            assert_bit_identical(
                built.as_ref(),
                loaded.as_ref(),
                &queries,
                &format!("{} (n={})", spec.label(), keys.len()),
            );
        }
    }
}

#[test]
fn string_grafite_roundtrips() {
    let words: Vec<String> = (0..500).map(|i| format!("key-{i:05}-suffix")).collect();
    let built = StringGrafite::new(&words, 14.0, 9).unwrap();
    let blob = built.to_bytes();
    let loaded = StringGrafite::deserialize(&blob).unwrap();
    for w in &words {
        assert_eq!(
            loaded.may_contain(w.as_bytes()),
            built.may_contain(w.as_bytes())
        );
    }
    for i in 0..1000 {
        let a = format!("key-{i:05}");
        let b = format!("key-{i:05}-zzz");
        assert_eq!(
            loaded.may_contain_range(a.as_bytes(), b.as_bytes()),
            built.may_contain_range(a.as_bytes(), b.as_bytes()),
            "string range [{a}, {b}]"
        );
    }
    assert_eq!(loaded.to_bytes(), blob);
}

#[test]
fn workload_aware_bucketing_roundtrips() {
    let keys = pseudo_keys(2000, 3);
    let sample: Vec<(u64, u64)> = keys
        .iter()
        .step_by(10)
        .map(|&k| (k.saturating_add(5), k.saturating_add(36)))
        .collect();
    let cfg = FilterConfig::new(&keys).bits_per_key(12.0).sample(&sample);
    let built = WorkloadAwareBucketing::build(&cfg).unwrap();
    let blob = built.to_bytes();
    let loaded = WorkloadAwareBucketing::deserialize(&blob).unwrap();
    let queries = probe_queries(&keys);
    assert_bit_identical(&built, &loaded, &queries, "Bucketing-WA");
}

#[test]
fn typed_deserialize_rejects_foreign_family() {
    let keys = pseudo_keys(200, 5);
    let cfg = FilterConfig::new(&keys).bits_per_key(16.0);
    let registry = standard_registry();
    let grafite_blob = registry
        .build(FilterSpec::Grafite, &cfg)
        .unwrap()
        .to_bytes();
    // A Rosetta deserializer pointed at a Grafite blob must refuse, typed.
    assert_eq!(
        grafite_filters::Rosetta::deserialize(&grafite_blob).err(),
        Some(FilterError::SpecMismatch(spec_id::GRAFITE))
    );
    // SuRF accepts any of its three variants but not Grafite's id.
    assert_eq!(
        grafite_filters::Surf::deserialize(&grafite_blob).err(),
        Some(FilterError::SpecMismatch(spec_id::GRAFITE))
    );
}

/// The size-accounting contract: the in-memory estimate
/// (`RangeFilter::size_in_bits`) must stay honest against the measured
/// serialized footprint. Structural length words and the 40-byte header are
/// genuine per-blob overhead, so the serialized side may run slightly
/// larger; a filter whose estimate *understates* its true footprint by more
/// than the stated tolerance is lying about its space and fails here.
#[test]
fn in_memory_size_estimates_track_serialized_bits() {
    let registry = standard_registry();
    let keys = pseudo_keys(20_000, 0x517E);
    let sample: Vec<(u64, u64)> = (0..256u64).map(|i| (i << 40, (i << 40) + 31)).collect();
    let cfg = FilterConfig::new(&keys)
        .bits_per_key(18.0)
        .max_range(1 << 10)
        .sample(&sample)
        .seed(1);
    for spec in FilterSpec::ALL {
        let filter = registry.build(spec, &cfg).unwrap();
        let estimate = filter.size_in_bits() as f64;
        let measured = filter.serialized_bits() as f64;
        // Stated tolerance: within 10% of each other, plus 4096 bits of
        // absolute slack for headers/length words on small structures.
        let slack = 0.10 * measured.max(estimate) + 4096.0;
        assert!(
            (measured - estimate).abs() <= slack,
            "{}: in-memory estimate {estimate} vs serialized {measured} bits \
             drifts beyond the 10% + 4096-bit tolerance",
            spec.label()
        );
    }
}

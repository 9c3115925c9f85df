//! Workspace smoke test: every filter the standard registry can build answers
//! point and range queries with **zero false negatives** on a small key set
//! that deliberately includes universe edges, duplicates, and tight
//! clusters. Complements `crates/bench/tests/registry_smoke.rs`, which
//! checks the same specs through the measurement harness on synthetic
//! datasets; this test probes the filters directly through the meta-crate.
//!
//! Uses the `FilterConfig`/`standard_registry()` path, the workspace-wide
//! construction contract; `tests/buildable_conformance.rs` covers the
//! typed per-filter protocol.

use grafite::{standard_registry, FilterConfig, FilterSpec};

const ALL_SPECS: [FilterSpec; 11] = [
    FilterSpec::Grafite,
    FilterSpec::Bucketing,
    FilterSpec::Snarf,
    FilterSpec::SurfReal,
    FilterSpec::SurfHash,
    FilterSpec::Proteus,
    FilterSpec::Rosetta,
    FilterSpec::REncoder,
    FilterSpec::REncoderSS,
    FilterSpec::REncoderSE,
    FilterSpec::TrivialBloom,
];

/// A small key set stressing the shapes that flush out edge-case bugs:
/// universe boundaries, adjacent runs, powers of two, duplicates, and a
/// pseudo-random spread.
fn smoke_keys() -> Vec<u64> {
    let mut keys = vec![
        0,
        1,
        2,
        7,
        8,
        9,
        255,
        256,
        257,
        (1 << 20) - 1,
        1 << 20,
        (1 << 20) + 1,
        u64::MAX - 2,
        u64::MAX - 1,
        u64::MAX,
        42,
        42, // duplicate
    ];
    let mut state = 0xD1CEu64;
    for _ in 0..200 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        keys.push(state);
    }
    keys
}

fn sample_queries(sorted: &[u64]) -> Vec<(u64, u64)> {
    // Empty ranges for the auto-tuned filters' samples.
    let mut sample = Vec::new();
    let mut state = 3u64;
    while sample.len() < 64 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let a = state;
        let b = match a.checked_add(31) {
            Some(b) => b,
            None => continue,
        };
        let i = sorted.partition_point(|&k| k < a);
        if i < sorted.len() && sorted[i] <= b {
            continue;
        }
        sample.push((a, b));
    }
    sample
}

#[test]
fn every_registry_spec_has_no_false_negatives() {
    let keys = smoke_keys();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    let sample = sample_queries(&sorted);
    let registry = standard_registry();

    for budget in [12.0, 20.0] {
        let cfg = FilterConfig::new(&keys)
            .bits_per_key(budget)
            .max_range(64)
            .sample(&sample)
            .seed(13);
        for spec in ALL_SPECS {
            let Ok(filter) = registry.build(spec, &cfg) else {
                panic!("{} infeasible at {budget} bits/key", spec.label());
            };
            assert_eq!(filter.num_keys(), keys.len(), "{}", spec.label());
            for &k in &keys {
                assert!(
                    filter.may_contain(k),
                    "{} at {budget} bpk: point false negative on {k}",
                    spec.label()
                );
                for width in [0u64, 1, 3, 63] {
                    let a = k.saturating_sub(width);
                    let b = k.saturating_add(width);
                    assert!(
                        filter.may_contain_range(a, b),
                        "{} at {budget} bpk: range false negative on [{a}, {b}] around {k}",
                        spec.label()
                    );
                }
            }
        }
    }
}

#[test]
fn every_registry_spec_accepts_single_key_and_handles_empty() {
    let sample = [(100u64, 131u64)];
    let single = [777u64];
    let registry = standard_registry();
    for spec in ALL_SPECS {
        // Single key.
        let cfg = FilterConfig::new(&single)
            .max_range(64)
            .sample(&sample)
            .seed(1);
        let filter = registry
            .build(spec, &cfg)
            .unwrap_or_else(|e| panic!("{} infeasible on a single key: {e}", spec.label()));
        assert!(filter.may_contain(777), "{}", spec.label());
        assert!(filter.may_contain_range(700, 800), "{}", spec.label());

        // Empty key set: must build and answer "empty" everywhere.
        let cfg = FilterConfig::new(&[][..])
            .max_range(64)
            .sample(&sample)
            .seed(1);
        let filter = registry
            .build(spec, &cfg)
            .unwrap_or_else(|e| panic!("{} infeasible on an empty key set: {e}", spec.label()));
        assert!(
            !filter.may_contain_range(0, u64::MAX),
            "{} claims a key in an empty set",
            spec.label()
        );
    }
}

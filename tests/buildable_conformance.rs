//! Trait-level conformance of the unified construction API: every
//! [`FilterSpec`] built through the new `FilterConfig` protocol upholds the
//! `RangeFilter` contract — no false negatives on point, range, and
//! edge-of-universe queries, and batched answers identical to the
//! one-at-a-time path. Also pins the protocol's typed entry points
//! (`BuildableFilter::build`/`build_with`, per-filter tunings) at compile
//! time and the registry's error reporting at run time.

use grafite::grafite_core::registry::{FilterSpec, Registry};
use grafite::grafite_core::{
    BuildableFilter, FilterConfig, FilterError, RangeFilter, StringGrafite, WorkloadAwareBucketing,
};
use grafite::grafite_filters::standard_registry;

/// Keys stressing universe edges, adjacent runs, duplicates, and a
/// pseudo-random spread.
fn conformance_keys() -> Vec<u64> {
    let mut keys = vec![
        0,
        1,
        2,
        255,
        256,
        257,
        (1 << 33) - 1,
        1 << 33,
        u64::MAX - 2,
        u64::MAX - 1,
        u64::MAX,
        42,
        42, // duplicate
    ];
    let mut state = 0xC0DEu64;
    for _ in 0..500 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        keys.push(state);
    }
    keys
}

/// Empty ranges for the auto-tuners' samples.
fn empty_sample(sorted: &[u64]) -> Vec<(u64, u64)> {
    let mut sample = Vec::new();
    let mut state = 3u64;
    while sample.len() < 64 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let a = state;
        let Some(b) = a.checked_add(31) else { continue };
        let i = sorted.partition_point(|&k| k < a);
        if i < sorted.len() && sorted[i] <= b {
            continue;
        }
        sample.push((a, b));
    }
    sample
}

/// A mixed, sorted batch: key-bounded (non-empty), random, and
/// edge-of-universe queries.
fn mixed_batch(keys: &[u64]) -> Vec<(u64, u64)> {
    let mut queries: Vec<(u64, u64)> = vec![
        (0, 0),
        (0, 63),
        (u64::MAX, u64::MAX),
        (u64::MAX - 63, u64::MAX),
    ];
    for (i, &k) in keys.iter().enumerate().step_by(3) {
        queries.push((k.saturating_sub((i as u64) % 48), k.saturating_add(3)));
    }
    let mut state = 0xBEEFu64;
    for _ in 0..300 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        queries.push((state, state.saturating_add(state % 900)));
    }
    queries.sort_unstable();
    queries
}

#[test]
fn every_spec_builds_and_has_no_false_negatives() {
    let keys = conformance_keys();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    let sample = empty_sample(&sorted);
    let registry = standard_registry();

    for budget in [12.0, 20.0] {
        let cfg = FilterConfig::new(&keys)
            .bits_per_key(budget)
            .max_range(64)
            .sample(&sample)
            .seed(13);
        for spec in FilterSpec::ALL {
            let filter = registry
                .build(spec, &cfg)
                .unwrap_or_else(|e| panic!("{} failed at {budget} bits/key: {e}", spec.label()));
            assert_eq!(filter.num_keys(), keys.len(), "{}", spec.label());
            assert!(filter.bits_per_key() > 0.0, "{}", spec.label());
            for &k in &keys {
                assert!(
                    filter.may_contain(k),
                    "{} at {budget} bpk: point false negative on {k}",
                    spec.label()
                );
                for width in [0u64, 1, 3, 63] {
                    let (a, b) = (k.saturating_sub(width), k.saturating_add(width));
                    assert!(
                        filter.may_contain_range(a, b),
                        "{} at {budget} bpk: range false negative on [{a}, {b}]",
                        spec.label()
                    );
                }
            }
            // Edge-of-universe: keys 0 and u64::MAX are in the set.
            assert!(filter.may_contain_range(0, 0), "{}", spec.label());
            assert!(
                filter.may_contain_range(u64::MAX, u64::MAX),
                "{}",
                spec.label()
            );
        }
    }
}

#[test]
fn batch_answers_equal_one_at_a_time_for_every_spec() {
    let keys = conformance_keys();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    let sample = empty_sample(&sorted);
    let queries = mixed_batch(&sorted);
    let registry = standard_registry();

    let cfg = FilterConfig::new(&keys)
        .bits_per_key(16.0)
        .max_range(64)
        .sample(&sample)
        .seed(7);
    // The 11 registry specs plus the two servable families outside it.
    for spec in FilterSpec::ALL {
        let filter = registry.build(spec, &cfg).unwrap();
        assert_batch_equals_singles(spec.label(), filter.as_ref(), &queries);
    }
    let string = StringGrafite::build(&cfg).unwrap();
    assert_batch_equals_singles("StringGrafite", &string, &queries);
    let workload_aware = WorkloadAwareBucketing::build(&cfg).unwrap();
    assert_batch_equals_singles("WorkloadAwareBucketing", &workload_aware, &queries);
}

fn assert_batch_equals_singles<F: RangeFilter + ?Sized>(
    label: &str,
    filter: &F,
    queries: &[(u64, u64)],
) {
    let singles: Vec<bool> = queries
        .iter()
        .map(|&(a, b)| filter.may_contain_range(a, b))
        .collect();
    let mut batched = vec![true; 3]; // stale: must be cleared by the call
    filter.may_contain_ranges(queries, &mut batched);
    assert_eq!(
        batched, singles,
        "{label}: batch answers differ from the one-at-a-time path"
    );
}

#[test]
fn surf_declines_below_its_floor_with_a_typed_error() {
    let keys = conformance_keys();
    let cfg = FilterConfig::new(&keys).bits_per_key(8.0).max_range(64);
    let registry = standard_registry();
    for spec in [FilterSpec::SurfReal, FilterSpec::SurfHash] {
        match registry.build(spec, &cfg) {
            Err(FilterError::BudgetBelowFloor { requested, floor }) => {
                assert_eq!(requested, 8.0);
                assert!(floor > 8.0);
            }
            Err(e) => panic!("{}: wrong error {e}", spec.label()),
            Ok(_) => panic!("{}: built below its floor", spec.label()),
        }
    }
    // Every other spec is feasible at 8 bits/key.
    for spec in FilterSpec::ALL {
        if matches!(spec, FilterSpec::SurfReal | FilterSpec::SurfHash) {
            continue;
        }
        assert!(
            registry.build(spec, &cfg).is_ok(),
            "{} infeasible at 8 bpk",
            spec.label()
        );
    }
}

#[test]
fn empty_and_single_key_sets_conform() {
    let sample = [(100u64, 131u64)];
    let registry = standard_registry();
    for spec in FilterSpec::ALL {
        let single = [777u64];
        let cfg = FilterConfig::new(&single)
            .bits_per_key(16.0)
            .max_range(64)
            .sample(&sample);
        let filter = registry.build(spec, &cfg).unwrap();
        assert!(filter.may_contain(777), "{}", spec.label());
        assert!(filter.may_contain_range(700, 800), "{}", spec.label());

        let cfg = FilterConfig::new(&[])
            .bits_per_key(16.0)
            .max_range(64)
            .sample(&sample);
        let filter = registry.build(spec, &cfg).unwrap();
        assert!(
            !filter.may_contain_range(0, u64::MAX),
            "{} claims a key in an empty set",
            spec.label()
        );
        let mut out = Vec::new();
        filter.may_contain_ranges(&[(0, 10), (5, u64::MAX)], &mut out);
        assert_eq!(out, [false, false], "{} empty-set batch", spec.label());
    }
}

#[test]
fn typed_build_entry_points_compile_and_agree() {
    use grafite::grafite_core::{GrafiteFilter, GrafiteTuning};
    use grafite::grafite_filters::{
        Proteus, REncoder, REncoderTuning, REncoderVariant, Rosetta, Snarf, SuffixStyle, Surf,
        SurfTuning,
    };

    // Generic construction through the protocol — the compile-time check
    // that every filter really is `BuildableFilter`.
    fn build_generic<F: BuildableFilter>(cfg: &FilterConfig<'_>) -> F {
        F::build(cfg).unwrap_or_else(|e| panic!("build failed: {e}"))
    }

    let keys = conformance_keys();
    let sample = {
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        empty_sample(&sorted)
    };
    let cfg = FilterConfig::new(&keys)
        .bits_per_key(16.0)
        .max_range(64)
        .sample(&sample)
        .seed(3);

    let filters: Vec<Box<dyn RangeFilter>> = vec![
        Box::new(build_generic::<GrafiteFilter>(&cfg)),
        Box::new(build_generic::<Snarf>(&cfg)),
        Box::new(build_generic::<Proteus>(&cfg)),
        Box::new(build_generic::<Rosetta>(&cfg)),
        Box::new(build_generic::<REncoder>(&cfg)),
        Box::new(build_generic::<StringGrafite>(&cfg)),
        Box::new(
            Surf::build_with(
                &cfg,
                &SurfTuning {
                    style: SuffixStyle::Hashed,
                    suffix_bits: Some(8),
                },
            )
            .unwrap(),
        ),
        Box::new(
            REncoder::build_with(&cfg, &REncoderTuning(REncoderVariant::SampleEstimation)).unwrap(),
        ),
        Box::new(
            GrafiteFilter::build_with(
                &cfg,
                &GrafiteTuning {
                    pow2_universe: true,
                    epsilon: None,
                },
            )
            .unwrap(),
        ),
    ];
    for f in &filters {
        for &k in keys.iter().step_by(11) {
            assert!(f.may_contain(k), "{} lost key {k}", f.name());
        }
    }

    // The typed epsilon tuning follows Theorem 3.4 sizing.
    let tuned = GrafiteFilter::build_with(
        &cfg,
        &GrafiteTuning {
            epsilon: Some(0.01),
            pow2_universe: false,
        },
    )
    .unwrap();
    assert_eq!(
        tuned.reduced_universe() as u128,
        keys.len() as u128 * 64 * 100
    );
}

#[test]
fn registry_reports_unregistered_specs() {
    let keys = [1u64, 2, 3];
    let cfg = FilterConfig::new(&keys);
    // The core-only registry knows Grafite and Bucketing, nothing else.
    let core_only = Registry::new();
    assert!(core_only.build(FilterSpec::Grafite, &cfg).is_ok());
    assert!(matches!(
        core_only.build(FilterSpec::Rosetta, &cfg),
        Err(FilterError::Unregistered("Rosetta"))
    ));
    // The standard registry covers all eleven.
    assert_eq!(standard_registry().registered().count(), FilterSpec::COUNT);
}

/// A finite but huge budget ends in a typed error or a working filter, never
/// in an aborted allocation. Rosetta, Proteus and the REncoder variants size
/// their bits from `bits_per_key · n`, so at 1e300 bits/key they must refuse.
#[test]
fn huge_budgets_end_in_a_typed_error_or_a_working_filter() {
    let keys = conformance_keys();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    let sample = empty_sample(&sorted);
    let registry = standard_registry();
    let cfg = FilterConfig::new(&keys)
        .bits_per_key(1e300)
        .max_range(64)
        .sample(&sample)
        .seed(5);
    let sized_from_budget = [
        FilterSpec::Rosetta,
        FilterSpec::Proteus,
        FilterSpec::REncoder,
        FilterSpec::REncoderSS,
        FilterSpec::REncoderSE,
    ];
    for spec in FilterSpec::ALL {
        match registry.build(spec, &cfg) {
            Ok(filter) => {
                assert!(!sized_from_budget.contains(&spec), "{}", spec.label());
                for &k in &keys {
                    assert!(
                        filter.may_contain(k),
                        "{}: false negative on {k}",
                        spec.label()
                    );
                }
            }
            Err(e) => {
                assert!(
                    matches!(
                        e,
                        FilterError::InvalidBudget(_) | FilterError::ReducedUniverseTooLarge { .. }
                    ),
                    "{}: {e}",
                    spec.label()
                );
            }
        }
    }
}

//! Smoke tests for the experiment harness plumbing: every registry spec
//! builds (or declines) cleanly at every budget and answers soundly,
//! through the `FilterConfig`/`standard_registry()` path.

use grafite_bench::harness::{measure, RunConfig};
use grafite_core::{FilterConfig, FilterSpec};
use grafite_filters::standard_registry;
use grafite_workloads::{datasets::Dataset, generate, non_empty_queries, uncorrelated_queries};

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

#[test]
fn every_spec_builds_and_answers_soundly() {
    let keys = generate(Dataset::Uniform, 3000, 1);
    let sample: Vec<(u64, u64)> = uncorrelated_queries(&keys, 100, 32, 5)
        .iter()
        .map(|q| (q.lo, q.hi))
        .collect();
    let positives = non_empty_queries(&keys, 200, 32, 9);
    let registry = standard_registry();
    for budget in [8.0, 16.0, 28.0] {
        let cfg = FilterConfig::new(&keys)
            .bits_per_key(budget)
            .max_range(32)
            .sample(&sample)
            .seed(7);
        for spec in ALL_SPECS {
            let Ok(filter) = registry.build(spec, &cfg) else {
                // Only SuRF may decline, and only below its space floor.
                assert!(
                    matches!(spec, FilterSpec::SurfReal | FilterSpec::SurfHash) && budget < 12.0,
                    "{} unexpectedly infeasible at {budget}",
                    spec.label()
                );
                continue;
            };
            let m = measure(filter.as_ref(), &positives);
            assert_eq!(
                m.positive_rate,
                1.0,
                "{} lost keys at {budget} bits/key",
                spec.label()
            );
            assert!(m.bits_per_key > 0.0);
        }
    }
}

#[test]
fn default_config_is_laptop_scale() {
    let cfg = RunConfig::default();
    assert!(cfg.n <= 200_000, "defaults must stay laptop-scale");
    assert!(cfg.queries <= 50_000);
    assert!(!cfg.budgets.is_empty());
}

//! Cross-crate integration: every filter in the workspace, built over the
//! same datasets and probed with the same workloads, upholds the two
//! contracts the paper's comparison rests on — no false negatives anywhere,
//! and Grafite's FPR within its theoretical bound.

use grafite::{BucketingFilter, BuildableFilter, FilterConfig, GrafiteFilter, RangeFilter};
use grafite_bloom::{TrivialBloomTuning, TrivialRangeFilter};
use grafite_filters::{
    Proteus, REncoder, REncoderTuning, REncoderVariant, Rosetta, Snarf, SuffixStyle, Surf,
    SurfTuning,
};
use grafite_workloads::{
    correlated_queries, datasets::Dataset, generate, non_empty_queries, uncorrelated_queries,
};

fn all_filters(keys: &[u64], sample: &[(u64, u64)]) -> Vec<Box<dyn RangeFilter>> {
    let cfg = FilterConfig::new(keys)
        .bits_per_key(14.0)
        .sample(sample)
        .seed(3);
    let surf = |style| SurfTuning {
        style,
        suffix_bits: Some(6),
    };
    let rencoder = |variant| REncoder::build_with(&cfg, &REncoderTuning(variant)).unwrap();
    let trivial = TrivialBloomTuning {
        epsilon: Some(0.05),
    };
    vec![
        Box::new(GrafiteFilter::build(&FilterConfig::new(keys).bits_per_key(14.0)).unwrap()),
        Box::new(BucketingFilter::build(&FilterConfig::new(keys).bits_per_key(14.0)).unwrap()),
        Box::new(Snarf::build(&cfg).unwrap()),
        Box::new(Surf::build_with(&cfg, &surf(SuffixStyle::Real)).unwrap()),
        Box::new(Surf::build_with(&cfg, &surf(SuffixStyle::Hashed)).unwrap()),
        Box::new(Proteus::build(&cfg).unwrap()),
        Box::new(Rosetta::build(&cfg).unwrap()),
        Box::new(rencoder(REncoderVariant::Full)),
        Box::new(rencoder(REncoderVariant::SelectiveStorage { rounds: 2 })),
        Box::new(rencoder(REncoderVariant::SampleEstimation)),
        Box::new(TrivialRangeFilter::build_with(&cfg, &trivial).unwrap()),
    ]
}

#[test]
fn non_empty_queries_always_positive_on_every_dataset() {
    for dataset in [Dataset::Uniform, Dataset::Books, Dataset::Osm, Dataset::Fb] {
        let keys = generate(dataset, 4000, 11);
        let sample: Vec<(u64, u64)> = uncorrelated_queries(&keys, 100, 32, 5)
            .iter()
            .map(|q| (q.lo, q.hi))
            .collect();
        let filters = all_filters(&keys, &sample);
        for l in [1u64, 32, 1024] {
            let queries = non_empty_queries(&keys, 300, l, 7);
            for f in &filters {
                for q in &queries {
                    assert!(
                        f.may_contain_range(q.lo, q.hi),
                        "{} returned a false negative on {} for [{}, {}] (l={l})",
                        f.name(),
                        dataset.name(),
                        q.lo,
                        q.hi
                    );
                }
            }
        }
    }
}

#[test]
fn grafite_fpr_within_bound_on_adversarial_workloads() {
    let keys = generate(Dataset::Uniform, 20_000, 3);
    for l in [1u64, 32, 1024] {
        for degree in [0.0, 0.5, 1.0] {
            let filter =
                GrafiteFilter::build(&FilterConfig::new(&keys).bits_per_key(16.0)).unwrap();
            let queries = correlated_queries(&keys, 5_000, l, degree, 99);
            if queries.len() < 1000 {
                continue;
            }
            let fps = queries
                .iter()
                .filter(|q| filter.may_contain_range(q.lo, q.hi))
                .count();
            let fpr = fps as f64 / queries.len() as f64;
            let bound = filter.fpp_for_range_size(l);
            assert!(
                fpr <= bound * 1.6 + 0.003,
                "Grafite FPR {fpr} above bound {bound} at l={l}, D={degree}"
            );
        }
    }
}

#[test]
fn every_filter_reports_plausible_space() {
    let keys = generate(Dataset::Uniform, 5000, 9);
    let sample: Vec<(u64, u64)> = uncorrelated_queries(&keys, 100, 32, 5)
        .iter()
        .map(|q| (q.lo, q.hi))
        .collect();
    for f in all_filters(&keys, &sample) {
        let bpk = f.bits_per_key();
        assert!(
            bpk > 1.0 && bpk < 200.0,
            "{} reports implausible {bpk} bits/key",
            f.name()
        );
        assert_eq!(f.num_keys(), keys.len(), "{}", f.name());
    }
}

/// The `may_contain_range` contract (see `grafite_core::traits`): `a <= b`
/// is debug-asserted by **every** implementation — one consistent rule
/// instead of the old "may panic" escape hatch. Integration tests run with
/// debug assertions on, so an inverted range must panic in every filter.
#[cfg(debug_assertions)]
#[test]
fn inverted_ranges_are_debug_asserted_by_every_filter() {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let keys = generate(Dataset::Uniform, 2000, 5);
    let sample: Vec<(u64, u64)> = vec![(0, 31)];
    let filters = all_filters(&keys, &sample);
    // Silence the expected panic messages — but only on *this* thread, so
    // concurrently-running tests keep their diagnostics.
    let this_thread = std::thread::current().id();
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if std::thread::current().id() != this_thread {
            prev_hook(info);
        }
    }));
    let mut violations = Vec::new();
    for f in &filters {
        if catch_unwind(AssertUnwindSafe(|| f.may_contain_range(5, 1))).is_ok() {
            violations.push(format!("{} accepted an inverted range", f.name()));
        }
        if catch_unwind(AssertUnwindSafe(|| f.may_contain_range(u64::MAX, 0))).is_ok() {
            violations.push(format!("{} accepted [u64::MAX, 0]", f.name()));
        }
    }
    // Drop the silencer (restores the standard hook).
    let _ = std::panic::take_hook();
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn whole_universe_query_is_positive_everywhere() {
    let keys = generate(Dataset::Uniform, 1000, 21);
    let sample: Vec<(u64, u64)> = vec![(0, 31)];
    for f in all_filters(&keys, &sample) {
        // TrivialBloom probes point-by-point: skip the full-universe scan.
        if f.name() == "TrivialBloom" {
            continue;
        }
        assert!(
            f.may_contain_range(0, u64::MAX),
            "{} rejected the full universe",
            f.name()
        );
    }
}

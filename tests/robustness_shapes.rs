//! Integration tests pinning the *qualitative* results of the paper's
//! evaluation — the claims `repro fig1`, `repro fig3` and `repro fig4`
//! report. These run small versions of the Figure 1/3/4/5 comparisons and
//! assert who wins, not by how much.

use grafite::{BucketingFilter, BuildableFilter, FilterConfig, GrafiteFilter, RangeFilter};
use grafite_filters::{Rosetta, RosettaTuning, Snarf, SuffixStyle, Surf, SurfTuning};
use grafite_workloads::{correlated_queries, datasets::Dataset, generate, uncorrelated_queries};

/// SuRF with `bits` real suffix bits per key, whatever the budget.
fn real_suffixes(bits: u8) -> SurfTuning {
    SurfTuning {
        style: SuffixStyle::Real,
        suffix_bits: Some(bits),
    }
}

fn fpr(filter: &dyn RangeFilter, queries: &[grafite_workloads::RangeQuery]) -> f64 {
    let fps = queries
        .iter()
        .filter(|q| filter.may_contain_range(q.lo, q.hi))
        .count();
    fps as f64 / queries.len() as f64
}

/// Figure 1/3's headline: heuristics collapse under correlation, the robust
/// filters do not, and Grafite beats Rosetta by orders of magnitude.
#[test]
fn correlation_separates_robust_from_heuristic() {
    let keys = generate(Dataset::Uniform, 30_000, 1);
    let l = 32u64;
    let correlated = correlated_queries(&keys, 10_000, l, 0.8, 7);

    let grafite = GrafiteFilter::build(&FilterConfig::new(&keys).bits_per_key(20.0)).unwrap();
    let rosetta = Rosetta::build_with(
        &FilterConfig::new(&keys)
            .bits_per_key(20.0)
            .max_range(l)
            .seed(7),
        &RosettaTuning {
            sample_tuned: false,
        },
    )
    .unwrap();
    let snarf = Snarf::build(&FilterConfig::new(&keys).bits_per_key(20.0)).unwrap();
    let surf = Surf::build_with(&FilterConfig::new(&keys), &real_suffixes(9)).unwrap();
    let bucketing = BucketingFilter::build(&FilterConfig::new(&keys).bits_per_key(20.0)).unwrap();

    let fpr_grafite = fpr(&grafite, &correlated);
    let fpr_rosetta = fpr(&rosetta, &correlated);
    let fpr_snarf = fpr(&snarf, &correlated);
    let fpr_surf = fpr(&surf, &correlated);
    let fpr_bucketing = fpr(&bucketing, &correlated);

    // Robust filters stay bounded.
    assert!(fpr_grafite <= 20e-4, "Grafite correlated FPR {fpr_grafite}");
    assert!(fpr_rosetta <= 0.2, "Rosetta correlated FPR {fpr_rosetta}");
    // Heuristics provide (almost) no filtering (paper: FPR -> 1 past D=0.4).
    assert!(fpr_snarf > 0.9, "SNARF should collapse, FPR {fpr_snarf}");
    assert!(fpr_surf > 0.9, "SuRF should collapse, FPR {fpr_surf}");
    assert!(
        fpr_bucketing > 0.9,
        "Bucketing should collapse, FPR {fpr_bucketing}"
    );
    // Grafite dominates Rosetta by at least an order of magnitude.
    assert!(
        fpr_grafite * 10.0 <= fpr_rosetta + 1e-6,
        "Grafite {fpr_grafite} not well below Rosetta {fpr_rosetta}"
    );
}

/// Figure 4's headline: on uncorrelated workloads, plain Bucketing matches
/// the sophisticated heuristics.
#[test]
fn bucketing_competitive_on_uncorrelated() {
    let keys = generate(Dataset::Uniform, 30_000, 5);
    let l = 32u64;
    let queries = uncorrelated_queries(&keys, 10_000, l, 11);

    let bucketing = BucketingFilter::build(&FilterConfig::new(&keys).bits_per_key(18.0)).unwrap();
    let snarf = Snarf::build(&FilterConfig::new(&keys).bits_per_key(18.0)).unwrap();
    let surf = Surf::build_with(&FilterConfig::new(&keys), &real_suffixes(7)).unwrap();

    let fpr_bucketing = fpr(&bucketing, &queries);
    let fpr_snarf = fpr(&snarf, &queries);
    let fpr_surf = fpr(&surf, &queries);

    // "Very close to or better than the best heuristic": within a small
    // additive slack of the best.
    let best = fpr_snarf.min(fpr_surf);
    assert!(
        fpr_bucketing <= best + 0.01,
        "Bucketing {fpr_bucketing} vs best heuristic {best} (SNARF {fpr_snarf}, SuRF {fpr_surf})"
    );
}

/// Corollary 3.5's scaling: doubling the budget squares away the FPR
/// (each extra bit halves it), on every dataset.
#[test]
fn grafite_fpr_halves_per_budget_bit() {
    for dataset in [Dataset::Uniform, Dataset::Books, Dataset::Osm] {
        let keys = generate(dataset, 30_000, 9);
        let l = 1024u64;
        let queries = uncorrelated_queries(&keys, 20_000, l, 13);
        let mut prev = f64::INFINITY;
        for bpk in [12.0, 14.0, 16.0] {
            let filter = GrafiteFilter::build(&FilterConfig::new(&keys).bits_per_key(bpk)).unwrap();
            let rate = fpr(&filter, &queries);
            let bound = filter.fpp_for_range_size(l);
            assert!(
                rate <= bound * 1.6 + 0.002,
                "{}: {rate} > bound {bound}",
                dataset.name()
            );
            assert!(
                rate <= prev,
                "{}: FPR must not grow with budget",
                dataset.name()
            );
            prev = rate;
        }
    }
}

/// The Fb case study (§6.1): at 12 bits/key on Fb-like density, Grafite is
/// (near-)exact while heuristics still err.
#[test]
fn fb_case_study_grafite_near_exact() {
    let keys = generate(Dataset::Fb, 30_000, 17);
    let l = 32u64;
    let queries = correlated_queries(&keys, 10_000, l, 0.8, 23);
    let grafite = GrafiteFilter::build(&FilterConfig::new(&keys).bits_per_key(12.0)).unwrap();
    let rate = fpr(&grafite, &queries);
    assert!(
        rate <= 2e-3,
        "Grafite on Fb at 12 bpk should be near-exact, got {rate}"
    );
}

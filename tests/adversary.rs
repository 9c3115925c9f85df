//! The paper's threat model made concrete (§1, §6.7): "malicious users can
//! artificially issue these queries with just the knowledge of (a subset
//! of) the keys", aiming to drive the false-positive rate — and hence the
//! disk/network traffic the filter guards — towards 100%.
//!
//! The adversary here knows 10% of the keys and crafts empty ranges hugging
//! them as tightly as possible. Heuristic filters are defeated; Grafite's
//! FPR cannot exceed its `ℓ/2^(B−2)` bound *whatever* the adversary does,
//! because the bound only uses the randomness of the drawn hash, never the
//! query distribution.

use grafite::{BucketingFilter, BuildableFilter, FilterConfig, GrafiteFilter, RangeFilter};
use grafite_filters::{Snarf, SuffixStyle, Surf, SurfTuning};
use grafite_workloads::{datasets::Dataset, generate};

/// Builds the tightest empty ranges next to each leaked key.
fn adversarial_queries(all_keys: &[u64], leaked: &[u64], l: u64) -> Vec<(u64, u64)> {
    let mut queries = Vec::new();
    for &k in leaked {
        // Hug the key from above: [k+1, k+l]; keep only truly empty ranges
        // (the adversary can check emptiness against their leaked subset
        // only, but we filter exactly to measure a true FPR).
        let lo = k + 1;
        let hi = k + l;
        let i = all_keys.partition_point(|&x| x < lo);
        if i >= all_keys.len() || all_keys[i] > hi {
            queries.push((lo, hi));
        }
        // And from below.
        let lo = k.saturating_sub(l);
        let hi = k - 1;
        if k > 0 {
            let i = all_keys.partition_point(|&x| x < lo);
            if i >= all_keys.len() || all_keys[i] > hi {
                queries.push((lo, hi));
            }
        }
    }
    queries
}

#[test]
fn adversary_with_leaked_keys_cannot_break_grafite() {
    let keys = generate(Dataset::Uniform, 30_000, 77);
    let leaked: Vec<u64> = keys.iter().copied().step_by(10).collect();
    let l = 32u64;
    let queries = adversarial_queries(&keys, &leaked, l);
    assert!(queries.len() > 4000, "adversary found too few empty ranges");

    let budget = 18.0;
    let grafite = GrafiteFilter::build(&FilterConfig::new(&keys).bits_per_key(budget)).unwrap();
    let snarf = Snarf::build(&FilterConfig::new(&keys).bits_per_key(budget)).unwrap();
    let surf = Surf::build_with(
        &FilterConfig::new(&keys),
        &SurfTuning {
            style: SuffixStyle::Real,
            suffix_bits: Some(7),
        },
    )
    .unwrap();
    let bucketing = BucketingFilter::build(&FilterConfig::new(&keys).bits_per_key(budget)).unwrap();

    let fpr = |f: &dyn RangeFilter| {
        queries
            .iter()
            .filter(|&&(a, b)| f.may_contain_range(a, b))
            .count() as f64
            / queries.len() as f64
    };

    // The heuristics are routed around: almost every crafted query passes.
    assert!(fpr(&snarf) > 0.95, "SNARF under attack: {}", fpr(&snarf));
    assert!(fpr(&surf) > 0.95, "SuRF under attack: {}", fpr(&surf));
    assert!(
        fpr(&bucketing) > 0.95,
        "Bucketing under attack: {}",
        fpr(&bucketing)
    );

    // Grafite holds its Corollary 3.5 bound against the same adversary.
    let bound = grafite.fpp_for_range_size(l);
    let got = fpr(&grafite);
    assert!(
        got <= bound * 1.6 + 0.002,
        "Grafite under attack: {got} vs bound {bound}"
    );
}

/// Even an adversary who knows *every* key (and the filter's public
/// parameters except the hash seed) stays below the bound in expectation
/// over the seed; with a pinned seed we simply verify the bound on the
/// strongest query set they could craft without evaluating h.
#[test]
fn full_knowledge_adversary_still_bounded() {
    let keys = generate(Dataset::Uniform, 20_000, 5);
    let l = 64u64;
    let queries = adversarial_queries(&keys, &keys, l);
    let grafite =
        GrafiteFilter::build(&FilterConfig::new(&keys).bits_per_key(20.0).seed(0xFEED)).unwrap();
    let fps = queries
        .iter()
        .filter(|&&(a, b)| grafite.may_contain_range(a, b))
        .count();
    let fpr = fps as f64 / queries.len() as f64;
    let bound = grafite.fpp_for_range_size(l);
    assert!(fpr <= bound * 1.6 + 0.002, "FPR {fpr} vs bound {bound}");
}

//! Property tests for the paper's two filters: the no-false-negative
//! invariant must hold for arbitrary key sets, budgets, and query ranges.

use grafite_core::sort::partition_radix_sort;
use grafite_core::{
    BucketingFilter, BucketingTuning, BuildableFilter, FilterConfig, GrafiteFilter, RangeFilter,
    StringGrafite,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For every key k in the set and every query range containing k,
    /// Grafite must answer "not empty".
    #[test]
    fn grafite_never_false_negative(
        keys in prop::collection::vec(any::<u64>(), 1..400),
        bpk in 3.0f64..24.0,
        seed in any::<u64>(),
        offsets in prop::collection::vec((0u64..5000, 0u64..5000), 1..40),
    ) {
        let f = GrafiteFilter::build(&FilterConfig::new(&keys).bits_per_key(bpk).seed(seed)).unwrap();
        for (i, &(dl, dr)) in offsets.iter().enumerate() {
            let k = keys[i % keys.len()];
            let a = k.saturating_sub(dl);
            let b = k.saturating_add(dr);
            prop_assert!(f.may_contain_range(a, b), "FN: key {} in [{}, {}]", k, a, b);
        }
    }

    /// Same for Bucketing.
    #[test]
    fn bucketing_never_false_negative(
        keys in prop::collection::vec(any::<u64>(), 1..400),
        bpk in 1.0f64..24.0,
        offsets in prop::collection::vec((0u64..5000, 0u64..5000), 1..40),
    ) {
        let f = BucketingFilter::build(&FilterConfig::new(&keys).bits_per_key(bpk)).unwrap();
        for (i, &(dl, dr)) in offsets.iter().enumerate() {
            let k = keys[i % keys.len()];
            let a = k.saturating_sub(dl);
            let b = k.saturating_add(dr);
            prop_assert!(f.may_contain_range(a, b), "FN: key {} in [{}, {}]", k, a, b);
        }
    }

    /// Bucketing with explicit s must agree exactly with the naive
    /// bucket-bitmap semantics (both positives and negatives).
    #[test]
    fn bucketing_matches_bitmap_semantics(
        keys in prop::collection::vec(0u64..100_000, 1..200),
        s in 1u64..5000,
        queries in prop::collection::vec((0u64..100_000, 0u64..2000), 1..60),
    ) {
        let tuning = BucketingTuning { bucket_size: Some(s) };
        let f = BucketingFilter::build_with(&FilterConfig::new(&keys), &tuning).unwrap();
        let buckets: std::collections::HashSet<u64> = keys.iter().map(|&k| k / s).collect();
        for &(a, w) in &queries {
            let b = a + w;
            let expect = (a / s..=b / s).any(|bk| buckets.contains(&bk));
            prop_assert_eq!(f.may_contain_range(a, b), expect, "s={} [{}, {}]", s, a, b);
        }
    }

    /// Grafite's approximate count never undercounts the distinct keys in
    /// the range when they hash without in-range collisions; in general it
    /// is >= 1 whenever the range is non-empty.
    #[test]
    fn grafite_count_lower_bounded(
        keys in prop::collection::vec(any::<u64>(), 1..200),
        seed in any::<u64>(),
        widths in prop::collection::vec(0u64..10_000, 1..30),
    ) {
        let f = GrafiteFilter::build(&FilterConfig::new(&keys).bits_per_key(20.0).seed(seed)).unwrap();
        for (i, &w) in widths.iter().enumerate() {
            let k = keys[i % keys.len()];
            let a = k.saturating_sub(w);
            let b = k.saturating_add(w);
            prop_assert!(f.approx_range_count(a, b) >= 1, "count 0 but key {} in [{}, {}]", k, a, b);
        }
    }

    /// The string filter inherits no-false-negatives through the monotone
    /// embedding.
    #[test]
    fn string_grafite_never_false_negative(
        keys in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..20), 1..100),
        bpk in 3.0f64..20.0,
        seed in any::<u64>(),
    ) {
        let f = StringGrafite::new(&keys, bpk, seed).unwrap();
        for k in &keys {
            prop_assert!(f.may_contain(k), "FN on {:?}", k);
        }
        // Ranges bounded by two existing keys always contain a key.
        let mut sorted = keys.clone();
        sorted.sort();
        let lo = &sorted[0];
        let hi = &sorted[sorted.len() - 1];
        prop_assert!(f.may_contain_range(lo, hi));
    }

    /// The partitioned parallel radix sort agrees with `sort_unstable`
    /// for every thread count, including inputs engineered to starve the
    /// top-byte partition phase (shared high bytes, saturating values).
    #[test]
    fn partition_radix_sort_matches_std(
        mut data in prop::collection::vec(any::<u64>(), 0..3000),
        threads in 1usize..10,
        skew in 0u64..4,
    ) {
        // Skew 1: collapse everything into one top-byte partition.
        // Skew 2: two partitions, one huge. Skew 3: saturate extremes.
        match skew {
            1 => data.iter_mut().for_each(|v| *v |= 0xFF << 56),
            2 => data.iter_mut().enumerate().for_each(|(i, v)| {
                *v = if i % 17 == 0 { *v | (1 << 63) } else { *v & !(0xFFu64 << 56) };
            }),
            3 => data.iter_mut().enumerate().for_each(|(i, v)| {
                if i % 3 == 0 { *v = u64::MAX } else if i % 3 == 1 { *v = 0 }
            }),
            _ => {}
        }
        let mut expect = data.clone();
        expect.sort_unstable();
        partition_radix_sort(&mut data, threads);
        prop_assert_eq!(data, expect, "threads={}, skew={}", threads, skew);
    }

    /// Grafite's FPP bound is monotone in the range size and matches the
    /// closed formula.
    #[test]
    fn fpp_formula_monotone(n in 1usize..10_000, bpk in 3.0f64..20.0) {
        let keys: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9E3779B97F4A7C15)).collect();
        let f = GrafiteFilter::build(&FilterConfig::new(&keys).bits_per_key(bpk)).unwrap();
        let mut prev = 0.0f64;
        for l in [1u64, 2, 16, 256, 1 << 20] {
            let fpp = f.fpp_for_range_size(l);
            prop_assert!(fpp >= prev);
            prop_assert!(fpp <= 1.0);
            prev = fpp;
        }
    }
}

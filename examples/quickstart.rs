//! Quickstart: build a Grafite range filter through the unified
//! `FilterConfig`/`BuildableFilter` API and query it — one at a time and
//! batched.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use grafite::grafite_core::GrafiteTuning;
use grafite::{BuildableFilter, FilterConfig, GrafiteFilter, RangeFilter};

fn main() {
    // A key set — e.g. the keys of one LSM run, timestamps of stored events…
    let keys: Vec<u64> = (0..1_000_000u64).map(|i| i * 12_345 % (1 << 44)).collect();

    // Knob 1: a space budget. 16 bits per key means FPP <= l / 2^14 for a
    // query range of size l (Corollary 3.5) — no tuning, no workload sample.
    let cfg = FilterConfig::new(&keys).bits_per_key(16.0);
    let filter = GrafiteFilter::build(&cfg).expect("valid configuration");

    println!(
        "built Grafite over {} keys: {:.2} bits/key, reduced universe r = {}",
        filter.num_keys(),
        filter.bits_per_key(),
        filter.reduced_universe()
    );

    // Point and range queries. Never a false negative:
    assert!(filter.may_contain(12_345));
    assert!(filter.may_contain_range(12_340, 12_350));

    // Knob 2 (alternative): a target FPP at a max range size, through the
    // typed per-filter tuning (Theorem 3.4 sizing).
    let cfg2 = FilterConfig::new(&keys).max_range(1 << 10);
    let filter2 = GrafiteFilter::build_with(
        &cfg2,
        &GrafiteTuning {
            epsilon: Some(0.01),
            ..GrafiteTuning::default()
        },
    )
    .unwrap();
    println!(
        "epsilon-configured filter: {:.2} bits/key, FPP bound at l=1024: {:.4}",
        filter2.bits_per_key(),
        filter2.fpp_for_range_size(1 << 10)
    );

    // Measure the empirical false-positive rate on empty ranges — with the
    // batch API, whose answers are identical to the scalar path.
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    sorted.dedup();
    let mut queries: Vec<(u64, u64)> = Vec::new();
    let mut state = 0xDEADBEEFu64;
    while queries.len() < 100_000 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let a = state % (1 << 45);
        let b = a + 31;
        let i = sorted.partition_point(|&k| k < a);
        if i < sorted.len() && sorted[i] <= b {
            continue; // not an empty range
        }
        queries.push((a, b));
    }
    queries.sort_unstable();
    let mut answers = Vec::new();
    filter.may_contain_ranges(&queries, &mut answers);
    let fps = answers.iter().filter(|&&hit| hit).count();
    println!(
        "empirical FPR on {} empty 32-ranges (batched): {:.2e} (bound: {:.2e})",
        queries.len(),
        fps as f64 / queries.len() as f64,
        filter.fpp_for_range_size(32)
    );
}

//! Criterion microbenchmark: the serving store's query and update paths.
//!
//! Measures (a) batched snapshot queries as the shard count grows — the
//! routing overhead over a bare single filter — and (b) `apply`
//! latency when an update batch dirties exactly one of the shards, which is
//! the store's incremental-rebuild selling point over a full rebuild.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use grafite_bench::registry::standard;
use grafite_core::registry::FilterSpec;
use grafite_store::{FamilySpec, FilterStore, Partitioning, StoreConfig, Update};
use grafite_workloads::{datasets::Dataset, generate, uncorrelated_queries};

fn serving_store(c: &mut Criterion) {
    let n = 100_000;
    let keys = generate(Dataset::Uniform, n, 42);
    let queries: Vec<(u64, u64)> = uncorrelated_queries(&keys, 16_384, 32, 7)
        .iter()
        .map(|q| (q.lo, q.hi))
        .collect();
    let registry = standard();
    let family = FamilySpec::Registry(FilterSpec::Grafite);

    let mut group = c.benchmark_group("serving_store");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .throughput(Throughput::Elements(queries.len() as u64));
    for shards in [1usize, 4, 16] {
        let config = StoreConfig::new(family)
            .bits_per_key(16.0)
            .max_range(32)
            .seed(42)
            .partitioning(Partitioning::Range { shards });
        let store = FilterStore::build(registry, config, &keys).expect("feasible");
        let snap = store.snapshot();
        group.bench_with_input(
            BenchmarkId::new("query_ranges", format!("shards={shards}")),
            &queries,
            |b, queries| {
                let mut out = Vec::with_capacity(queries.len());
                b.iter(|| {
                    snap.query_ranges(black_box(queries), &mut out);
                    out.len()
                })
            },
        );
    }
    group.finish();

    // Update latency: one dirty shard out of 8 (the store rebuilds ~n/8
    // keys instead of n). Each iteration is exactly ONE apply — the same
    // fresh key toggles between inserted and deleted — so the reported
    // time is one single-dirty-shard rebuild, and the shard's key count
    // only ever differs by one from the base.
    let mut group = c.benchmark_group("serving_store_apply");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    let config = StoreConfig::new(family)
        .bits_per_key(16.0)
        .max_range(32)
        .seed(42)
        .partitioning(Partitioning::Range { shards: 8 });
    let store = FilterStore::build(registry, config, &keys).expect("feasible");
    let snap = store.snapshot();
    let mut fresh = snap.routing().shard_span(0).0;
    while snap.shards()[0]
        .holds_key(fresh, fresh)
        .expect("built shards hold their keys in memory")
    {
        fresh += 1;
    }
    let mut present = false;
    group.bench_function("one_dirty_shard_of_8", |b| {
        b.iter(|| {
            let update = if present {
                Update::Delete(fresh)
            } else {
                Update::Insert(fresh)
            };
            present = !present;
            let r = store.apply(black_box(&[update])).expect("apply");
            r.rebuilt_keys
        })
    });
    group.finish();
    // Leave the store as built.
    if present {
        store.apply(&[Update::Delete(fresh)]).expect("cleanup");
    }
}

criterion_group!(benches, serving_store);
criterion_main!(benches);

//! Criterion microbenchmarks of the succinct hot path: position-sampled
//! `select0`/`select1`, branch-free `rank1`, the dispatched SIMD kernels at
//! every level the host supports, and the `EfCursor` sorted-batch walk
//! against per-probe restarts of the fused predecessor (the single-probe
//! `predecessor` itself is raced against uncompressed alternatives in
//! `benches/ef_predecessor.rs`).
//!
//! The paper-scale regime mirrors Grafite at ~16 bits/key: n = 1M codes in
//! a universe of n·2^14, which puts the Elias–Fano high bits at the ~1/3
//! set-bit density every Grafite query probes.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use grafite_succinct::simd;
use grafite_succinct::{BitVec, EliasFano, RsBitVec};
use grafite_workloads::WorkloadRng;

const N: usize = 1_000_000;
const PROBE_COUNT: usize = 8192;

fn paper_scale_values(rng: &mut WorkloadRng, universe: u64) -> Vec<u64> {
    let mut values: Vec<u64> = (0..N).map(|_| rng.below(universe)).collect();
    values.sort_unstable();
    values.dedup();
    values
}

fn bench_rank_select(c: &mut Criterion) {
    let mut rng = WorkloadRng::new(3);
    // EF-high-like density: one set bit every ~3 positions.
    let dense: BitVec = (0..3 * N).map(|_| rng.below(3) == 0).collect();
    // Sparse: one set bit every ~600 positions (samples span many blocks).
    let sparse: BitVec = (0..3 * N).map(|_| rng.below(600) == 0).collect();

    for (name, bits) in [("dense_third", dense), ("sparse_600", sparse)] {
        let rs = RsBitVec::new(bits);
        let positions: Vec<usize> = (0..PROBE_COUNT)
            .map(|_| rng.below(rs.len() as u64) as usize)
            .collect();
        let ones_ks: Vec<usize> = (0..PROBE_COUNT)
            .map(|_| rng.below(rs.count_ones() as u64) as usize)
            .collect();
        let zeros_ks: Vec<usize> = (0..PROBE_COUNT)
            .map(|_| rng.below(rs.count_zeros() as u64) as usize)
            .collect();

        let mut group = c.benchmark_group(format!("rs_bitvec_{name}"));
        group
            .sample_size(30)
            .warm_up_time(Duration::from_millis(300))
            .measurement_time(Duration::from_secs(1));
        group.bench_function("rank1", |b| {
            let mut i = 0;
            b.iter(|| {
                let pos = positions[i % positions.len()];
                i += 1;
                std::hint::black_box(rs.rank1(pos))
            })
        });
        group.bench_function("select1", |b| {
            let mut i = 0;
            b.iter(|| {
                let k = ones_ks[i % ones_ks.len()];
                i += 1;
                std::hint::black_box(rs.select1(k))
            })
        });
        group.bench_function("select0", |b| {
            let mut i = 0;
            b.iter(|| {
                let k = zeros_ks[i % zeros_ks.len()];
                i += 1;
                std::hint::black_box(rs.select0(k))
            })
        });
        group.finish();
    }
}

/// Each vectorized succinct kernel at every dispatch level the host
/// supports, on identical probe sequences — the per-kernel speedup table.
fn bench_simd_kernels(c: &mut Criterion) {
    let mut rng = WorkloadRng::new(11);
    let words: Vec<u64> = (0..4096).map(|_| rng.next_u64()).collect();
    let rank_probes: Vec<(usize, usize)> = (0..PROBE_COUNT)
        .map(|_| {
            (
                rng.below((words.len() - 8) as u64) as usize,
                rng.below(513) as usize,
            )
        })
        .collect();
    let sel_probes: Vec<(u64, u32)> = (0..PROBE_COUNT)
        .map(|_| {
            let w = rng.next_u64() | 1;
            (w, rng.below(w.count_ones() as u64) as u32)
        })
        .collect();
    // Near-max targets force full-run scans (the adversarial
    // duplicated-bucket regime); uniform targets early-exit in ~2 fields.
    let width = 14usize;
    let fields = words.len() * 64 / width - 2;
    let mask = (1u64 << width) - 1;
    let lp_probes: Vec<(usize, usize, u64)> = (0..PROBE_COUNT)
        .map(|_| {
            let start = rng.below((fields - 64) as u64) as usize;
            (
                start,
                start + 1 + rng.below(63) as usize,
                mask - rng.below(4),
            )
        })
        .collect();

    for level in simd::available_levels() {
        let mut group = c.benchmark_group(format!("simd_kernels_{}", level.name()));
        group
            .sample_size(30)
            .warm_up_time(Duration::from_millis(300))
            .measurement_time(Duration::from_secs(1));
        group.bench_function("rank1_x8", |b| {
            let mut i = 0;
            b.iter(|| {
                let (w, upto) = rank_probes[i % rank_probes.len()];
                i += 1;
                std::hint::black_box(simd::rank1_x8_at(level, &words[w..w + 8], upto))
            })
        });
        group.bench_function("select_in_word", |b| {
            let mut i = 0;
            b.iter(|| {
                let (w, k) = sel_probes[i % sel_probes.len()];
                i += 1;
                std::hint::black_box(simd::select_in_word_at(level, w, k))
            })
        });
        group.bench_function("low_partition", |b| {
            let mut i = 0;
            b.iter(|| {
                let (s, e, y) = lp_probes[i % lp_probes.len()];
                i += 1;
                std::hint::black_box(simd::low_partition_at(level, &words, width, s, e, y, false))
            })
        });
        group.finish();
    }
}

fn bench_cursor_batch(c: &mut Criterion) {
    let universe = (N as u64) << 14; // ~16 bits/key Elias-Fano regime
    let mut rng = WorkloadRng::new(7);
    let values = paper_scale_values(&mut rng, universe);
    let ef = EliasFano::new(&values, universe);
    let mut sorted_probes: Vec<u64> = (0..PROBE_COUNT).map(|_| rng.below(universe)).collect();
    sorted_probes.sort_unstable();

    // Whole-batch comparison: the cursor's monotone walk over sorted probes
    // versus restarting a fused probe per query.
    let mut group = c.benchmark_group("ef_batch_8k_sorted");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .throughput(Throughput::Elements(sorted_probes.len() as u64));
    group.bench_function("cursor_monotone", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            let mut cur = ef.cursor();
            for &y in &sorted_probes {
                if cur.predecessor(y).is_some() {
                    hits += 1;
                }
            }
            std::hint::black_box(hits)
        })
    });
    group.bench_function("per_probe_restart", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for &y in &sorted_probes {
                if ef.predecessor(y).is_some() {
                    hits += 1;
                }
            }
            std::hint::black_box(hits)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_rank_select,
    bench_simd_kernels,
    bench_cursor_batch
);
criterion_main!(benches);

//! Sorting routines for filter construction.
//!
//! Grafite's construction is sort-bound (paper Algorithm 1 and §6.6): hash
//! all keys, sort the codes, Elias–Fano-encode. The paper notes that faster
//! or parallel sorts translate directly into construction speedups (their
//! §6.6 reports 1.5–2.0× with 2–8 threads). We provide three interchangeable
//! sorts for the §6.6 ablation:
//!
//! * [`std_sort`] — `slice::sort_unstable` (pdqsort), the default;
//! * [`radix_sort`] — an LSD radix sort with 8-bit digits;
//! * [`partition_radix_sort`] — an MSD counting partition into disjoint
//!   output ranges, then per-partition LSD radix on `std::thread::scope`
//!   workers. No k-way merge: the partitions are already in global order,
//!   so workers never synchronize on data, and every pass over the data
//!   but the varying-bits scan runs on the workers. This is the sort the
//!   Grafite hash→sort→encode build path runs.
//!
//! # The partition digit
//!
//! Grafite codes live in `[0, r)` with `r = n·2^(B−2)`: a 125k-key shard at
//! 16 bits/key has codes below 2^31, so their top byte is always zero. A
//! partition on bits 56–63 would put every code into one partition and one
//! worker. [`partition_radix_sort`] instead partitions on the 8 bits just
//! below the highest bit in which the input varies, found as the OR of
//! every `x ^ data[0]`. Bits above that one are equal across the input, so
//! ordering by the partition digit and then by the bits below it is the
//! global order, whatever range the values occupy. An input with no
//! varying bit is already sorted and returns at once.
//!
//! # One-pass histograms
//!
//! An LSD radix sort's digit histograms do not depend on the order of the
//! values, so all of them are counted in one read pass before the first
//! scatter. A digit whose histogram puts every value into one bucket is
//! constant across the input, and its scatter pass is skipped without
//! reading the data again. Digits above the highest varying bit are not
//! counted at all.

use std::ops::Range;

/// Below this input size [`partition_radix_sort`] runs the serial
/// [`radix_sort`] regardless of the requested thread count: thread spawn
/// and histogram overhead (~tens of µs) cannot pay for itself on inputs
/// that sort in less than that.
pub const PARTITION_PARALLEL_MIN: usize = 1 << 15;

/// Sorts in place with the standard unstable sort.
pub fn std_sort(data: &mut [u64]) {
    data.sort_unstable();
}

/// LSD radix sort with 8-bit digits (at most 8 stable counting passes).
///
/// Skips passes whose digit is constant across the input — on keys from a
/// small universe this makes it adaptive. The scatter passes ping-pong
/// between `data` and a scratch buffer instead of copying the buffer back
/// after every pass; a single final copy runs only when an odd number of
/// scatter passes left the result in the scratch side.
pub fn radix_sort(data: &mut [u64]) {
    let mut buf = vec![0u64; data.len()];
    radix_sort_with_scratch(data, &mut buf);
}

/// [`radix_sort`] with a caller-provided scratch buffer (`buf.len() >=
/// data.len()`), so a caller sorting many inputs reuses one allocation.
///
/// # Panics
/// Panics if `buf` is shorter than `data`.
pub fn radix_sort_with_scratch(data: &mut [u64], buf: &mut [u64]) {
    let n = data.len();
    assert!(buf.len() >= n, "scratch buffer shorter than input");
    let buf = &mut buf[..n];
    let bits = significant_bits(varying_bits(data));
    // An even number of scatter passes lands back in `data`; otherwise the
    // sorted run sits in the scratch buffer and needs the one copy.
    if lsd_ping_pong(data, buf, bits, &mut [[0; 256]; 8]) {
        data.copy_from_slice(buf);
    }
}

/// The bits in which the values of `data` differ: the OR of every
/// `x ^ data[0]`. Zero when `data` holds fewer than two distinct values.
fn varying_bits(data: &[u64]) -> u64 {
    let Some(&first) = data.first() else {
        return 0;
    };
    data.iter().fold(0, |acc, &x| acc | (x ^ first))
}

/// The number of low bits a sort has to look at: one past the highest set
/// bit of `varying`.
fn significant_bits(varying: u64) -> u32 {
    64 - varying.leading_zeros()
}

/// One 256-bucket histogram per 8-bit digit of a `u64`.
type DigitCounts = [[usize; 256]; 8];

/// Where each bucket's run starts when the buckets of `counts` are laid
/// out in order from `base`: its exclusive prefix sums.
fn bucket_starts(counts: &[usize; 256], base: usize) -> [usize; 256] {
    let mut starts = [0usize; 256];
    let mut acc = base;
    for (start, &count) in starts.iter_mut().zip(counts) {
        *start = acc;
        acc += count;
    }
    starts
}

/// LSD-sorts `a` on its low `bits` bits, ping-ponging with `b` (same
/// length), and returns whether the sorted run ended in `b`. The caller
/// guarantees that the bits at and above `bits` are equal across `a`.
/// `counts` is reusable histogram space; only the digits in play are
/// cleared and counted.
fn lsd_ping_pong(a: &mut [u64], b: &mut [u64], bits: u32, counts: &mut DigitCounts) -> bool {
    let n = a.len();
    let digits = (bits.div_ceil(8) as usize).min(8);
    if n <= 1 || digits == 0 {
        return false;
    }
    let counts = &mut counts[..digits];
    counts.iter_mut().for_each(|hist| hist.fill(0));
    // Every digit histogram in one read pass.
    for &x in a.iter() {
        for d in 0..digits {
            counts[d][((x >> (8 * d)) & 0xFF) as usize] += 1;
        }
    }
    let mut in_b = false;
    let (mut src, mut dst) = (a, b);
    for (d, hist) in counts.iter().enumerate() {
        let shift = 8 * d as u32;
        if hist[((src[0] >> shift) & 0xFF) as usize] == n {
            continue; // constant digit: nothing to do this pass
        }
        let mut offsets = bucket_starts(hist, 0);
        for &x in src.iter() {
            let digit = ((x >> shift) & 0xFF) as usize;
            dst[offsets[digit]] = x;
            offsets[digit] += 1;
        }
        std::mem::swap(&mut src, &mut dst);
        in_b = !in_b;
    }
    in_b
}

/// The shift of the partition digit: the 8 bits just below the highest
/// varying bit, or bits 0–7 when fewer than 8 bits vary.
fn partition_shift(varying: u64) -> u32 {
    significant_bits(varying).saturating_sub(8)
}

/// Phase 1 of [`partition_radix_sort`]: each scoped worker counts the
/// partition digits of one `chunk_len` chunk of `data` and scatters the
/// chunk, stably and by digit, into the matching chunk of `scratch`.
/// Returns each chunk's histogram.
fn scatter_chunks(
    data: &[u64],
    scratch: &mut [u64],
    shift: u32,
    chunk_len: usize,
) -> Vec<[usize; 256]> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = data
            .chunks(chunk_len)
            .zip(scratch.chunks_mut(chunk_len))
            .map(|(src, dst)| {
                scope.spawn(move || {
                    let mut counts = [0usize; 256];
                    for &x in src {
                        counts[((x >> shift) & 0xFF) as usize] += 1;
                    }
                    let mut cursors = bucket_starts(&counts, 0);
                    for &x in src {
                        let d = ((x >> shift) & 0xFF) as usize;
                        dst[cursors[d]] = x;
                        cursors[d] += 1;
                    }
                    counts
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("scatter worker panicked"))
            .collect()
    })
}

/// Splits the 256 partition digits into at most `threads` contiguous digit
/// ranges of roughly `n/threads` values each (the last range absorbs any
/// remainder), so each worker owns one contiguous range of the output.
fn group_partitions(counts: &[usize; 256], n: usize, threads: usize) -> Vec<Range<usize>> {
    let target = n.div_ceil(threads);
    let mut groups = Vec::with_capacity(threads);
    let (mut from, mut total) = (0usize, 0usize);
    for (d, &count) in counts.iter().enumerate() {
        if total > 0 && total + count > target && groups.len() + 1 < threads {
            groups.push(from..d);
            (from, total) = (d, 0);
        }
        total += count;
    }
    groups.push(from..256);
    groups
}

/// Parallel partition-then-sort. The input splits on the partition digit
/// (see the module docs) into up to 256 partitions that are *already in
/// global order*, in two scoped phases with no merge step:
///
/// 1. Each worker counts and stably scatters one chunk of the input by
///    digit into its own chunk of a scratch buffer.
/// 2. Each worker owns a contiguous range of digits, and so a contiguous
///    range of the output. Per partition it gathers the partition's pieces
///    from every chunk (in chunk order, so the gather is stable) into a
///    small reusable buffer, then LSD-radix-sorts it on the bits below the
///    digit, ping-ponging into its output range so the result lands in
///    `data`.
///
/// Workers write only to memory they own, so the only serial work is the
/// varying-bits scan and the 256-entry offset sums.
///
/// The result is identical to `sort_unstable` (and therefore to
/// [`radix_sort`]) for **every** input and thread count: `u64` has one
/// representation per value, so any correct sort yields the same bytes.
/// `threads <= 1` or small inputs take the serial [`radix_sort`] directly.
pub fn partition_radix_sort(data: &mut [u64], threads: usize) {
    let n = data.len();
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 || n < PARTITION_PARALLEL_MIN {
        radix_sort(data);
        return;
    }
    let varying = varying_bits(data);
    if varying == 0 {
        return; // every value is equal
    }
    let shift = partition_shift(varying);
    let chunk_len = n.div_ceil(threads);
    let mut scratch = vec![0u64; n];
    let chunk_counts = scatter_chunks(data, &mut scratch, shift, chunk_len);

    // Where partition `d`'s piece of chunk `c` starts in `scratch`.
    let piece_starts: Vec<[usize; 256]> = chunk_counts
        .iter()
        .enumerate()
        .map(|(c, local)| bucket_starts(local, c * chunk_len))
        .collect();
    let mut counts = [0usize; 256];
    for local in &chunk_counts {
        counts
            .iter_mut()
            .zip(local)
            .for_each(|(total, l)| *total += l);
    }

    let groups = group_partitions(&counts, n, threads);
    let (scratch, counts) = (&scratch, &counts);
    let (chunk_counts, piece_starts) = (&chunk_counts, &piece_starts);
    std::thread::scope(|scope| {
        let mut rest: &mut [u64] = data;
        for digits in groups {
            let total: usize = counts[digits.clone()].iter().sum();
            let (mut out, tail) = std::mem::take(&mut rest).split_at_mut(total);
            rest = tail;
            scope.spawn(move || {
                let mut buf: Vec<u64> = Vec::new();
                let mut hist = [[0; 256]; 8];
                for d in digits {
                    let (part, tail) = std::mem::take(&mut out).split_at_mut(counts[d]);
                    out = tail;
                    buf.clear();
                    for (starts, local) in piece_starts.iter().zip(chunk_counts) {
                        buf.extend_from_slice(&scratch[starts[d]..starts[d] + local[d]]);
                    }
                    // Within a partition every bit at or above `shift` is
                    // equal, so only the bits below it are sorted.
                    if !lsd_ping_pong(&mut buf, part, shift, &mut hist) {
                        part.copy_from_slice(&buf);
                    }
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_random(n: usize, seed: u64) -> Vec<u64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state
            })
            .collect()
    }

    #[test]
    fn radix_matches_std() {
        for n in [0usize, 1, 2, 100, 4097] {
            let mut a = pseudo_random(n, 42);
            let mut b = a.clone();
            a.sort_unstable();
            radix_sort(&mut b);
            assert_eq!(a, b, "n={n}");
        }
    }

    #[test]
    fn radix_small_universe_adaptive() {
        let mut data: Vec<u64> = pseudo_random(5000, 7).iter().map(|x| x % 1000).collect();
        let mut expect = data.clone();
        expect.sort_unstable();
        radix_sort(&mut data);
        assert_eq!(data, expect);
    }

    /// Exercises every ping-pong parity: 1 scatter pass (odd — result ends
    /// in the scratch side), 2 passes (even — ends in place), and mixed
    /// skipped passes between varying digits.
    #[test]
    fn radix_ping_pong_parities() {
        for modulus in [1u64 << 8, 1 << 16, 1 << 24, 1 << 40] {
            let mut data: Vec<u64> = pseudo_random(3000, 11)
                .iter()
                .map(|x| x % modulus)
                .collect();
            let mut expect = data.clone();
            expect.sort_unstable();
            radix_sort(&mut data);
            assert_eq!(data, expect, "modulus {modulus}");
        }
        // Digits varying only in bytes 0 and 3 (bytes 1-2 skipped between
        // two scatter passes).
        let mut data: Vec<u64> = pseudo_random(2000, 13)
            .iter()
            .map(|x| (x & 0xFF) | ((x >> 8) & 0xFF) << 24)
            .collect();
        let mut expect = data.clone();
        expect.sort_unstable();
        radix_sort(&mut data);
        assert_eq!(data, expect);
    }

    #[test]
    fn radix_external_scratch_is_reusable() {
        let mut buf = vec![0u64; 5000];
        for seed in [1u64, 2, 3] {
            let mut data = pseudo_random(5000, seed);
            let mut expect = data.clone();
            expect.sort_unstable();
            radix_sort_with_scratch(&mut data, &mut buf);
            assert_eq!(data, expect, "seed {seed}");
        }
    }

    #[test]
    fn partition_matches_std_across_thread_counts() {
        // Above the parallel threshold so the partitioned path actually runs.
        let n = PARTITION_PARALLEL_MIN + 4097;
        for threads in [1usize, 2, 3, 7, 8, 64] {
            let mut a = pseudo_random(n, 3);
            let mut b = a.clone();
            a.sort_unstable();
            partition_radix_sort(&mut b, threads);
            assert_eq!(a, b, "threads={threads}");
        }
    }

    /// Adversarial shapes: constant top byte (single partition), two hot
    /// partitions, already sorted, reverse sorted, all equal.
    #[test]
    fn partition_adversarial_distributions() {
        let n = PARTITION_PARALLEL_MIN + 13;
        let shapes: Vec<Vec<u64>> = vec![
            // One partition holds everything (top byte constant).
            pseudo_random(n, 5)
                .iter()
                .map(|x| x & 0x00FF_FFFF)
                .collect(),
            // Two partitions, extreme skew.
            pseudo_random(n, 6)
                .iter()
                .enumerate()
                .map(|(i, x)| {
                    if i % 17 == 0 {
                        x | (0xFFu64 << 56)
                    } else {
                        x & 0x00FF_FFFF
                    }
                })
                .collect(),
            (0..n as u64).collect(),
            (0..n as u64).rev().collect(),
            vec![0x4242_4242_4242_4242; n],
        ];
        for (i, shape) in shapes.into_iter().enumerate() {
            for threads in [2usize, 8] {
                let mut got = shape.clone();
                let mut expect = shape.clone();
                expect.sort_unstable();
                partition_radix_sort(&mut got, threads);
                assert_eq!(got, expect, "shape {i} threads {threads}");
            }
        }
    }

    /// Grafite-code-shaped and degenerate inputs just above the parallel
    /// threshold: codes below `n·2^14` and `2^35`, a common nonzero 40-bit
    /// prefix, all-equal, two distinct values, only bit 0 varying, and
    /// full-range values.
    #[test]
    fn partition_matches_std_on_code_shaped_inputs() {
        let n = PARTITION_PARALLEL_MIN + 7;
        let raw = pseudo_random(n, 17);
        let prefix = 0x00A5_C396_F1E7_u64 << 24;
        let shapes: Vec<(&str, Vec<u64>)> = vec![
            (
                "below n*2^14",
                raw.iter().map(|x| x % ((n as u64) << 14)).collect(),
            ),
            ("below 2^35", raw.iter().map(|x| x >> 29).collect()),
            (
                "40-bit prefix",
                raw.iter().map(|x| prefix | (x >> 40)).collect(),
            ),
            ("all equal", vec![0x0123_4567_89AB_CDEF; n]),
            (
                "two values",
                raw.iter()
                    .map(|x| if x >> 63 == 0 { 5 } else { 1 << 40 })
                    .collect(),
            ),
            (
                "bit 0 only",
                raw.iter().map(|x| 0xF0F0_0000 | (x >> 63)).collect(),
            ),
            ("full range", raw.clone()),
        ];
        for (name, shape) in shapes {
            let mut expect = shape.clone();
            expect.sort_unstable();
            for threads in [1usize, 2, 3, 8] {
                let mut got = shape.clone();
                partition_radix_sort(&mut got, threads);
                assert_eq!(got, expect, "{name}, threads {threads}");
            }
        }
    }

    /// Codes below 2^31 — a 125k-key shard at 16 bits/key — must spread
    /// over many partitions and give every worker a share, or the parallel
    /// path silently degenerates to one worker.
    #[test]
    fn grafite_codes_split_across_workers() {
        let n = 125_000;
        let codes: Vec<u64> = pseudo_random(n, 23).iter().map(|x| x >> 33).collect();
        let shift = partition_shift(varying_bits(&codes));
        assert_eq!(shift, 23, "partition digit should be bits 23..31");
        for threads in [2usize, 3, 8] {
            let mut scratch = vec![0; n];
            let chunk_counts = scatter_chunks(&codes, &mut scratch, shift, n.div_ceil(threads));
            let mut counts = [0usize; 256];
            for local in &chunk_counts {
                counts.iter_mut().zip(local).for_each(|(c, l)| *c += l);
            }
            let partitions = counts.iter().filter(|&&c| c > 0).count();
            assert!(partitions > 1, "all codes fell into one partition");
            let groups = group_partitions(&counts, n, threads);
            assert_eq!(groups.len(), threads, "threads {threads}: {groups:?}");
            // Every worker gets a share of roughly n/threads.
            for digits in groups {
                let share: usize = counts[digits].iter().sum();
                assert!(
                    share * threads * 2 > n,
                    "threads {threads}: share {share} of {n}"
                );
            }
        }
    }

    #[test]
    fn partition_tiny_inputs() {
        let mut v = vec![3u64, 1];
        partition_radix_sort(&mut v, 16);
        assert_eq!(v, vec![1, 3]);
        let mut v: Vec<u64> = vec![];
        partition_radix_sort(&mut v, 4);
        assert!(v.is_empty());
        let mut v = vec![9u64];
        partition_radix_sort(&mut v, 2);
        assert_eq!(v, vec![9]);
    }
}

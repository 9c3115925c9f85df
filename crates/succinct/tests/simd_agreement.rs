//! SIMD vs scalar kernel agreement: every dispatch level available on this
//! machine must answer **bit-identically** to the scalar reference on every
//! kernel, across adversarial bit densities — all-zero, all-one,
//! alternating, and runs straddling the 512-bit block boundary — plus
//! pseudo-random words at several densities. The `*_at` entry points pin
//! the level explicitly, so one test binary exercises the whole ladder
//! regardless of the process-global `GRAFITE_SIMD` setting.

use grafite_succinct::simd::{self, low_partition_at, rank1_x8_at, select_in_word_at, SimdLevel};

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// The adversarial 8-word block patterns of the issue text, plus random
/// blocks at sparse/medium/dense densities.
fn adversarial_blocks() -> Vec<[u64; 8]> {
    let mut blocks = vec![
        [0u64; 8],                                        // all-zero
        [!0u64; 8],                                       // all-one
        [0x5555_5555_5555_5555u64; 8],                    // alternating 0101…
        [0xAAAA_AAAA_AAAA_AAAAu64; 8],                    // alternating 1010…
        [0, 0, 0, !0, !0, 0, 0, 0],                       // run in the middle
        [!0, 0, 0, 0, 0, 0, 0, !0],                       // runs at both edges
        [1, 1 << 63, 1, 1 << 63, 1, 1 << 63, 1, 1 << 63], // word-boundary bits
    ];
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for density_shift in [0, 1, 3, 6] {
        for _ in 0..8 {
            let mut b = [0u64; 8];
            for w in &mut b {
                // AND-ing k random words thins density to ~2^-k.
                let mut v = xorshift(&mut state);
                for _ in 0..density_shift {
                    v &= xorshift(&mut state);
                }
                *w = v;
            }
            blocks.push(b);
        }
    }
    blocks
}

#[test]
fn levels_ladder_is_sane() {
    let levels = simd::available_levels();
    assert!(levels.contains(&SimdLevel::Scalar));
    // The process-wide level must be one we can exercise.
    assert!(levels.contains(&simd::level()));
}

#[test]
fn rank1_x8_agrees_on_all_levels() {
    let levels = simd::available_levels();
    for block in adversarial_blocks() {
        // Full blocks at every split point, plus short tail blocks of every
        // word count (the last block of a bit vector).
        for words in (0..=8).map(|k| &block[..k]) {
            for upto in 0..=512usize {
                let want = rank1_x8_at(SimdLevel::Scalar, words, upto);
                for &level in &levels {
                    assert_eq!(
                        rank1_x8_at(level, words, upto),
                        want,
                        "rank1_x8 {level:?} len={} upto={upto} block={block:?}",
                        words.len()
                    );
                }
            }
        }
    }
}

#[test]
fn select_in_word_agrees_on_all_levels() {
    let levels = simd::available_levels();
    let mut words: Vec<u64> = vec![
        !0,
        1,
        1 << 63,
        0x5555_5555_5555_5555,
        0xAAAA_AAAA_AAAA_AAAA,
        0x8000_0000_0000_0001,
        0xFFFF_0000_0000_FFFF,
    ];
    let mut state = 42u64;
    words.extend((0..200).map(|_| xorshift(&mut state) | 1));
    for &w in &words {
        for k in 0..w.count_ones() {
            let want = select_in_word_at(SimdLevel::Scalar, w, k);
            for &level in &levels {
                assert_eq!(
                    select_in_word_at(level, w, k),
                    want,
                    "select_in_word {level:?} w={w:#x} k={k}"
                );
            }
        }
    }
}

#[test]
fn low_partition_agrees_on_all_levels() {
    let levels = simd::available_levels();
    let mut state = 7u64;
    // Width sweep including boundary-straddling widths (any width not
    // dividing 64 produces fields crossing word boundaries) and the
    // extremes 1 and 63.
    for width in [1usize, 2, 3, 5, 7, 11, 13, 21, 31, 33, 47, 63] {
        let mask = (1u64 << width) - 1;
        for &(n, style) in &[(1usize, 0u8), (3, 0), (17, 1), (64, 2), (200, 1), (200, 3)] {
            // Non-decreasing fields, as the EF low array within one bucket
            // need not be — use raw values (the kernel has no ordering
            // contract: it returns the first passing index).
            let vals: Vec<u64> = (0..n)
                .map(|i| match style {
                    0 => 0,                           // all-zero fields
                    1 => xorshift(&mut state) & mask, // random
                    2 => mask,                        // all-max fields
                    _ => {
                        if i % 2 == 0 {
                            0
                        } else {
                            mask
                        }
                    } // alternating
                })
                .collect();
            let mut words = vec![0u64; (n * width).div_ceil(64) + 1];
            for (i, &v) in vals.iter().enumerate() {
                let pos = i * width;
                words[pos / 64] |= v << (pos % 64);
                if pos % 64 + width > 64 {
                    words[pos / 64 + 1] |= v >> (64 - pos % 64);
                }
            }
            let probes: Vec<u64> = vec![
                0,
                1,
                mask / 2,
                mask.saturating_sub(1),
                mask,
                xorshift(&mut state) & mask,
            ];
            for &y in &probes {
                for include_equal in [false, true] {
                    for start in [0usize, n / 3, n.saturating_sub(2)] {
                        let want = low_partition_at(
                            SimdLevel::Scalar,
                            &words,
                            width,
                            start,
                            n,
                            y,
                            include_equal,
                        );
                        for &level in &levels {
                            assert_eq!(
                                low_partition_at(level, &words, width, start, n, y, include_equal),
                                want,
                                "low_partition {level:?} width={width} n={n} style={style} \
                                 y={y} eq={include_equal} start={start}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// End-to-end agreement: a full RsBitVec + EliasFano query battery runs
/// through the process-global dispatch (whatever this machine detects,
/// possibly capped by GRAFITE_SIMD) and must match naive references —
/// the same invariant the per-kernel tests check, but through the real
/// call sites, block directories, and cursor walks. Patterns straddle
/// 512-bit block boundaries by construction.
#[test]
fn structures_agree_end_to_end_under_dispatch() {
    use grafite_succinct::{BitVec, EliasFano, RsBitVec};

    let patterns: Vec<Vec<bool>> = vec![
        (0..4096).map(|_| false).collect(),
        (0..4096).map(|_| true).collect(),
        (0..4099).map(|i| i % 2 == 0).collect(),
        (0..4096)
            .map(|i| !(500..520).contains(&(i % 512)))
            .collect(),
        (0..8192).map(|i| (i / 512) % 2 == 0).collect(),
    ];
    for pattern in patterns {
        let ones = pattern.iter().filter(|&&b| b).count();
        let rs = RsBitVec::new(pattern.iter().copied().collect::<BitVec>());
        for pos in (0..=pattern.len()).step_by(13) {
            let want = pattern[..pos].iter().filter(|&&b| b).count();
            assert_eq!(rs.rank1(pos), want, "rank1({pos})");
        }
        for k in (0..ones).step_by(11) {
            let want = pattern
                .iter()
                .enumerate()
                .filter(|(_, &b)| b)
                .nth(k)
                .unwrap()
                .0;
            assert_eq!(rs.select1(k), want, "select1({k})");
        }
    }

    let mut state = 77u64;
    let mut values: Vec<u64> = (0..6000)
        .map(|_| xorshift(&mut state) % 3_000_000)
        .collect();
    values.sort_unstable();
    values.dedup();
    let ef = EliasFano::new(&values, 3_000_000);
    let mut probes: Vec<u64> = (0..4000)
        .map(|_| xorshift(&mut state) % 3_000_000)
        .collect();
    probes.sort_unstable();
    let mut cur = ef.cursor();
    for &y in &probes {
        let want = values.iter().copied().rfind(|&v| v <= y);
        assert_eq!(ef.predecessor(y), want, "pred({y})");
        assert_eq!(cur.predecessor(y), want, "cursor pred({y})");
    }
}

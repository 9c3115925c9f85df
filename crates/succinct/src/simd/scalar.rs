//! Portable scalar reference implementations of every dispatched kernel.
//!
//! These are the semantics: every accelerated variant in
//! [`super::kernels`] must agree bit-for-bit with the functions here on
//! every input (enforced by the agreement property tests in
//! `tests/simd_agreement.rs`). They are always compiled, on every
//! architecture, and are what [`super`]'s dispatchers fall back to when no
//! vector extension is detected or when `GRAFITE_SIMD=scalar` forces them.

use crate::broadword;
use crate::WORD_BITS;

/// The low `n` bits set, for `n` in `0..=64`.
#[inline]
fn mask_low(n: usize) -> u64 {
    1u64.checked_shl(n as u32).map_or(!0, |m| m.wrapping_sub(1))
}

/// Ones among bits `[0, upto)` of a block of up to 8 words. Bits past
/// `words.len() * 64` are treated as zero, so a short tail block counts
/// correctly with any `upto <= 512`.
///
/// Branch-free over the block: every word is popcounted under a mask that
/// keeps exactly its bits below `upto` (possibly none, possibly all).
#[inline]
pub fn rank1_x8(words: &[u64], upto: usize) -> usize {
    debug_assert!(words.len() <= 8 && upto <= 8 * WORD_BITS);
    let mut r = 0usize;
    for (j, &w) in words.iter().enumerate() {
        let take = upto.saturating_sub(j * WORD_BITS).min(WORD_BITS);
        r += (w & mask_low(take)).count_ones() as usize;
    }
    r
}

/// Position of the `k`-th (0-based) set bit of `word` — the broadword
/// byte-sums + table formulation.
#[inline]
pub fn select_in_word(word: u64, k: u32) -> u32 {
    broadword::select_in_word(word, k)
}

/// First index in `[start, end)` of the `width`-bit packed array `words`
/// whose field "passes" `y_lo`: the first field `> y_lo` when
/// `include_equal` (predecessor's partition point), the first `>= y_lo`
/// otherwise (successor/rank). Returns `end` if every field is below the
/// partition. Sequential word-addressed probe with one running bit cursor.
///
/// `width` must be in `1..=63` and every field of `[start, end)` must lie
/// inside `words`.
#[inline]
pub fn low_partition(
    words: &[u64],
    width: usize,
    start: usize,
    end: usize,
    y_lo: u64,
    include_equal: bool,
) -> usize {
    debug_assert!((1..WORD_BITS).contains(&width));
    let mask = (1u64 << width) - 1;
    let mut bitpos = start * width;
    for i in start..end {
        let word = bitpos / WORD_BITS;
        let off = bitpos % WORD_BITS;
        let mut v = words[word] >> off;
        if off + width > WORD_BITS {
            v |= words[word + 1] << (WORD_BITS - off);
        }
        let v = v & mask;
        if v > y_lo || (!include_equal && v == y_lo) {
            return i;
        }
        bitpos += width;
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_matches_naive() {
        let words = [0xAAAA_AAAA_AAAA_AAAAu64, !0, 0, 1, 0xF0F0, 7, 1 << 63, !1];
        for upto in 0..=512 {
            let naive: usize = (0..upto)
                .filter(|&b| words[b / 64] >> (b % 64) & 1 == 1)
                .count();
            assert_eq!(rank1_x8(&words, upto), naive, "upto={upto}");
        }
        // Short tail blocks.
        assert_eq!(rank1_x8(&words[..3], 192), 32 + 64);
        assert_eq!(rank1_x8(&[], 0), 0);
    }

    #[test]
    fn partition_matches_linear() {
        // width=5 fields 0..31 ascending with duplicates.
        let vals: Vec<u64> = (0..40u64).map(|i| (i / 2).min(19)).collect();
        let mut words = vec![0u64; 4];
        for (i, &v) in vals.iter().enumerate() {
            let pos = i * 5;
            words[pos / 64] |= v << (pos % 64);
            if pos % 64 + 5 > 64 {
                words[pos / 64 + 1] |= v >> (64 - pos % 64);
            }
        }
        for y in 0..21u64 {
            for eq in [false, true] {
                let want = vals
                    .iter()
                    .position(|&v| v > y || (!eq && v == y))
                    .unwrap_or(vals.len());
                assert_eq!(low_partition(&words, 5, 0, vals.len(), y, eq), want);
            }
        }
    }
}

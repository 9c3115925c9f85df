//! x86_64 vector implementations of the dispatched kernels.
//!
//! This is the **only** module in the workspace allowed to contain
//! `unsafe` (xtask lint L6 enforces the allowlist and requires a
//! `// safety:` justification adjacent to every `unsafe` token). The
//! discipline here:
//!
//! - every `pub fn` is a *safe* entry point that re-verifies the CPU
//!   feature it needs with `is_x86_feature_detected!` and falls back to
//!   the scalar kernel when the feature is absent, so calling any
//!   function in this module at the "wrong" dispatch level is still
//!   sound and still bit-identical;
//! - `#[target_feature]` inner functions keep their bodies safe
//!   (feature-gated intrinsics are callable without `unsafe` inside
//!   them since target_feature 1.1); `unsafe` appears only at the two
//!   places it is irreducible — calling a `#[target_feature]` function
//!   from a non-annotated caller, and raw-pointer gathers — and
//!   each such block carries its own `// safety:` justification.
#![allow(unsafe_code)]

use super::scalar;
use crate::WORD_BITS;

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

// ---------------------------------------------------------------------------
// select_in_word — BMI2 PDEP
// ---------------------------------------------------------------------------

/// PDEP formulation of in-word select: depositing `1 << k` into the set
/// bits of `word` lands the single 1 exactly at the position of the k-th
/// set bit, which `trailing_zeros` then reads off.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "bmi2")]
fn select_in_word_pdep(word: u64, k: u32) -> u32 {
    _pdep_u64(1u64 << k, word).trailing_zeros()
}

/// BMI2 in-word select; scalar broadword fallback when BMI2 is absent.
#[cfg(target_arch = "x86_64")]
pub fn select_in_word_bmi2(word: u64, k: u32) -> u32 {
    debug_assert!(k < word.count_ones());
    if std::arch::is_x86_feature_detected!("bmi2") {
        // safety: the callee only requires BMI2, which the runtime
        // detection above just confirmed; it touches no memory.
        unsafe { select_in_word_pdep(word, k) }
    } else {
        scalar::select_in_word(word, k)
    }
}

// ---------------------------------------------------------------------------
// rank1_x8 — masked 8-word popcount
// ---------------------------------------------------------------------------

/// Pads a (≤ 8)-word block to exactly 8 words of zeros so the vector
/// kernels can consume fixed-shape input; bits past the real words are
/// zero, matching the scalar semantics for short tail blocks.
#[cfg(target_arch = "x86_64")]
#[inline]
fn pad8(words: &[u64]) -> [u64; 8] {
    let mut buf = [0u64; 8];
    buf[..words.len()].copy_from_slice(words);
    buf
}

/// AVX2 masked block rank: per-lane mask generation with variable
/// shifts, Mula nibble-LUT popcount, `sad_epu8` horizontal sums.
///
/// Lane `j` keeps `clamp(upto - 64j, 0, 64)` low bits. We compute the
/// *discard* count `d_j = 64(j+1) - upto`, clamp negatives to zero with
/// a sign-mask `andnot`, and shift an all-ones lane right by `d_j`:
/// `_mm256_srlv_epi64` yields 0 for shifts ≥ 64, which is exactly the
/// "keep nothing" case, so the whole mask construction is branch-free.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn rank1_x8_avx2_inner(words: &[u64], upto: usize) -> usize {
    let buf = pad8(words);
    let ones = _mm256_set1_epi64x(-1);
    let zero = _mm256_setzero_si256();
    let upto_v = _mm256_set1_epi64x(upto as i64);
    let nibble = _mm256_set1_epi8(0x0f);
    #[rustfmt::skip]
    let lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
    );
    let mut total = zero;
    for half in 0..2usize {
        let base = half * 4;
        let v = _mm256_set_epi64x(
            buf[base + 3] as i64,
            buf[base + 2] as i64,
            buf[base + 1] as i64,
            buf[base] as i64,
        );
        let bounds = _mm256_set_epi64x(
            (base as i64 + 4) * 64,
            (base as i64 + 3) * 64,
            (base as i64 + 2) * 64,
            (base as i64 + 1) * 64,
        );
        let discard = _mm256_sub_epi64(bounds, upto_v);
        // Negative discard (word fully below `upto`) → shift 0.
        let discard = _mm256_andnot_si256(_mm256_cmpgt_epi64(zero, discard), discard);
        let mask = _mm256_srlv_epi64(ones, discard);
        let masked = _mm256_and_si256(v, mask);
        let lo = _mm256_and_si256(masked, nibble);
        let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(masked), nibble);
        let cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
        total = _mm256_add_epi64(total, _mm256_sad_epu8(cnt, zero));
    }
    (_mm256_extract_epi64::<0>(total)
        + _mm256_extract_epi64::<1>(total)
        + _mm256_extract_epi64::<2>(total)
        + _mm256_extract_epi64::<3>(total)) as usize
}

/// AVX2 masked block rank; scalar fallback when AVX2 is absent.
#[cfg(target_arch = "x86_64")]
pub fn rank1_x8_avx2(words: &[u64], upto: usize) -> usize {
    debug_assert!(words.len() <= 8 && upto <= 8 * WORD_BITS);
    if std::arch::is_x86_feature_detected!("avx2") {
        // safety: the callee only requires AVX2, which the runtime
        // detection above just confirmed; all its loads go through safe
        // value-constructor intrinsics on a stack copy.
        unsafe { rank1_x8_avx2_inner(words, upto) }
    } else {
        scalar::rank1_x8(words, upto)
    }
}

// ---------------------------------------------------------------------------
// low_partition — AVX2 gather over packed fields
// ---------------------------------------------------------------------------

/// AVX2 packed-field partition probe: 4 fields per iteration via 64-bit
/// gathers of each field's word and (clamped) next word, variable-shift
/// extraction, one signed compare, `movemask` to find the first lane
/// that passes.
///
/// Correctness notes encoded below:
/// - fields are `< 2^width ≤ 2^63`, so they are non-negative as i64 and
///   `_mm256_cmpgt_epi64`'s signed compare agrees with unsigned;
/// - the carry word index is clamped to the last valid word: whenever a
///   field does not actually straddle a boundary (`off + width ≤ 64`),
///   the carry is shifted left by `≥ width` (or by ≥ 64, where `sllv`
///   yields 0), so whatever word the clamped gather read contributes
///   nothing after the field mask.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn low_partition_avx2_inner(
    words: &[u64],
    width: usize,
    start: usize,
    end: usize,
    cmp_target: u64,
) -> usize {
    let mask = (1u64 << width) - 1;
    let field_mask = _mm256_set1_epi64x(mask as i64);
    let target = _mm256_set1_epi64x(cmp_target as i64);
    let w64 = _mm256_set1_epi64x(WORD_BITS as i64);
    let last_word = _mm256_set1_epi32(words.len() as i32 - 1);
    let base = words.as_ptr();
    let mut i = start;
    while i + 4 <= end {
        let bit0 = (i * width) as i64;
        let bitpos = _mm256_add_epi64(
            _mm256_set1_epi64x(bit0),
            _mm256_set_epi64x(3 * width as i64, 2 * width as i64, width as i64, 0),
        );
        let word_idx64 = _mm256_srli_epi64::<6>(bitpos);
        let off = _mm256_and_si256(bitpos, _mm256_set1_epi64x(63));
        // Compress the four 64-bit word indices (all < words.len() ≤
        // 2^31) into the low 128 bits as i32 gather indices.
        let idx32 = _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
            word_idx64,
            _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0),
        ));
        let next32 = _mm_min_epi32(
            _mm_add_epi32(idx32, _mm_set1_epi32(1)),
            _mm256_castsi256_si128(last_word),
        );
        // safety: every gathered index derives from a field in
        // [start, end), which the caller guarantees lies inside
        // `words`, and the +1 carry index is clamped to the last valid
        // word above, so all eight lane addresses are in bounds.
        let cur = unsafe { _mm256_i32gather_epi64::<8>(base as *const i64, idx32) };
        // safety: same bounds argument as the gather above — all four
        // clamped next-word indices are in bounds.
        let nxt = unsafe { _mm256_i32gather_epi64::<8>(base as *const i64, next32) };
        let lo = _mm256_srlv_epi64(cur, off);
        // Shift ≥ 64 (off == 0) self-erases in sllv, so non-straddling
        // lanes get a zero or fully-masked-out carry.
        let carry = _mm256_sllv_epi64(nxt, _mm256_sub_epi64(w64, off));
        let v = _mm256_and_si256(_mm256_or_si256(lo, carry), field_mask);
        let pass = _mm256_cmpgt_epi64(v, target);
        let bits = _mm256_movemask_pd(_mm256_castsi256_pd(pass));
        if bits != 0 {
            return i + bits.trailing_zeros() as usize;
        }
        i += 4;
    }
    // Scalar tail (< 4 fields) and the uniform `v > cmp_target` predicate
    // agree because cmp_target already folded include_equal.
    for j in i..end {
        let bitpos = j * width;
        let word = bitpos / WORD_BITS;
        let off = bitpos % WORD_BITS;
        let mut v = words[word] >> off;
        if off + width > WORD_BITS {
            v |= words[word + 1] << (WORD_BITS - off);
        }
        if v & mask > cmp_target {
            return j;
        }
    }
    end
}

/// AVX2 packed-field partition probe; scalar fallback when AVX2 is
/// absent. Same contract as [`scalar::low_partition`].
#[cfg(target_arch = "x86_64")]
pub fn low_partition_avx2(
    words: &[u64],
    width: usize,
    start: usize,
    end: usize,
    y_lo: u64,
    include_equal: bool,
) -> usize {
    debug_assert!((1..WORD_BITS).contains(&width));
    // Runs shorter than two vector iterations can't amortise the lane
    // setup (measured crossover ~8 fields even on full scans); typical
    // Elias–Fano buckets are 1–3 elements, so the common case must not
    // pay the preamble.
    if end.saturating_sub(start) < 8
        || !std::arch::is_x86_feature_detected!("avx2")
        || words.len() > i32::MAX as usize
    {
        return scalar::low_partition(words, width, start, end, y_lo, include_equal);
    }
    let y_lo = y_lo & ((1u64 << width) - 1);
    // Fold include_equal into one strict compare: `v >= y_lo` is
    // `v > y_lo - 1`, except y_lo == 0 where every field passes.
    let cmp_target = if include_equal {
        y_lo
    } else if y_lo == 0 {
        return start.min(end);
    } else {
        y_lo - 1
    };
    // safety: the callee only requires AVX2, which the runtime
    // detection above just confirmed; its in-bounds obligations are
    // discharged at its own gather sites.
    unsafe { low_partition_avx2_inner(words, width, start, end, cmp_target) }
}

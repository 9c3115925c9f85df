//! Blocked Elias–Fano: one short run of non-decreasing keys encoded as
//! Elias–Fano offsets from its first key — a single partition of the
//! layout of Ottaviano & Venturini, *Partitioned Elias–Fano Indexes*
//! (SIGIR 2014).
//!
//! A block of `len` keys `k_0 <= … <= k_{len-1}` stores nothing for `k_0`
//! (the caller keeps it as the block's *fence*) and encodes the
//! `n = len - 1` offsets `d_i = k_i - k_0` the way [`EliasFano`] encodes
//! its values: `l = floor(log2(span / n))` low bits each, with
//! `span = d_{n-1}`, packed in an [`IntVec`]; then the high parts
//! `d_i >> l` in negated unary, bit `(d_i >> l) + i` of a [`BitVec`]. Both
//! parts start on a word boundary: `ceil(n·l / 64)` low words, then the
//! high words up to the one holding the last set bit. The high part holds
//! fewer than `span / 2^l + n < 3n` bits, so a block costs at most `l + 3`
//! bits per key plus word padding.
//!
//! A block has no rank/select directory: it is always decoded whole, by
//! walking the set bits of the high part a word at a time.
//!
//! The encoding is canonical and [`decode`] accepts only canonical input:
//! `l` must be the width the decoded span implies, the padding bits of the
//! last low word and every bit past the last set high bit must be zero, and
//! the words must end with the word holding that bit. So a change to a
//! block's words or to its `l` either fails typed or changes a decoded key
//! — which a checksum over the decoded keys then catches.
//!
//! [`EliasFano`]: crate::EliasFano
//! [`IntVec`]: crate::IntVec
//! [`BitVec`]: crate::BitVec

use crate::io::DecodeError;
use crate::WORD_BITS;

/// The low-bit width of a block whose `n` offsets span `span`:
/// `floor(log2(span / n))`, or 0 when that quotient is below 1 (or `n` is
/// 0).
#[inline]
pub fn low_bits(span: u64, n: usize) -> u32 {
    match span.checked_div(n as u64) {
        Some(q) if q > 0 => q.ilog2(),
        _ => 0,
    }
}

/// Appends the encoding of `keys` to `out` and returns its low-bit width
/// `l`, which the caller stores beside the fence `keys[0]`. A single-key
/// block appends no words. The words are those of an
/// [`IntVec`](crate::IntVec) of the low parts followed by those of a
/// [`BitVec`](crate::BitVec) of the high parts, written a word at a time
/// as [`EliasFano`](crate::EliasFano) writes its high bits.
///
/// # Panics
/// Panics if `keys` is empty or not non-decreasing.
pub fn encode(keys: &[u64], out: &mut Vec<u64>) -> u32 {
    let (&first, rest) = keys.split_first().expect("a block holds a key");
    let Some(&last) = rest.last() else {
        return 0;
    };
    assert!(
        keys.windows(2).all(|w| w[0] <= w[1]),
        "block keys must be non-decreasing"
    );
    let n = rest.len();
    let l = low_bits(last - first, n);
    let l_bits = l as usize;
    let mask = (1u64 << l) - 1;
    let low_words = (n * l_bits).div_ceil(WORD_BITS);
    let high_len = ((last - first) >> l) as usize + n;
    let start = out.len();
    out.resize(start + low_words + high_len.div_ceil(WORD_BITS), 0);
    let (low, high) = out[start..].split_at_mut(low_words);
    for (i, &k) in rest.iter().enumerate() {
        let d = k - first;
        if l_bits > 0 {
            let bit = i * l_bits;
            let (at, off) = (bit / WORD_BITS, bit % WORD_BITS);
            low[at] |= (d & mask) << off;
            if off + l_bits > WORD_BITS {
                low[at + 1] |= (d & mask) >> (WORD_BITS - off);
            }
        }
        let pos = (d >> l) as usize + i;
        high[pos / WORD_BITS] |= 1 << (pos % WORD_BITS);
    }
    l
}

/// Decodes the block of `len` keys whose fence is `first` and whose low-bit
/// width is `l` from `words`, its exact encoding, appending all `len` keys
/// — `first` included — to `out`. Hostile input fails typed
/// ([`DecodeError::Invalid`]) and never panics or allocates past what
/// `words` can encode; on failure, what was appended to `out` is
/// unspecified.
///
/// Two passes: the low parts first, each read branch-free from the two
/// words it may straddle, then the set bits of the high part a word at a
/// time (`trailing_zeros`, then `w &= w - 1`), each adding its high part
/// to the next key.
pub fn decode(
    words: &[u64],
    first: u64,
    len: usize,
    l: u32,
    out: &mut Vec<u64>,
) -> Result<(), DecodeError> {
    let n = len
        .checked_sub(1)
        .ok_or(DecodeError::Invalid("empty key block"))?;
    if l >= 64 {
        return Err(DecodeError::Invalid("block low-bit width of 64 or more"));
    }
    let low_len = n
        .checked_mul(l as usize)
        .ok_or(DecodeError::Invalid("block low bits overflow usize"))?;
    let low_words = low_len.div_ceil(WORD_BITS);
    if words.len() < low_words {
        return Err(DecodeError::Invalid("block shorter than its low bits"));
    }
    let (low, high) = words.split_at(low_words);
    // Each key needs a set high bit: this bounds `n` by the words before
    // anything is allocated for it.
    if n > high.len().saturating_mul(WORD_BITS) {
        return Err(DecodeError::Invalid("block unary run past its end"));
    }
    let tail = low_len % WORD_BITS;
    if tail != 0 && low.last().is_some_and(|&w| w >> tail != 0) {
        return Err(DecodeError::Invalid("block low padding bits set"));
    }
    let mask = (1u64 << l) - 1;
    let l_bits = l as usize;
    out.reserve(len);
    out.push(first);
    let from = out.len();
    // Pass 1: the low parts. Shifting the second word in two steps makes
    // an unstraddled read (`off == 0`) shift it out entirely.
    let mut bit = 0usize;
    for _ in 0..n {
        let (at, off) = (bit / WORD_BITS, bit % WORD_BITS);
        let w0 = low.get(at).copied().unwrap_or(0);
        let w1 = low.get(at.saturating_add(1)).copied().unwrap_or(0);
        out.push(((w0 >> off) | ((w1 << 1) << (63 - off))) & mask);
        bit = bit.saturating_add(l_bits);
    }
    // Pass 2: the high parts. `i` keys are complete; `base` is the
    // position of the current high word's first bit.
    let keys = out.get_mut(from..).unwrap_or_default();
    let (mut i, mut base) = (0usize, 0usize);
    let mut span = 0u64;
    for &word in high {
        if i == n {
            return Err(DecodeError::Invalid("block words past its last key"));
        }
        let mut w = word;
        while w != 0 {
            let Some(key) = keys.get_mut(i) else {
                return Err(DecodeError::Invalid("block high bit past its last key"));
            };
            // The i-th set bit sits at `high_part + i`, below
            // `64 · high.len()`, and `i` set bits precede it: neither step
            // can wrap.
            let hi = base
                .wrapping_add(w.trailing_zeros() as usize)
                .wrapping_sub(i) as u64;
            w &= w - 1;
            if l > 0 && hi >> (64 - l) != 0 {
                return Err(DecodeError::Invalid("block offset overflows u64"));
            }
            span = (hi << l) | *key;
            *key = first
                .checked_add(span)
                .ok_or(DecodeError::Invalid("block key overflows u64"))?;
            i = i.saturating_add(1);
        }
        base = base.saturating_add(WORD_BITS);
    }
    if i < n {
        return Err(DecodeError::Invalid("block unary run past its end"));
    }
    if l != low_bits(span, n) {
        return Err(DecodeError::Invalid("block low-bit width not its span's"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BitVec, IntVec};

    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state
    }

    fn roundtrip(keys: &[u64]) -> (Vec<u64>, u32) {
        let mut words = Vec::new();
        let l = encode(keys, &mut words);
        let mut out = Vec::new();
        decode(&words, keys[0], keys.len(), l, &mut out).unwrap();
        assert_eq!(out, keys);
        (words, l)
    }

    #[test]
    fn roundtrips_every_shape() {
        let mut state = 7u64;
        for len in [1usize, 2, 3, 63, 64, 65, 255, 256] {
            for spread in [1u64, 3, 1 << 10, 1 << 40, u64::MAX / 512] {
                let mut keys: Vec<u64> = (0..len)
                    .map(|_| lcg(&mut state) % spread.saturating_mul(len as u64).max(1))
                    .collect();
                keys.sort_unstable();
                roundtrip(&keys);
                keys.dedup();
                roundtrip(&keys);
            }
        }
        // Universe edges: a block ending at u64::MAX, and one spanning it.
        roundtrip(&[u64::MAX - 2, u64::MAX - 1, u64::MAX]);
        roundtrip(&[0, 1, u64::MAX]);
        roundtrip(&[5, 5, 5, 5]);
        let (words, l) = roundtrip(&[42]);
        assert!(words.is_empty());
        assert_eq!(l, 0);
    }

    #[test]
    fn costs_at_most_l_plus_three_bits_per_key() {
        let mut state = 11u64;
        let mut keys: Vec<u64> = (0..256).map(|_| lcg(&mut state) >> 20).collect();
        keys.sort_unstable();
        let (words, l) = roundtrip(&keys);
        let bits = words.len() * 64;
        assert!(
            bits <= 255 * (l as usize + 3) + 2 * 64,
            "{bits} bits at l = {l}"
        );
    }

    /// The words are an `IntVec` of the low parts, then a `BitVec` of the
    /// high parts.
    #[test]
    fn layout_is_an_intvec_then_a_bitvec() {
        let mut state = 5u64;
        for len in [2usize, 100, 256] {
            let mut keys: Vec<u64> = (0..len).map(|_| lcg(&mut state) >> 30).collect();
            keys.sort_unstable();
            let (words, l) = roundtrip(&keys);
            let offsets: Vec<u64> = keys[1..].iter().map(|&k| k - keys[0]).collect();
            let low = IntVec::from_slice(
                l as usize,
                &offsets
                    .iter()
                    .map(|d| d & ((1 << l) - 1))
                    .collect::<Vec<_>>(),
            );
            let last = offsets.last().unwrap();
            let mut high = BitVec::zeros((last >> l) as usize + offsets.len());
            for (i, d) in offsets.iter().enumerate() {
                high.set((d >> l) as usize + i, true);
            }
            let mut want = low.raw_words().to_vec();
            want.extend_from_slice(high.words());
            assert_eq!(words, want, "len {len}");
        }
    }

    #[test]
    fn low_bit_width_matches_the_span() {
        assert_eq!(low_bits(0, 0), 0);
        assert_eq!(low_bits(100, 0), 0);
        assert_eq!(low_bits(3, 5), 0);
        assert_eq!(low_bits(255, 255), 0);
        assert_eq!(low_bits(1 << 20, 1), 20);
        assert_eq!(low_bits(u64::MAX, 1), 63);
    }

    fn sample_block() -> (Vec<u64>, Vec<u64>, u32) {
        let mut state = 3u64;
        let mut keys: Vec<u64> = (0..200).map(|_| lcg(&mut state) >> 24).collect();
        keys.sort_unstable();
        keys.dedup();
        let mut words = Vec::new();
        let l = encode(&keys, &mut words);
        assert!(l > 0);
        (keys, words, l)
    }

    fn invalid(words: &[u64], first: u64, len: usize, l: u32) -> &'static str {
        match decode(words, first, len, l, &mut Vec::new()) {
            Err(DecodeError::Invalid(why)) => why,
            other => panic!("hostile block decoded: {other:?}"),
        }
    }

    #[test]
    fn hostile_low_bit_widths_fail_typed() {
        let (keys, words, l) = sample_block();
        for bad in [64, 65, 200, u32::MAX] {
            assert_eq!(
                invalid(&words, keys[0], keys.len(), bad),
                "block low-bit width of 64 or more"
            );
        }
        // A width that still parses is refused for not being the span's.
        for bad in [0, l - 1, l + 1, 63] {
            assert!(decode(&words, keys[0], keys.len(), bad, &mut Vec::new()).is_err());
        }
    }

    #[test]
    fn unary_run_past_the_block_end_fails_typed() {
        let (keys, words, l) = sample_block();
        // One key more than the words hold.
        assert_eq!(
            invalid(&words, keys[0], keys.len() + 1, l),
            "block unary run past its end"
        );
        // The last high word dropped.
        assert_eq!(
            invalid(&words[..words.len() - 1], keys[0], keys.len(), l),
            "block unary run past its end"
        );
        // Every high bit cleared.
        let low_words = ((keys.len() - 1) * l as usize).div_ceil(64);
        let mut cleared = words.clone();
        cleared[low_words..].fill(0);
        assert!(decode(&cleared, keys[0], keys.len(), l, &mut Vec::new()).is_err());
    }

    #[test]
    fn count_and_length_mismatches_fail_typed() {
        let (keys, words, l) = sample_block();
        let (first, len) = (keys[0], keys.len());
        assert_eq!(invalid(&words, first, 0, l), "empty key block");
        assert_eq!(
            invalid(&words[..1], first, len, l),
            "block shorter than its low bits"
        );
        assert_eq!(
            invalid(&words, first, usize::MAX, 63),
            "block low bits overflow usize"
        );
        // A key count the words cannot hold fails before any allocation.
        for huge in [usize::MAX, 1 << 40] {
            assert_eq!(
                invalid(&words, first, huge, 0),
                "block unary run past its end"
            );
        }
        // Fewer keys than the words hold.
        assert!(decode(&words, first, len - 1, l, &mut Vec::new()).is_err());
        // A trailing word, zero or not.
        for extra in [0u64, 1, u64::MAX] {
            let mut long = words.clone();
            long.push(extra);
            assert!(decode(&long, first, len, l, &mut Vec::new()).is_err());
        }
        // A single-key block owns no words.
        assert_eq!(invalid(&[0], first, 1, 0), "block words past its last key");
        assert_eq!(
            invalid(&[], first, 1, 3),
            "block low-bit width not its span's"
        );
        // A key past the universe.
        let mut top = Vec::new();
        let l_top = encode(&[0, 1 << 63, u64::MAX], &mut top);
        assert_eq!(invalid(&top, 1, 3, l_top), "block key overflows u64");
    }

    /// Every single-bit flip of a block's words, and every other `l`,
    /// either fails typed or decodes different keys.
    #[test]
    fn every_bit_flip_fails_or_changes_a_key() {
        let (keys, words, l) = sample_block();
        for bit in 0..words.len() * 64 {
            let mut bad = words.clone();
            bad[bit / 64] ^= 1 << (bit % 64);
            let mut out = Vec::new();
            if decode(&bad, keys[0], keys.len(), l, &mut out).is_ok() {
                assert_ne!(out, keys, "flip of bit {bit} went unnoticed");
            }
        }
        for other in (0..64).filter(|&x| x != l) {
            let mut out = Vec::new();
            if decode(&words, keys[0], keys.len(), other, &mut out).is_ok() {
                assert_ne!(out, keys, "l = {other} went unnoticed");
            }
        }
    }

    /// Random words decode or fail typed — never panic.
    #[test]
    fn random_words_never_panic() {
        let mut state = 0xFEED_u64;
        for _ in 0..2000 {
            let n_words = (lcg(&mut state) % 12) as usize;
            let words: Vec<u64> = (0..n_words).map(|_| lcg(&mut state)).collect();
            let len = (lcg(&mut state) % 300) as usize;
            let l = (lcg(&mut state) % 70) as u32;
            let first = lcg(&mut state);
            let _ = decode(&words, first, len, l, &mut Vec::new());
        }
    }
}

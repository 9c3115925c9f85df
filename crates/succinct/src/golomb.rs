//! A block-compressed monotone sequence with Golomb–Rice coded gaps.
//!
//! This is the storage layout of the SNARF paper \[36\]: the positions of the
//! 1-bits of a sparse bit array are delta-encoded with Rice codes and grouped
//! into fixed-size blocks; an uncompressed directory stores, per block, the
//! first value and the bit offset of the block payload, enabling a binary
//! search to the right block followed by a bounded sequential decode.

use crate::bitvec::BitVec;
use crate::io::{DecodeError, WordReader, WordWriter};

/// Number of values per compressed block (matching SNARF's engineering).
pub const DEFAULT_BLOCK_SIZE: usize = 128;

/// A monotone `u64` sequence stored as Rice-coded gaps in fixed-size blocks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GolombRiceSeq {
    n: usize,
    rice_param: usize,
    block_size: usize,
    data: BitVec,
    /// Bit offset into `data` where each block's payload starts.
    block_offsets: Vec<u64>,
    /// First value of each block (stored verbatim, not in the payload).
    block_first: Vec<u64>,
    last: u64,
}

impl GolombRiceSeq {
    /// Encodes a non-decreasing sequence with the given Rice parameter and
    /// block size.
    ///
    /// # Panics
    /// Panics if values are not non-decreasing, `rice_param > 63`, or
    /// `block_size == 0`.
    pub fn with_params(values: &[u64], rice_param: usize, block_size: usize) -> Self {
        assert!(rice_param < 64, "rice parameter {rice_param} too large");
        assert!(block_size > 0, "block size must be positive");
        let n = values.len();
        let mut data = BitVec::new();
        let mut block_offsets = Vec::with_capacity(n / block_size + 1);
        let mut block_first = Vec::with_capacity(n / block_size + 1);
        let mut prev = 0u64;
        for (i, &v) in values.iter().enumerate() {
            assert!(i == 0 || v >= prev, "values must be non-decreasing");
            if i % block_size == 0 {
                block_offsets.push(data.len() as u64);
                block_first.push(v);
            } else {
                let gap = v - prev;
                let q = gap >> rice_param;
                // Unary quotient: q zeros then a one.
                for _ in 0..q {
                    data.push(false);
                }
                data.push(true);
                if rice_param > 0 {
                    data.push_bits(gap & ((1u64 << rice_param) - 1), rice_param);
                }
            }
            prev = v;
        }
        Self {
            n,
            rice_param,
            block_size,
            data,
            block_offsets,
            block_first,
            last: values.last().copied().unwrap_or(0),
        }
    }

    /// Encodes with [`DEFAULT_BLOCK_SIZE`] and a Rice parameter chosen from
    /// the average gap (`floor(log2(universe / n))`), the standard
    /// near-optimal choice.
    pub fn new(values: &[u64], universe: u64) -> Self {
        let param = Self::optimal_param(values.len(), universe);
        Self::with_params(values, param, DEFAULT_BLOCK_SIZE)
    }

    /// Near-optimal Rice parameter for `n` values in `[0, universe)`.
    pub fn optimal_param(n: usize, universe: u64) -> usize {
        if n == 0 || universe <= n as u64 {
            0
        } else {
            (universe / n as u64).ilog2() as usize
        }
    }

    #[inline]
    fn offsets(&self) -> &[u64] {
        &self.block_offsets
    }

    #[inline]
    fn firsts(&self) -> &[u64] {
        &self.block_first
    }

    /// Number of stored values.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the sequence is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The largest stored value.
    #[inline]
    pub fn last(&self) -> u64 {
        assert!(self.n > 0, "empty sequence");
        self.last
    }

    /// Decodes one gap at bit position `pos`, returning `(gap, new_pos)`.
    #[inline]
    fn decode_gap(&self, mut pos: usize) -> (u64, usize) {
        // Unary part: count zeros until the terminating one. Scan word-wise.
        let mut q = 0u64;
        loop {
            let remaining = self.data.len() - pos;
            let chunk = remaining.min(64);
            debug_assert!(chunk > 0, "ran off the end of the Rice stream");
            if chunk == 0 {
                // Unreachable on well-formed streams (the load-time offset
                // checks and the encoder both prevent it); terminate with a
                // degenerate gap rather than spinning on damaged data.
                return (q << self.rice_param, pos);
            }
            let w = self.data.get_bits(pos, chunk);
            if w == 0 {
                q += chunk as u64;
                pos += chunk;
            } else {
                let tz = w.trailing_zeros() as u64;
                q += tz;
                pos += tz as usize + 1;
                break;
            }
        }
        let mut gap = q << self.rice_param;
        if self.rice_param > 0 {
            gap |= self.data.get_bits(pos, self.rice_param);
            pos += self.rice_param;
        }
        (gap, pos)
    }

    /// The smallest stored value `>= y`, or `None`.
    pub fn successor(&self, y: u64) -> Option<u64> {
        if self.n == 0 || y > self.last {
            return None;
        }
        // Number of blocks whose first value is <= y.
        let bi = self.firsts().partition_point(|&f| f <= y);
        if bi == 0 {
            return Some(self.firsts()[0]);
        }
        let block = bi - 1;
        let mut cur = self.firsts()[block];
        if cur >= y {
            return Some(cur);
        }
        let in_block = (self.n - block * self.block_size).min(self.block_size);
        let mut pos = self.offsets()[block] as usize;
        for _ in 1..in_block {
            let (gap, new_pos) = self.decode_gap(pos);
            pos = new_pos;
            cur += gap;
            if cur >= y {
                return Some(cur);
            }
        }
        // Successor must start a later block.
        self.firsts().get(block + 1).copied()
    }

    /// Whether any stored value lies in the closed interval `[a, b]`.
    #[inline]
    pub fn any_in_range(&self, a: u64, b: u64) -> bool {
        debug_assert!(a <= b);
        match self.successor(a) {
            Some(v) => v <= b,
            None => false,
        }
    }

    /// Iterator over all stored values.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        let mut block = 0usize;
        let mut idx_in_block = 0usize;
        let mut pos = 0usize;
        let mut cur = 0u64;
        let mut emitted = 0usize;
        std::iter::from_fn(move || {
            if emitted == self.n {
                return None;
            }
            if idx_in_block == 0 {
                cur = self.firsts()[block];
                pos = self.offsets()[block] as usize;
            } else {
                let (gap, new_pos) = self.decode_gap(pos);
                pos = new_pos;
                cur += gap;
            }
            idx_in_block += 1;
            if idx_in_block == self.block_size {
                idx_in_block = 0;
                block += 1;
            }
            emitted += 1;
            Some(cur)
        })
    }

    /// Total heap size in bits, including the block directory.
    pub fn size_in_bits(&self) -> usize {
        self.data.size_in_bits() + (self.offsets().len() + self.firsts().len()) * 64
    }

    /// The Rice parameter used for the gap remainders.
    #[inline]
    pub fn rice_param(&self) -> usize {
        self.rice_param
    }

    /// Serializes as `[n, rice_param, block_size, last] + data +
    /// [n_blocks, offsets…] + [n_blocks, firsts…]`. Returns the word count.
    pub fn write_to(&self, w: &mut WordWriter<'_>) -> std::io::Result<usize> {
        let before = w.words_written();
        w.word(self.n as u64)?;
        w.word(self.rice_param as u64)?;
        w.word(self.block_size as u64)?;
        w.word(self.last)?;
        self.data.write_to(w)?;
        w.prefixed(self.offsets())?;
        w.prefixed(self.firsts())?;
        Ok(w.words_written() - before)
    }

    /// Reads back what [`GolombRiceSeq::write_to`] wrote; the block
    /// directory comes back verbatim, never rebuilt.
    pub fn read_from(src: &mut WordReader<'_>) -> Result<Self, DecodeError> {
        let n = src.length()?;
        let rice_param = src.length()?;
        if rice_param >= 64 {
            return Err(DecodeError::Invalid("Rice parameter above 63"));
        }
        let block_size = src.length()?;
        if block_size == 0 {
            return Err(DecodeError::Invalid("zero Rice block size"));
        }
        let last = src.word()?;
        let data = BitVec::read_from(src)?;
        let n_blocks = n.div_ceil(block_size);
        let off_len = src.length()?;
        if off_len != n_blocks {
            return Err(DecodeError::Invalid("Rice block offset count"));
        }
        let block_offsets = src.take(off_len)?;
        let first_len = src.length()?;
        if first_len != n_blocks {
            return Err(DecodeError::Invalid("Rice block first-value count"));
        }
        let block_first = src.take(first_len)?;
        // Offsets are bit positions into `data`: an out-of-range one would
        // make the gap decoder read past the stream at query time. An
        // offset *equal* to `data.len()` is legitimate only for a block
        // with no gap payload (a single-value tail block).
        for (i, &off) in block_offsets.iter().enumerate() {
            let in_block = n
                .saturating_sub(i.saturating_mul(block_size))
                .min(block_size);
            let out_of_range =
                off > data.len() as u64 || (in_block > 1 && off == data.len() as u64);
            if out_of_range {
                return Err(DecodeError::Invalid("Rice block offset out of range"));
            }
        }
        Ok(Self {
            n,
            rice_param,
            block_size,
            data,
            block_offsets,
            block_first,
            last,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn check(values: &[u64], universe: u64) {
        for (param, bs) in [(0usize, 4usize), (3, 7), (8, 128), (13, 128)] {
            let seq = GolombRiceSeq::with_params(values, param, bs);
            let decoded: Vec<u64> = seq.iter().collect();
            assert_eq!(decoded, values, "param={param} bs={bs}");
            let set: BTreeSet<u64> = values.iter().copied().collect();
            for probe in 0..universe.min(2000) {
                let expect = set.range(probe..).next().copied();
                assert_eq!(seq.successor(probe), expect, "succ({probe}) param={param}");
            }
        }
    }

    #[test]
    fn small() {
        check(&[3, 7, 7, 20, 100, 101, 102, 900], 1000);
    }

    #[test]
    fn empty_and_single() {
        let seq = GolombRiceSeq::new(&[], 100);
        assert!(seq.is_empty());
        assert_eq!(seq.successor(0), None);
        assert!(!seq.any_in_range(0, 99));

        let seq = GolombRiceSeq::new(&[42], 100);
        assert_eq!(seq.successor(0), Some(42));
        assert_eq!(seq.successor(42), Some(42));
        assert_eq!(seq.successor(43), None);
        assert!(seq.any_in_range(40, 44));
        assert!(!seq.any_in_range(43, 99));
    }

    #[test]
    fn exact_block_boundaries() {
        let values: Vec<u64> = (0..256u64).map(|i| i * 3).collect();
        let seq = GolombRiceSeq::with_params(&values, 2, 128);
        let decoded: Vec<u64> = seq.iter().collect();
        assert_eq!(decoded, values);
        assert_eq!(seq.successor(383), Some(384));
        assert_eq!(seq.successor(765), Some(765));
        assert_eq!(seq.successor(766), None);
    }

    #[test]
    fn pseudo_random() {
        let mut state = 7u64;
        let mut values: Vec<u64> = (0..1500)
            .map(|_| {
                state = state
                    .wrapping_mul(2862933555777941757)
                    .wrapping_add(3037000493);
                state % 100_000
            })
            .collect();
        values.sort_unstable();
        values.dedup();
        check(&values, 2000);
        let seq = GolombRiceSeq::new(&values, 100_000);
        let set: BTreeSet<u64> = values.iter().copied().collect();
        for probe in (0..100_000u64).step_by(97) {
            assert_eq!(seq.successor(probe), set.range(probe..).next().copied());
        }
    }

    #[test]
    fn large_gaps_small_param() {
        // Stress the unary decoder across word boundaries.
        let values = [0u64, 1 << 20, (1 << 20) + 1, 1 << 21];
        let seq = GolombRiceSeq::with_params(&values, 0, 128);
        let decoded: Vec<u64> = seq.iter().collect();
        assert_eq!(decoded, values);
        assert_eq!(seq.successor(5), Some(1 << 20));
    }

    #[test]
    fn compression_beats_raw() {
        let n = 10_000usize;
        let universe = 1u64 << 34;
        let mut state = 11u64;
        let mut values: Vec<u64> = (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                state % universe
            })
            .collect();
        values.sort_unstable();
        let seq = GolombRiceSeq::new(&values, universe);
        // Rice-coded gaps should land near log2(u/n) + 2 bits per value.
        let per_key = seq.size_in_bits() as f64 / n as f64;
        let theory = (universe as f64 / n as f64).log2() + 2.0;
        assert!(per_key < theory * 1.5, "rice {per_key} vs theory {theory}");
    }
}

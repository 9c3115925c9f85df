//! An immutable bit vector with constant-time rank and constant-time-ish
//! select for both bit polarities.
//!
//! # Layout (format v2, position-sampled select)
//!
//! The bit sequence is divided into 512-bit blocks (8 words). A block
//! directory stores the absolute number of ones before each block (12.5 %
//! overhead); `rank` popcounts the block's words under per-word masks on top
//! of a directory lookup — a fixed-shape, branch-free loop rather than a
//! data-dependent word walk.
//!
//! `select` uses *position samples*: the directory stores the **exact bit
//! position** of every 512-th one (resp. zero). A query `select1(k)` whose
//! rank hits a sample answers in O(1) with no memory touched beyond the
//! sample itself; otherwise the two samples bracketing `k` bound the block
//! range the answer can live in, and a binary search over that window of the
//! block directory (the inter-sample block locate) lands in the right block
//! without ever walking the directory linearly. At the densities the
//! Elias–Fano high bits exhibit (one set bit every ~2–3 positions) the
//! window spans 2–4 blocks, so the locate is one or two comparisons. The
//! final step is an in-word broadword select. `select0` shares the machinery
//! through a *cumulative-zeros view* derived from the ones directory
//! (`zeros before block b = min(b·512, len) − ones before block b`) — no
//! second directory array is stored or serialized.
//!
//! This replaces the seed's scheme (block-index hints plus a forward scan of
//! the directory), trading the same space for strictly less work per query;
//! it is the classic rank/select engineering trade-off described by
//! Navarro \[28\], tuned for the query hot path of the paper's filters.
//!
//! # Persistence
//!
//! The rank/select directories serialize alongside the bits and are read
//! back **verbatim** — loading never recomputes them.

use crate::bitvec::BitVec;
use crate::io::{DecodeError, WordReader, WordWriter};
use crate::simd::select_in_word;
use crate::WORD_BITS;

const BLOCK_WORDS: usize = 8;
const BLOCK_BITS: usize = BLOCK_WORDS * WORD_BITS; // 512
const SELECT_SAMPLE: usize = 512;

/// Word budget of the select fast path that scans forward from the sampled
/// position (sequential loads, no directory touch). 32 words = 2048 bits
/// cover a full inter-sample gap at any density >= 1/4 — the Elias–Fano
/// high bits sit near 1/2 — so only genuinely sparse stretches take the
/// block-locate fallback.
const SCAN_FROM_SAMPLE_WORDS: usize = 32;

/// The low `n` bits set, for `n` in `0..=64`.
#[inline]
fn mask_low(n: usize) -> u64 {
    1u64.checked_shl(n as u32).map_or(!0, |m| m.wrapping_sub(1))
}

/// An immutable rank/select bit vector.
#[derive(Clone, Debug)]
pub struct RsBitVec {
    bits: BitVec,
    /// `blocks[b]` = number of ones in bits `[0, b * 512)`; one sentinel entry
    /// at the end holding the total.
    blocks: Vec<u64>,
    /// `select1_pos[i]` = exact bit position of the `(i * SELECT_SAMPLE)`-th
    /// one.
    select1_pos: Vec<u64>,
    /// Same for zeros.
    select0_pos: Vec<u64>,
    ones: usize,
}

/// One pass over the words: the exact positions of every `SELECT_SAMPLE`-th
/// one and zero. Returns `(select1_pos, select0_pos, ones_seen)` so callers
/// can cross-check the claimed total.
fn build_select_samples(bits: &BitVec, ones: usize, zeros: usize) -> (Vec<u64>, Vec<u64>, usize) {
    let mut s1 = Vec::with_capacity(ones.div_ceil(SELECT_SAMPLE));
    let mut s0 = Vec::with_capacity(zeros.div_ceil(SELECT_SAMPLE));
    let (mut next1, mut next0) = (0usize, 0usize);
    let (mut ones_seen, mut zeros_seen) = (0usize, 0usize);
    let len = bits.len();
    for (wi, &w) in bits.words().iter().enumerate() {
        let valid = (len - (wi * WORD_BITS).min(len)).min(WORD_BITS);
        if valid == 0 {
            break;
        }
        let w_ones = w.count_ones() as usize; // tail bits beyond len are zero
        while next1 < ones && next1 < ones_seen + w_ones {
            let in_word = select_in_word(w, (next1 - ones_seen) as u32) as usize;
            s1.push((wi * WORD_BITS + in_word) as u64);
            next1 += SELECT_SAMPLE;
        }
        let inv = !w & mask_low(valid);
        let w_zeros = valid - w_ones;
        while next0 < zeros && next0 < zeros_seen + w_zeros {
            let in_word = select_in_word(inv, (next0 - zeros_seen) as u32) as usize;
            s0.push((wi * WORD_BITS + in_word) as u64);
            next0 += SELECT_SAMPLE;
        }
        ones_seen += w_ones;
        zeros_seen += w_zeros;
    }
    (s1, s0, ones_seen)
}

impl RsBitVec {
    /// Freezes `bits` and builds rank/select support.
    pub fn new(bits: BitVec) -> Self {
        let n_blocks = crate::div_ceil(bits.len().max(1), BLOCK_BITS);
        let mut blocks = Vec::with_capacity(n_blocks + 1);
        let mut acc = 0u64;
        for b in 0..n_blocks {
            blocks.push(acc);
            let start = b * BLOCK_WORDS;
            let end = ((b + 1) * BLOCK_WORDS).min(bits.words().len());
            for w in start..end {
                acc += bits.word(w).count_ones() as u64;
            }
        }
        blocks.push(acc);
        let ones = acc as usize;
        let zeros = bits.len() - ones;
        let (select1_pos, select0_pos, seen) = build_select_samples(&bits, ones, zeros);
        debug_assert_eq!(seen, ones, "rank directory inconsistent with bits");
        Self {
            bits,
            blocks,
            select1_pos,
            select0_pos,
            ones,
        }
    }

    #[inline]
    fn block_dir(&self) -> &[u64] {
        &self.blocks
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the vector is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Number of set bits.
    #[inline]
    pub fn count_ones(&self) -> usize {
        self.ones
    }

    /// Number of zero bits.
    #[inline]
    pub fn count_zeros(&self) -> usize {
        self.len() - self.ones
    }

    /// The bit at `pos`.
    #[inline]
    pub fn get(&self, pos: usize) -> bool {
        self.bits.get(pos)
    }

    /// The underlying bit vector.
    #[inline]
    pub fn bits(&self) -> &BitVec {
        &self.bits
    }

    /// Number of ones in `[0, pos)`. `pos` may equal `len`.
    ///
    /// Branch-free over the 8-word block: every block word is popcounted
    /// under a mask that keeps exactly its bits below `pos` (possibly none,
    /// possibly all). The masked block popcount is the dispatched
    /// [`crate::simd::rank1_x8`] kernel — vectorized where the CPU allows,
    /// the same fixed-shape scalar loop otherwise.
    #[inline]
    pub fn rank1(&self, pos: usize) -> usize {
        assert!(pos <= self.len(), "rank position {pos} out of range");
        let block = pos / BLOCK_BITS;
        let mut r = self.block_dir()[block] as usize;
        let words = self.bits.words();
        let first_word = block * BLOCK_WORDS;
        let end = (first_word + BLOCK_WORDS).min(words.len());
        let in_block = pos - block * BLOCK_BITS;
        r += crate::simd::rank1_x8(&words[first_word..end], in_block);
        r
    }

    /// Number of zeros in `[0, pos)`.
    #[inline]
    pub fn rank0(&self, pos: usize) -> usize {
        pos - self.rank1(pos)
    }

    /// Zeros in `[0, b * 512)` — the cumulative-zeros view over the ones
    /// directory. Valid for `b` up to and including the sentinel index.
    #[inline]
    fn zeros_before_block(&self, b: usize) -> usize {
        (b * BLOCK_BITS).min(self.len()) - self.block_dir()[b] as usize
    }

    /// Last block index in `[lo, hi]` whose directory value (per `key`) is
    /// `<= k` — the bounded inter-sample block locate shared by both
    /// selects. The invariant `key(lo) <= k` must hold on entry.
    #[inline]
    fn locate_block(&self, mut lo: usize, mut hi: usize, k: usize, zeros: bool) -> usize {
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            let before = if zeros {
                self.zeros_before_block(mid)
            } else {
                self.block_dir()[mid] as usize
            };
            if before <= k {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        lo
    }

    /// Position of the `k`-th (0-based) set bit.
    ///
    /// The fast path scans **forward from the sampled position** — a
    /// sequential, prefetch-friendly walk of a bounded number of bit words
    /// with no directory touch at all; sparse stretches that exhaust the
    /// budget fall back to the bounded block locate.
    ///
    /// # Panics
    /// Panics if `k >= count_ones()`.
    pub fn select1(&self, k: usize) -> usize {
        assert!(k < self.ones, "select1 rank {k} out of range {}", self.ones);
        let samples = self.select1_pos.as_slice();
        let s = k / SELECT_SAMPLE;
        let sampled = samples[s] as usize;
        let rem = k % SELECT_SAMPLE;
        if rem == 0 {
            return sampled;
        }
        // The k-th one is the rem-th one strictly after the sampled
        // position: walk the words from there, clearing the sampled bit
        // and everything below it in the first word.
        let words = self.bits.words();
        let mut w_idx = sampled / WORD_BITS;
        let above = sampled % WORD_BITS + 1;
        let mut mask = if above == WORD_BITS {
            w_idx += 1;
            !0
        } else {
            !mask_low(above)
        };
        let mut remaining = rem; // ones still to cross, target included
        for _ in 0..SCAN_FROM_SAMPLE_WORDS {
            let Some(&raw) = words.get(w_idx) else { break };
            let w = raw & mask;
            let ones = w.count_ones() as usize;
            if remaining <= ones {
                return w_idx * WORD_BITS + select_in_word(w, (remaining - 1) as u32) as usize;
            }
            remaining -= ones;
            mask = !0;
            w_idx += 1;
        }
        self.select1_via_blocks(k, s)
    }

    /// The block-directory slow path of [`RsBitVec::select1`], for sparse
    /// stretches the sample-local scan cannot cover.
    #[cold]
    fn select1_via_blocks(&self, k: usize, s: usize) -> usize {
        let samples = self.select1_pos.as_slice();
        let sampled = samples[s] as usize;
        let hi = samples
            .get(s + 1)
            .map_or(self.block_dir().len() - 2, |&p| p as usize / BLOCK_BITS);
        let block = self.locate_block(sampled / BLOCK_BITS, hi, k, false);
        let mut remaining = k - self.block_dir()[block] as usize;
        let words = self.bits.words();
        let first_word = block * BLOCK_WORDS;
        for (j, &w) in words[first_word..].iter().enumerate() {
            let ones = w.count_ones() as usize;
            if remaining < ones {
                return (first_word + j) * WORD_BITS + select_in_word(w, remaining as u32) as usize;
            }
            remaining -= ones;
        }
        unreachable!("select1: inconsistent rank directory");
    }

    /// Position of the `k`-th (0-based) zero bit. Fast path as in
    /// [`RsBitVec::select1`]: sequential scan from the sample, block locate
    /// as the sparse fallback.
    ///
    /// # Panics
    /// Panics if `k >= count_zeros()`.
    pub fn select0(&self, k: usize) -> usize {
        let zeros = self.count_zeros();
        assert!(k < zeros, "select0 rank {k} out of range {zeros}");
        let samples = self.select0_pos.as_slice();
        let s = k / SELECT_SAMPLE;
        let sampled = samples[s] as usize;
        let rem = k % SELECT_SAMPLE;
        if rem == 0 {
            return sampled;
        }
        let words = self.bits.words();
        let len = self.len();
        let mut w_idx = sampled / WORD_BITS;
        let above = sampled % WORD_BITS + 1;
        let mut mask = if above == WORD_BITS {
            w_idx += 1;
            !0
        } else {
            !mask_low(above)
        };
        let mut remaining = rem; // zeros still to cross, target included
        for _ in 0..SCAN_FROM_SAMPLE_WORDS {
            let Some(&raw) = words.get(w_idx) else { break };
            let word_start = w_idx * WORD_BITS;
            // Mask out phantom zeros beyond len in the final word.
            let valid = (len - word_start.min(len)).min(WORD_BITS);
            let inv = !raw & mask_low(valid) & mask;
            let zeros_here = inv.count_ones() as usize;
            if remaining <= zeros_here {
                return word_start + select_in_word(inv, (remaining - 1) as u32) as usize;
            }
            remaining -= zeros_here;
            mask = !0;
            w_idx += 1;
        }
        self.select0_via_blocks(k, s)
    }

    /// The block-directory slow path of [`RsBitVec::select0`].
    #[cold]
    fn select0_via_blocks(&self, k: usize, s: usize) -> usize {
        let samples = self.select0_pos.as_slice();
        let sampled = samples[s] as usize;
        let hi = samples
            .get(s + 1)
            .map_or(self.block_dir().len() - 2, |&p| p as usize / BLOCK_BITS);
        let block = self.locate_block(sampled / BLOCK_BITS, hi, k, true);
        let mut remaining = k - self.zeros_before_block(block);
        let words = self.bits.words();
        let first_word = block * BLOCK_WORDS;
        let len = self.len();
        for (j, &w) in words[first_word..].iter().enumerate() {
            let word_start = (first_word + j) * WORD_BITS;
            let valid = (len - word_start).min(WORD_BITS);
            let inv = !w & mask_low(valid);
            let zeros_here = inv.count_ones() as usize;
            if remaining < zeros_here {
                return word_start + select_in_word(inv, remaining as u32) as usize;
            }
            remaining -= zeros_here;
        }
        unreachable!("select0: inconsistent rank directory");
    }

    /// Heap size of the structure in bits, including the directories.
    pub fn size_in_bits(&self) -> usize {
        self.bits.size_in_bits()
            + self.block_dir().len() * 64
            + self.select1_pos.len() * 64
            + self.select0_pos.len() * 64
    }

    /// Size of the rank/select overhead only, in bits.
    pub fn overhead_in_bits(&self) -> usize {
        self.size_in_bits() - self.bits.size_in_bits()
    }

    /// Serializes bits **and** directories: `[ones] + bits + [n_blocks,
    /// blocks…] + [n_s1, select1_pos…] + [n_s0, select0_pos…]`. Returns the
    /// word count. This is the format-v2 layout; the sample arrays hold the
    /// exact positions described in the module docs.
    pub fn write_to(&self, w: &mut WordWriter<'_>) -> std::io::Result<usize> {
        let before = w.words_written();
        w.word(self.ones as u64)?;
        self.bits.write_to(w)?;
        w.prefixed(self.block_dir())?;
        w.prefixed(&self.select1_pos)?;
        w.prefixed(&self.select0_pos)?;
        Ok(w.words_written() - before)
    }

    /// Reads back what [`RsBitVec::write_to`] wrote. The rank/select
    /// directories come back verbatim from the stream — nothing is rebuilt,
    /// which is what makes a cold load one O(size) copy.
    pub fn read_from(src: &mut WordReader<'_>) -> Result<Self, DecodeError> {
        let ones = src.length()?;
        let bits = BitVec::read_from(src)?;
        if ones > bits.len() {
            return Err(DecodeError::Invalid("rank directory total exceeds length"));
        }
        let n_blocks = crate::div_ceil(bits.len().max(1), BLOCK_BITS);
        let blocks_len = src.length()?;
        if n_blocks.checked_add(1) != Some(blocks_len) {
            return Err(DecodeError::Invalid("rank directory block count"));
        }
        let blocks = src.take(blocks_len)?;
        // The directory must be non-decreasing and close on the claimed
        // total: that is what bounds `select`'s block locate before the
        // sentinel. O(n/512) at load, no popcounting.
        if blocks.windows(2).any(|w| matches!(w, [a, b] if a > b))
            || blocks.last() != Some(&(ones as u64))
        {
            return Err(DecodeError::Invalid("rank directory inconsistent"));
        }
        let s1_len = src.length()?;
        if s1_len != ones.div_ceil(SELECT_SAMPLE) {
            return Err(DecodeError::Invalid("select1 sample count"));
        }
        let select1_pos = src.take(s1_len)?;
        let zeros = bits.len() - ones;
        let s0_len = src.length()?;
        if s0_len != zeros.div_ceil(SELECT_SAMPLE) {
            return Err(DecodeError::Invalid("select0 sample count"));
        }
        let select0_pos = src.take(s0_len)?;
        // Samples are exact bit positions: strictly increasing and within
        // the bit range, or a query would index out of bounds. O(n/512).
        let len = bits.len() as u64;
        for samples in [&select1_pos, &select0_pos] {
            if samples.iter().any(|&p| p >= len)
                || samples.windows(2).any(|w| matches!(w, [a, b] if a >= b))
            {
                return Err(DecodeError::Invalid("select sample out of range"));
            }
        }
        Ok(Self {
            bits,
            blocks,
            select1_pos,
            select0_pos,
            ones,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Naive {
        bits: Vec<bool>,
    }

    impl Naive {
        fn rank1(&self, pos: usize) -> usize {
            self.bits[..pos].iter().filter(|&&b| b).count()
        }
        fn select1(&self, k: usize) -> usize {
            self.bits
                .iter()
                .enumerate()
                .filter(|(_, &b)| b)
                .nth(k)
                .unwrap()
                .0
        }
        fn select0(&self, k: usize) -> usize {
            self.bits
                .iter()
                .enumerate()
                .filter(|(_, &b)| !b)
                .nth(k)
                .unwrap()
                .0
        }
    }

    fn check_all(pattern: Vec<bool>) {
        let naive = Naive {
            bits: pattern.clone(),
        };
        let rs = RsBitVec::new(pattern.iter().copied().collect());
        assert_eq!(rs.len(), pattern.len());
        let ones = pattern.iter().filter(|&&b| b).count();
        assert_eq!(rs.count_ones(), ones);
        for pos in 0..=pattern.len() {
            assert_eq!(rs.rank1(pos), naive.rank1(pos), "rank1({pos})");
            assert_eq!(rs.rank0(pos), pos - naive.rank1(pos), "rank0({pos})");
        }
        for k in 0..ones {
            assert_eq!(rs.select1(k), naive.select1(k), "select1({k})");
        }
        for k in 0..(pattern.len() - ones) {
            assert_eq!(rs.select0(k), naive.select0(k), "select0({k})");
        }
    }

    #[test]
    fn small_patterns() {
        check_all(vec![true]);
        check_all(vec![false]);
        check_all(vec![true, false, true, true, false]);
        check_all((0..64).map(|i| i % 2 == 0).collect());
        check_all((0..65).map(|i| i % 2 == 1).collect());
    }

    #[test]
    fn block_boundaries() {
        check_all((0..513).map(|i| i == 512).collect());
        check_all((0..1025).map(|i| i % 512 == 0).collect());
        check_all((0..1024).map(|_| true).collect());
        check_all((0..1024).map(|_| false).collect::<Vec<_>>());
    }

    #[test]
    fn sparse_and_dense_mix() {
        // Long run of zeros, burst of ones, long run of zeros.
        let mut v = vec![false; 5000];
        for item in v.iter_mut().skip(2000).take(100) {
            *item = true;
        }
        v[4999] = true;
        check_all(v);
    }

    /// The adversarial densities of the issue: all-zero runs long enough to
    /// spread one select sample over many blocks, dense bursts that pack
    /// multiple samples into one block, and near-full blocks around the
    /// 512-boundaries where the inter-sample window degenerates.
    #[test]
    fn adversarial_densities() {
        // >512 ones packed right before and after a block boundary.
        let mut v = vec![false; 4096];
        for item in v.iter_mut().skip(200).take(700) {
            *item = true;
        }
        check_all(v);
        // Sparse: one set bit every 600 positions (samples span many blocks).
        check_all((0..20_000).map(|i| i % 600 == 599).collect());
        // Near-full blocks with single-zero punctures at 512-boundaries.
        check_all((0..8192).map(|i| i % 512 != 0).collect());
        // Alternating full / empty blocks.
        check_all((0..8192).map(|i| (i / 512) % 2 == 0).collect());
        // Exactly 512 ones then exactly 512 zeros, repeated (samples land on
        // block boundaries for both polarities).
        check_all((0..6144).map(|i| (i / 512) % 2 == 1).collect());
    }

    #[test]
    fn pseudo_random_large() {
        let mut state = 12345u64;
        let v: Vec<bool> = (0..20_000)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) & 1 == 1
            })
            .collect();
        check_all(v);
    }

    #[test]
    fn rank_at_len() {
        let rs = RsBitVec::new((0..100).map(|i| i < 50).collect());
        assert_eq!(rs.rank1(100), 50);
        assert_eq!(rs.rank0(100), 50);
    }

    fn serialize(rs: &RsBitVec) -> Vec<u64> {
        let mut bytes = Vec::new();
        let mut w = WordWriter::new(&mut bytes);
        rs.write_to(&mut w).unwrap();
        bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }

    fn load(words: &[u64]) -> Result<RsBitVec, DecodeError> {
        let bytes = crate::io::le_bytes(words);
        let mut src = WordReader::new(&bytes);
        let rs = RsBitVec::read_from(&mut src)?;
        assert_eq!(src.remaining(), 0, "read_from must consume its encoding");
        Ok(rs)
    }

    #[test]
    fn roundtrip_preserves_every_operation() {
        let mut state = 5u64;
        let pattern: Vec<bool> = (0..10_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                state & 3 == 0
            })
            .collect();
        let rs = RsBitVec::new(pattern.iter().copied().collect());
        let owned = load(&serialize(&rs)).unwrap();
        assert_eq!(owned.count_ones(), rs.count_ones());
        for pos in (0..=rs.len()).step_by(97) {
            assert_eq!(owned.rank1(pos), rs.rank1(pos));
        }
        for k in (0..rs.count_ones()).step_by(101) {
            assert_eq!(owned.select1(k), rs.select1(k));
        }
        for k in (0..rs.count_zeros()).step_by(103) {
            assert_eq!(owned.select0(k), rs.select0(k));
        }
    }

    /// Loading must use the serialized directories verbatim, not rebuild
    /// them: tampering with a directory word visibly changes `rank1`, which
    /// a rebuild would silently repair.
    #[test]
    fn load_is_rebuild_free() {
        let rs = RsBitVec::new((0..2048).map(|i| i % 2 == 0).collect());
        let mut words = serialize(&rs);
        // Layout: [ones][len][n_words][words…][n_blocks][blocks…]. Bump the
        // *second* block-directory entry (ones before block 1) by one.
        let dir_start = 1 + 2 + rs.bits().words().len() + 1;
        words[dir_start + 1] += 1;
        let loaded = load(&words).unwrap();
        assert_eq!(
            loaded.rank1(512),
            rs.rank1(512) + 1,
            "loaded rank must come from the stored directory"
        );
    }

    #[test]
    fn corrupt_directory_counts_rejected() {
        let rs = RsBitVec::new((0..2048).map(|i| i % 4 == 0).collect());
        let words = serialize(&rs);
        let mut bad = words.clone();
        bad[0] = 5000; // ones > len
        assert_eq!(
            load(&bad).err(),
            Some(DecodeError::Invalid("rank directory total exceeds length"))
        );
        // Layout: [ones][len][n_words][words…][n_blocks][blocks…].
        let dir_len = 1 + 2 + rs.bits().words().len();
        let dir_start = dir_len + 1;
        let mut bad = words.clone();
        bad[dir_len] += 1;
        assert_eq!(
            load(&bad).err(),
            Some(DecodeError::Invalid("rank directory block count"))
        );
        // A decreasing directory, and one that does not close on `ones`.
        let mut bad = words.clone();
        bad[dir_start + 2] = bad[dir_start + 1] - 1;
        assert_eq!(
            load(&bad).err(),
            Some(DecodeError::Invalid("rank directory inconsistent"))
        );
        let mut bad = words.clone();
        bad[dir_start + rs.block_dir().len() - 1] -= 1;
        assert_eq!(
            load(&bad).err(),
            Some(DecodeError::Invalid("rank directory inconsistent"))
        );
        // Every proper prefix fails typed.
        for cut in 0..words.len() {
            assert!(
                matches!(load(&words[..cut]), Err(DecodeError::Truncated { .. })),
                "prefix of {cut} words"
            );
        }
    }

    #[test]
    fn corrupt_select_samples_rejected() {
        let rs = RsBitVec::new((0..4096).map(|i| i % 3 == 0).collect());
        let words = serialize(&rs);
        // First select1 sample (right after the block directory prefix).
        let s1_start = 1 + 2 + rs.bits().words().len() + 1 + rs.block_dir().len() + 1;
        // Out-of-range position.
        let mut bad = words.clone();
        bad[s1_start] = rs.len() as u64 + 7;
        assert!(matches!(
            load(&bad),
            Err(DecodeError::Invalid("select sample out of range"))
        ));
        // A sample count that disagrees with `ones`.
        let mut bad = words.clone();
        bad[s1_start - 1] += 1;
        assert!(matches!(
            load(&bad),
            Err(DecodeError::Invalid("select1 sample count"))
        ));
        // Non-increasing samples.
        let mut bad = words.clone();
        bad[s1_start + 1] = bad[s1_start];
        assert!(matches!(
            load(&bad),
            Err(DecodeError::Invalid("select sample out of range"))
        ));
    }
}

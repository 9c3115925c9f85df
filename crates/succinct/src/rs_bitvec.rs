//! An immutable bit vector with constant-time rank and select for both bit
//! polarities.
//!
//! # Layout (position-sampled select)
//!
//! The bit sequence is divided into 512-bit blocks (8 words). A block
//! directory stores the absolute number of ones before each block (12.5 %
//! overhead); `rank` popcounts the block's words under per-word masks on top
//! of a directory lookup — a fixed-shape, branch-free loop rather than a
//! data-dependent word walk.
//!
//! `select` uses *position samples*: the directory stores the **exact bit
//! position** of every 512-th one (resp. zero). `select1(k)` scans forward
//! from the sample below `k`, and a sparse stretch the scan cannot cover
//! binary-searches the window of the block directory between the two
//! samples bracketing `k` (the inter-sample block locate). The final step
//! is an in-word broadword select.
//!
//! `select0` — the one select the Elias–Fano predecessor issues — adds a
//! second level under the zero samples: the two-level inventory of Vigna,
//! "Broadword implementation of rank/select queries" (WEA 2008). For every
//! 512-zero sample it holds the position of every 64-th zero as a 16-bit
//! offset from the sample (16 bytes per sample, +0.25 bits per zero), so a
//! query reads the sample and one offset, then selects among the words
//! that hold the next at most 63 zeros: one or two at the Elias–Fano
//! densities (about one zero every two bits), and never more than the
//! sample range's `2^16` bits. A sample range spanning `2^16` bits or more
//! does not fit 16-bit offsets; it is *escaped*: the exact position of each
//! of its zeros is stored instead, which costs at most half a bit per bit
//! of such a range. The inventory is derived from the bits on first use
//! and never serialized; `RsBitVec::with_select0_inventory` derives it up
//! front for owners that will call `select0` (Elias–Fano), and bit vectors
//! that never call `select0` (the tries', for instance) never pay its
//! bytes.
//!
//! This replaces the seed's scheme (block-index hints plus a forward scan of
//! the directory); it is the classic rank/select engineering trade-off
//! described by Navarro \[28\], tuned for the query hot path of the paper's
//! filters.
//!
//! # Persistence
//!
//! Only the bits serialize. Loading derives the rank directory and the
//! select samples from them (a popcount pass and one sampling pass per
//! polarity), exactly as building does, so every directory a query or the
//! `select0` inventory trusts was computed from the bits it indexes.

use std::sync::OnceLock;

use crate::bitvec::BitVec;
use crate::io::{DecodeError, WordReader, WordWriter};
use crate::simd::select_in_word;
use crate::WORD_BITS;

const BLOCK_WORDS: usize = 8;
const BLOCK_BITS: usize = BLOCK_WORDS * WORD_BITS; // 512
const SELECT_SAMPLE: usize = 512;

/// Zeros between two entries of the `select0` inventory.
const INVENTORY_STEP: usize = 64;

/// Inventory entries per zero sample (the first is the sample itself).
const INVENTORY_PER_SAMPLE: usize = SELECT_SAMPLE / INVENTORY_STEP; // 8

/// Sample ranges at least this many bits long are escaped: their offsets
/// would not fit 16 bits.
const ESCAPE_SPAN: u64 = 1 << 16;

/// Word budget of the `select1` fast path that scans forward from the
/// sampled position (sequential loads, no directory touch). 32 words = 2048
/// bits cover a full inter-sample gap at any density >= 1/4, so only
/// genuinely sparse stretches take the block-locate fallback.
const SCAN_FROM_SAMPLE_WORDS: usize = 32;

/// The low `n` bits set, for `n` in `0..=64`.
#[inline]
fn mask_low(n: usize) -> u64 {
    1u64.checked_shl(n as u32).map_or(!0, |m| m.wrapping_sub(1))
}

/// The second level of `select0`, derived from the bits (see the module
/// docs).
#[derive(Clone, Debug)]
struct ZeroInventory {
    /// `offsets[s * 8 + j]` = position of zero `s * 512 + j * 64` minus the
    /// position of zero `s * 512`. Slot `s * 8` is `0` for every sample
    /// range except an escaped one, where it is [`ZeroInventory::ESCAPED`].
    offsets: Vec<u16>,
    /// The escaped sample indices, ascending.
    escaped: Vec<usize>,
    /// For the `i`-th escaped sample, the exact positions of its zeros at
    /// `exact[i * 512..]`.
    exact: Vec<u64>,
}

impl ZeroInventory {
    const ESCAPED: u16 = 1;

    /// Derives the inventory of `bits`, whose `zeros` zeros are sampled at
    /// `samples` (every 512-th zero's position), in one pass over the
    /// words plus one pass over each escaped range.
    fn derive(bits: &BitVec, zeros: usize, samples: &[u64]) -> Self {
        let len = bits.len() as u64;
        let escapes = |s: usize| samples.get(s + 1).map_or(len, |&p| p) - samples[s] >= ESCAPE_SPAN;
        let mut offsets = vec![0u16; samples.len() * INVENTORY_PER_SAMPLE];
        for_each_sampled(bits, false, zeros, INVENTORY_STEP, |j, pos| {
            let s = j / INVENTORY_PER_SAMPLE;
            if !escapes(s) {
                // The range spans under 2^16 bits, so the offset fits.
                offsets[j] = (pos - samples[s]) as u16;
            }
        });
        let escaped: Vec<usize> = (0..samples.len()).filter(|&s| escapes(s)).collect();
        let mut exact = Vec::new();
        for &s in &escaped {
            offsets[s * INVENTORY_PER_SAMPLE] = Self::ESCAPED;
            let count = SELECT_SAMPLE.min(zeros - s * SELECT_SAMPLE);
            push_zeros_from(bits, samples[s] as usize, count, &mut exact);
        }
        Self {
            offsets,
            escaped,
            exact,
        }
    }
}

/// Calls `f(j, position)` for the `(j · step)`-th one (`of_ones`) or zero,
/// for every `j · step` below `count`, in one pass over the words.
fn for_each_sampled(
    bits: &BitVec,
    of_ones: bool,
    count: usize,
    step: usize,
    mut f: impl FnMut(usize, u64),
) {
    let (mut next, mut seen) = (0usize, 0usize);
    let len = bits.len();
    for (wi, &raw) in bits.words().iter().enumerate() {
        if next >= count {
            break;
        }
        // Tail bits beyond len are zero, so only zeros need the mask.
        let valid = (len - (wi * WORD_BITS).min(len)).min(WORD_BITS);
        let w = if of_ones { raw } else { !raw & mask_low(valid) };
        let here = w.count_ones() as usize;
        while next < count && next < seen + here {
            let pos = wi * WORD_BITS + select_in_word(w, (next - seen) as u32) as usize;
            f(next / step, pos as u64);
            next += step;
        }
        seen += here;
    }
}

/// Exact positions of the `step`-th ones (`of_ones`) or zeros: entries
/// `0, step, 2·step, …` below `count`.
fn sample_positions(bits: &BitVec, of_ones: bool, count: usize, step: usize) -> Vec<u64> {
    let mut out = Vec::with_capacity(count.div_ceil(step));
    for_each_sampled(bits, of_ones, count, step, |_, pos| out.push(pos));
    out
}

/// Appends to `out` the positions of the `count` zeros at or after bit
/// `from` (which must be a zero with at least `count - 1` zeros after it).
fn push_zeros_from(bits: &BitVec, from: usize, count: usize, out: &mut Vec<u64>) {
    let words = bits.words();
    let mut w_idx = from / WORD_BITS;
    let mut inv = !words[w_idx] & !mask_low(from % WORD_BITS);
    for _ in 0..count {
        while inv == 0 {
            w_idx += 1;
            inv = !words[w_idx];
        }
        out.push((w_idx * WORD_BITS + inv.trailing_zeros() as usize) as u64);
        inv &= inv - 1;
    }
}

/// The rank directory of `bits`: ones before each 512-bit block, plus a
/// sentinel holding the total.
fn rank_directory(bits: &BitVec) -> Vec<u64> {
    let n_blocks = crate::div_ceil(bits.len().max(1), BLOCK_BITS);
    let mut blocks = Vec::with_capacity(n_blocks + 1);
    let mut acc = 0u64;
    blocks.push(acc);
    for block in bits.words().chunks(BLOCK_WORDS) {
        acc += block.iter().map(|w| w.count_ones() as u64).sum::<u64>();
        blocks.push(acc);
    }
    blocks.resize(n_blocks + 1, acc);
    blocks
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
    /// The `select0` inventory, derived on first use.
    zero_inventory: OnceLock<ZeroInventory>,
    ones: usize,
}

impl RsBitVec {
    /// Freezes `bits` and builds rank/select support.
    pub fn new(bits: BitVec) -> Self {
        let blocks = rank_directory(&bits);
        let ones = blocks[blocks.len() - 1] as usize;
        let zeros = bits.len() - ones;
        Self {
            select1_pos: sample_positions(&bits, true, ones, SELECT_SAMPLE),
            select0_pos: sample_positions(&bits, false, zeros, SELECT_SAMPLE),
            bits,
            blocks,
            zero_inventory: OnceLock::new(),
            ones,
        }
    }

    /// Derives the `select0` inventory now rather than on the first
    /// `select0`, so the first query pays nothing extra.
    pub(crate) fn with_select0_inventory(self) -> Self {
        self.zero_inventory();
        self
    }

    #[inline]
    fn zero_inventory(&self) -> &ZeroInventory {
        self.zero_inventory.get_or_init(|| {
            ZeroInventory::derive(&self.bits, self.count_zeros(), &self.select0_pos)
        })
    }

    /// Resident bits of the `select0` inventory (0 until it is derived).
    #[cfg(test)]
    pub(crate) fn select0_inventory_bits(&self) -> usize {
        self.zero_inventory.get().map_or(0, |inv| {
            inv.offsets.len() * 16 + inv.escaped.len() * 64 + inv.exact.len() * 64
        })
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

    /// Last block index in `[lo, hi]` with at most `k` ones before it — the
    /// bounded inter-sample block locate of `select1`. `blocks[lo] <= k`
    /// must hold on entry.
    #[inline]
    fn locate_block(&self, mut lo: usize, mut hi: usize, k: usize) -> usize {
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            if self.block_dir()[mid] as usize <= k {
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
        let block = self.locate_block(sampled / BLOCK_BITS, hi, k);
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

    /// Position of the `k`-th (0-based) zero bit: the 512-zero sample, the
    /// inventory's offset of the 64-zero step below `k`, then an in-word
    /// select over the words that hold the remaining `k % 64` zeros (one
    /// or two at Elias–Fano densities). An escaped sample range answers
    /// from its exact positions.
    ///
    /// # Panics
    /// Panics if `k >= count_zeros()`.
    #[inline]
    pub fn select0(&self, k: usize) -> usize {
        let zeros = self.count_zeros();
        assert!(k < zeros, "select0 rank {k} out of range {zeros}");
        let inventory = self.zero_inventory();
        let s = k / SELECT_SAMPLE;
        let slot = s * INVENTORY_PER_SAMPLE;
        if inventory.offsets[slot] == ZeroInventory::ESCAPED {
            return self.select0_escaped(s, k % SELECT_SAMPLE);
        }
        let step = (k % SELECT_SAMPLE) / INVENTORY_STEP;
        let from = self.select0_pos[s] as usize + inventory.offsets[slot + step] as usize;
        // The target is the (k % 64)-th zero at or after the zero at
        // `from`. Bits past `len` read as zeros here, but the target is a
        // real zero, and every real zero precedes them.
        let words = self.bits.words();
        let mut w_idx = from / WORD_BITS;
        let mut zeros_here = !words[w_idx] & !mask_low(from % WORD_BITS);
        let mut remaining = k % INVENTORY_STEP;
        loop {
            let count = zeros_here.count_ones() as usize;
            if remaining < count {
                return w_idx * WORD_BITS + select_in_word(zeros_here, remaining as u32) as usize;
            }
            remaining -= count;
            w_idx += 1;
            zeros_here = !words[w_idx];
        }
    }

    /// [`RsBitVec::select0`] in an escaped sample range: the `r`-th zero of
    /// sample `s`, read from the exact positions.
    #[cold]
    fn select0_escaped(&self, s: usize, r: usize) -> usize {
        let inventory = self.zero_inventory();
        let i = inventory
            .escaped
            .binary_search(&s)
            .expect("escaped sample is listed");
        inventory.exact[i * SELECT_SAMPLE + r] as usize
    }

    /// Resident heap size in bits: the bits, the rank directory and the
    /// select samples. Only the bits serialize; the derived `select0`
    /// inventory is not counted.
    pub fn size_in_bits(&self) -> usize {
        self.bits.size_in_bits()
            + self.block_dir().len() * 64
            + self.select1_pos.len() * 64
            + self.select0_pos.len() * 64
    }

    /// Serializes the bits alone ([`BitVec::write_to`]); the directories
    /// are derived again on load. Returns the word count.
    pub fn write_to(&self, w: &mut WordWriter<'_>) -> std::io::Result<usize> {
        self.bits.write_to(w)
    }

    /// Reads back what [`RsBitVec::write_to`] wrote and derives the rank
    /// directory and the select samples from the bits.
    pub fn read_from(src: &mut WordReader<'_>) -> Result<Self, DecodeError> {
        Ok(Self::new(BitVec::read_from(src)?))
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
        let words = serialize(&rs);
        // Only the bits serialize: `[len, n_words] + words`.
        assert_eq!(words.len(), 2 + rs.bits().words().len());
        let owned = load(&words).unwrap();
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
        // A flipped data bit loads as the vector it now spells: the
        // directories are derived from the bits, never read.
        let mut flipped = words.clone();
        flipped[2] ^= 1 << 1;
        let loaded = load(&flipped).unwrap();
        let mut bits = rs.bits().clone();
        bits.set(1, !bits.get(1));
        let rebuilt = RsBitVec::new(bits);
        assert_eq!(loaded.count_ones(), rebuilt.count_ones());
        for pos in (0..=rs.len()).step_by(97) {
            assert_eq!(loaded.rank1(pos), rebuilt.rank1(pos));
        }
        // Every proper prefix fails typed.
        for cut in 0..words.len() {
            assert!(
                matches!(load(&words[..cut]), Err(DecodeError::Truncated { .. })),
                "prefix of {cut} words"
            );
        }
    }
}

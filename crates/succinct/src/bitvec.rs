//! A word-packed bit vector with bit-field access.

use crate::io::{DecodeError, WordReader, WordWriter};
use crate::{div_ceil, WORD_BITS};

/// A plain bit vector packed into `u64` words.
///
/// Supports single-bit get/set, appending, and reading/writing arbitrary
/// bit-fields of up to 64 bits that may straddle a word boundary. This is the
/// mutable building block; query-time structures freeze it into an
/// [`crate::RsBitVec`] for rank/select support.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates an empty bit vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a bit vector of `len` zero bits.
    ///
    /// # Panics
    /// Panics if the allocator cannot provide the words; a caller sized by
    /// an untrusted budget uses [`BitVec::try_zeros`] and refuses instead.
    pub fn zeros(len: usize) -> Self {
        Self::try_zeros(len).expect("bit vector words allocated")
    }

    /// A bit vector of `len` zero bits, or `None` when the allocator cannot
    /// provide the words.
    pub fn try_zeros(len: usize) -> Option<Self> {
        let n_words = div_ceil(len.max(1), WORD_BITS);
        let mut words = Vec::new();
        words.try_reserve_exact(n_words).ok()?;
        words.resize(n_words, 0);
        Some(Self { words, len })
    }

    /// Wraps already-packed `words` as a bit vector of `len` bits — the
    /// word-level construction path used when the caller sets bits directly
    /// in a word buffer (e.g. Elias–Fano's high-bits build) instead of
    /// going through per-bit [`BitVec::set`] calls.
    ///
    /// # Panics
    /// Panics if the word count does not match `len`, or if any bit at a
    /// position `>= len` is set (the invariant `count_ones` relies on).
    pub fn from_words(words: Vec<u64>, len: usize) -> Self {
        assert_eq!(
            words.len(),
            div_ceil(len.max(1), WORD_BITS),
            "word count does not match bit length"
        );
        let tail_zero = if len == 0 {
            words[0] == 0
        } else if len % WORD_BITS != 0 {
            words[len / WORD_BITS] >> (len % WORD_BITS) == 0
        } else {
            true
        };
        assert!(tail_zero, "bits beyond len must be zero");
        Self { words, len }
    }

    /// Creates an empty bit vector with room for `cap` bits.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            words: Vec::with_capacity(div_ceil(cap.max(1), WORD_BITS)),
            len: 0,
        }
    }

    /// Sets the bit at `pos` to `value`.
    ///
    /// # Panics
    /// Panics if `pos >= len`.
    #[inline]
    pub fn set(&mut self, pos: usize, value: bool) {
        assert!(pos < self.len, "bit index {pos} out of range {}", self.len);
        let w = &mut self.words[pos / WORD_BITS];
        let mask = 1u64 << (pos % WORD_BITS);
        if value {
            *w |= mask;
        } else {
            *w &= !mask;
        }
    }

    /// Appends a single bit.
    #[inline]
    pub fn push(&mut self, value: bool) {
        let word = self.len / WORD_BITS;
        if word == self.words.len() {
            self.words.push(0);
        }
        if value {
            self.words[word] |= 1u64 << (self.len % WORD_BITS);
        }
        self.len += 1;
    }

    /// Appends the `width` low bits of `value` (LSB first).
    ///
    /// # Panics
    /// Panics if `width > 64` or if `value` has bits above `width`.
    pub fn push_bits(&mut self, value: u64, width: usize) {
        assert!(width <= 64, "width {width} > 64");
        if width < 64 {
            assert!(
                value < (1u64 << width),
                "value {value} wider than {width} bits"
            );
        }
        if width == 0 {
            return;
        }
        let pos = self.len;
        self.len += width;
        let needed = div_ceil(self.len, WORD_BITS);
        while self.words.len() < needed {
            self.words.push(0);
        }
        let word = pos / WORD_BITS;
        let offset = pos % WORD_BITS;
        self.words[word] |= value << offset;
        if offset + width > WORD_BITS {
            self.words[word + 1] |= value >> (WORD_BITS - offset);
        }
    }

    /// Appends bits `[from, to)` of `src`: the word-shifted block copy
    /// behind [`EliasFano::merged`](crate::EliasFano::merged). Once the
    /// last word is filled, every further word is two source words
    /// shifted together.
    ///
    /// # Panics
    /// Panics if the range is inverted or extends past the end of `src`.
    pub(crate) fn extend_from(&mut self, src: &BitVec, from: usize, to: usize) {
        assert!(from <= to && to <= src.len, "bit range out of range");
        // Words past `len` hold only zeros (`zeros(0)` keeps one).
        self.words.truncate(div_ceil(self.len, WORD_BITS));
        let head = (WORD_BITS - self.len % WORD_BITS) % WORD_BITS;
        let head = head.min(to - from);
        self.push_bits(src.get_bits(from, head), head);
        let from = from + head;
        let full = (to - from) / WORD_BITS;
        let (first, shift) = (from / WORD_BITS, from % WORD_BITS);
        if shift == 0 {
            self.words
                .extend_from_slice(&src.words[first..first + full]);
        } else {
            // The last whole field ends in source word `first + full`.
            self.words.extend(
                src.words[first..=first + full]
                    .windows(2)
                    .map(|w| (w[0] >> shift) | (w[1] << (WORD_BITS - shift))),
            );
        }
        self.len += full * WORD_BITS;
        let from = from + full * WORD_BITS;
        self.push_bits(src.get_bits(from, to - from), to - from);
    }

    /// Writes the `width` low bits of `value` at bit position `pos`.
    #[inline]
    pub fn set_bits(&mut self, pos: usize, value: u64, width: usize) {
        assert!(width <= 64);
        assert!(pos + width <= self.len, "bit field out of range");
        if width < 64 {
            assert!(value < (1u64 << width));
        }
        if width == 0 {
            return;
        }
        let word = pos / WORD_BITS;
        let offset = pos % WORD_BITS;
        let mask = if width == 64 {
            !0u64
        } else {
            (1u64 << width) - 1
        };
        self.words[word] = (self.words[word] & !(mask << offset)) | (value << offset);
        if offset + width > WORD_BITS {
            let spill = WORD_BITS - offset;
            let hi_mask = mask >> spill;
            self.words[word + 1] = (self.words[word + 1] & !hi_mask) | (value >> spill);
        }
    }

    /// Number of bits stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector holds no bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns the bit at `pos`.
    ///
    /// # Panics
    /// Panics if `pos >= len`.
    #[inline]
    pub fn get(&self, pos: usize) -> bool {
        assert!(pos < self.len, "bit index {pos} out of range {}", self.len);
        (self.words[pos / WORD_BITS] >> (pos % WORD_BITS)) & 1 == 1
    }

    /// Reads `width` bits starting at bit `pos` (LSB first).
    ///
    /// # Panics
    /// Panics if `width > 64` or the field extends past the end.
    #[inline]
    pub fn get_bits(&self, pos: usize, width: usize) -> u64 {
        assert!(width <= 64);
        assert!(pos + width <= self.len, "bit field out of range");
        if width == 0 {
            return 0;
        }
        let words = &self.words;
        let word = pos / WORD_BITS;
        let offset = pos % WORD_BITS;
        let mask = if width == 64 {
            !0u64
        } else {
            (1u64 << width) - 1
        };
        if offset + width <= WORD_BITS {
            (words[word] >> offset) & mask
        } else {
            ((words[word] >> offset) | (words[word + 1] << (WORD_BITS - offset))) & mask
        }
    }

    /// Total number of set bits.
    pub fn count_ones(&self) -> usize {
        // Trailing bits beyond `len` are maintained as zero, so a plain
        // popcount over the words is exact.
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The backing words. Bits at positions `>= len` are zero.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The `i`-th backing word.
    #[inline]
    pub fn word(&self, i: usize) -> u64 {
        self.words[i]
    }

    /// Iterator over all bits.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Position of the first set bit at or after `pos`, if any.
    pub fn next_one(&self, pos: usize) -> Option<usize> {
        if pos >= self.len {
            return None;
        }
        let words = &self.words;
        let mut word_idx = pos / WORD_BITS;
        let mut w = words[word_idx] & (!0u64 << (pos % WORD_BITS));
        loop {
            if w != 0 {
                let p = word_idx * WORD_BITS + w.trailing_zeros() as usize;
                return if p < self.len { Some(p) } else { None };
            }
            word_idx += 1;
            if word_idx >= words.len() {
                return None;
            }
            w = words[word_idx];
        }
    }

    /// Iterator over the positions of set bits.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let tz = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * WORD_BITS + tz)
                }
            })
        })
    }

    /// Heap size of the structure in bits (for space accounting).
    pub fn size_in_bits(&self) -> usize {
        self.words.len() * WORD_BITS
    }

    /// Serializes as `[len, n_words, words…]`, returning the word count.
    pub fn write_to(&self, w: &mut WordWriter<'_>) -> std::io::Result<usize> {
        let before = w.words_written();
        w.word(self.len as u64)?;
        w.prefixed(&self.words)?;
        Ok(w.words_written() - before)
    }

    /// Reads back what [`BitVec::write_to`] wrote.
    pub fn read_from(src: &mut WordReader<'_>) -> Result<Self, DecodeError> {
        let len = src.length()?;
        let n_words = src.length()?;
        let min_words = div_ceil(len, WORD_BITS);
        // `zeros(0)` legitimately carries one word for zero bits; anything
        // beyond one slack word is malformed.
        if n_words < min_words || n_words > div_ceil(len.max(1), WORD_BITS) {
            return Err(DecodeError::Invalid("bit vector word count"));
        }
        let words = src.take(n_words)?;
        // Enforce the "bits beyond len are zero" invariant `count_ones`
        // relies on.
        let tail_ok = if len % WORD_BITS != 0 {
            words
                .get(len / WORD_BITS)
                .is_some_and(|&w| w >> (len % WORD_BITS) == 0)
        } else {
            true
        } && words
            .get(min_words..)
            .into_iter()
            .flatten()
            .all(|&w| w == 0);
        if !tail_ok {
            return Err(DecodeError::Invalid("bit vector tail bits set"));
        }
        Ok(Self { words, len })
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        let mut bv = BitVec::new();
        for b in iter {
            bv.push(b);
        }
        bv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get() {
        let mut bv = BitVec::new();
        let pattern: Vec<bool> = (0..200).map(|i| i % 3 == 0).collect();
        for &b in &pattern {
            bv.push(b);
        }
        assert_eq!(bv.len(), 200);
        for (i, &b) in pattern.iter().enumerate() {
            assert_eq!(bv.get(i), b, "bit {i}");
        }
        assert_eq!(bv.count_ones(), pattern.iter().filter(|&&b| b).count());
    }

    #[test]
    fn zeros_then_set() {
        let mut bv = BitVec::zeros(130);
        assert_eq!(bv.count_ones(), 0);
        bv.set(0, true);
        bv.set(64, true);
        bv.set(129, true);
        assert_eq!(bv.count_ones(), 3);
        assert!(bv.get(64));
        bv.set(64, false);
        assert_eq!(bv.count_ones(), 2);
    }

    #[test]
    fn bit_fields_straddle_words() {
        let mut bv = BitVec::new();
        bv.push_bits(0b1011, 4);
        bv.push_bits(0xFFFF_FFFF_FFFF, 48); // crosses into word 0 tail
        bv.push_bits(0x3, 2);
        bv.push_bits(0xDEAD_BEEF, 32); // straddles words 0/1
        assert_eq!(bv.get_bits(0, 4), 0b1011);
        assert_eq!(bv.get_bits(4, 48), 0xFFFF_FFFF_FFFF);
        assert_eq!(bv.get_bits(52, 2), 0x3);
        assert_eq!(bv.get_bits(54, 32), 0xDEAD_BEEF);
    }

    #[test]
    fn set_bits_roundtrip() {
        let mut bv = BitVec::zeros(256);
        bv.set_bits(60, 0xABCD, 16); // straddles boundary
        bv.set_bits(0, 0x5, 3);
        bv.set_bits(192, u64::MAX, 64);
        assert_eq!(bv.get_bits(60, 16), 0xABCD);
        assert_eq!(bv.get_bits(0, 3), 0x5);
        assert_eq!(bv.get_bits(192, 64), u64::MAX);
        // Overwrite.
        bv.set_bits(60, 0x1234, 16);
        assert_eq!(bv.get_bits(60, 16), 0x1234);
    }

    #[test]
    fn iter_ones_matches() {
        let mut bv = BitVec::zeros(300);
        let positions = [0usize, 1, 63, 64, 65, 127, 128, 255, 299];
        for &p in &positions {
            bv.set(p, true);
        }
        let got: Vec<usize> = bv.iter_ones().collect();
        assert_eq!(got, positions);
    }

    #[test]
    fn push_bits_width_edge_cases() {
        let mut bv = BitVec::new();
        bv.push_bits(0, 0); // no-op
        assert_eq!(bv.len(), 0);
        bv.push_bits(u64::MAX, 64);
        assert_eq!(bv.len(), 64);
        assert_eq!(bv.get_bits(0, 64), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let bv = BitVec::zeros(10);
        bv.get(10);
    }

    /// The name predates the retired borrowed-view tier: the owned load
    /// path checked here is the only one.
    #[test]
    fn serialization_roundtrips_owned_and_view() {
        for bv in [
            BitVec::new(),
            BitVec::zeros(0),
            BitVec::zeros(130),
            (0..777).map(|i| i % 5 == 0).collect::<BitVec>(),
        ] {
            let mut bytes = Vec::new();
            let mut w = WordWriter::new(&mut bytes);
            let written = bv.write_to(&mut w).unwrap();
            assert_eq!(written * 8, bytes.len());

            let mut src = WordReader::new(&bytes);
            assert_eq!(BitVec::read_from(&mut src).unwrap(), bv);
            assert_eq!(src.remaining(), 0);
        }
    }

    #[test]
    fn corrupt_tail_bits_rejected() {
        use crate::io::le_bytes;
        // len = 3 but a bit beyond position 3 is set.
        let bytes = le_bytes(&[3, 1, 0b1000]);
        assert_eq!(
            BitVec::read_from(&mut WordReader::new(&bytes)),
            Err(DecodeError::Invalid("bit vector tail bits set"))
        );
        // Word count below what len needs.
        let bytes = le_bytes(&[100, 1, 0]);
        assert_eq!(
            BitVec::read_from(&mut WordReader::new(&bytes)),
            Err(DecodeError::Invalid("bit vector word count"))
        );
        // A word count the stream cannot hold is truncated, not allocated.
        let bytes = le_bytes(&[1 << 56, 1 << 50]);
        assert!(matches!(
            BitVec::read_from(&mut WordReader::new(&bytes)),
            Err(DecodeError::Truncated { have: 2, .. })
        ));
    }
}

#[cfg(test)]
mod next_one_tests {
    use super::*;

    #[test]
    fn next_one_scans_correctly() {
        let mut bv = BitVec::zeros(300);
        for &p in &[5usize, 64, 65, 190, 299] {
            bv.set(p, true);
        }
        assert_eq!(bv.next_one(0), Some(5));
        assert_eq!(bv.next_one(5), Some(5));
        assert_eq!(bv.next_one(6), Some(64));
        assert_eq!(bv.next_one(65), Some(65));
        assert_eq!(bv.next_one(66), Some(190));
        assert_eq!(bv.next_one(191), Some(299));
        assert_eq!(bv.next_one(299), Some(299));
        assert_eq!(bv.next_one(300), None);
    }

    #[test]
    fn next_one_empty_and_full() {
        let bv = BitVec::zeros(100);
        assert_eq!(bv.next_one(0), None);
        let bv: BitVec = (0..100).map(|_| true).collect();
        for p in 0..100 {
            assert_eq!(bv.next_one(p), Some(p));
        }
    }

    #[test]
    fn next_one_matches_linear_scan() {
        let mut state = 7u64;
        let bv: BitVec = (0..1000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                state & 0x11 == 0
            })
            .collect();
        for pos in 0..1000 {
            let expect = (pos..1000).find(|&i| bv.get(i));
            assert_eq!(bv.next_one(pos), expect, "pos {pos}");
        }
    }
}

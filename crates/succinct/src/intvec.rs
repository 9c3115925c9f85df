//! A packed vector of fixed-width integers.

use crate::bitvec::BitVec;
use crate::io::{DecodeError, WordReader, WordWriter};

/// A vector of `len` integers, each stored in exactly `width` bits
/// (`0 <= width <= 64`).
///
/// This is the array `V` of low parts in the paper's Elias–Fano layout
/// (Figure 2), but it is generally useful: the FST uses it for value slots and
/// SNARF for spline bookkeeping.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IntVec {
    bits: BitVec,
    width: usize,
    len: usize,
}

impl IntVec {
    /// Creates an empty vector of `width`-bit integers.
    pub fn new(width: usize) -> Self {
        assert!(width <= 64, "width {width} > 64");
        Self {
            bits: BitVec::new(),
            width,
            len: 0,
        }
    }

    /// Creates an empty vector with room for `cap` values.
    pub fn with_capacity(width: usize, cap: usize) -> Self {
        assert!(width <= 64);
        Self {
            bits: BitVec::with_capacity(width * cap),
            width,
            len: 0,
        }
    }

    /// Builds from a slice, using the given width.
    ///
    /// # Panics
    /// Panics if any value does not fit in `width` bits.
    pub fn from_slice(width: usize, values: &[u64]) -> Self {
        let mut v = Self::with_capacity(width, values.len());
        for &x in values {
            v.push(x);
        }
        v
    }

    /// Appends a value.
    ///
    /// # Panics
    /// Panics if `value` does not fit in `width` bits.
    #[inline]
    pub fn push(&mut self, value: u64) {
        self.bits.push_bits(value, self.width);
        self.len += 1;
    }

    /// Overwrites the `i`-th value.
    #[inline]
    pub fn set(&mut self, i: usize, value: u64) {
        assert!(i < self.len, "index {i} out of range {}", self.len);
        self.bits.set_bits(i * self.width, value, self.width);
    }

    /// Smallest width able to represent `value`.
    #[inline]
    pub fn width_for(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// The width in bits of each element.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns the `i`-th value.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        assert!(i < self.len, "index {i} out of range {}", self.len);
        self.bits.get_bits(i * self.width, self.width)
    }

    /// Iterator over the values.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// The raw backing words, for callers that stream fields sequentially
    /// with their own bit cursor (the Elias–Fano low-bits scan).
    #[inline]
    pub(crate) fn raw_words(&self) -> &[u64] {
        self.bits.words()
    }

    /// The packed fields as one bit vector (`len · width` bits).
    pub(crate) fn bits(&self) -> &BitVec {
        &self.bits
    }

    /// Wraps `len` fields of `width` bits already packed into `bits`.
    pub(crate) fn from_bits(width: usize, len: usize, bits: BitVec) -> Self {
        assert_eq!(bits.len(), width * len, "packed integer bit count");
        Self { bits, width, len }
    }

    /// Heap size in bits.
    pub fn size_in_bits(&self) -> usize {
        self.bits.size_in_bits() + 128 // width + len bookkeeping
    }

    /// Serializes as `[width, len] + bits`. Returns the word count.
    pub fn write_to(&self, w: &mut WordWriter<'_>) -> std::io::Result<usize> {
        let before = w.words_written();
        w.word(self.width as u64)?;
        w.word(self.len as u64)?;
        self.bits.write_to(w)?;
        Ok(w.words_written() - before)
    }

    /// Reads back what [`IntVec::write_to`] wrote.
    pub fn read_from(src: &mut WordReader<'_>) -> Result<Self, DecodeError> {
        let width = src.length()?;
        if width > 64 {
            return Err(DecodeError::Invalid("integer width above 64"));
        }
        let len = src.length()?;
        let bits = BitVec::read_from(src)?;
        if bits.len()
            != width
                .checked_mul(len)
                .ok_or(DecodeError::Invalid("length overflow"))?
        {
            return Err(DecodeError::Invalid("packed integer bit count"));
        }
        Ok(Self { bits, width, len })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_various_widths() {
        for width in [0usize, 1, 3, 7, 8, 13, 31, 32, 33, 63, 64] {
            let mask = if width == 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
            let values: Vec<u64> = (0..200u64)
                .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15) & mask)
                .collect();
            let iv = IntVec::from_slice(width, &values);
            assert_eq!(iv.len(), values.len());
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(iv.get(i), v, "width={width} i={i}");
            }
            let collected: Vec<u64> = iv.iter().collect();
            assert_eq!(collected, values);
        }
    }

    #[test]
    fn zero_width_is_all_zeros() {
        let iv = IntVec::from_slice(0, &[0, 0, 0]);
        assert_eq!(iv.len(), 3);
        assert_eq!(iv.get(2), 0);
    }

    #[test]
    fn set_overwrites() {
        let mut iv = IntVec::from_slice(10, &[1, 2, 3, 4]);
        iv.set(2, 1023);
        assert_eq!(iv.get(1), 2);
        assert_eq!(iv.get(2), 1023);
        assert_eq!(iv.get(3), 4);
    }

    #[test]
    fn width_for_values() {
        assert_eq!(IntVec::width_for(0), 0);
        assert_eq!(IntVec::width_for(1), 1);
        assert_eq!(IntVec::width_for(2), 2);
        assert_eq!(IntVec::width_for(255), 8);
        assert_eq!(IntVec::width_for(256), 9);
        assert_eq!(IntVec::width_for(u64::MAX), 64);
    }

    #[test]
    #[should_panic]
    fn push_too_wide_panics() {
        let mut iv = IntVec::new(4);
        iv.push(16);
    }

    /// The name predates the retired borrowed-view tier: the owned load
    /// path checked here is the only one.
    #[test]
    fn serialization_roundtrips_owned_and_view() {
        for width in [0usize, 5, 13, 64] {
            let mask = if width == 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
            let values: Vec<u64> = (0..150u64)
                .map(|i| i.wrapping_mul(0xABCDE12345) & mask)
                .collect();
            let iv = IntVec::from_slice(width, &values);
            let mut bytes = Vec::new();
            iv.write_to(&mut WordWriter::new(&mut bytes)).unwrap();

            let owned = IntVec::read_from(&mut WordReader::new(&bytes)).unwrap();
            assert_eq!(owned, iv, "width {width}");
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(owned.get(i), v);
            }
        }
    }

    #[test]
    fn corrupt_width_rejected() {
        let iv = IntVec::from_slice(8, &[1, 2, 3]);
        let mut bytes = Vec::new();
        iv.write_to(&mut WordWriter::new(&mut bytes)).unwrap();
        let load = |bytes: &[u8]| IntVec::read_from(&mut WordReader::new(bytes));
        let mut bad = bytes.clone();
        bad[..8].copy_from_slice(&65u64.to_le_bytes());
        assert_eq!(
            load(&bad),
            Err(DecodeError::Invalid("integer width above 64"))
        );
        // A length that disagrees with the packed bit count.
        let mut bad = bytes.clone();
        bad[8..16].copy_from_slice(&4u64.to_le_bytes());
        assert_eq!(
            load(&bad),
            Err(DecodeError::Invalid("packed integer bit count"))
        );
        // width · len overflowing is invalid, not a wrapped bit count.
        let mut bad = bytes.clone();
        bad[..8].copy_from_slice(&64u64.to_le_bytes());
        bad[8..16].copy_from_slice(&(1u64 << 60).to_le_bytes());
        assert_eq!(load(&bad), Err(DecodeError::Invalid("length overflow")));
        for cut in 0..bytes.len() {
            assert!(matches!(
                load(&bytes[..cut]),
                Err(DecodeError::Truncated { .. })
            ));
        }
    }
}

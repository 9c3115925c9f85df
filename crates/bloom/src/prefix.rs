//! The Prefix Bloom Filter (paper §2): hash fixed-length key prefixes into a
//! Bloom filter; a range query probes every prefix overlapping the range.

use grafite_succinct::io::{DecodeError, WordReader, WordWriter};

use crate::bloom::BloomFilter;

/// A Bloom filter over the `prefix_len` most-significant bits of 64-bit
/// keys. Each stored prefix encodes an aligned range of `2^(64−prefix_len)`
/// universe values.
#[derive(Clone, Debug)]
pub struct PrefixBloomFilter {
    bloom: BloomFilter,
    prefix_len: u32,
    /// Probe budget per range query: if a query overlaps more prefixes than
    /// this, the filter cannot resolve it and answers "maybe" (as Proteus's
    /// design does when `l2` is too deep for the range).
    max_probes: u64,
}

impl PrefixBloomFilter {
    /// Creates a filter for `prefix_len`-bit prefixes with `m` bits and `k`
    /// hashes, or `None` when the `m` bits cannot be allocated.
    ///
    /// # Panics
    /// Panics if `prefix_len` is 0 or exceeds 64.
    pub fn new(prefix_len: u32, m: usize, k: u32, seed: u64) -> Option<Self> {
        assert!((1..=64).contains(&prefix_len), "prefix length {prefix_len}");
        Some(Self {
            bloom: BloomFilter::new(m, k, seed)?,
            prefix_len,
            max_probes: 1 << 12,
        })
    }

    /// Overrides the probe budget.
    pub fn with_max_probes(mut self, max_probes: u64) -> Self {
        self.max_probes = max_probes.max(1);
        self
    }

    /// The prefix length in bits.
    #[inline]
    pub fn prefix_len(&self) -> u32 {
        self.prefix_len
    }

    #[inline]
    fn shift(&self) -> u32 {
        64 - self.prefix_len
    }

    #[inline]
    fn prefix_of(&self, key: u64) -> u64 {
        if self.prefix_len == 64 {
            key
        } else {
            key >> self.shift()
        }
    }

    /// Inserts a key (its prefix).
    pub fn insert(&mut self, key: u64) {
        self.bloom.insert(self.prefix_of(key));
    }

    /// Point query on a key's prefix.
    #[inline]
    pub fn contains_prefix_of(&self, key: u64) -> bool {
        self.bloom.contains(self.prefix_of(key))
    }

    /// Range-emptiness query: probes every prefix whose aligned block
    /// overlaps `[a, b]`; answers "maybe" outright if that exceeds the probe
    /// budget.
    pub fn may_contain_range(&self, a: u64, b: u64) -> bool {
        debug_assert!(a <= b, "inverted range [{a}, {b}]");
        let lo = self.prefix_of(a);
        let hi = self.prefix_of(b);
        if hi - lo >= self.max_probes {
            return true;
        }
        (lo..=hi).any(|p| self.bloom.contains(p))
    }

    /// Heap size in bits.
    pub fn size_in_bits(&self) -> usize {
        self.bloom.size_in_bits() + 2 * 64
    }

    /// Access to the underlying Bloom filter (for load statistics).
    pub fn bloom(&self) -> &BloomFilter {
        &self.bloom
    }

    /// Serializes as `[prefix_len, max_probes] + bloom`. Returns the word
    /// count.
    pub fn write_to(&self, w: &mut WordWriter<'_>) -> std::io::Result<usize> {
        let before = w.words_written();
        w.word(self.prefix_len as u64)?;
        w.word(self.max_probes)?;
        self.bloom.write_to(w)?;
        Ok(w.words_written() - before)
    }

    /// Reads back what [`PrefixBloomFilter::write_to`] wrote.
    pub fn read_from(src: &mut WordReader<'_>) -> Result<Self, DecodeError> {
        let prefix_len = src.word()?;
        if !(1..=64).contains(&prefix_len) {
            return Err(DecodeError::Invalid("prefix length out of range"));
        }
        let max_probes = src.word()?;
        if max_probes == 0 {
            return Err(DecodeError::Invalid("zero probe budget"));
        }
        let bloom = BloomFilter::read_from(src)?;
        Ok(Self {
            bloom,
            prefix_len: prefix_len as u32,
            max_probes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives_point_and_range() {
        let keys: Vec<u64> = (0..200u64)
            .map(|i| i.wrapping_mul(0xABCDEF1234567))
            .collect();
        for prefix_len in [8u32, 24, 40, 64] {
            let mut f = PrefixBloomFilter::new(prefix_len, 1 << 14, 4, 3).unwrap();
            for &k in &keys {
                f.insert(k);
            }
            for &k in &keys {
                assert!(f.contains_prefix_of(k));
                assert!(f.may_contain_range(k, k));
                assert!(f.may_contain_range(k.saturating_sub(10), k.saturating_add(10)));
            }
        }
    }

    #[test]
    fn filters_far_ranges() {
        // Keys in the low half; probes in the high half must mostly miss.
        let mut f = PrefixBloomFilter::new(24, 1 << 14, 5, 7).unwrap();
        for i in 0..200u64 {
            f.insert(i << 20);
        }
        let mut positives = 0;
        for i in 0..2000u64 {
            let a = (1u64 << 63) + i * (1 << 22);
            if f.may_contain_range(a, a + 1000) {
                positives += 1;
            }
        }
        assert!(
            positives < 200,
            "prefix bloom not filtering: {positives}/2000"
        );
    }

    #[test]
    fn wide_ranges_hit_probe_budget() {
        let f = PrefixBloomFilter::new(40, 1 << 10, 3, 0)
            .unwrap()
            .with_max_probes(16);
        // Range covering 2^24+ values at 40-bit prefixes = 2^? prefixes > 16.
        assert!(f.may_contain_range(0, 1 << 30));
    }

    #[test]
    fn prefix_64_is_point_bloom() {
        let mut f = PrefixBloomFilter::new(64, 1 << 12, 4, 1).unwrap();
        f.insert(123456789);
        assert!(f.may_contain_range(123456789, 123456789));
    }
}

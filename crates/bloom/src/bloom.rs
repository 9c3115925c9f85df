//! A classic Bloom filter over `u64` items.

use grafite_hash::mix::murmur_mix64;
use grafite_succinct::io::{DecodeError, WordReader, WordWriter};
use grafite_succinct::BitVec;

/// A Bloom filter with `k` hash functions realised by double hashing
/// (Kirsch–Mitzenmacher): `g_i(x) = h1(x) + i·h2(x) mod m`.
#[derive(Clone, Debug)]
pub struct BloomFilter {
    bits: BitVec,
    m: u64,
    k: u32,
    seed: u64,
    items: usize,
}

impl BloomFilter {
    /// Creates a filter with `m` bits and `k` hash functions, or `None` when
    /// the `m` bits cannot be allocated.
    ///
    /// # Panics
    /// Panics if `m == 0` or `k == 0`.
    pub fn new(m: usize, k: u32, seed: u64) -> Option<Self> {
        assert!(m > 0, "Bloom filter needs at least one bit");
        assert!(k > 0, "Bloom filter needs at least one hash");
        Some(Self {
            bits: BitVec::try_zeros(m)?,
            m: m as u64,
            k,
            seed,
            items: 0,
        })
    }

    /// Sizes a filter for `n` items at false-positive rate `fpr`
    /// (`m = −n·ln(fpr)/ln2²`, `k = (m/n)·ln2`).
    ///
    /// # Panics
    /// Panics if the `m` bits cannot be allocated. The FPR is clamped to
    /// at least 1e-12, so `m` stays below 58 bits per item.
    pub fn for_fpr(n: usize, fpr: f64, seed: u64) -> Self {
        let n = n.max(1) as f64;
        let fpr = fpr.clamp(1e-12, 0.9999);
        let m = (-n * fpr.ln() / (std::f64::consts::LN_2 * std::f64::consts::LN_2)).ceil() as usize;
        let k = Self::optimal_k(m.max(1), n as usize);
        Self::new(m.max(1), k, seed).expect("Bloom filter bits allocated")
    }

    /// The k minimising the FPR for `m` bits and `n` items.
    pub fn optimal_k(m: usize, n: usize) -> u32 {
        let k = (m as f64 / n.max(1) as f64 * std::f64::consts::LN_2).round();
        (k as u32).clamp(1, 16)
    }

    #[inline]
    fn index_pair(&self, item: u64) -> (u64, u64) {
        let h1 = murmur_mix64(item ^ self.seed);
        let h2 = murmur_mix64(item.wrapping_add(0x9E37_79B9_7F4A_7C15) ^ self.seed) | 1;
        (h1, h2)
    }

    /// Inserts an item.
    pub fn insert(&mut self, item: u64) {
        let (h1, h2) = self.index_pair(item);
        for i in 0..self.k as u64 {
            let idx = (h1.wrapping_add(i.wrapping_mul(h2)) % self.m) as usize;
            self.bits.set(idx, true);
        }
        self.items += 1;
    }

    /// Whether the item may be present.
    #[inline]
    pub fn contains(&self, item: u64) -> bool {
        let (h1, h2) = self.index_pair(item);
        for i in 0..self.k as u64 {
            let idx = (h1.wrapping_add(i.wrapping_mul(h2)) % self.m) as usize;
            if !self.bits.get(idx) {
                return false;
            }
        }
        true
    }

    /// Number of bits `m`.
    #[inline]
    pub fn num_bits(&self) -> usize {
        self.m as usize
    }

    /// Number of hash functions `k`.
    #[inline]
    pub fn num_hashes(&self) -> u32 {
        self.k
    }

    /// Number of inserted items (with multiplicity).
    #[inline]
    pub fn num_items(&self) -> usize {
        self.items
    }

    /// Expected FPR at the current load: `(1 − e^{−kn/m})^k`.
    pub fn expected_fpr(&self) -> f64 {
        let exponent = -(self.k as f64) * self.items as f64 / self.m as f64;
        (1.0 - exponent.exp()).powi(self.k as i32)
    }

    /// Heap size in bits.
    pub fn size_in_bits(&self) -> usize {
        self.bits.size_in_bits() + 4 * 64
    }

    /// Serializes as `[m, k, seed, items] + bits`. Returns the word count.
    pub fn write_to(&self, w: &mut WordWriter<'_>) -> std::io::Result<usize> {
        let before = w.words_written();
        w.word(self.m)?;
        w.word(self.k as u64)?;
        w.word(self.seed)?;
        w.word(self.items as u64)?;
        self.bits.write_to(w)?;
        Ok(w.words_written() - before)
    }

    /// Reads back what [`BloomFilter::write_to`] wrote.
    pub fn read_from(src: &mut WordReader<'_>) -> Result<Self, DecodeError> {
        let m = src.word()?;
        let k = src.word()?;
        // More hash functions than bits never lowers the FPR, and `k` is
        // the work of every probe: `k <= m` bounds it by the loaded bits.
        if m == 0 || k == 0 || k > m || k > u32::MAX as u64 {
            return Err(DecodeError::Invalid("Bloom parameters out of range"));
        }
        let seed = src.word()?;
        let items = src.length()?;
        let bits = BitVec::read_from(src)?;
        if bits.len() as u64 != m {
            return Err(DecodeError::Invalid(
                "Bloom bit array length differs from m",
            ));
        }
        Ok(Self {
            bits,
            m,
            k: k as u32,
            seed,
            items,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut bf = BloomFilter::new(10_000, 5, 1).unwrap();
        let items: Vec<u64> = (0..500u64).map(|i| i * 7919).collect();
        for &x in &items {
            bf.insert(x);
        }
        for &x in &items {
            assert!(bf.contains(x));
        }
    }

    #[test]
    fn fpr_near_design_point() {
        let n = 2000usize;
        let target = 0.01;
        let mut bf = BloomFilter::for_fpr(n, target, 42);
        for i in 0..n as u64 {
            bf.insert(i.wrapping_mul(0x9E3779B97F4A7C15));
        }
        let mut fps = 0;
        let probes = 50_000u64;
        for j in 0..probes {
            // Disjoint probe set.
            if bf.contains(j.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1)) {
                fps += 1;
            }
        }
        let fpr = fps as f64 / probes as f64;
        assert!(fpr < target * 2.5, "fpr {fpr} vs target {target}");
        assert!(fpr > target / 20.0, "fpr suspiciously low: {fpr}");
    }

    #[test]
    fn sizing_formulas() {
        assert_eq!(BloomFilter::optimal_k(1000, 100), 7);
        let bf = BloomFilter::for_fpr(1000, 0.01, 0);
        // ~9.59 bits/key for 1% FPR.
        let bpk = bf.num_bits() as f64 / 1000.0;
        assert!((bpk - 9.59).abs() < 0.2, "bits/key {bpk}");
    }

    #[test]
    fn tiny_filters_work() {
        let mut bf = BloomFilter::new(1, 1, 0).unwrap();
        bf.insert(7);
        assert!(bf.contains(7));
        // Everything collides in a 1-bit filter: full FPR, zero FNs.
        assert!(bf.contains(8));
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn zero_bits_rejected() {
        let _ = BloomFilter::new(0, 1, 0);
    }
}

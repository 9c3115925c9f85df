//! The locality-preserving universe reduction of Goswami et al. \[18\], the
//! key ingredient of Grafite (paper eq. (1)).
//!
//! `h(x) = (q(⌊x/r⌋) + x) mod r` maps the universe `[u]` to `[r]` such that
//! within one aligned block of `r` consecutive keys the mapping is a pure
//! translation — consecutive keys stay consecutive modulo `r` — while two
//! keys from different blocks collide pairwise-independently with probability
//! `1/r`. This is exactly what lets a range `[a, b]` of length at most `r`
//! be answered by at most two contiguous range probes in the reduced
//! universe (paper conditions (2) and footnote 2).
//!
//! # Division-free evaluation
//!
//! Both the build (one evaluation per key) and every probe (one or two per
//! query) divide by `r`. [`LocalityHash`] precomputes `⌈2^128/r⌉` when it is
//! drawn, so `⌊x/r⌋` is the high part of one 64×128-bit product and
//! `x mod r = x − ⌊x/r⌋·r` (Lemire, Kaser and Kurz's exact method). It is
//! exact, not approximate: `⌈2^128/r⌉·r` exceeds `2^128` by less than `r`,
//! and for any `x < 2^64` that excess shifts `x/r` by less than `1/r` — never
//! enough to cross the next integer (the full argument is in the
//! crate-private `divide` module). The inner hash's `mod r` reuses the same
//! constant, and its `mod p` folds (see [`crate::pairwise`]). Every code and
//! block index is the one the division form gives, so filters built before
//! and after are byte-identical.

use crate::pairwise::PairwiseHash;

/// The reduction `h(x) = (q(⌊x/r⌋) + x) mod r` for an arbitrary modulus `r`.
#[derive(Clone, Copy, Debug)]
pub struct LocalityHash {
    /// Also holds `r` with its reciprocal precomputed.
    q: PairwiseHash,
}

impl LocalityHash {
    /// Draws a reduction into `[0, r)` with parameters derived from `seed`.
    pub fn from_seed(seed: u64, r: u64) -> Self {
        Self::from_pairwise(PairwiseHash::from_seed(seed, r))
    }

    /// Builds from an explicit inner hash (tests use the paper's Example 3.2
    /// parameters).
    pub fn from_pairwise(q: PairwiseHash) -> Self {
        Self { q }
    }

    /// The reduced universe size `r`.
    #[inline]
    pub fn r(&self) -> u64 {
        self.q.range()
    }

    /// The inner pairwise-independent hash (for persistence).
    #[inline]
    pub fn pairwise(&self) -> PairwiseHash {
        self.q
    }

    /// Evaluates `h(x)`.
    #[inline]
    pub fn eval(&self, x: u64) -> u64 {
        let (block, offset) = self.q.range_divisor().div_rem(x);
        // (q + x) mod r with both addends already < r: a single conditional
        // subtraction replaces the reduction.
        let s = self.q.eval(block) + offset;
        let r = self.r();
        if s >= r {
            s - r
        } else {
            s
        }
    }

    /// The block index `⌊x/r⌋` of a key: two keys in the same block are
    /// mapped by the same translation.
    #[inline]
    pub fn block(&self, x: u64) -> u64 {
        self.q.range_divisor().div(x)
    }
}

/// The power-of-two variant `h(x) = (q(x >> k) + x) & (r − 1)` with
/// `r = 2^k`, proposed in the paper's Section 7: divisions and moduli become
/// shifts and masks.
#[derive(Clone, Copy, Debug)]
pub struct LocalityHashPow2 {
    q: PairwiseHash,
    k: u32,
}

impl LocalityHashPow2 {
    /// Draws a reduction into `[0, 2^k)`.
    ///
    /// # Panics
    /// Panics if `k == 0` or `k >= 61` (the inner prime must exceed `r`).
    pub fn from_seed(seed: u64, k: u32) -> Self {
        assert!(k > 0 && k < 61, "k = {k} out of supported range [1, 60]");
        Self {
            q: PairwiseHash::from_seed(seed, 1u64 << k),
            k,
        }
    }

    /// The reduced universe size `r = 2^k`.
    #[inline]
    pub fn r(&self) -> u64 {
        1u64 << self.k
    }

    /// The exponent `k`.
    #[inline]
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Evaluates `h(x)` with shifts and masks only.
    #[inline]
    pub fn eval(&self, x: u64) -> u64 {
        (self.q.eval(x >> self.k).wrapping_add(x)) & (self.r() - 1)
    }

    /// The block index `x >> k`.
    #[inline]
    pub fn block(&self, x: u64) -> u64 {
        x >> self.k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::SplitMix64;

    /// `h` in its division form, for comparison.
    fn by_division(h: &LocalityHash, x: u64) -> (u64, u64) {
        let r = h.r();
        let s = h.pairwise().eval(x / r) as u128 + (x % r) as u128;
        ((s % r as u128) as u64, x / r)
    }

    #[test]
    fn agrees_with_division_across_block_boundaries() {
        let mut gen = SplitMix64::new(0xB10C);
        let mut rs = vec![
            1u64,
            2,
            3,
            100,
            999,
            1 << 20,
            (1 << 31) - 1,
            1 << 31,
            (1 << 31) + 1,
        ];
        for _ in 0..40 {
            let bits = 1 + gen.next_below(60);
            rs.push(1 + gen.next_below(1 << bits));
        }
        for r in rs {
            let h = LocalityHash::from_seed(r ^ 0x77, r);
            // Keys at r = 1 map everything to 0, one key per block.
            for block in [0u64, 1, 2, 1000, u64::MAX / r - 1, u64::MAX / r] {
                let first = block.saturating_mul(r);
                for x in [first, first.saturating_add(r - 1), first.saturating_sub(1)] {
                    assert_eq!((h.eval(x), h.block(x)), by_division(&h, x), "r={r} x={x}");
                }
            }
            for _ in 0..500 {
                let x = gen.next_u64() >> gen.next_below(64);
                assert_eq!((h.eval(x), h.block(x)), by_division(&h, x), "r={r} x={x}");
            }
        }
        let one = LocalityHash::from_seed(9, 1);
        for x in [0, 1, 12345, u64::MAX] {
            assert_eq!((one.eval(x), one.block(x)), (0, x));
        }
    }

    /// The full worked Example 3.2 of the paper.
    #[test]
    fn paper_example_hash_codes() {
        let q = PairwiseHash::with_params(10, 5, (1 << 31) - 1, 100);
        let h = LocalityHash::from_pairwise(q);
        let s = [9u64, 48, 50, 191, 226, 269, 335, 446, 487, 511];
        let expected = [14u64, 53, 55, 6, 51, 94, 70, 91, 32, 66];
        let got: Vec<u64> = s.iter().map(|&x| h.eval(x)).collect();
        assert_eq!(got, expected);
        // Example 3.3's query endpoints.
        assert_eq!(h.eval(44), 49);
        assert_eq!(h.eval(47), 52);
    }

    #[test]
    fn locality_within_block() {
        let h = LocalityHash::from_seed(3, 1 << 20);
        let r = h.r();
        // Any two keys in the same block keep their distance modulo r.
        for base in [0u64, r * 5, r * 1234] {
            let h0 = h.eval(base);
            for d in 1..100 {
                let hd = h.eval(base + d);
                assert_eq!(hd, (h0 + d) % r, "distance not preserved at {base}+{d}");
            }
        }
    }

    #[test]
    fn pow2_locality_within_block() {
        let h = LocalityHashPow2::from_seed(3, 20);
        let r = h.r();
        for base in [0u64, r * 7, r * 99] {
            let h0 = h.eval(base);
            for d in 1..100 {
                assert_eq!(h.eval(base + d), (h0 + d) & (r - 1));
            }
        }
    }

    #[test]
    fn cross_block_collision_rate_near_inverse_r() {
        // Empirical check of [18, Lemma 3.1]: Pr[h(x) = h(y)] <= 1/r for x, y
        // in different blocks. With r = 1024 and 2000 independent pairs,
        // expect about 2 collisions; allow generous slack.
        let r = 1024u64;
        let mut collisions = 0;
        let trials = 4000u64;
        for t in 0..trials {
            let h = LocalityHash::from_seed(t, r);
            let x = 123 + t; // block 0..small
            let y = r * 1000 + 77 + t * 13; // far block
            if h.eval(x) == h.eval(y) {
                collisions += 1;
            }
        }
        let rate = collisions as f64 / trials as f64;
        assert!(rate < 4.0 / r as f64, "collision rate {rate} too high");
    }

    #[test]
    fn outputs_in_range() {
        let h = LocalityHash::from_seed(5, 999);
        for x in (0..2_000_000u64).step_by(7919) {
            assert!(h.eval(x) < 999);
        }
        let hp = LocalityHashPow2::from_seed(5, 33);
        for x in (0..u64::MAX).step_by(u64::MAX as usize / 1000) {
            assert!(hp.eval(x) < 1u64 << 33);
        }
    }
}

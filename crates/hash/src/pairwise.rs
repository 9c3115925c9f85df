//! The pairwise-independent hash family of Wegman and Carter \[39\] used by
//! Grafite as its inner hash `q : [u/r] -> [r]`.
//!
//! `q(x) = ((c1·x + c2) mod p) mod r`, where `p` is a large prime and
//! `0 < c1 < p`, `0 <= c2 < p` are drawn at random. Pairwise independence
//! holds for inputs below `p`; Grafite's inputs are block indices
//! `⌊x/r⌋ < u/r`, far below our default prime `2^61 − 1` for every
//! configuration in the paper. Evaluation itself is exact for every 64-bit
//! input; only the independence guarantee needs `x < p`.
//!
//! # Division-free evaluation
//!
//! Neither modulus costs a divide instruction on the default path:
//!
//! * **`mod p` for `p = 2^61 − 1`** folds. Since `2^61 ≡ 1 (mod p)`, a
//!   value `t = hi·2^61 + lo` is congruent to `hi + lo`. With `c1, c2 < p`
//!   and any `x < 2^64`, `t = c1·x + c2 < 2^125`, so `hi < 2^64`; folding
//!   `hi` once more and the sum once more leaves a value of at most
//!   `p + 1`, and one conditional subtraction makes it the exact residue.
//!   Any other prime (such as the `2^31 − 1` of the paper's Example 3.2)
//!   takes the generic `%`.
//! * **`mod r`** multiplies by the `⌈2^128/r⌉` precomputed when the
//!   function is drawn, which is exact for every 64-bit dividend (Lemire,
//!   Kaser and Kurz; the proof is in the crate-private `divide` module).
//!
//! The evaluated function is unchanged: both forms compute
//! `((c1·x + c2) mod p) mod r` exactly, and nothing new is persisted.

use crate::divide::Divisor;
use crate::mix::SplitMix64;

/// The Mersenne prime `2^61 − 1`, the default modulus.
pub const MERSENNE_61: u64 = (1u64 << 61) - 1;

/// A hash function drawn from the pairwise-independent family
/// `{x -> ((c1·x + c2) mod p) mod r}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PairwiseHash {
    c1: u64,
    c2: u64,
    p: u64,
    r: Divisor,
}

impl PairwiseHash {
    /// Draws a function with random parameters (from `seed`) mapping into
    /// `[0, r)` with the default prime [`MERSENNE_61`].
    ///
    /// # Panics
    /// Panics if `r == 0` or `r >= p`.
    pub fn from_seed(seed: u64, r: u64) -> Self {
        let mut gen = SplitMix64::new(seed);
        let c1 = 1 + gen.next_below(MERSENNE_61 - 1); // c1 in [1, p)
        let c2 = gen.next_below(MERSENNE_61); // c2 in [0, p)
        Self::with_params(c1, c2, MERSENNE_61, r)
    }

    /// Builds a function with explicit parameters (used by tests to reproduce
    /// the paper's Example 3.2, which sets `p = 2^31 − 1`, `c1 = 10`,
    /// `c2 = 5`).
    ///
    /// # Panics
    /// Panics if `c1 == 0`, `c1 >= p`, `c2 >= p`, `r == 0`, or `r >= p`.
    pub fn with_params(c1: u64, c2: u64, p: u64, r: u64) -> Self {
        assert!(r > 0, "range must be positive");
        assert!(r < p, "prime {p} must exceed range {r}");
        assert!(c1 > 0 && c1 < p, "c1 must be in [1, p)");
        assert!(c2 < p, "c2 must be in [0, p)");
        Self {
            c1,
            c2,
            p,
            r: Divisor::new(r),
        }
    }

    /// Evaluates the hash.
    #[inline]
    pub fn eval(&self, x: u64) -> u64 {
        let t = self.c1 as u128 * x as u128 + self.c2 as u128;
        let v = if self.p == MERSENNE_61 {
            mod_mersenne_61(t)
        } else {
            (t % self.p as u128) as u64
        };
        self.r.rem(v)
    }

    /// The output range `r`.
    #[inline]
    pub fn range(&self) -> u64 {
        self.r.get()
    }

    /// The output range as a precomputed divisor, shared with
    /// [`crate::LocalityHash`]'s block arithmetic.
    #[inline]
    pub(crate) fn range_divisor(&self) -> Divisor {
        self.r
    }

    /// The modulus `p`.
    #[inline]
    pub fn prime(&self) -> u64 {
        self.p
    }

    /// The multiplier `c1` (for persistence).
    #[inline]
    pub fn c1(&self) -> u64 {
        self.c1
    }

    /// The offset `c2` (for persistence).
    #[inline]
    pub fn c2(&self) -> u64 {
        self.c2
    }

    /// Whether `(c1, c2, p, r)` satisfy the family's constructor contract,
    /// so deserializers can validate before calling
    /// [`PairwiseHash::with_params`] (which panics on violation).
    pub fn params_valid(c1: u64, c2: u64, p: u64, r: u64) -> bool {
        r > 0 && r < p && c1 > 0 && c1 < p && c2 < p
    }
}

/// `t mod (2^61 − 1)` for `t < 2^125` (see the module docs).
#[inline]
fn mod_mersenne_61(t: u128) -> u64 {
    debug_assert!(t < 1 << 125);
    let lo = t as u64 & MERSENNE_61;
    let hi = (t >> 61) as u64;
    // lo + hi's two 61-bit pieces: below 2^62 + 8.
    let s = lo + (hi & MERSENNE_61) + (hi >> 61);
    // One more fold: at most p + 1.
    let s = (s & MERSENNE_61) + (s >> 61);
    if s >= MERSENNE_61 {
        s - MERSENNE_61
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition, evaluated with 128-bit divisions.
    fn reference(c1: u64, c2: u64, p: u64, r: u64, x: u64) -> u64 {
        let v = (c1 as u128 * x as u128 + c2 as u128) % p as u128;
        (v % r as u128) as u64
    }

    #[test]
    fn mersenne_fold_matches_reference_at_the_extremes() {
        let p = MERSENNE_61;
        for (c1, c2) in [
            (p - 1, p - 1),
            (1, 0),
            (p - 1, 0),
            (1, p - 1),
            (1 << 60, 12345),
        ] {
            for r in [1u64, 2, 3, 100, 1 << 31, (1 << 31) + 1, p - 1] {
                let q = PairwiseHash::with_params(c1, c2, p, r);
                for x in [0u64, 1, p - 1, p, p + 1, 1 << 63, u64::MAX - 1, u64::MAX] {
                    assert_eq!(
                        q.eval(x),
                        reference(c1, c2, p, r, x),
                        "c1={c1} c2={c2} r={r} x={x}"
                    );
                }
            }
        }
        let q = PairwiseHash::with_params(p - 1, p - 1, p, 1 << 40);
        assert_eq!(
            q.eval(u64::MAX),
            reference(p - 1, p - 1, p, 1 << 40, u64::MAX)
        );
        // Values that land exactly on p and p + 1 before the final subtraction.
        for t in [
            p as u128,
            p as u128 + 1,
            2 * p as u128,
            (p as u128) << 61,
            (1u128 << 125) - 1,
        ] {
            assert_eq!(mod_mersenne_61(t) as u128, t % p as u128, "t={t}");
        }
    }

    #[test]
    fn eval_matches_reference_on_random_parameters() {
        let mut gen = SplitMix64::new(0x5EED);
        for _ in 0..20_000 {
            let p = MERSENNE_61;
            let c1 = 1 + gen.next_below(p - 1);
            let c2 = gen.next_below(p);
            let r = 1 + (gen.next_u64() >> (gen.next_below(64) as u32)) % (p - 1);
            let x = gen.next_below(p) >> (gen.next_below(61) as u32);
            let q = PairwiseHash::with_params(c1, c2, p, r);
            assert_eq!(
                q.eval(x),
                reference(c1, c2, p, r, x),
                "c1={c1} c2={c2} r={r} x={x}"
            );
        }
    }

    #[test]
    fn generic_prime_path_matches_reference() {
        // Example 3.2's prime, and a 64-bit prime the fold does not cover.
        let mut gen = SplitMix64::new(0x31);
        for p in [(1u64 << 31) - 1, 0xFFFF_FFFF_FFFF_FFC5] {
            for _ in 0..5_000 {
                let c1 = 1 + gen.next_below(p - 1);
                let c2 = gen.next_below(p);
                let r = 1 + gen.next_below(p - 1);
                let x = gen.next_below(p);
                let q = PairwiseHash::with_params(c1, c2, p, r);
                assert_eq!(
                    q.eval(x),
                    reference(c1, c2, p, r, x),
                    "p={p} c1={c1} c2={c2} r={r} x={x}"
                );
            }
            let q = PairwiseHash::with_params(p - 1, p - 1, p, p - 1);
            assert_eq!(q.eval(p - 1), reference(p - 1, p - 1, p, p - 1, p - 1));
        }
    }

    #[test]
    fn paper_example_parameters() {
        // Example 3.2: p = 2^31 - 1, c1 = 10, c2 = 5, r = 100.
        let q = PairwiseHash::with_params(10, 5, (1 << 31) - 1, 100);
        assert_eq!(q.eval(0), 5);
        assert_eq!(q.eval(1), 15);
        assert_eq!(q.eval(5), 55);
    }

    #[test]
    fn outputs_within_range() {
        let q = PairwiseHash::from_seed(42, 1000);
        for x in 0..10_000u64 {
            assert!(q.eval(x) < 1000);
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let a = PairwiseHash::from_seed(7, 12345);
        let b = PairwiseHash::from_seed(7, 12345);
        for x in 0..1000 {
            assert_eq!(a.eval(x), b.eval(x));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = PairwiseHash::from_seed(1, 1 << 30);
        let b = PairwiseHash::from_seed(2, 1 << 30);
        let same = (0..1000u64).filter(|&x| a.eval(x) == b.eval(x)).count();
        assert!(same < 10, "seeds produce near-identical functions");
    }

    #[test]
    fn roughly_uniform() {
        // Chi-square-ish sanity check on bucket occupancy.
        let r = 64u64;
        let q = PairwiseHash::from_seed(99, r);
        let mut counts = vec![0usize; r as usize];
        let n = 64_000u64;
        for x in 0..n {
            counts[q.eval(x) as usize] += 1;
        }
        let expect = (n / r) as f64;
        for (bucket, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expect).abs() / expect;
            assert!(
                dev < 0.5,
                "bucket {bucket} occupancy {c} vs expected {expect}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "must exceed range")]
    fn range_at_least_prime_rejected() {
        PairwiseHash::with_params(1, 0, 97, 97);
    }
}

//! Division by a run-time constant without a divide instruction.
//!
//! [`Divisor`] precomputes `c = ⌈2^128/d⌉` once per divisor; afterwards
//! `⌊n/d⌋` is the top 64 bits of the 192-bit product `c·n`, and
//! `n mod d = n − ⌊n/d⌋·d`. This is the exact method of Lemire, Kaser and
//! Kurz ("Faster remainder by direct computation", 2019) at `F = 128`.
//!
//! # Why it is exact for every `n < 2^64`
//!
//! Write `c·d = 2^128 + e` with `0 ≤ e < d`, and `n = q·d + ρ` with
//! `0 ≤ ρ < d`. Then
//!
//! ```text
//! c·n / 2^128 = n/d + e·n/(d·2^128) = q + ρ/d + e·n/(d·2^128).
//! ```
//!
//! Since `e < d ≤ 2^64` and `n < 2^64`, `e·n < 2^128`, so the last term is
//! below `1/d`; with `ρ ≤ d − 1` the fractional part stays below
//! `(d − 1)/d + 1/d = 1`, and the floor is exactly `q`. For `d ≥ 2`,
//! `c ≤ 2^127` fits in a `u128`; `d = 1` (where `c` would be `2^128`) takes
//! a separate, perfectly predicted branch.

/// A divisor `d ≥ 1` with `⌈2^128/d⌉` precomputed (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Divisor {
    d: u64,
    /// `⌈2^128/d⌉` split into 64-bit halves (unused when `d == 1`), so the
    /// struct keeps 8-byte alignment.
    c_hi: u64,
    c_lo: u64,
}

impl Divisor {
    /// Precomputes the reciprocal of `d`.
    ///
    /// # Panics
    /// Panics if `d == 0`.
    pub(crate) fn new(d: u64) -> Self {
        assert!(d > 0, "division by zero");
        // ⌈2^128/d⌉ = ⌊(2^128 − 1)/d⌋ + 1 for d ≥ 2 (whether or not d
        // divides 2^128); for d = 1 it wraps to 0 and is never read.
        let c = (u128::MAX / d as u128).wrapping_add(1);
        Self {
            d,
            c_hi: (c >> 64) as u64,
            c_lo: c as u64,
        }
    }

    /// The divisor `d`.
    #[inline]
    pub(crate) fn get(self) -> u64 {
        self.d
    }

    /// `⌊n/d⌋`.
    #[inline]
    pub(crate) fn div(self, n: u64) -> u64 {
        if self.d == 1 {
            return n;
        }
        // Bits 128..192 of c·n, where c = c_hi·2^64 + c_lo. The sum cannot
        // overflow: c_hi·n ≤ (2^64 − 1)^2 leaves room for a 64-bit carry.
        let lo = (self.c_lo as u128 * n as u128) >> 64;
        ((self.c_hi as u128 * n as u128 + lo) >> 64) as u64
    }

    /// `(⌊n/d⌋, n mod d)`.
    #[inline]
    pub(crate) fn div_rem(self, n: u64) -> (u64, u64) {
        let q = self.div(n);
        (q, n - q * self.d)
    }

    /// `n mod d`.
    #[inline]
    pub(crate) fn rem(self, n: u64) -> u64 {
        self.div_rem(n).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::SplitMix64;

    fn check(d: u64, n: u64) {
        let div = Divisor::new(d);
        assert_eq!(div.div(n), n / d, "{n} / {d}");
        assert_eq!(div.rem(n), n % d, "{n} % {d}");
        assert_eq!(div.div_rem(n), (n / d, n % d), "{n} divrem {d}");
    }

    fn divisors() -> Vec<u64> {
        let mut ds = vec![
            1u64,
            2,
            3,
            5,
            7,
            10,
            100,
            (1 << 61) - 2,
            u64::MAX,
            u64::MAX - 1,
        ];
        for k in 1..64 {
            let p = 1u64 << k;
            ds.extend([p - 1, p, p + 1]);
        }
        let mut gen = SplitMix64::new(0xD1D);
        for bits in 1..=64u32 {
            for _ in 0..4 {
                let d = gen.next_u64() >> (64 - bits);
                ds.push(d.max(1));
            }
        }
        ds
    }

    #[test]
    fn matches_hardware_division_at_the_edges() {
        for d in divisors() {
            for n in [
                0,
                d - 1,
                d,
                d.saturating_add(1),
                u64::MAX,
                u64::MAX - 1,
                u64::MAX / 2,
            ] {
                check(d, n);
            }
            for n in [
                d.wrapping_mul(2),
                d.wrapping_mul(3).wrapping_sub(1),
                d.wrapping_mul(1000),
            ] {
                check(d, n);
            }
        }
    }

    #[test]
    fn matches_hardware_division_on_random_inputs() {
        let mut gen = SplitMix64::new(0xFA57);
        for d in divisors() {
            for _ in 0..200 {
                let n = gen.next_u64();
                check(d, n);
                check(d, n >> (gen.next_u64() % 64));
            }
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn zero_divisor_rejected() {
        Divisor::new(0);
    }
}

//! Runtime-dispatched vector kernels for the succinct hot paths.
//!
//! Three kernels sit on the query-time critical path — the masked 8-word
//! block rank, in-word select, and the Elias-Fano low-bits partition
//! probe. Each has a portable scalar reference implementation
//! ([`scalar`]) and, on x86_64, vector variants ([`kernels`]) selected
//! once per process by CPU feature detection. The dispatchers here are
//! the only entry points the rest of the crate uses.
//!
//! Dispatch levels form a total order `Scalar < Avx2`; other
//! architectures, and x86_64 CPUs without AVX2, run the scalar kernels.
//! The detected level can be *capped* with the `GRAFITE_SIMD`
//! environment variable (`scalar` or `avx2`, case-insensitive; other
//! values are ignored) — forcing a level above what the CPU
//! supports is clamped down, so setting `GRAFITE_SIMD=avx2` on a non-AVX2
//! machine is safe and simply yields the best available level. Every
//! vector kernel is property-tested for bit-identical agreement with its
//! scalar reference (`tests/simd_agreement.rs`), and the `*_at` entry
//! points let those tests pin a specific level without touching the
//! process-global cache.

pub mod scalar;

#[cfg(target_arch = "x86_64")]
pub mod kernels;

use std::sync::atomic::{AtomicU8, Ordering};

/// Vector instruction tier used by the dispatched kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum SimdLevel {
    /// Portable scalar reference kernels (always available).
    Scalar = 0,
    /// x86_64 AVX2 (+ BMI2 PDEP select when the CPU has it).
    Avx2 = 1,
}

impl SimdLevel {
    /// Stable lowercase name (matches the `GRAFITE_SIMD` values).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
        }
    }

    fn from_u8(v: u8) -> SimdLevel {
        match v {
            1 => SimdLevel::Avx2,
            _ => SimdLevel::Scalar,
        }
    }

    fn parse(s: &str) -> Option<SimdLevel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" | "off" | "0" => Some(SimdLevel::Scalar),
            "avx2" => Some(SimdLevel::Avx2),
            _ => None,
        }
    }
}

/// What the hardware supports, ignoring any environment override.
pub fn detect_level() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdLevel::Avx2;
        }
    }
    SimdLevel::Scalar
}

/// All levels worth exercising on this machine: scalar, plus every
/// hardware tier up to the detected one. Agreement tests iterate this.
pub fn available_levels() -> Vec<SimdLevel> {
    let top = detect_level();
    [SimdLevel::Scalar, SimdLevel::Avx2]
        .into_iter()
        .filter(|&l| l <= top)
        .collect()
}

/// 0 = not yet resolved; otherwise `SimdLevel as u8 + 1`.
static LEVEL_CACHE: AtomicU8 = AtomicU8::new(0);

/// The dispatch level in effect for this process: hardware detection
/// capped by `GRAFITE_SIMD`, resolved once and cached.
pub fn level() -> SimdLevel {
    // The cache is a monotone write-once memo of a pure
    // computation — any thread recomputing it stores the same value, so
    // relaxed loads/stores cannot expose inconsistent state.
    let cached = LEVEL_CACHE.load(Ordering::Relaxed);
    if cached != 0 {
        return SimdLevel::from_u8(cached - 1);
    }
    let detected = detect_level();
    // A request above the hardware clamps down to what is actually
    // available; an unrecognised value is ignored.
    let effective = match std::env::var("GRAFITE_SIMD") {
        Ok(v) => SimdLevel::parse(&v).map_or(detected, |req| req.min(detected)),
        Err(_) => detected,
    };
    // See the load above: a write-once memo of a pure value.
    LEVEL_CACHE.store(effective as u8 + 1, Ordering::Relaxed);
    effective
}

// ---------------------------------------------------------------------------
// Dispatchers
// ---------------------------------------------------------------------------

/// Ones among bits `[0, upto)` of a block of up to 8 words (bits past
/// `words.len() * 64` count as zero). See [`scalar::rank1_x8`].
#[inline]
pub fn rank1_x8(words: &[u64], upto: usize) -> usize {
    rank1_x8_at(level(), words, upto)
}

/// [`rank1_x8`] pinned to an explicit dispatch level (levels the
/// hardware lacks fall back to scalar inside the kernel, keeping the
/// result identical).
#[inline]
pub fn rank1_x8_at(level: SimdLevel, words: &[u64], upto: usize) -> usize {
    #[cfg(target_arch = "x86_64")]
    if level == SimdLevel::Avx2 {
        return kernels::rank1_x8_avx2(words, upto);
    }
    let _ = level;
    scalar::rank1_x8(words, upto)
}

/// Position of the `k`-th (0-based) set bit of `word`; `k` must be less
/// than `word.count_ones()`.
#[inline]
pub fn select_in_word(word: u64, k: u32) -> u32 {
    select_in_word_at(level(), word, k)
}

/// [`select_in_word`] pinned to an explicit dispatch level. The PDEP
/// variant rides the Avx2 tier (BMI2 and AVX2 arrived together on
/// mainstream cores, and the kernel re-checks BMI2 itself).
#[inline]
pub fn select_in_word_at(level: SimdLevel, word: u64, k: u32) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if level == SimdLevel::Avx2 {
        return kernels::select_in_word_bmi2(word, k);
    }
    let _ = level;
    scalar::select_in_word(word, k)
}

/// First index in `[start, end)` of the `width`-bit packed array whose
/// field exceeds `y_lo` (or equals it, when `include_equal` is false).
/// See [`scalar::low_partition`] for the full contract.
#[inline]
pub fn low_partition(
    words: &[u64],
    width: usize,
    start: usize,
    end: usize,
    y_lo: u64,
    include_equal: bool,
) -> usize {
    low_partition_at(level(), words, width, start, end, y_lo, include_equal)
}

/// [`low_partition`] pinned to an explicit dispatch level.
#[inline]
pub fn low_partition_at(
    level: SimdLevel,
    words: &[u64],
    width: usize,
    start: usize,
    end: usize,
    y_lo: u64,
    include_equal: bool,
) -> usize {
    #[cfg(target_arch = "x86_64")]
    if level == SimdLevel::Avx2 {
        return kernels::low_partition_avx2(words, width, start, end, y_lo, include_equal);
    }
    let _ = level;
    scalar::low_partition(words, width, start, end, y_lo, include_equal)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_known_names() {
        assert_eq!(SimdLevel::parse("scalar"), Some(SimdLevel::Scalar));
        assert_eq!(SimdLevel::parse("AVX2 "), Some(SimdLevel::Avx2));
        assert_eq!(SimdLevel::parse("sse2"), None);
        assert_eq!(SimdLevel::parse("neon"), None);
        assert_eq!(SimdLevel::parse("bogus"), None);
    }

    #[test]
    fn available_levels_start_scalar_and_are_ordered() {
        let levels = available_levels();
        assert_eq!(levels[0], SimdLevel::Scalar);
        assert!(levels.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(levels.last(), Some(&detect_level()));
    }

    #[test]
    fn level_is_at_most_detected() {
        assert!(level() <= detect_level());
    }
}

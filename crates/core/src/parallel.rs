//! The construction-parallelism knob shared by every build path in the
//! workspace.
//!
//! Grafite's construction is sort-bound (paper §6.6: the authors report
//! 1.5–2.0× speedups from 2–8 sort threads alone), and the serving store
//! multiplies that by building independent shard filters. Both layers take
//! their thread count from one [`Parallelism`] value so a single setter —
//! or the `GRAFITE_THREADS` environment variable — governs the whole
//! pipeline.
//!
//! # Determinism
//!
//! The thread count **never** changes any produced bytes: every parallel
//! build path in the workspace (the chunked hashing, the partitioned radix
//! sort, the store's fanned-out shard builds) is
//! bit-identical to its serial twin. Parallelism is purely a wall-clock
//! knob, which is what lets CI re-run the determinism suite under a forced
//! `GRAFITE_THREADS=1` leg and byte-compare the artifacts.
//!
//! ```
//! use grafite_core::Parallelism;
//!
//! assert_eq!(Parallelism::serial().threads(), 1);
//! assert_eq!(Parallelism::fixed(8).threads(), 8);
//! // `auto()` resolves GRAFITE_THREADS, else available_parallelism.
//! assert!(Parallelism::auto().threads() >= 1);
//! ```

/// The environment variable overriding [`Parallelism::auto`]: a positive
/// integer thread count. Unset, empty, zero, or unparsable values fall back
/// to `std::thread::available_parallelism`.
pub const THREADS_ENV: &str = "GRAFITE_THREADS";

/// A resolved construction thread count (always at least 1).
///
/// * [`Parallelism::auto`] — the default everywhere: the `GRAFITE_THREADS`
///   environment variable if set to a positive integer, otherwise
///   `std::thread::available_parallelism()`.
/// * [`Parallelism::fixed`] — an explicit count, ignoring the environment
///   (what the determinism tests use to pin both sides of a comparison).
/// * [`Parallelism::serial`] — shorthand for `fixed(1)`.
///
/// The value is resolved at construction time and carried as a plain
/// count, so a `FilterConfig`/`StoreConfig` holding one stays `Copy` and
/// deterministic for its whole lifetime even if the environment changes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Parallelism(usize);

impl Parallelism {
    /// Resolves the ambient thread count: `GRAFITE_THREADS` when it parses
    /// to a positive integer, else `std::thread::available_parallelism()`,
    /// else 1.
    pub fn auto() -> Self {
        if let Ok(raw) = std::env::var(THREADS_ENV) {
            if let Some(n) = Self::parse_env_value(&raw) {
                return Self(n);
            }
        }
        Self(std::thread::available_parallelism().map_or(1, |p| p.get()))
    }

    /// An explicit thread count, clamped to at least 1. Ignores the
    /// environment.
    pub fn fixed(threads: usize) -> Self {
        Self(threads.max(1))
    }

    /// Single-threaded construction (`fixed(1)`).
    pub fn serial() -> Self {
        Self(1)
    }

    /// The resolved thread count (always >= 1).
    #[inline]
    pub fn threads(self) -> usize {
        self.0
    }

    /// Whether more than one thread is in play.
    #[inline]
    pub fn is_parallel(self) -> bool {
        self.0 > 1
    }

    /// The thread count capped to `jobs` — what a fan-out loop actually
    /// spawns (spawning more workers than jobs is pure overhead). Returns
    /// at least 1 even for zero jobs.
    #[inline]
    pub fn capped(self, jobs: usize) -> usize {
        self.0.min(jobs.max(1))
    }

    /// How `GRAFITE_THREADS` is interpreted: a positive integer, or `None`
    /// for anything else (empty, zero, garbage — callers then fall back to
    /// the machine's parallelism).
    pub fn parse_env_value(raw: &str) -> Option<usize> {
        match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => Some(n),
            _ => None,
        }
    }
}

impl Default for Parallelism {
    /// [`Parallelism::auto`] — the documented default of [`FilterConfig`](crate::FilterConfig)
    /// and `grafite_store::StoreConfig`.
    fn default() -> Self {
        Self::auto()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_clamps_to_one() {
        assert_eq!(Parallelism::fixed(0).threads(), 1);
        assert_eq!(Parallelism::fixed(1).threads(), 1);
        assert_eq!(Parallelism::fixed(7).threads(), 7);
        assert!(!Parallelism::serial().is_parallel());
        assert!(Parallelism::fixed(2).is_parallel());
    }

    #[test]
    fn capped_by_job_count() {
        assert_eq!(Parallelism::fixed(8).capped(3), 3);
        assert_eq!(Parallelism::fixed(2).capped(100), 2);
        assert_eq!(Parallelism::fixed(4).capped(0), 1);
    }

    /// The env parse is a pure function, testable without the process-wide
    /// races of actually setting the variable from a threaded test harness.
    #[test]
    fn env_value_parsing() {
        assert_eq!(Parallelism::parse_env_value("4"), Some(4));
        assert_eq!(Parallelism::parse_env_value(" 16 "), Some(16));
        assert_eq!(Parallelism::parse_env_value("1"), Some(1));
        assert_eq!(Parallelism::parse_env_value("0"), None);
        assert_eq!(Parallelism::parse_env_value(""), None);
        assert_eq!(Parallelism::parse_env_value("lots"), None);
        assert_eq!(Parallelism::parse_env_value("-2"), None);
    }

    #[test]
    fn auto_is_at_least_one() {
        assert!(Parallelism::auto().threads() >= 1);
        assert!(Parallelism::default().threads() >= 1);
    }
}

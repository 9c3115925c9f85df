//! The paper's contributions: the **Grafite** optimal range filter (§3) and
//! the **Bucketing** heuristic range filter (§4).
//!
//! # Grafite in one paragraph
//!
//! Grafite reduces the key universe `[u]` to a smaller universe `[r]`,
//! `r = nL/ε`, with the locality-preserving hash
//! `h(x) = (q(⌊x/r⌋) + x) mod r` (`q` pairwise independent), stores the
//! sorted hash codes, one per key, in an Elias–Fano sequence, and answers a
//! range-emptiness query `[a, b]` with a single `predecessor(h(b)) ≥ h(a)`
//! test (two tests when the range wraps the reduced universe or crosses an
//! `r`-block boundary). This gives, for a space budget of `B` bits per key,
//! `O(1)` query time and a false-positive probability of at most
//! `min{1, ℓ/2^(B−2)}` for ranges of size `ℓ` — *independently of the data
//! and query distribution* (paper Theorem 3.4 and Corollary 3.5).
//!
//! # Example
//!
//! Construction and querying are both part of the crate-wide contract:
//! every filter builds from a shared [`FilterConfig`] through the
//! [`BuildableFilter`] protocol, and answers single or batched range
//! queries through [`RangeFilter`]. `build`/`build_with` is the only
//! public constructor. Knobs beyond the shared config are typed tuning
//! values: [`GrafiteTuning`] sizes by a target `ε` at range size
//! [`FilterConfig::max_range`] instead of by the bits-per-key budget, or
//! rounds the reduced universe to a power of two; [`BucketingTuning`] pins
//! an explicit bucket size. [`WorkloadAwareBucketing`] reads its hot
//! regions from [`FilterConfig::sample`].
//!
//! ```
//! use grafite_core::{BuildableFilter, FilterConfig, GrafiteFilter, RangeFilter};
//!
//! let keys = vec![100u64, 2_000, 30_000, 400_000];
//! let cfg = FilterConfig::new(&keys).bits_per_key(16.0).max_range(1 << 10);
//! let filter = GrafiteFilter::build(&cfg).unwrap();
//! assert!(filter.may_contain_range(1_500, 2_500)); // contains 2_000
//!
//! // Batched queries: one answer per range, in query order.
//! let mut out = Vec::new();
//! filter.may_contain_ranges(&[(0, 99), (1_500, 2_500)], &mut out);
//! assert_eq!(out[1], true);
//! ```
//!
//! The [`registry`] module adds a library-level table from
//! [`registry::FilterSpec`] to `build` functions; the full table covering
//! the paper's eleven configurations is assembled by
//! `grafite_filters::standard_registry()` (the competitor filters live
//! downstream of this crate).

pub mod bucketing;
pub mod error;
pub mod grafite;
pub mod parallel;
pub mod persist;
pub mod registry;
pub mod sort;
pub mod string_keys;
pub mod traits;

pub use bucketing::{BucketingFilter, BucketingTuning, WorkloadAwareBucketing};
pub use error::FilterError;
pub use grafite::{GrafiteFilter, GrafiteTuning};
pub use parallel::{Parallelism, THREADS_ENV};
pub use persist::{Header, FORMAT_VERSION, MAGIC};
pub use registry::{BuilderFn, FilterSpec, LoaderFn, Registry};
pub use string_keys::{BytesPrefixCodec, IdentityCodec, KeyCodec, StringGrafite};
pub use traits::{BuildableFilter, FilterConfig, PersistentFilter, RangeFilter, DEFAULT_SEED};

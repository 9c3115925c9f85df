//! Bloom-filter substrates for the Grafite reproduction.
//!
//! * [`BloomFilter`] — a classic Bloom filter over `u64` items with
//!   double hashing; the building block of Rosetta and Proteus.
//! * [`PrefixBloomFilter`] — a Bloom filter over fixed-length key prefixes
//!   answering range queries by probing every overlapping prefix (paper §2,
//!   "Prefix Bloom Filter"); the second stage of Proteus.
//! * [`TrivialRangeFilter`] — the paper's "theoretical baseline" (§2): a
//!   point filter with false-positive rate `γ = ε/L` probed at every point
//!   of the query range, i.e. `n log(L/ε) + O(n)` bits and `O(L)` query
//!   time. Grafite matches its space while cutting the query time to `O(1)`
//!   — this baseline exists so the benchmark can show exactly that.

pub mod bloom;
pub mod prefix;
pub mod trivial;

pub use bloom::BloomFilter;
pub use prefix::PrefixBloomFilter;
pub use trivial::{TrivialBloomTuning, TrivialRangeFilter};

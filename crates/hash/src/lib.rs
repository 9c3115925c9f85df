//! Hash families for the Grafite range-filter reproduction.
//!
//! * [`PairwiseHash`] — the textbook pairwise-independent family
//!   `q(x) = ((c1·x + c2) mod p) mod r` of Wegman and Carter \[39\], which the
//!   paper uses to draw Grafite's inner hash `q` (Section 3).
//! * [`LocalityHash`] — the locality-preserving universe reduction
//!   `h(x) = (q(⌊x/r⌋) + x) mod r` of Goswami et al. \[18\] (paper eq. (1)),
//!   plus the power-of-two variant `h(x) = (q(x >> k) + x) & (r − 1)`
//!   suggested in the paper's Section 7 for string keys.
//! * [`xxhash::xxh64`] — a from-scratch xxHash64, the practical string hash
//!   the paper names for the string-key extension.
//! * [`mix`] — 64-bit finalizer mixers and a SplitMix64 generator used for
//!   Bloom-filter double hashing and deterministic parameter generation.

mod divide;
pub mod locality;
pub mod mix;
pub mod pairwise;
pub mod xxhash;

pub use locality::{LocalityHash, LocalityHashPow2};
pub use pairwise::PairwiseHash;

//! Succinct data structures underpinning the Grafite range-filter reproduction.
//!
//! This crate provides, from scratch, the storage layer that the paper's data
//! structures are built on:
//!
//! * [`BitVec`] — a plain, word-packed bit vector with arbitrary-width bit-field
//!   reads and writes.
//! * [`RsBitVec`] — an immutable bit vector augmented with *rank* and *select*
//!   support for both bit polarities, in `o(n)` extra space.
//! * [`IntVec`] — a fixed-width packed integer vector (the `V` array of the
//!   paper's Figure 2).
//! * [`EliasFano`] — the quasi-succinct monotone-sequence encoding of
//!   Elias \[14\] and Fano \[16\], extended with the `predecessor`, `successor`,
//!   and `rank` operations that Section 3 of the paper builds Grafite's query
//!   algorithm on, plus an [`EfCursor`] that resolves sorted batches of
//!   predecessor probes with monotone state (benchmarked, used by no
//!   filter).
//! * [`ef_block`] — blocked Elias–Fano: a short run of keys encoded as
//!   Elias–Fano offsets from its first key, decoded whole (the store
//!   manifest's retained-key records).
//! * [`GolombRiceSeq`] — a block-compressed monotone sequence with Golomb–Rice
//!   coded gaps, used as the compressed bit array of our SNARF reproduction.
//!
//! All structures are deterministic, allocation-conscious, and extensively
//! unit- and property-tested against naive references.
//!
//! # Persistence
//!
//! Every structure owns its words in a `Vec<u64>` and serializes to a flat
//! little-endian `u64` stream through a `write_to` / `read_from` pair built
//! on the [`io`] module: [`io::WordWriter`] out, [`io::WordReader`] back in
//! from an in-memory byte slice. Only bits travel: rank/select
//! directories, the `select0` inventory an [`EliasFano`] sequence queries
//! through, and the counts that follow from the bits are derived in memory
//! when a structure is built or loaded, never stored.

pub mod bitvec;
pub mod broadword;
pub mod ef_block;
pub mod elias_fano;
pub mod golomb;
pub mod intvec;
pub mod io;
pub mod rs_bitvec;
pub mod simd;

pub use bitvec::BitVec;
pub use elias_fano::{EfCursor, EliasFano};
pub use golomb::GolombRiceSeq;
pub use intvec::IntVec;
pub use rs_bitvec::RsBitVec;
pub use simd::SimdLevel;

/// Number of bits in a machine word used throughout the crate.
pub const WORD_BITS: usize = 64;

/// Ceiling division of `a` by `b`.
#[inline]
pub(crate) fn div_ceil(a: usize, b: usize) -> usize {
    a.div_ceil(b)
}

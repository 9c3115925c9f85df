//! A Fast Succinct Trie (FST) in the LOUDS-Sparse encoding of SuRF
//! (Zhang et al., SIGMOD 2018) — the substrate of the SuRF and Proteus range
//! filters in this reproduction.
//!
//! The trie over a prefix-free set of byte strings is serialised level by
//! level into three parallel arrays, one entry per *branch* (edge):
//!
//! * `labels` — the branch byte;
//! * `has_child` — 1 if the branch leads to an internal node, 0 if it ends a
//!   stored key (a leaf);
//! * `louds` — 1 iff the branch is the first branch of its node.
//!
//! Navigation is pure rank/select arithmetic: the child of the internal
//! branch at position `pos` is node `rank1(has_child, pos) + 1`, and node
//! `k` occupies positions `select1(louds, k) .. select1(louds, k + 1)`.
//! The space is `10 + o(1)` bits per branch, matching the LOUDS-Sparse row
//! of the paper's Table 1 analysis (§5).
//!
//! The [`louds_dense`] module adds SuRF's LOUDS-Dense encoding for the top
//! levels (256-bit label/child bitmaps per node) and composes the two into
//! the full LOUDS-DS layout ([`FstDs`]), which SuRF uses by default.

pub mod builder;
pub mod louds_dense;
pub mod trie;

pub use louds_dense::{DsIter, FstDs};
pub use trie::{Fst, FstIter, Lookup};

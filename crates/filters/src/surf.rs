//! SuRF — the Succinct Range Filter of Zhang et al. (SIGMOD 2018), on top of
//! our LOUDS-Sparse Fast Succinct Trie.
//!
//! Keys (64-bit, big-endian byte strings) are truncated at their
//! *distinguishing prefix* — the shortest prefix unique within the set —
//! and the truncated set is stored in the FST. Each leaf optionally carries
//! `m` suffix bits: **Real** (the key bits following the prefix, usable for
//! both point and range filtering) or **Hash** (key-hash bits, point queries
//! only). The Grafite evaluation uses real suffixes for range workloads and
//! hashed suffixes for point workloads (§6.1), and so does our harness.
//!
//! A range query `[a, b]` seeks the smallest stored (truncated) key that is
//! not decidedly smaller than `a`, optionally refines the undecided case
//! with real suffix bits, and compares the result against `b`
//! conservatively. No false negatives; false positives whenever truncation
//! loses the deciding bits — which is precisely why correlated queries
//! defeat SuRF (paper Figures 1/3).

use grafite_core::persist::{spec_id, Header};
use grafite_core::{BuildableFilter, FilterConfig, FilterError, PersistentFilter, RangeFilter};
use grafite_fst::{builder, FstDs, Lookup};
use grafite_hash::mix::murmur_mix64;
use grafite_succinct::io::{WordReader, WordWriter};
use grafite_succinct::IntVec;

/// Suffix policy for SuRF leaves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SuffixMode {
    /// No suffix bits (SuRF-Base).
    Base,
    /// `bits` of the key following the truncated prefix (SuRF-Real).
    Real {
        /// Suffix length in bits (1..=56).
        bits: u8,
    },
    /// `bits` of a key hash (SuRF-Hash): sharpens point queries only.
    Hash {
        /// Suffix length in bits (1..=56).
        bits: u8,
    },
}

impl SuffixMode {
    fn bits(&self) -> usize {
        match self {
            SuffixMode::Base => 0,
            SuffixMode::Real { bits } | SuffixMode::Hash { bits } => *bits as usize,
        }
    }
}

/// The SuRF range filter over `u64` keys.
#[derive(Clone, Debug)]
pub struct Surf {
    fst: FstDs,
    /// Per-leaf suffix bits, indexed by leaf emission order.
    suffixes: IntVec,
    /// Truncation length (bytes) per leaf — needed to slice Real suffixes
    /// out of probe keys.
    mode: SuffixMode,
    n_keys: usize,
}

impl Surf {
    /// Builds SuRF over the key set with the given suffix mode and an
    /// explicit number of LOUDS-Dense levels (`Some(0)` = pure
    /// LOUDS-Sparse, `None` = SuRF's automatic split); used by tests and
    /// the encoding ablation. [`BuildableFilter::build_with`] is the
    /// budget-driven path.
    pub fn with_dense_depth(
        keys: &[u64],
        mode: SuffixMode,
        dense_depth: Option<usize>,
    ) -> Result<Self, FilterError> {
        if let SuffixMode::Real { bits } | SuffixMode::Hash { bits } = mode {
            if bits == 0 || bits > 56 {
                return Err(FilterError::InvalidBudget(bits as f64));
            }
        }
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let byte_keys: Vec<[u8; 8]> = sorted.iter().map(|k| k.to_be_bytes()).collect();
        let refs: Vec<&[u8]> = byte_keys.iter().map(|k| k.as_slice()).collect();
        let lens = builder::distinguishing_lengths(&refs);
        let truncated: Vec<&[u8]> = refs.iter().zip(&lens).map(|(k, &l)| &k[..l]).collect();
        // The full LOUDS-DS layout: dense bitmaps for the top levels (by
        // SuRF's size-ratio rule), LOUDS-Sparse below. `None` = auto.
        let result = match dense_depth {
            Some(d) => FstDs::build_with_depth(&truncated, d),
            None => FstDs::build_auto(&truncated),
        };

        let m = mode.bits();
        let mut suffixes = IntVec::with_capacity(m, result.leaf_to_key.len());
        for &key_idx in &result.leaf_to_key {
            let suffix = match mode {
                SuffixMode::Base => 0,
                SuffixMode::Real { bits } => {
                    key_suffix_bits(sorted[key_idx], lens[key_idx] * 8, bits as usize)
                }
                SuffixMode::Hash { bits } => murmur_mix64(sorted[key_idx]) >> (64 - bits as u32),
            };
            suffixes.push(suffix);
        }

        Ok(Self {
            fst: result.fst,
            suffixes,
            mode,
            n_keys: keys.len(),
        })
    }

    /// Access to the underlying trie (size diagnostics).
    pub fn fst(&self) -> &FstDs {
        &self.fst
    }

    /// The configured suffix mode.
    pub fn mode(&self) -> SuffixMode {
        self.mode
    }

    /// Exact-style point query: walk the trie, then compare suffix bits.
    fn point_query(&self, x: u64) -> bool {
        match self.fst.lookup(&x.to_be_bytes()) {
            Lookup::NotFound => false,
            Lookup::ExhaustedAtInternal => true, // cannot happen for 8-byte probes; stay sound
            Lookup::Leaf { leaf, depth } => match self.mode {
                SuffixMode::Base => true,
                SuffixMode::Real { bits } => {
                    let probe = key_suffix_bits(x, depth * 8, bits as usize);
                    self.suffixes.get(leaf) == probe
                }
                SuffixMode::Hash { bits } => {
                    let probe = murmur_mix64(x) >> (64 - bits as u32);
                    self.suffixes.get(leaf) == probe
                }
            },
        }
    }
}

impl PersistentFilter for Surf {
    /// One type, three spec ids: the stored suffix family decides which —
    /// `SuRF-Real` and `SuRF-Hash` are distinct rows of the paper's
    /// comparison (and of the registry), `SuRF-Base` is the suffix-free
    /// ablation.
    fn spec_id(&self) -> u32 {
        match self.mode {
            SuffixMode::Base => spec_id::SURF_BASE,
            SuffixMode::Real { .. } => spec_id::SURF_REAL,
            SuffixMode::Hash { .. } => spec_id::SURF_HASH,
        }
    }

    fn spec_ids() -> &'static [u32] {
        &[spec_id::SURF_BASE, spec_id::SURF_REAL, spec_id::SURF_HASH]
    }

    /// Payload: `[suffix_bits]` + the per-leaf suffix array + the LOUDS-DS
    /// trie (the suffix *family* lives in the header's spec id).
    fn write_payload(&self, w: &mut WordWriter<'_>) -> std::io::Result<()> {
        w.word(self.mode.bits() as u64)?;
        self.suffixes.write_to(w)?;
        self.fst.write_to(w)?;
        Ok(())
    }

    fn read_payload(src: &mut WordReader<'_>, header: &Header) -> Result<Self, FilterError> {
        let bits = src.word()?;
        let mode = match (header.spec_id, bits) {
            (spec_id::SURF_BASE, 0) => SuffixMode::Base,
            (spec_id::SURF_REAL, 1..=56) => SuffixMode::Real { bits: bits as u8 },
            (spec_id::SURF_HASH, 1..=56) => SuffixMode::Hash { bits: bits as u8 },
            _ => return Err(FilterError::corrupt("SuRF suffix length")),
        };
        let suffixes = IntVec::read_from(src)?;
        let fst = FstDs::read_from(src)?;
        if suffixes.width() != mode.bits() || suffixes.len() != fst.num_leaves() {
            return Err(FilterError::corrupt("SuRF suffix table shape"));
        }
        Ok(Self {
            fst,
            suffixes,
            mode,
            n_keys: header.n_keys as usize,
        })
    }
}

/// `m` bits of `key` starting at bit `start` (0 = most significant), padded
/// with zeros past bit 63.
#[inline]
fn key_suffix_bits(key: u64, start: usize, m: usize) -> u64 {
    if m == 0 {
        return 0;
    }
    if start >= 64 {
        return 0;
    }
    let shifted = key << start; // drops the consumed prefix
    shifted >> (64 - m as u32)
}

/// The trie alone costs about this much per key on random data; the
/// budget-derived suffix length is what remains above it.
const TRIE_FLOOR_BITS: f64 = 11.0;

/// Suffix *style* for budget-derived construction ([`SurfTuning`]): which
/// of the two [`SuffixMode`] families to use, with the bit length computed
/// from [`FilterConfig::bits_per_key`] rather than given explicitly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SuffixStyle {
    /// Real key suffixes — the paper's range-query configuration.
    #[default]
    Real,
    /// Hashed suffixes — the paper's point-query configuration.
    Hashed,
}

/// Per-filter tuning for [`Surf`] under the [`BuildableFilter`] protocol.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SurfTuning {
    /// Which suffix family to spend the above-floor budget on.
    pub style: SuffixStyle,
    /// `Some(bits)` pins the suffix length; `None` (the default) derives it
    /// from the budget: `round(bits_per_key − 11)`, capped at 32.
    pub suffix_bits: Option<u8>,
}

impl BuildableFilter for Surf {
    type Tuning = SurfTuning;

    /// Errors with [`FilterError::BudgetBelowFloor`] when the budget cannot
    /// cover the ~11 bits/key trie plus one suffix bit (the configurations
    /// the paper's footnote 6 omits).
    fn build_with(cfg: &FilterConfig<'_>, tuning: &SurfTuning) -> Result<Self, FilterError> {
        let bits = match tuning.suffix_bits {
            Some(bits) => bits,
            None => {
                let suffix_bits = (cfg.bits_per_key - TRIE_FLOOR_BITS).round();
                if suffix_bits < 1.0 {
                    return Err(FilterError::BudgetBelowFloor {
                        requested: cfg.bits_per_key,
                        floor: TRIE_FLOOR_BITS + 1.0,
                    });
                }
                (suffix_bits as u8).min(32)
            }
        };
        let mode = match tuning.style {
            SuffixStyle::Real => SuffixMode::Real { bits },
            SuffixStyle::Hashed => SuffixMode::Hash { bits },
        };
        Surf::with_dense_depth(cfg.keys, mode, None)
    }
}

impl RangeFilter for Surf {
    fn may_contain_range(&self, a: u64, b: u64) -> bool {
        debug_assert!(a <= b, "inverted range [{a}, {b}]");
        if self.n_keys == 0 {
            return false;
        }
        if a == b {
            return self.point_query(a);
        }
        let a_bytes = a.to_be_bytes();
        let mut it = match self.fst.seek(&a_bytes) {
            Some(it) => it,
            None => return false,
        };
        // Undecided seek (stored key a proper prefix of `a`): refine with
        // real suffix bits, as SuRF does; at most one advance is needed
        // because the stored set is prefix-free.
        if let SuffixMode::Real { bits } = self.mode {
            let t = it.key();
            if t.len() < 8 && a_bytes.starts_with(&t) {
                let stored = self.suffixes.get(it.leaf_index());
                let probe = key_suffix_bits(a, t.len() * 8, bits as usize);
                if stored < probe {
                    // Decidedly smaller than a: move to the next leaf.
                    if !it.advance() {
                        return false;
                    }
                }
            }
        }
        // Upper comparison against b: decided by the truncated bytes when
        // they diverge from b, refined with real suffix bits when the
        // stored key is a prefix of b (SuRF's iter.getKey() <= b test).
        let b_bytes = b.to_be_bytes();
        let t = it.key();
        if !b_bytes.starts_with(&t) {
            return t.as_slice() < &b_bytes[..];
        }
        match self.mode {
            SuffixMode::Real { bits } => {
                let stored = self.suffixes.get(it.leaf_index());
                let probe = key_suffix_bits(b, t.len() * 8, bits as usize);
                // stored > probe decides the leaf's key (and every later
                // leaf) is beyond b; equality stays conservative.
                stored <= probe
            }
            _ => true,
        }
    }

    fn size_in_bits(&self) -> usize {
        self.fst.size_in_bits() + self.suffixes.size_in_bits() + 2 * 64
    }

    fn num_keys(&self) -> usize {
        self.n_keys
    }

    fn name(&self) -> &'static str {
        match self.mode {
            SuffixMode::Base => "SuRF-Base",
            SuffixMode::Real { .. } => "SuRF-Real",
            SuffixMode::Hash { .. } => "SuRF-Hash",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_keys(n: usize, seed: u64) -> Vec<u64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state
            })
            .collect()
    }

    #[test]
    fn suffix_bit_extraction() {
        let key = 0xABCD_EF01_2345_6789u64;
        assert_eq!(key_suffix_bits(key, 0, 8), 0xAB);
        assert_eq!(key_suffix_bits(key, 8, 8), 0xCD);
        assert_eq!(key_suffix_bits(key, 60, 4), 0x9);
        assert_eq!(key_suffix_bits(key, 64, 8), 0);
        assert_eq!(key_suffix_bits(key, 4, 12), 0xBCD);
    }

    #[test]
    fn no_false_negatives_all_modes() {
        let keys = pseudo_keys(2000, 1);
        let modes = [
            SuffixMode::Base,
            SuffixMode::Real { bits: 8 },
            SuffixMode::Hash { bits: 8 },
        ];
        for mode in modes {
            let f = Surf::with_dense_depth(&keys, mode, None).unwrap();
            for (i, &k) in keys.iter().enumerate().step_by(3) {
                assert!(f.may_contain(k), "{:?} point FN at {i}", mode);
                let lo = k.saturating_sub(i as u64 % 100);
                let hi = k.saturating_add(37);
                assert!(f.may_contain_range(lo, hi), "{:?} range FN at {i}", mode);
            }
        }
    }

    #[test]
    fn point_queries_filter_with_hash_suffixes() {
        let keys = pseudo_keys(2000, 7);
        let f = Surf::with_dense_depth(&keys, SuffixMode::Hash { bits: 10 }, None).unwrap();
        let mut fps = 0;
        let probes = pseudo_keys(4000, 1234);
        for &p in &probes {
            if keys.contains(&p) {
                continue;
            }
            if f.may_contain(p) {
                fps += 1;
            }
        }
        let fpr = fps as f64 / probes.len() as f64;
        assert!(fpr < 0.05, "SuRF-Hash point FPR {fpr}");
    }

    #[test]
    fn range_queries_filter_uncorrelated() {
        let keys = pseudo_keys(2000, 9);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let f = Surf::with_dense_depth(&keys, SuffixMode::Real { bits: 8 }, None).unwrap();
        let mut fps = 0;
        let mut empties = 0;
        let mut state = 42u64;
        while empties < 3000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = state;
            let b = match a.checked_add(31) {
                Some(b) => b,
                None => continue,
            };
            let i = sorted.partition_point(|&k| k < a);
            if i < sorted.len() && sorted[i] <= b {
                continue;
            }
            empties += 1;
            if f.may_contain_range(a, b) {
                fps += 1;
            }
        }
        let fpr = fps as f64 / empties as f64;
        assert!(
            fpr < 0.10,
            "SuRF-Real FPR {fpr} on uncorrelated small ranges"
        );
    }

    #[test]
    fn correlated_queries_defeat_surf() {
        // Adjacent empty ranges share long prefixes with the keys: the
        // truncated trie cannot separate them (the paper's headline issue).
        let keys: Vec<u64> = (0..2000u64).map(|i| i * (1 << 40)).collect();
        let f = Surf::with_dense_depth(&keys, SuffixMode::Real { bits: 8 }, None).unwrap();
        let mut fps = 0;
        for &k in keys.iter() {
            if f.may_contain_range(k + (1 << 20), k + (1 << 20) + 31) {
                fps += 1;
            }
        }
        let fpr = fps as f64 / keys.len() as f64;
        assert!(fpr > 0.5, "expected high correlated FPR, got {fpr}");
    }

    #[test]
    fn duplicate_and_empty_inputs() {
        let f = Surf::with_dense_depth(&[], SuffixMode::Base, None).unwrap();
        assert!(!f.may_contain_range(0, u64::MAX));
        let f = Surf::with_dense_depth(&[5, 5, 5], SuffixMode::Real { bits: 4 }, None).unwrap();
        assert!(f.may_contain(5));
    }

    #[test]
    fn space_reasonable() {
        let keys = pseudo_keys(10_000, 5);
        let f = Surf::with_dense_depth(&keys, SuffixMode::Real { bits: 8 }, None).unwrap();
        let bpk = f.bits_per_key();
        // Paper: at least 10 bits/key, typically 10 + m + trie overhead.
        assert!(bpk > 10.0 && bpk < 40.0, "SuRF bits/key = {bpk}");
    }

    #[test]
    fn rejects_bad_suffix_width() {
        assert!(Surf::with_dense_depth(&[1], SuffixMode::Real { bits: 0 }, None).is_err());
        assert!(Surf::with_dense_depth(&[1], SuffixMode::Hash { bits: 60 }, None).is_err());
    }
}

#[cfg(test)]
mod louds_ds_tests {
    use super::*;

    /// SuRF's answers are a pure function of the stored key set and suffix
    /// policy: the LOUDS-Dense/Sparse split must not change a single one.
    #[test]
    fn dense_and_sparse_encodings_agree() {
        let mut state = 31u64;
        let keys: Vec<u64> = (0..3000)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state
            })
            .collect();
        for mode in [
            SuffixMode::Base,
            SuffixMode::Real { bits: 8 },
            SuffixMode::Hash { bits: 8 },
        ] {
            let sparse = Surf::with_dense_depth(&keys, mode, Some(0)).unwrap();
            let auto = Surf::with_dense_depth(&keys, mode, None).unwrap();
            assert!(
                auto.fst().dense_depth() >= 1,
                "auto split should use dense levels"
            );
            let mut probe_state = 77u64;
            for _ in 0..4000 {
                probe_state = probe_state
                    .wrapping_mul(2862933555777941757)
                    .wrapping_add(3037000493);
                let a = probe_state;
                let b = a.saturating_add(probe_state % 4096);
                assert_eq!(
                    sparse.may_contain_range(a, b),
                    auto.may_contain_range(a, b),
                    "{mode:?} disagreement on [{a}, {b}]"
                );
            }
        }
    }

    #[test]
    fn dense_head_speeds_up_or_matches_space() {
        let mut state = 77u64;
        let keys: Vec<u64> = (0..20_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                state
            })
            .collect();
        let auto = Surf::with_dense_depth(&keys, SuffixMode::Real { bits: 8 }, None).unwrap();
        let sparse = Surf::with_dense_depth(&keys, SuffixMode::Real { bits: 8 }, Some(0)).unwrap();
        // The 16x rule keeps the dense head a bounded fraction of the trie.
        assert!(auto.size_in_bits() < sparse.size_in_bits() * 2);
    }
}

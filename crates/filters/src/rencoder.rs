//! REncoder — the Range Encoder of Wang et al. (ICDE 2023), as described in
//! the Grafite paper's §2/§5.
//!
//! Each key is processed in 4-bit chunks from the least significant end:
//! for a chunk value `s` and remaining prefix `p`, the path from leaf `s` to
//! the root of a complete 16-leaf binary tree is marked in a 32-bit word,
//! which is OR-ed into the bit array at `k` hashed offsets of `p`. One tree
//! thus stores five adjacent prefix-lengths of range information *locally*
//! (the "local encoder" in the filter's name), so a dyadic probe needs one
//! 32-bit load per hash instead of one Bloom probe per level.
//!
//! Variants, following the REncoder paper's naming as used by the Grafite
//! evaluation (which runs REncoder, REncoderSS, and the sample-auto-tuned
//! REncoderSE):
//!
//! * **REncoder** — the base configuration, storing the bottom
//!   `DEFAULT_ROUNDS` trees (see that constant for why not all 16);
//! * **REncoderSS** ("selective storage") — stores only the bottom
//!   `rounds` trees, enough for ranges up to `2^(4·rounds)`; fixed choice;
//! * **REncoderSE** ("sample estimation") — picks `rounds` from the largest
//!   range observed in a sample workload.

use grafite_core::persist::{spec_id, Header};
use grafite_core::{BuildableFilter, FilterConfig, FilterError, PersistentFilter, RangeFilter};
use grafite_hash::mix::murmur_mix64;
use grafite_succinct::io::{WordReader, WordWriter};
use grafite_succinct::BitVec;

use crate::dyadic::cover;

/// Offsets of each tree level inside the 32-bit encoder word:
/// level λ (0 = root, 4 = leaves) starts at bit `OFFSET[λ]`.
const LEVEL_OFFSET: [u32; 5] = [0, 1, 3, 7, 15];

/// Probe budget per query (soundness-preserving give-up threshold).
const MAX_PROBES: usize = 1 << 14;

/// Default number of stored rounds for the base variant: 4 trees cover
/// dyadic levels down to prefixes of `64 − 16` bits, i.e. ranges up to
/// `2^16` — comfortably above the paper's largest workload (`2^10`).
/// Storing all 16 rounds, as a literal reading of the description would
/// have it, costs ≥ 5·16 bits set per key and saturates any realistic bit
/// budget; the published space bound `O(n(k + log(1/ε)))` implies the real
/// implementation also bounds the stored levels. This bound is our choice,
/// not a parameter the paper states.
const DEFAULT_ROUNDS: u32 = 4;

/// Which REncoder variant to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum REncoderVariant {
    /// The base configuration: bottom `DEFAULT_ROUNDS` trees.
    Full,
    /// Selective storage: only the bottom `rounds` trees.
    SelectiveStorage {
        /// Number of 4-bit rounds stored (1..=16).
        rounds: u32,
    },
    /// Sample estimation: rounds chosen from the largest sampled range.
    SampleEstimation,
}

/// The REncoder range filter.
#[derive(Clone, Debug)]
pub struct REncoder {
    bits: BitVec,
    m: u64,
    k: u32,
    rounds: u32,
    seed: u64,
    n_keys: usize,
    variant_name: &'static str,
}

impl REncoder {
    /// The 32-bit word marking the root-to-leaf path of chunk value `s`.
    #[inline]
    fn tree_mask(s: u64) -> u32 {
        debug_assert!(s < 16);
        (1 << LEVEL_OFFSET[0])
            | (1 << (LEVEL_OFFSET[1] + (s >> 3) as u32))
            | (1 << (LEVEL_OFFSET[2] + (s >> 2) as u32))
            | (1 << (LEVEL_OFFSET[3] + (s >> 1) as u32))
            | (1 << (LEVEL_OFFSET[4] + s as u32))
    }

    /// Hashed bit offset of the tree for prefix `p` at round `j`, hash `i`.
    #[inline]
    fn tree_pos(&self, p: u64, j: u32, i: u32) -> usize {
        let h = murmur_mix64(
            p ^ self
                .seed
                .wrapping_add((j as u64) << 32)
                .wrapping_add(i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        (h % (self.m - 31)) as usize
    }

    fn insert(&mut self, key: u64) {
        for j in 0..self.rounds {
            let s = (key >> (4 * j)) & 0xF;
            let p = if j == 15 { 0 } else { key >> (4 * (j + 1)) };
            let mask = Self::tree_mask(s) as u64;
            for i in 0..self.k {
                let pos = self.tree_pos(p, j, i);
                let cur = self.bits.get_bits(pos, 32);
                self.bits.set_bits(pos, cur | mask, 32);
            }
        }
    }

    /// Maps a prefix length `level` (bits) to `(round, tree level λ, shift)`.
    /// Returns `None` if the level is shallower than the stored rounds.
    #[inline]
    fn locate(&self, level: u32) -> Option<(u32, u32)> {
        debug_assert!((1..=64).contains(&level));
        let d = 64 - level; // wildcard (low) bits
        if d % 4 == 0 {
            let j = d / 4;
            if j < self.rounds {
                Some((j, 4))
            } else if j == self.rounds {
                Some((j - 1, 0))
            } else {
                None
            }
        } else {
            let j = d / 4;
            if j < self.rounds {
                Some((j, 4 - d % 4))
            } else {
                None
            }
        }
    }

    /// Tests the range-tree node for the length-`level` prefix `q`,
    /// including all of its ancestors within the same tree: insertion marks
    /// entire leaf-to-root paths, so a genuine node always has its full
    /// ancestor path set — checking the path (the paper's "traversals of
    /// binary trees recovered via AND operations") multiplies the
    /// false-positive discrimination without extra memory loads.
    fn node_set(&self, q: u64, level: u32) -> Option<bool> {
        let (j, lambda) = self.locate(level)?;
        // The tree prefix p has level − λ bits; the node index is the next
        // λ bits of q.
        let p = if lambda == 0 { q } else { q >> lambda };
        let idx = if lambda == 0 {
            0u64
        } else {
            q & ((1 << lambda) - 1)
        };
        let mut need = 0u32;
        for lam in 0..=lambda {
            let ancestor = idx >> (lambda - lam);
            need |= 1 << (LEVEL_OFFSET[lam as usize] + ancestor as u32);
        }
        let mut word = u32::MAX;
        for i in 0..self.k {
            let pos = self.tree_pos(p, j, i);
            word &= self.bits.get_bits(pos, 32) as u32;
            if word & need != need {
                return Some(false);
            }
        }
        Some(word & need == need)
    }

    fn doubt(&self, q: u64, level: u32, probes: &mut usize) -> bool {
        *probes += 1;
        if *probes > MAX_PROBES {
            return true;
        }
        match self.node_set(q, level) {
            None => true, // level not stored: cannot filter
            Some(false) => false,
            Some(true) => {
                if level == 64 {
                    true
                } else {
                    self.doubt(q << 1, level + 1, probes)
                        || self.doubt((q << 1) | 1, level + 1, probes)
                }
            }
        }
    }

    /// Number of stored rounds (trees per key).
    pub fn rounds(&self) -> u32 {
        self.rounds
    }
}

impl PersistentFilter for REncoder {
    /// One type, three spec ids, matching the three registry rows: the
    /// stored variant decides which.
    fn spec_id(&self) -> u32 {
        match self.variant_name {
            "REncoderSS" => spec_id::RENCODER_SS,
            "REncoderSE" => spec_id::RENCODER_SE,
            _ => spec_id::RENCODER,
        }
    }

    fn spec_ids() -> &'static [u32] {
        &[
            spec_id::RENCODER,
            spec_id::RENCODER_SS,
            spec_id::RENCODER_SE,
        ]
    }

    /// Payload: `[m, k, rounds, seed]` + the encoder bit array (the
    /// variant lives in the header's spec id).
    fn write_payload(&self, w: &mut WordWriter<'_>) -> std::io::Result<()> {
        w.word(self.m)?;
        w.word(self.k as u64)?;
        w.word(self.rounds as u64)?;
        w.word(self.seed)?;
        self.bits.write_to(w)?;
        Ok(())
    }

    fn read_payload(src: &mut WordReader<'_>, header: &Header) -> Result<Self, FilterError> {
        let variant_name = match header.spec_id {
            spec_id::RENCODER_SS => "REncoderSS",
            spec_id::RENCODER_SE => "REncoderSE",
            _ => "REncoder",
        };
        let m = src.word()?;
        if m < 64 {
            return Err(FilterError::corrupt("REncoder array below 64 bits"));
        }
        let k = src.word()?;
        if k == 0 || k > u32::MAX as u64 {
            return Err(FilterError::corrupt("REncoder hash count"));
        }
        let rounds = src.word()?;
        if !(1..=16).contains(&rounds) {
            return Err(FilterError::corrupt("REncoder round count"));
        }
        let seed = src.word()?;
        let bits = BitVec::read_from(src)?;
        if bits.len() as u64 != m {
            return Err(FilterError::corrupt("REncoder bit array length"));
        }
        Ok(Self {
            bits,
            m,
            k: k as u32,
            rounds: rounds as u32,
            seed,
            n_keys: header.n_keys as usize,
            variant_name,
        })
    }
}

/// Per-filter tuning for [`REncoder`]: a typed newtype over the variant.
/// Default: [`REncoderVariant::Full`], the paper's base configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct REncoderTuning(pub REncoderVariant);

impl Default for REncoderTuning {
    fn default() -> Self {
        Self(REncoderVariant::Full)
    }
}

impl BuildableFilter for REncoder {
    type Tuning = REncoderTuning;

    /// Builds with the storage policy of the tuning's [`REncoderVariant`];
    /// only `SampleEstimation` reads [`FilterConfig::sample`] (empty
    /// ranges), whose widest range picks the stored rounds.
    fn build_with(cfg: &FilterConfig<'_>, tuning: &REncoderTuning) -> Result<Self, FilterError> {
        let (keys, bits_per_key, seed) = (cfg.keys, cfg.bits_per_key, cfg.seed);
        if !(bits_per_key > 0.0 && bits_per_key.is_finite()) {
            return Err(FilterError::InvalidBudget(bits_per_key));
        }
        let (rounds, variant_name) = match tuning.0 {
            REncoderVariant::Full => (DEFAULT_ROUNDS, "REncoder"),
            REncoderVariant::SelectiveStorage { rounds } => (rounds.clamp(1, 16), "REncoderSS"),
            REncoderVariant::SampleEstimation => {
                // Largest sampled range dictates the shallowest level probed:
                // ranges up to 2^(4·rounds) decompose into stored levels.
                let max_range = cfg
                    .sample
                    .iter()
                    .map(|&(a, b)| b.saturating_sub(a) + 1)
                    .max()
                    .unwrap_or(1 << 10);
                let log = 64 - (max_range.max(2) - 1).leading_zeros(); // ceil(log2)
                ((log.div_ceil(4) + 1).clamp(1, 16), "REncoderSE")
            }
        };
        let n = keys.len();
        let m = ((bits_per_key * n.max(1) as f64).ceil() as u64).max(64);
        // One hash per tree: the AND-recovered *path* check (five bits per
        // probe at the leaves) supplies the discrimination k would.
        let k = 1;
        let mut f = Self {
            // A finite but huge budget asks for more bits than exist.
            bits: usize::try_from(m)
                .ok()
                .and_then(BitVec::try_zeros)
                .ok_or(FilterError::InvalidBudget(bits_per_key))?,
            m,
            k,
            rounds,
            seed,
            n_keys: n,
            variant_name,
        };
        for &key in keys {
            f.insert(key);
        }
        Ok(f)
    }
}

impl RangeFilter for REncoder {
    fn may_contain_range(&self, a: u64, b: u64) -> bool {
        debug_assert!(a <= b, "inverted range [{a}, {b}]");
        if self.n_keys == 0 {
            return false;
        }
        let max_j = 4 * self.rounds;
        // A span far wider than the deepest stored level would decompose
        // into an unbounded interval list: give up (soundly) first.
        if max_j < 64 && ((b - a) >> max_j) as usize > MAX_PROBES / 4 {
            return true;
        }
        let intervals = cover(a, b, max_j);
        if intervals.len() > MAX_PROBES / 2 {
            return true;
        }
        let mut probes = 0usize;
        for d in intervals {
            if d.j == 64 {
                return true; // whole-universe probe cannot be filtered
            }
            if self.doubt(d.prefix, 64 - d.j, &mut probes) {
                return true;
            }
        }
        false
    }

    fn size_in_bits(&self) -> usize {
        self.bits.size_in_bits() + 4 * 64
    }

    fn num_keys(&self) -> usize {
        self.n_keys
    }

    fn name(&self) -> &'static str {
        self.variant_name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rencoder(
        keys: &[u64],
        bits_per_key: f64,
        variant: REncoderVariant,
        sample: Option<&[(u64, u64)]>,
        seed: u64,
    ) -> Result<REncoder, FilterError> {
        let cfg = FilterConfig::new(keys)
            .bits_per_key(bits_per_key)
            .sample(sample.unwrap_or(&[]))
            .seed(seed);
        REncoder::build_with(&cfg, &REncoderTuning(variant))
    }

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
    fn tree_mask_marks_five_bits() {
        for s in 0..16u64 {
            let mask = REncoder::tree_mask(s);
            assert_eq!(mask.count_ones(), 5, "s={s}");
            assert!(mask & 1 != 0, "root always marked");
            assert!(mask & (1 << (15 + s)) != 0, "leaf s marked");
        }
    }

    #[test]
    fn no_false_negatives_all_variants() {
        let keys = pseudo_keys(1500, 1);
        let variants = [
            REncoderVariant::Full,
            REncoderVariant::SelectiveStorage { rounds: 3 },
            REncoderVariant::SampleEstimation,
        ];
        let sample: Vec<(u64, u64)> = vec![(0, 1023)];
        for v in variants {
            let f = rencoder(&keys, 18.0, v, Some(&sample), 7).unwrap();
            for (i, &k) in keys.iter().enumerate().step_by(4) {
                assert!(f.may_contain(k), "{:?} point FN at {i}", v);
                assert!(
                    f.may_contain_range(k.saturating_sub(40), k.saturating_add(40)),
                    "{:?} range FN at {i}",
                    v
                );
            }
        }
    }

    #[test]
    fn filters_empty_point_queries() {
        let keys = pseudo_keys(2000, 3);
        let f = rencoder(&keys, 20.0, REncoderVariant::Full, None, 1).unwrap();
        let mut fps = 0;
        for probe in pseudo_keys(4000, 99) {
            if keys.contains(&probe) {
                continue;
            }
            if f.may_contain(probe) {
                fps += 1;
            }
        }
        let fpr = fps as f64 / 4000.0;
        assert!(fpr < 0.25, "REncoder point FPR {fpr} at 20 bpk");
    }

    #[test]
    fn selective_storage_cheaper_to_build_more_fp_on_large_ranges() {
        let keys = pseudo_keys(2000, 5);
        let full = rencoder(&keys, 16.0, REncoderVariant::Full, None, 2).unwrap();
        let ss = rencoder(
            &keys,
            16.0,
            REncoderVariant::SelectiveStorage { rounds: 2 },
            None,
            2,
        )
        .unwrap();
        assert_eq!(full.rounds(), DEFAULT_ROUNDS);
        assert_eq!(ss.rounds(), 2);
        // SS cannot filter ranges wider than 2^8: everything "maybe".
        assert!(ss.may_contain_range(0, 1 << 40));
    }

    #[test]
    fn sample_estimation_adapts_rounds() {
        let keys = pseudo_keys(500, 9);
        let small: Vec<(u64, u64)> = vec![(10, 41)]; // ranges of 32
        let large: Vec<(u64, u64)> = vec![(10, 10 + (1 << 20) - 1)];
        let f_small = rencoder(
            &keys,
            16.0,
            REncoderVariant::SampleEstimation,
            Some(&small),
            0,
        )
        .unwrap();
        let f_large = rencoder(
            &keys,
            16.0,
            REncoderVariant::SampleEstimation,
            Some(&large),
            0,
        )
        .unwrap();
        assert!(f_small.rounds() < f_large.rounds());
    }

    #[test]
    fn empty_keys() {
        let f = rencoder(&[], 16.0, REncoderVariant::Full, None, 0).unwrap();
        assert!(!f.may_contain_range(0, u64::MAX));
    }

    #[test]
    fn locate_level_mapping() {
        let f = rencoder(
            &[1],
            16.0,
            REncoderVariant::SelectiveStorage { rounds: 16 },
            None,
            0,
        )
        .unwrap();
        // Level 64 (points): round 0 leaves.
        assert_eq!(f.locate(64), Some((0, 4)));
        // Level 63: round 0, λ=3.
        assert_eq!(f.locate(63), Some((0, 3)));
        // Level 60: leaf of round 1.
        assert_eq!(f.locate(60), Some((1, 4)));
        // Level 1: round 15, λ=1.
        assert_eq!(f.locate(1), Some((15, 1)));

        // A 4-round filter cannot locate shallower levels.
        let f4 = rencoder(&[1], 16.0, REncoderVariant::Full, None, 0).unwrap();
        assert_eq!(f4.locate(64 - 16), Some((3, 0)));
        assert_eq!(f4.locate(64 - 17), None);
    }
}

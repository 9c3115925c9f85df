//! Rosetta — the Robust Space-Time Optimized Range Filter of Luo et al.
//! (SIGMOD 2020), as described in the Grafite paper's §2/§5.
//!
//! One Bloom filter per prefix length ("level"); every key inserts all its
//! prefixes at the stored levels. A range query is decomposed into dyadic
//! intervals probed at the matching level; every positive is *doubted* by
//! recursively probing its two children until the leaf level confirms.
//! Rosetta is the other FPR-robust filter in the paper (Figure 3), but pays
//! `O(L·log(1/ε))` worst-case probes — the query-time gap to Grafite that
//! Figure 5 quantifies.
//!
//! Sizing follows the tuning the Grafite paper cites from [25, §3.1]: the
//! bottom level is sized for FPR ε and each upper level for FPR `1/(2−ε)`,
//! giving `≈ 1.44·n·log2(L/ε)` total bits. The optional sample-based
//! auto-tuning reweights the upper levels by the probe frequencies observed
//! on a sample workload (§6.1 runs Rosetta auto-tuned).

use grafite_bloom::BloomFilter;
use grafite_core::persist::{spec_id, Header};
use grafite_core::{BuildableFilter, FilterConfig, FilterError, PersistentFilter, RangeFilter};
use grafite_succinct::io::{WordReader, WordWriter};

use crate::dyadic::cover;

/// Probe budget per query: past this, the filter stops filtering and
/// answers "maybe" (keeps adversarial inputs from exploding query time).
const MAX_PROBES: usize = 1 << 14;

/// The Rosetta range filter.
#[derive(Clone, Debug)]
pub struct Rosetta {
    /// `blooms[i]` serves prefix length `min_level + i`; last entry = level 64.
    blooms: Vec<BloomFilter>,
    min_level: u32,
    n_keys: usize,
}

impl Rosetta {
    fn insert_prefixes(&mut self, key: u64) {
        for i in 0..self.blooms.len() {
            let level = self.min_level + i as u32;
            let prefix = if level == 64 {
                key
            } else {
                key >> (64 - level)
            };
            self.blooms[i].insert(prefix);
        }
    }

    #[inline]
    fn bloom_at(&self, level: u32) -> &BloomFilter {
        &self.blooms[(level - self.min_level) as usize]
    }

    /// The recursive "doubting" walk: confirm a positive at `level` by
    /// probing its children down to the leaves.
    fn doubt(&self, prefix: u64, level: u32, probes: &mut usize) -> bool {
        *probes += 1;
        if *probes > MAX_PROBES {
            return true; // give up filtering, stay sound
        }
        if !self.bloom_at(level).contains(prefix) {
            return false;
        }
        if level == 64 {
            return true;
        }
        self.doubt(prefix << 1, level + 1, probes)
            || self.doubt((prefix << 1) | 1, level + 1, probes)
    }

    /// The shallowest stored level.
    pub fn min_level(&self) -> u32 {
        self.min_level
    }
}

impl PersistentFilter for Rosetta {
    fn spec_id(&self) -> u32 {
        spec_id::ROSETTA
    }

    fn spec_ids() -> &'static [u32] {
        &[spec_id::ROSETTA]
    }

    /// Payload: `[min_level, n_levels]` + one Bloom filter per level.
    fn write_payload(&self, w: &mut WordWriter<'_>) -> std::io::Result<()> {
        w.word(self.min_level as u64)?;
        w.word(self.blooms.len() as u64)?;
        for bloom in &self.blooms {
            bloom.write_to(w)?;
        }
        Ok(())
    }

    fn read_payload(src: &mut WordReader<'_>, header: &Header) -> Result<Self, FilterError> {
        let min_level = src.word()?;
        if !(1..=64).contains(&min_level) {
            return Err(FilterError::corrupt("Rosetta level out of range"));
        }
        let n_levels = src.length()?;
        if n_levels != (64 - min_level + 1) as usize {
            return Err(FilterError::corrupt("Rosetta level stack height"));
        }
        let mut blooms = Vec::with_capacity(n_levels);
        for _ in 0..n_levels {
            blooms.push(BloomFilter::read_from(src)?);
        }
        Ok(Self {
            blooms,
            min_level: min_level as u32,
            n_keys: header.n_keys as usize,
        })
    }
}

/// Per-filter tuning for [`Rosetta`] under the [`BuildableFilter`]
/// protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RosettaTuning {
    /// Reweight the per-level Bloom budgets by the probe frequencies
    /// observed on [`FilterConfig::sample`] — the paper's auto-tuned §6.1
    /// configuration. Default: on.
    pub sample_tuned: bool,
}

impl Default for RosettaTuning {
    fn default() -> Self {
        Self { sample_tuned: true }
    }
}

impl BuildableFilter for Rosetta {
    type Tuning = RosettaTuning;

    /// Builds the level stack for ranges up to [`FilterConfig::max_range`]
    /// (`log2(max_range)` levels above the leaves; the paper's workloads
    /// use `2^0 / 2^5 / 2^10`). With [`RosettaTuning::sample_tuned`] the
    /// per-level budgets follow the probe frequencies of
    /// [`FilterConfig::sample`]; otherwise the upper levels get the uniform
    /// `1/(2−ε)` sizing.
    fn build_with(cfg: &FilterConfig<'_>, tuning: &RosettaTuning) -> Result<Self, FilterError> {
        let (keys, bits_per_key, max_range, seed) =
            (cfg.keys, cfg.bits_per_key, cfg.max_range, cfg.seed);
        let sample = tuning.sample_tuned.then_some(cfg.sample);
        if !(bits_per_key > 0.0 && bits_per_key.is_finite()) {
            return Err(FilterError::InvalidBudget(bits_per_key));
        }
        if max_range == 0 {
            return Err(FilterError::InvalidMaxRange(0));
        }
        let n = keys.len();
        let levels_above = 64 - (max_range.max(2) - 1).leading_zeros(); // ceil(log2(max_range))
        let min_level = 64u32.saturating_sub(levels_above).max(1);
        let num_levels = (64 - min_level + 1) as usize;

        if n == 0 {
            let blooms = (0..num_levels)
                .map(|i| BloomFilter::new(1, 1, seed ^ i as u64).expect("one bit allocated"))
                .collect();
            return Ok(Self {
                blooms,
                min_level,
                n_keys: 0,
            });
        }

        // Distinct-prefix counts per level (from a sorted copy).
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let distinct_at = |level: u32| -> usize {
            let shift = 64 - level;
            let mut count = 0usize;
            let mut prev = None;
            for &k in &sorted {
                let p = if shift == 64 { 0 } else { k >> shift };
                if Some(p) != prev {
                    count += 1;
                    prev = Some(p);
                }
            }
            count
        };

        // Solve ε from the budget: B ≈ 1.44·(log2(1/ε) + (levels−1)·log2(2−ε)).
        // log2(2−ε) ≈ 1 for small ε, so log2(1/ε) ≈ B/1.44 − (levels−1).
        let total_budget = bits_per_key * n as f64;
        let log_inv_eps = (bits_per_key / 1.44 - (num_levels as f64 - 1.0)).max(1.0);
        let epsilon = (0.5f64).min(2f64.powf(-log_inv_eps));

        // Per-level weights: bottom level sized for ε, upper levels for
        // 1/(2−ε) — optionally reweighted by sampled probe frequencies.
        let mut weights = vec![0.0f64; num_levels];
        for (i, w) in weights.iter_mut().enumerate() {
            let level = min_level + i as u32;
            let items = distinct_at(level) as f64;
            let target_fpr: f64 = if level == 64 {
                epsilon
            } else {
                1.0 / (2.0 - epsilon)
            };
            *w = 1.44 * items * (1.0 / target_fpr).log2().max(0.1);
        }
        if let Some(sample) = sample {
            // Count how often each level is the entry point of a dyadic probe.
            let mut freq = vec![1.0f64; num_levels];
            for &(a, b) in sample.iter().take(4096) {
                if a > b {
                    continue;
                }
                for d in cover(a, b, 64 - min_level) {
                    let level = 64 - d.j;
                    freq[(level - min_level) as usize] += 1.0;
                }
            }
            let total_f: f64 = freq.iter().sum();
            // Blend: levels probed more often get proportionally more of the
            // upper-level budget (the bottom level keeps its ε share).
            for i in 0..num_levels - 1 {
                weights[i] *= 0.5 + (freq[i] / total_f) * num_levels as f64;
            }
        }
        let weight_sum: f64 = weights.iter().sum();
        // Above ~1,560 bits/key ε underflows to 0 and the bottom level's
        // weight is infinite: the budget cannot be split across the levels.
        if !weight_sum.is_finite() {
            return Err(FilterError::InvalidBudget(bits_per_key));
        }
        let blooms: Vec<BloomFilter> = weights
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let level = min_level + i as u32;
                let m = ((total_budget * w / weight_sum).ceil() as usize).max(64);
                let items = distinct_at(level).max(1);
                let k = BloomFilter::optimal_k(m, items);
                BloomFilter::new(m, k, seed ^ (level as u64).wrapping_mul(0x9E3779B97F4A7C15))
            })
            .collect::<Option<_>>()
            // A finite but huge budget asks for more bits than exist.
            .ok_or(FilterError::InvalidBudget(bits_per_key))?;

        let mut rosetta = Self {
            blooms,
            min_level,
            n_keys: n,
        };
        for &k in &sorted {
            rosetta.insert_prefixes(k);
        }
        rosetta.n_keys = keys.len();
        Ok(rosetta)
    }
}

impl RangeFilter for Rosetta {
    fn may_contain_range(&self, a: u64, b: u64) -> bool {
        debug_assert!(a <= b, "inverted range [{a}, {b}]");
        if self.n_keys == 0 {
            return false;
        }
        let max_j = 64 - self.min_level;
        // A span far wider than the shallowest stored level would decompose
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
            if self.doubt(d.prefix, 64 - d.j, &mut probes) {
                return true;
            }
        }
        false
    }

    fn size_in_bits(&self) -> usize {
        self.blooms.iter().map(|b| b.size_in_bits()).sum::<usize>() + 2 * 64
    }

    fn num_keys(&self) -> usize {
        self.n_keys
    }

    fn name(&self) -> &'static str {
        "Rosetta"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rosetta(
        keys: &[u64],
        bits_per_key: f64,
        max_range: u64,
        sample: Option<&[(u64, u64)]>,
        seed: u64,
    ) -> Result<Rosetta, FilterError> {
        let cfg = FilterConfig::new(keys)
            .bits_per_key(bits_per_key)
            .max_range(max_range)
            .sample(sample.unwrap_or(&[]))
            .seed(seed);
        let tuning = RosettaTuning {
            sample_tuned: sample.is_some(),
        };
        Rosetta::build_with(&cfg, &tuning)
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
    fn no_false_negatives() {
        let keys = pseudo_keys(2000, 1);
        for &l in &[1u64, 32, 1024] {
            let f = rosetta(&keys, 18.0, l, None, 7).unwrap();
            for (i, &k) in keys.iter().enumerate().step_by(5) {
                assert!(f.may_contain(k), "point FN at {i}");
                let lo = k.saturating_sub(i as u64 % l.max(2));
                let hi = lo + (l - 1);
                if hi >= k {
                    assert!(f.may_contain_range(lo, hi), "range FN at {i}");
                }
            }
        }
    }

    #[test]
    fn filters_empty_ranges() {
        let keys = pseudo_keys(2000, 3);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let f = rosetta(&keys, 20.0, 32, None, 9).unwrap();
        let mut fps = 0;
        let mut empties = 0;
        let mut state = 555u64;
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
        assert!(fpr < 0.3, "Rosetta FPR {fpr} not filtering at 20 bpk");
    }

    #[test]
    fn robust_to_correlated_queries() {
        // FPR must not blow up when query endpoints hug the keys — the
        // defining property of a robust filter (paper Figure 3).
        let keys: Vec<u64> = (0..2000u64).map(|i| i * (1 << 40)).collect();
        let f = rosetta(&keys, 20.0, 32, None, 5).unwrap();
        let mut fps = 0;
        for &k in &keys {
            // Empty range right next to a key.
            if f.may_contain_range(k + 2, k + 33) {
                fps += 1;
            }
        }
        let fpr = fps as f64 / keys.len() as f64;
        assert!(fpr < 0.35, "correlated FPR {fpr}");
    }

    #[test]
    fn sample_tuning_constructs_and_stays_sound() {
        let keys = pseudo_keys(1000, 11);
        let sample: Vec<(u64, u64)> = (0..200u64).map(|i| (i << 30, (i << 30) + 31)).collect();
        let f = rosetta(&keys, 16.0, 32, Some(&sample), 2).unwrap();
        for &k in keys.iter().step_by(7) {
            assert!(f.may_contain(k));
        }
    }

    #[test]
    fn empty_keys() {
        let f = rosetta(&[], 16.0, 32, None, 0).unwrap();
        assert!(!f.may_contain_range(0, 1000));
    }

    #[test]
    fn budget_respected_roughly() {
        let keys = pseudo_keys(5000, 13);
        for &bpk in &[10.0, 18.0, 26.0] {
            let f = rosetta(&keys, bpk, 1024, None, 1).unwrap();
            let got = f.bits_per_key();
            assert!(got < bpk * 1.3 + 8.0, "budget {bpk} -> {got}");
        }
    }

    #[test]
    fn rejects_bad_params() {
        assert!(rosetta(&[1], 0.0, 32, None, 0).is_err());
        assert!(rosetta(&[1], 16.0, 0, None, 0).is_err());
    }
}

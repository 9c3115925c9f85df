//! SNARF — the Sparse Numerical Array-Based Range Filter of Vaidya et al.
//! (PVLDB 2022), as described in the Grafite paper's §2/§5.
//!
//! A monotone estimate of the key CDF (a linear spline through every `t`-th
//! sorted key) maps each key to a position `f(x) = ⌊MCDF(x)·K·n⌋` in a
//! conceptual bit array of `K·n` bits; the array's set-bit positions are
//! stored compressed (Golomb–Rice blocks, as in the SNARF paper). A query
//! `[a, b]` answers "not empty" iff some stored position lies in
//! `[f(a), f(b)]`.
//!
//! The Grafite authors found that the original implementation returns
//! **false negatives** due to arithmetic overflow in the learned model
//! (paper footnote 5). Our default uses 128-bit intermediates, which fixes
//! the bug; [`SnarfTuning::faithful_overflow`] reproduces the original u64
//! arithmetic so the `ablation_snarf_overflow` experiment can demonstrate
//! the false negatives on datasets with huge gaps (e.g. Fb).

use grafite_core::persist::{spec_id, Header};
use grafite_core::{BuildableFilter, FilterConfig, FilterError, PersistentFilter, RangeFilter};
use grafite_succinct::io::{WordReader, WordWriter};
use grafite_succinct::GolombRiceSeq;

/// Spline sampling period (one spline knot every `t` keys), the SNARF
/// paper's engineering choice.
const SAMPLE_PERIOD: usize = 128;

/// The SNARF range filter.
#[derive(Clone, Debug)]
pub struct Snarf {
    /// Spline knots: every `t`-th sorted distinct key, plus the last.
    sample_keys: Vec<u64>,
    /// Rank (index among sorted distinct keys) of each knot.
    sample_ranks: Vec<u64>,
    /// Number of distinct keys.
    n: usize,
    /// Number of input keys (with duplicates), for bits-per-key reporting.
    n_input: usize,
    /// The bit-array scale factor `K`.
    k_scale: u64,
    codes: GolombRiceSeq,
    faithful_overflow: bool,
}

impl Snarf {
    /// The model `f(x) = ⌊MCDF(x) · K · n⌋`, by linear interpolation between
    /// the two surrounding spline knots.
    fn position(&self, x: u64) -> u64 {
        let last = *self.sample_keys.last().unwrap();
        if x > last {
            // Strictly above every stored code: ranges beyond the max key
            // stay empty.
            return (self.n as u64 - 1)
                .saturating_mul(self.k_scale)
                .saturating_add(1);
        }
        if x <= self.sample_keys[0] {
            return 0;
        }
        // Last knot with key <= x.
        let i = self.sample_keys.partition_point(|&k| k <= x) - 1;
        let (k0, r0) = (self.sample_keys[i], self.sample_ranks[i]);
        if x == k0 || i + 1 == self.sample_keys.len() {
            return r0.saturating_mul(self.k_scale);
        }
        let (k1, r1) = (self.sample_keys[i + 1], self.sample_ranks[i + 1]);
        if self.faithful_overflow {
            // The original u64 arithmetic: the rank interpolation
            // (x − k0)·Δr wraps for large gaps (Δx up to 2^63 against
            // Δr = 128 needs 71 bits), making the estimated CDF — and hence
            // f — non-monotone: the false-negative bug of paper footnote 5.
            let est_rank = r0.wrapping_add((x - k0).wrapping_mul(r1 - r0) / (k1 - k0));
            est_rank.wrapping_mul(self.k_scale)
        } else {
            // Saturating keeps the model monotone where `r · K` would
            // pass `u64::MAX`, which a loaded blob's `K` may make it do.
            let dr_scaled = (r1 - r0).saturating_mul(self.k_scale);
            let num = (x - k0) as u128 * dr_scaled as u128;
            r0.saturating_mul(self.k_scale)
                .saturating_add((num / (k1 - k0) as u128) as u64)
        }
    }

    /// The scale factor `K` (the paper's knob trading space for FPR).
    pub fn k_scale(&self) -> u64 {
        self.k_scale
    }
}

impl PersistentFilter for Snarf {
    fn spec_id(&self) -> u32 {
        spec_id::SNARF
    }

    fn spec_ids() -> &'static [u32] {
        &[spec_id::SNARF]
    }

    /// Payload: `[n_distinct, k_scale, faithful_overflow]` + the spline
    /// knots (keys, ranks) + the Rice-coded positions.
    fn write_payload(&self, w: &mut WordWriter<'_>) -> std::io::Result<()> {
        w.word(self.n as u64)?;
        w.word(self.k_scale)?;
        w.word(self.faithful_overflow as u64)?;
        w.prefixed(&self.sample_keys)?;
        w.prefixed(&self.sample_ranks)?;
        self.codes.write_to(w)?;
        Ok(())
    }

    fn read_payload(src: &mut WordReader<'_>, header: &Header) -> Result<Self, FilterError> {
        let n = src.length()?;
        let k_scale = src.word()?;
        if k_scale < 2 {
            return Err(FilterError::corrupt("SNARF scale factor below 2"));
        }
        let faithful_overflow = match src.word()? {
            0 => false,
            1 => true,
            _ => return Err(FilterError::corrupt("SNARF overflow flag")),
        };
        let n_keys = src.length()?;
        let sample_keys = src.take(n_keys)?;
        let n_ranks = src.length()?;
        if n_ranks != n_keys {
            return Err(FilterError::corrupt("SNARF spline table lengths differ"));
        }
        let sample_ranks = src.take(n_ranks)?;
        if n > 0 && sample_keys.is_empty() {
            return Err(FilterError::corrupt("SNARF spline empty for non-empty set"));
        }
        // The model interpolates between neighbouring knots: it divides by
        // their key gap and subtracts their ranks.
        if sample_keys
            .windows(2)
            .any(|w| matches!(w, [a, b] if a >= b))
            || sample_ranks
                .windows(2)
                .any(|w| matches!(w, [a, b] if a > b))
        {
            return Err(FilterError::corrupt("SNARF spline not monotone"));
        }
        let codes = GolombRiceSeq::read_from(src)?;
        Ok(Self {
            sample_keys,
            sample_ranks,
            n,
            n_input: header.n_keys as usize,
            k_scale,
            codes,
            faithful_overflow,
        })
    }
}

/// Per-filter tuning for [`Snarf`] under the [`BuildableFilter`] protocol.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnarfTuning {
    /// Reproduce the original implementation's overflow-prone u64 model
    /// arithmetic (the false negatives of paper footnote 5). Default: off —
    /// the u128-safe model.
    pub faithful_overflow: bool,
}

impl BuildableFilter for Snarf {
    type Tuning = SnarfTuning;

    /// Errors with [`FilterError::InvalidBudget`] unless the budget is
    /// positive and finite.
    fn build_with(cfg: &FilterConfig<'_>, tuning: &SnarfTuning) -> Result<Self, FilterError> {
        let (keys, bits_per_key) = (cfg.keys, cfg.bits_per_key);
        let faithful = tuning.faithful_overflow;
        if !(bits_per_key > 0.0 && bits_per_key.is_finite()) {
            return Err(FilterError::InvalidBudget(bits_per_key));
        }
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let n = sorted.len();
        if n == 0 {
            return Ok(Self {
                sample_keys: Vec::new(),
                sample_ranks: Vec::new(),
                n: 0,
                n_input: 0,
                k_scale: 2,
                codes: GolombRiceSeq::new(&[], 2),
                faithful_overflow: faithful,
            });
        }

        let mut sample_keys = Vec::with_capacity(n / SAMPLE_PERIOD + 2);
        let mut sample_ranks = Vec::with_capacity(n / SAMPLE_PERIOD + 2);
        for i in (0..n).step_by(SAMPLE_PERIOD) {
            sample_keys.push(sorted[i]);
            sample_ranks.push(i as u64);
        }
        if *sample_ranks.last().unwrap() != (n - 1) as u64 {
            sample_keys.push(sorted[n - 1]);
            sample_ranks.push((n - 1) as u64);
        }

        // Split the budget: 64 bits per spline knot, ~2.2 bits/key of Rice
        // overhead, the rest as log2(K).
        let spline_bpk = sample_keys.len() as f64 * 128.0 / n as f64;
        let code_bits = (bits_per_key - spline_bpk - 2.2).clamp(1.0, 48.0);
        let k_scale = (code_bits.exp2().round() as u64).max(2);

        let mut filter = Self {
            sample_keys,
            sample_ranks,
            n,
            n_input: keys.len(),
            k_scale,
            codes: GolombRiceSeq::new(&[], 2),
            faithful_overflow: faithful,
        };
        let mut codes: Vec<u64> = sorted.iter().map(|&k| filter.position(k)).collect();
        codes.sort_unstable(); // the buggy model can be non-monotone
        codes.dedup();
        let universe = (n as u64).saturating_mul(k_scale).saturating_add(2);
        filter.codes = GolombRiceSeq::new(&codes, universe);
        Ok(filter)
    }
}

impl RangeFilter for Snarf {
    fn may_contain_range(&self, a: u64, b: u64) -> bool {
        debug_assert!(a <= b, "inverted range [{a}, {b}]");
        if self.n == 0 {
            return false;
        }
        let lo = self.position(a);
        let hi = self.position(b);
        if lo > hi {
            // Only reachable with the overflow-faithful model: the original
            // code reads an empty slice here, i.e. answers "empty" — this is
            // precisely how its false negatives escape.
            return false;
        }
        self.codes.any_in_range(lo, hi)
    }

    fn size_in_bits(&self) -> usize {
        self.codes.size_in_bits() + self.sample_keys.len() * 128 + 4 * 64
    }

    fn num_keys(&self) -> usize {
        self.n_input
    }

    fn name(&self) -> &'static str {
        "SNARF"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snarf(keys: &[u64], bits_per_key: f64) -> Snarf {
        Snarf::build(&FilterConfig::new(keys).bits_per_key(bits_per_key)).unwrap()
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
    fn model_is_monotone() {
        let keys = pseudo_keys(5000, 2);
        let f = snarf(&keys, 14.0);
        let mut probes = pseudo_keys(2000, 9);
        probes.sort_unstable();
        let mut prev = 0u64;
        for &x in &probes {
            let p = f.position(x);
            assert!(p >= prev, "model not monotone at {x}");
            prev = p;
        }
    }

    #[test]
    fn no_false_negatives_fixed_model() {
        let keys = pseudo_keys(3000, 5);
        for &bpk in &[8.0, 14.0, 22.0] {
            let f = snarf(&keys, bpk);
            for (i, &k) in keys.iter().enumerate().step_by(3) {
                assert!(f.may_contain(k), "point FN at {i} bpk={bpk}");
                assert!(f.may_contain_range(k.saturating_sub(5), k.saturating_add(5)));
            }
        }
    }

    #[test]
    fn filters_uncorrelated_empties() {
        let keys = pseudo_keys(4000, 7);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let f = snarf(&keys, 18.0);
        let mut fps = 0;
        let mut empties = 0;
        let mut state = 1234u64;
        while empties < 4000 {
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
        assert!(fpr < 0.05, "SNARF FPR {fpr} at 18 bpk on uncorrelated");
    }

    #[test]
    fn correlated_queries_defeat_snarf() {
        // The paper's core observation: query endpoints adjacent to keys
        // produce near-certain false positives for SNARF.
        let keys: Vec<u64> = (0..2000u64).map(|i| i * (1 << 40)).collect();
        let f = snarf(&keys, 18.0);
        let mut fps = 0;
        for &k in &keys {
            if f.may_contain_range(k + 2, k + 33) {
                fps += 1;
            }
        }
        let fpr = fps as f64 / keys.len() as f64;
        assert!(fpr > 0.5, "expected adversarial FPR near 1, got {fpr}");
    }

    #[test]
    fn overflow_faithful_mode_has_false_negatives_on_huge_gaps() {
        // Fb-like: dense low mass plus far outliers — the spline segment
        // bridging the gap makes (x−k0)·Δr·K wrap in u64, so the buggy
        // model is non-monotone and *range* queries (whose endpoints land on
        // different sides of a wrap) lose keys. Point queries stay
        // consistent (build and probe share the model), exactly as with the
        // original implementation.
        // Keys spaced 2^55 apart put every spline segment over a 2^62 span:
        // the rank interpolation (x−k0)·128 needs 69 bits and wraps, so the
        // buggy CDF oscillates (sawtooth with period 2^57) *between* keys.
        let mut keys: Vec<u64> = (0..500u64).map(|i| i * 7).collect();
        keys.extend((0..300u64).map(|j| (1u64 << 62) + j * (1 << 55)));
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let honest = snarf(&keys, 16.0);
        let buggy = Snarf::build_with(
            &FilterConfig::new(&keys).bits_per_key(16.0),
            &SnarfTuning {
                faithful_overflow: true,
            },
        )
        .unwrap();

        let mut honest_fns = 0usize;
        let mut buggy_fns = 0usize;
        let mut trials = 0usize;
        for &k in sorted.iter().filter(|&&k| k >= 1 << 62) {
            // Deltas below the 2^55 key spacing: the range contains exactly
            // key k, and a sawtooth boundary falls inside with prob ~ 2^-8..1/4.
            for shift in [48u32, 50, 52, 54] {
                let delta = 1u64 << shift;
                let a = k.saturating_sub(delta);
                let b = k.saturating_add(delta);
                // Ground truth: the range contains key k.
                trials += 1;
                if !honest.may_contain_range(a, b) {
                    honest_fns += 1;
                }
                if !buggy.may_contain_range(a, b) {
                    buggy_fns += 1;
                }
            }
        }
        assert!(trials > 100);
        assert_eq!(honest_fns, 0, "fixed model must have no FNs");
        assert!(
            buggy_fns > 0,
            "faithful-overflow mode should reproduce false negatives ({trials} trials)"
        );
    }

    #[test]
    fn empty_input() {
        let f = snarf(&[], 12.0);
        assert!(!f.may_contain_range(0, u64::MAX));
    }

    #[test]
    fn budget_tracks() {
        let keys = pseudo_keys(10_000, 3);
        for &bpk in &[8.0, 16.0, 24.0] {
            let f = snarf(&keys, bpk);
            let got = f.bits_per_key();
            assert!(got < bpk + 4.0, "budget {bpk} -> {got}");
        }
    }
}

//! The paper's "theoretical baseline" (§2): a point filter with
//! false-positive probability `γ = ε/L`, probed at every point of the query
//! range. Space `n·log(L/ε) + O(n)` bits — the same as Grafite — but `O(L)`
//! query time, which is exactly the gap Grafite closes.

use crate::bloom::BloomFilter;
use grafite_core::persist::{spec_id, Header};
use grafite_core::{BuildableFilter, FilterConfig, FilterError, PersistentFilter, RangeFilter};
use grafite_succinct::io::{WordReader, WordWriter};

/// The trivial Bloom-filter-based range filter.
#[derive(Clone, Debug)]
pub struct TrivialRangeFilter {
    bloom: BloomFilter,
    n_keys: usize,
    max_range: u64,
}

impl TrivialRangeFilter {
    /// The design-point maximum range size `L`.
    pub fn max_range(&self) -> u64 {
        self.max_range
    }
}

/// Per-filter tuning for [`TrivialRangeFilter`] under the
/// [`BuildableFilter`] protocol.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TrivialBloomTuning {
    /// `Some(ε)` pins the target FPP at range size
    /// [`FilterConfig::max_range`]; `None` (the default) derives it from the
    /// bits-per-key budget the same way Grafite's Corollary 3.5 does:
    /// `ε = L / 2^(B−2)` — the same information budget, paid in `O(L)`
    /// query time.
    pub epsilon: Option<f64>,
}

impl BuildableFilter for TrivialRangeFilter {
    type Tuning = TrivialBloomTuning;

    /// Builds for `n = keys.len()` keys with target FPP `ε` at range size
    /// `L` = [`FilterConfig::max_range`]: the point filter gets `γ = ε/L`.
    fn build_with(
        cfg: &FilterConfig<'_>,
        tuning: &TrivialBloomTuning,
    ) -> Result<Self, FilterError> {
        let (keys, max_range) = (cfg.keys, cfg.max_range);
        let epsilon = tuning.epsilon.unwrap_or_else(|| {
            (max_range as f64 / (cfg.bits_per_key - 2.0).exp2()).clamp(1e-9, 0.5)
        });
        let gamma = (epsilon / max_range.max(1) as f64).clamp(1e-12, 0.9999);
        let mut bloom = BloomFilter::for_fpr(keys.len(), gamma, cfg.seed);
        for &k in keys {
            bloom.insert(k);
        }
        Ok(Self {
            bloom,
            n_keys: keys.len(),
            max_range,
        })
    }
}

impl PersistentFilter for TrivialRangeFilter {
    fn spec_id(&self) -> u32 {
        spec_id::TRIVIAL_BLOOM
    }

    fn spec_ids() -> &'static [u32] {
        &[spec_id::TRIVIAL_BLOOM]
    }

    /// Payload: `[max_range]` + the point Bloom filter.
    fn write_payload(&self, w: &mut WordWriter<'_>) -> std::io::Result<()> {
        w.word(self.max_range)?;
        self.bloom.write_to(w)?;
        Ok(())
    }

    fn read_payload(src: &mut WordReader<'_>, header: &Header) -> Result<Self, FilterError> {
        let max_range = src.word()?;
        let bloom = BloomFilter::read_from(src)?;
        Ok(Self {
            bloom,
            n_keys: header.n_keys as usize,
            max_range,
        })
    }
}

impl RangeFilter for TrivialRangeFilter {
    fn may_contain_range(&self, a: u64, b: u64) -> bool {
        debug_assert!(a <= b, "inverted range [{a}, {b}]");
        if a > b {
            // Contract violation (debug-asserted above). The other filters
            // compute a harmless garbage answer; here the point-probe loop
            // would walk to the universe edge, so stay total explicitly.
            return false;
        }
        if self.n_keys == 0 {
            // Exact, and spares the O(L) scan: an empty filter holds nothing.
            return false;
        }
        // O(L) probes — the whole point of the baseline. A union-bound over
        // the probes keeps the FPP at ε for ranges up to L.
        let mut x = a;
        loop {
            if self.bloom.contains(x) {
                return true;
            }
            if x == b {
                return false;
            }
            x += 1;
        }
    }

    fn size_in_bits(&self) -> usize {
        self.bloom.size_in_bits()
    }

    fn num_keys(&self) -> usize {
        self.n_keys
    }

    fn name(&self) -> &'static str {
        "TrivialBloom"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trivial(keys: &[u64], epsilon: f64, max_range: u64, seed: u64) -> TrivialRangeFilter {
        let cfg = FilterConfig::new(keys).max_range(max_range).seed(seed);
        let tuning = TrivialBloomTuning {
            epsilon: Some(epsilon),
        };
        TrivialRangeFilter::build_with(&cfg, &tuning).unwrap()
    }

    #[test]
    fn no_false_negatives() {
        let keys: Vec<u64> = (0..300u64).map(|i| i * 1_000_001).collect();
        let f = trivial(&keys, 0.05, 64, 1);
        for &k in &keys {
            assert!(f.may_contain(k));
            assert!(f.may_contain_range(k.saturating_sub(30), k + 30));
        }
    }

    #[test]
    fn fpr_bounded_by_epsilon() {
        let keys: Vec<u64> = (0..2000u64)
            .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let epsilon = 0.05;
        let l = 32u64;
        let f = trivial(&keys, epsilon, l, 9);
        let mut fps = 0;
        let mut empties = 0;
        let mut state = 77u64;
        while empties < 5000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = state;
            let b = match a.checked_add(l - 1) {
                Some(b) => b,
                None => continue,
            };
            let idx = sorted.partition_point(|&k| k < a);
            if idx < sorted.len() && sorted[idx] <= b {
                continue;
            }
            empties += 1;
            if f.may_contain_range(a, b) {
                fps += 1;
            }
        }
        let fpr = fps as f64 / empties as f64;
        assert!(fpr < epsilon * 2.0, "fpr {fpr} above design {epsilon}");
    }

    #[test]
    fn space_matches_information_bound_shape() {
        // n log(L/eps) + O(n) bits: for L=1024, eps=0.01 that's ~16.7+c bits.
        let keys: Vec<u64> = (0..5000u64).map(|i| i * 977).collect();
        let f = trivial(&keys, 0.01, 1024, 0);
        let bpk = f.bits_per_key();
        let theory = (1024f64 / 0.01).log2();
        assert!(
            bpk > theory * 0.8 && bpk < theory * 1.8,
            "bpk {bpk} vs theory {theory}"
        );
    }
}

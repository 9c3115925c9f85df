//! The Bucketing heuristic range filter (paper Section 4).
//!
//! The universe is split into buckets of size `s`; a conceptual bitvector `C`
//! marks the non-empty buckets, and only the positions of its 1-bits are
//! kept, Elias–Fano-compressed. A query `[a, b]` answers "not empty" iff
//! `predecessor(⌊b/s⌋) ≥ ⌊a/s⌋`. The space is `t(log(u/(ts)) + 2) + o(t)`
//! bits, where `t ≤ min{n, u/s}` is the number of non-empty buckets.
//!
//! Bucketing is *deliberately* simple: the paper introduces it to show that,
//! on the uncorrelated workloads heuristic filters are usually evaluated on,
//! nothing more sophisticated is needed. Like every heuristic filter it
//! offers no FPR guarantee and stops filtering under key–query correlation.

use grafite_succinct::io::{WordReader, WordWriter};
use grafite_succinct::EliasFano;

use crate::error::FilterError;
use crate::persist::{spec_id, Header};
use crate::traits::{BuildableFilter, FilterConfig, PersistentFilter, RangeFilter};

/// The Bucketing heuristic range filter.
#[derive(Clone, Debug)]
pub struct BucketingFilter {
    s: u64,
    buckets: EliasFano,
    n_keys: usize,
}

impl BucketingFilter {
    /// The bucket size `s`.
    #[inline]
    pub fn bucket_size(&self) -> u64 {
        self.s
    }

    /// The number `t` of non-empty buckets.
    #[inline]
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    fn from_sorted_dedup_buckets(bucket_ids: &[u64], s: u64, n_keys: usize) -> Self {
        // Ids are clamped to u64::MAX - 1 by `bucket_id`, so + 1 cannot wrap.
        let universe = bucket_ids.last().map_or(1, |&b| b + 1);
        Self {
            s,
            buckets: EliasFano::new(bucket_ids, universe),
            n_keys,
        }
    }
}

/// Bucket id of a key: `⌊k/s⌋`, clamped so the id always fits an Elias–Fano
/// universe of at most `u64::MAX`. The clamp merges the two topmost buckets
/// when `s` is so fine that `⌊u64::MAX/s⌋ = u64::MAX`; merging can only add
/// false positives, never false negatives.
#[inline]
fn bucket_id(k: u64, s: u64) -> u64 {
    (k / s).min(u64::MAX - 1)
}

impl RangeFilter for BucketingFilter {
    fn may_contain_range(&self, a: u64, b: u64) -> bool {
        debug_assert!(a <= b, "inverted range [{a}, {b}]");
        if self.n_keys == 0 {
            return false;
        }
        match self.buckets.predecessor(bucket_id(b, self.s)) {
            Some(bucket) => bucket >= bucket_id(a, self.s),
            None => false,
        }
    }

    fn size_in_bits(&self) -> usize {
        self.buckets.size_in_bits() + 3 * 64
    }

    fn num_keys(&self) -> usize {
        self.n_keys
    }

    fn name(&self) -> &'static str {
        "Bucketing"
    }
}

/// The finest power-of-two bucket width exponent whose Elias–Fano
/// encoding of `sorted` (non-empty, ascending) fits `bits` per key. The
/// number of distinct buckets `t` is non-increasing in the width, so the
/// walk from the finest width stops at the first (lowest-FPR) fit; it ends
/// at `2^63` when nothing finer fits.
fn budget_log2_s(sorted: &[u64], bits: f64) -> u32 {
    let budget = bits * sorted.len() as f64;
    for log2_s in 0..63u32 {
        let mut t = 0usize;
        let mut prev = u64::MAX;
        let mut last_bucket = 0u64;
        for &k in sorted {
            let b = k >> log2_s;
            if b != prev {
                t += 1;
                prev = b;
                last_bucket = b;
            }
        }
        // Elias–Fano estimate: t (log2(universe/t) + 2) bits. Computed in
        // f64 so `last_bucket = u64::MAX` (fine s over a full-universe key
        // set) cannot overflow.
        let universe = (last_bucket as f64 + 1.0).max(1.0);
        let est = t as f64 * ((universe / t as f64).log2().max(0.0) + 2.0);
        if est * 1.05 <= budget {
            return log2_s;
        }
    }
    63
}

impl PersistentFilter for BucketingFilter {
    fn spec_id(&self) -> u32 {
        spec_id::BUCKETING
    }

    fn spec_ids() -> &'static [u32] {
        &[spec_id::BUCKETING]
    }

    /// Payload: `[s]` + the Elias–Fano bucket sequence.
    fn write_payload(&self, w: &mut WordWriter<'_>) -> std::io::Result<()> {
        w.word(self.s)?;
        self.buckets.write_to(w)?;
        Ok(())
    }

    fn read_payload(src: &mut WordReader<'_>, header: &Header) -> Result<Self, FilterError> {
        let s = src.word()?;
        if s == 0 {
            return Err(FilterError::corrupt("zero bucket size"));
        }
        let buckets = EliasFano::read_from(src)?;
        Ok(Self {
            s,
            buckets,
            n_keys: header.n_keys as usize,
        })
    }
}

/// Per-filter tuning for [`BucketingFilter`] under the [`BuildableFilter`]
/// protocol.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BucketingTuning {
    /// `Some(s)` uses the explicit bucket size `s`; `None` (the default)
    /// picks the finest power-of-two size fitting
    /// [`FilterConfig::bits_per_key`].
    pub bucket_size: Option<u64>,
}

impl BuildableFilter for BucketingFilter {
    type Tuning = BucketingTuning;

    /// Uses [`BucketingTuning::bucket_size`] when set, else the finest
    /// power-of-two bucket size whose encoding fits
    /// [`FilterConfig::bits_per_key`]. Keys may be unsorted and contain
    /// duplicates.
    fn build_with(cfg: &FilterConfig<'_>, tuning: &BucketingTuning) -> Result<Self, FilterError> {
        let n = cfg.keys.len();
        if n == 0 {
            return Ok(Self::from_sorted_dedup_buckets(&[], 1, 0));
        }
        let mut sorted = cfg.keys.to_vec();
        sorted.sort_unstable();
        let (s, mut ids): (u64, Vec<u64>) = match tuning.bucket_size {
            Some(s) => {
                if s == 0 {
                    return Err(FilterError::InvalidBucketSize(s));
                }
                (s, sorted.iter().map(|&k| bucket_id(k, s)).collect())
            }
            None => {
                let bits = cfg.bits_per_key;
                if !(bits > 0.0 && bits.is_finite()) {
                    return Err(FilterError::InvalidBudget(bits));
                }
                let log2_s = budget_log2_s(&sorted, bits);
                // Shift, not `bucket_id`'s division: this is the
                // construction hot loop. The clamp still applies (it only
                // bites at log2_s = 0).
                let ids = sorted
                    .iter()
                    .map(|&k| (k >> log2_s).min(u64::MAX - 1))
                    .collect();
                (1u64 << log2_s, ids)
            }
        };
        ids.dedup();
        Ok(Self::from_sorted_dedup_buckets(&ids, s, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Builds with an explicit bucket size `s`.
    fn with_bucket_size(keys: &[u64], s: u64) -> Result<BucketingFilter, FilterError> {
        let tuning = BucketingTuning {
            bucket_size: Some(s),
        };
        BucketingFilter::build_with(&FilterConfig::new(keys), &tuning)
    }

    fn reference_query(keys: &BTreeSet<u64>, s: u64, a: u64, b: u64) -> bool {
        // True iff any key falls in a bucket overlapping [a/s, b/s].
        let lo_bucket = a / s;
        let hi_bucket = b / s;
        keys.iter().any(|&k| {
            let bk = k / s;
            bk >= lo_bucket && bk <= hi_bucket
        })
    }

    #[test]
    fn matches_reference_on_small_input() {
        let keys = [3u64, 17, 64, 65, 900, 1023, 5000];
        let set: BTreeSet<u64> = keys.iter().copied().collect();
        for s in [1u64, 2, 7, 16, 100] {
            let f = with_bucket_size(&keys, s).unwrap();
            for a in (0..6000u64).step_by(13) {
                for width in [0u64, 1, 5, 50, 500] {
                    let b = a + width;
                    assert_eq!(
                        f.may_contain_range(a, b),
                        reference_query(&set, s, a, b),
                        "s={s} range [{a}, {b}]"
                    );
                }
            }
        }
    }

    #[test]
    fn no_false_negatives() {
        let mut state = 77u64;
        let keys: Vec<u64> = (0..3000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                state
            })
            .collect();
        for &bpk in &[4.0, 8.0, 16.0] {
            let f = BucketingFilter::build(&FilterConfig::new(&keys).bits_per_key(bpk)).unwrap();
            for &k in keys.iter().step_by(11) {
                assert!(f.may_contain(k));
                assert!(f.may_contain_range(k.saturating_sub(100), k.saturating_add(100)));
            }
        }
    }

    #[test]
    fn s_equal_one_is_exact_on_points() {
        // With s = 1 the encoding is lossless: point queries are exact.
        let keys = [10u64, 20, 30];
        let f = with_bucket_size(&keys, 1).unwrap();
        for x in 0..50u64 {
            assert_eq!(f.may_contain(x), keys.contains(&x), "point {x}");
        }
    }

    #[test]
    fn budget_controls_space() {
        let mut state = 3u64;
        let keys: Vec<u64> = (0..20_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                state
            })
            .collect();
        let mut last_s = 0u64;
        // The finest power-of-two widths that fit each budget.
        for (bpk, log2_s) in [(24.0, 29), (16.0, 37), (10.0, 43), (6.0, 46)] {
            let f = BucketingFilter::build(&FilterConfig::new(&keys).bits_per_key(bpk)).unwrap();
            assert!(
                f.bits_per_key() <= bpk * 1.30 + 4.0,
                "bpk target {bpk} produced {}",
                f.bits_per_key()
            );
            assert_eq!(f.bucket_size(), 1 << log2_s, "bpk target {bpk}");
            assert!(f.bucket_size() >= last_s, "s must grow as budget shrinks");
            last_s = f.bucket_size();
        }
    }

    #[test]
    fn empty_and_extremes() {
        let f = BucketingFilter::build(&FilterConfig::new(&[])).unwrap();
        assert!(!f.may_contain_range(0, u64::MAX));

        let f = with_bucket_size(&[u64::MAX, 0], 1 << 40).unwrap();
        assert!(f.may_contain(0));
        assert!(f.may_contain(u64::MAX));
    }

    #[test]
    fn batch_matches_scalar_path() {
        let mut state = 17u64;
        let keys: Vec<u64> = (0..3000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                state
            })
            .collect();
        let f = BucketingFilter::build(&FilterConfig::new(&keys).bits_per_key(10.0)).unwrap();
        let queries: Vec<(u64, u64)> = (0..1500u64)
            .map(|i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let a = if i % 3 == 0 {
                    keys[(state % keys.len() as u64) as usize].saturating_sub(state % 1000)
                } else {
                    state
                };
                (a, a.saturating_add((state % 2000) + 1))
            })
            .collect();
        let mut batched = Vec::new();
        f.may_contain_ranges(&queries, &mut batched);
        let singles: Vec<bool> = queries
            .iter()
            .map(|&(a, b)| f.may_contain_range(a, b))
            .collect();
        assert_eq!(batched, singles, "batch diverged from scalar path");
    }

    #[test]
    fn rejects_zero_bucket() {
        assert!(matches!(
            with_bucket_size(&[1], 0),
            Err(FilterError::InvalidBucketSize(0))
        ));
        assert!(matches!(
            BucketingFilter::build(&FilterConfig::new(&[1]).bits_per_key(0.0)),
            Err(FilterError::InvalidBudget(_))
        ));
    }
}

/// Workload-aware Bucketing — the paper's §7 future-work sketch: "creating
/// larger buckets for key ranges that are queried less frequently".
///
/// The universe is split into regions at the quantiles of a sample of query
/// left-endpoints; regions receiving more sampled queries get finer buckets
/// (smaller `s`), cold regions get coarser ones, under the same total
/// bucket budget as a plain [`BucketingFilter`]. Bucket ids stay globally
/// monotone in the key, so a range query still reduces to one Elias–Fano
/// predecessor probe.
///
/// Like its plain parent, this is a heuristic: it inherits the
/// no-false-negative guarantee but not an FPR bound, and still collapses
/// under key-correlated queries.
#[derive(Clone, Debug)]
pub struct WorkloadAwareBucketing {
    /// Region `i` covers `[region_starts[i], region_starts[i+1])`
    /// (the last region extends to `u64::MAX`).
    region_starts: Vec<u64>,
    /// Per-region bucket width exponent: bucket size `2^region_log2_s[i]`.
    region_log2_s: Vec<u32>,
    /// Number of bucket slots before region `i` (cumulative, monotone).
    region_offsets: Vec<u64>,
    buckets: EliasFano,
    n_keys: usize,
}

impl WorkloadAwareBucketing {
    /// Builds from keys, a bits-per-key budget, and a sample of query left
    /// endpoints. With an empty sample this degenerates to a single region
    /// (= plain power-of-two Bucketing).
    fn new(keys: &[u64], bits_per_key: f64, sample: &[u64]) -> Result<Self, FilterError> {
        if !(bits_per_key > 0.0 && bits_per_key.is_finite()) {
            return Err(FilterError::InvalidBudget(bits_per_key));
        }
        let n = keys.len();
        if n == 0 {
            return Ok(Self {
                region_starts: vec![0],
                region_log2_s: vec![63],
                region_offsets: vec![0],
                buckets: EliasFano::new(&[], 1),
                n_keys: 0,
            });
        }
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();

        // Baseline bucket width from the plain budget search.
        let plain = BucketingFilter::build(&FilterConfig::new(keys).bits_per_key(bits_per_key))?;
        let base_log2_s = plain.bucket_size().trailing_zeros();

        // Region boundaries: quantiles of the sampled query endpoints.
        // `region_hotness[i]` describes region `[starts[i], starts[i+1])`
        // (the last region is open-ended), so exactly one entry is pushed
        // per region: when a new start closes the previous region, plus one
        // for the trailing open region. A region is hot iff it begins at or
        // after the first quantile — i.e. it lies between sampled
        // quantiles; the spans before the sample and beyond its tail are
        // cold.
        let mut region_starts = vec![0u64];
        let mut region_hotness: Vec<bool> = Vec::new();
        if !sample.is_empty() {
            let mut s = sample.to_vec();
            s.sort_unstable();
            const REGIONS: usize = 16;
            let first_quantile = s[0];
            let hi = *s.last().unwrap();
            for q in 0..REGIONS {
                let lo = s[q * s.len() / REGIONS];
                let prev = *region_starts.last().unwrap();
                if prev < lo {
                    region_hotness.push(prev >= first_quantile);
                    region_starts.push(lo);
                }
            }
            // Close the hot span one past the last sampled endpoint so the
            // region containing `hi` itself is hot — in particular when the
            // whole sample collapses onto one value and the span would
            // otherwise have zero width.
            let bound = hi.saturating_add(1);
            let prev = *region_starts.last().unwrap();
            if prev < bound {
                region_hotness.push(prev >= first_quantile);
                region_starts.push(bound);
            }
            // Trailing open region (past the sample): cold, except in the
            // saturated corner where the hot span reaches u64::MAX.
            let prev = *region_starts.last().unwrap();
            region_hotness.push(prev >= first_quantile && prev <= hi);
        } else {
            region_hotness.push(false);
        }
        debug_assert_eq!(region_hotness.len(), region_starts.len());

        // Hot regions get 4x finer buckets, cold regions 4x coarser: the
        // budget balances because hot regions are (by construction of the
        // quantiles) narrow.
        let region_log2_s: Vec<u32> = region_hotness
            .iter()
            .map(|&hot| {
                if hot {
                    base_log2_s.saturating_sub(2)
                } else {
                    (base_log2_s + 2).min(63)
                }
            })
            .collect();

        // Cumulative bucket-slot offsets keep global bucket ids monotone.
        let mut region_offsets = Vec::with_capacity(region_starts.len());
        let mut acc = 0u64;
        for i in 0..region_starts.len() {
            region_offsets.push(acc);
            let start = region_starts[i];
            let end = if i + 1 < region_starts.len() {
                region_starts[i + 1]
            } else {
                u64::MAX
            };
            let span = end - start;
            // Saturating: a hot region spanning most of the universe at a
            // fine width can exceed u64 slot space; `bucket_of` clamps the
            // resulting ids, which merges top buckets (false-positive-only).
            acc = acc.saturating_add((span >> region_log2_s[i]).saturating_add(1));
        }

        let mut filter = Self {
            region_starts,
            region_log2_s,
            region_offsets,
            buckets: EliasFano::new(&[], 1),
            n_keys: n,
        };
        let mut ids: Vec<u64> = sorted.iter().map(|&k| filter.bucket_of(k)).collect();
        ids.dedup();
        let universe = ids.last().map_or(1, |&b| b + 1);
        filter.buckets = EliasFano::new(&ids, universe);
        Ok(filter)
    }

    /// Global, monotone bucket id of a key. Saturating + clamped so extreme
    /// region/width combinations stay within an Elias–Fano-encodable
    /// universe; both operations preserve monotonicity.
    #[inline]
    fn bucket_of(&self, x: u64) -> u64 {
        let r = self.region_starts.partition_point(|&s| s <= x) - 1;
        self.region_offsets[r]
            .saturating_add((x - self.region_starts[r]) >> self.region_log2_s[r])
            .min(u64::MAX - 1)
    }

    /// Number of regions in use.
    pub fn num_regions(&self) -> usize {
        self.region_starts.len()
    }

    /// Number of non-empty buckets stored.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }
}

impl PersistentFilter for WorkloadAwareBucketing {
    fn spec_id(&self) -> u32 {
        spec_id::WORKLOAD_AWARE_BUCKETING
    }

    fn spec_ids() -> &'static [u32] {
        &[spec_id::WORKLOAD_AWARE_BUCKETING]
    }

    /// Payload: the three parallel region tables (starts, width exponents,
    /// cumulative offsets) followed by the Elias–Fano bucket sequence.
    fn write_payload(&self, w: &mut WordWriter<'_>) -> std::io::Result<()> {
        w.prefixed(&self.region_starts)?;
        let widths: Vec<u64> = self.region_log2_s.iter().map(|&x| x as u64).collect();
        w.prefixed(&widths)?;
        w.prefixed(&self.region_offsets)?;
        self.buckets.write_to(w)?;
        Ok(())
    }

    fn read_payload(src: &mut WordReader<'_>, header: &Header) -> Result<Self, FilterError> {
        let n = src.length()?;
        let region_starts = src.take(n)?;
        if region_starts.is_empty() {
            return Err(FilterError::corrupt("no bucketing regions"));
        }
        let n_widths = src.length()?;
        if n_widths != n {
            return Err(FilterError::corrupt("region table lengths differ"));
        }
        let mut region_log2_s = Vec::with_capacity(n);
        for w in src.take(n_widths)? {
            if w > 63 {
                return Err(FilterError::corrupt("region width exponent above 63"));
            }
            region_log2_s.push(w as u32);
        }
        let n_offsets = src.length()?;
        if n_offsets != n {
            return Err(FilterError::corrupt("region table lengths differ"));
        }
        let region_offsets = src.take(n_offsets)?;
        let buckets = EliasFano::read_from(src)?;
        Ok(Self {
            region_starts,
            region_log2_s,
            region_offsets,
            buckets,
            n_keys: header.n_keys as usize,
        })
    }
}

impl BuildableFilter for WorkloadAwareBucketing {
    /// No extra knobs: the budget is [`FilterConfig::bits_per_key`] and the
    /// hot regions come from the left endpoints of [`FilterConfig::sample`]
    /// (an empty sample degenerates to one region, i.e. plain power-of-two
    /// Bucketing). This protocol is the only way to build the filter.
    type Tuning = ();

    fn build_with(cfg: &FilterConfig<'_>, _tuning: &()) -> Result<Self, FilterError> {
        let left_endpoints: Vec<u64> = cfg.sample.iter().map(|&(a, _)| a).collect();
        WorkloadAwareBucketing::new(cfg.keys, cfg.bits_per_key, &left_endpoints)
    }
}

impl RangeFilter for WorkloadAwareBucketing {
    fn may_contain_range(&self, a: u64, b: u64) -> bool {
        debug_assert!(a <= b, "inverted range [{a}, {b}]");
        if self.n_keys == 0 {
            return false;
        }
        match self.buckets.predecessor(self.bucket_of(b)) {
            Some(bucket) => bucket >= self.bucket_of(a),
            None => false,
        }
    }

    fn size_in_bits(&self) -> usize {
        self.buckets.size_in_bits() + self.region_starts.len() * (64 + 32 + 64) + 2 * 64
    }

    fn num_keys(&self) -> usize {
        self.n_keys
    }

    fn name(&self) -> &'static str {
        "Bucketing-WA"
    }
}

#[cfg(test)]
mod workload_aware_tests {
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
    fn bucket_ids_monotone() {
        let keys = pseudo_keys(2000, 1);
        let sample: Vec<u64> = pseudo_keys(500, 9).iter().map(|x| x % (1 << 40)).collect();
        let f = WorkloadAwareBucketing::new(&keys, 12.0, &sample).unwrap();
        let mut probes = pseudo_keys(3000, 5);
        probes.sort_unstable();
        let mut prev = 0u64;
        for &x in &probes {
            let b = f.bucket_of(x);
            assert!(b >= prev, "bucket ids must be monotone at {x}");
            prev = b;
        }
    }

    #[test]
    fn no_false_negatives() {
        let keys = pseudo_keys(3000, 3);
        let sample: Vec<u64> = keys
            .iter()
            .step_by(10)
            .map(|&k| k.saturating_add(5))
            .collect();
        let f = WorkloadAwareBucketing::new(&keys, 12.0, &sample).unwrap();
        for &k in keys.iter().step_by(7) {
            assert!(f.may_contain(k));
            assert!(f.may_contain_range(k.saturating_sub(100), k.saturating_add(100)));
        }
    }

    #[test]
    fn beats_plain_bucketing_on_skewed_workload() {
        // Keys everywhere; queries concentrated in one narrow hot band
        // *around an actual key*, so coarse buckets produce false positives.
        let keys = pseudo_keys(20_000, 7);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let hot_center = sorted[10_000];
        let hot_lo = hot_center.saturating_sub(1 << 44);
        let hot_hi = hot_center.saturating_add(1 << 44);
        let mut state = 99u64;
        let mut hot_queries = Vec::new();
        let mut sample = Vec::new();
        while hot_queries.len() < 4000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = hot_lo + state % (hot_hi - hot_lo);
            let b = a + 31;
            let i = sorted.partition_point(|&k| k < a);
            if i < sorted.len() && sorted[i] <= b {
                continue;
            }
            if sample.len() < 1000 {
                sample.push(a);
            } else {
                hot_queries.push((a, b));
            }
        }

        let plain = BucketingFilter::build(&FilterConfig::new(&keys).bits_per_key(6.0)).unwrap();
        let aware = WorkloadAwareBucketing::new(&keys, 6.0, &sample).unwrap();
        let fpr = |f: &dyn RangeFilter| {
            hot_queries
                .iter()
                .filter(|&&(a, b)| f.may_contain_range(a, b))
                .count() as f64
                / hot_queries.len() as f64
        };
        let fpr_plain = fpr(&plain);
        let fpr_aware = fpr(&aware);
        assert!(
            fpr_aware < fpr_plain * 0.7,
            "workload-aware {fpr_aware} should beat plain {fpr_plain} on its hot band"
        );
        // And the space stays in the same ballpark.
        assert!(
            aware.size_in_bits() < plain.size_in_bits() * 3,
            "aware {} vs plain {} bits",
            aware.size_in_bits(),
            plain.size_in_bits()
        );
    }

    #[test]
    fn point_concentrated_sample_keeps_its_region_hot() {
        // A sample whose left endpoints all coincide (point-query-heavy
        // workload) must still mark the region holding that point as hot —
        // the zero-width hot span must not collapse into the cold tail.
        let keys = pseudo_keys(2000, 21);
        let v = keys[1000];
        let sample = vec![v; 500];
        let f = WorkloadAwareBucketing::new(&keys, 12.0, &sample).unwrap();
        let r = f.region_starts.partition_point(|&s| s <= v) - 1;
        let hot_width = f.region_log2_s[r];
        assert!(
            f.region_log2_s.iter().all(|&w| w >= hot_width),
            "region holding the sampled point must be the finest: widths {:?}, hot {}",
            f.region_log2_s,
            hot_width
        );
        assert!(
            f.region_log2_s.iter().any(|&w| w > hot_width),
            "cold regions must be coarser"
        );
        for &k in keys.iter().step_by(17) {
            assert!(f.may_contain(k));
        }
    }

    #[test]
    fn saturated_sample_at_universe_edge() {
        let keys = pseudo_keys(500, 23);
        let f = WorkloadAwareBucketing::new(&keys, 12.0, &[u64::MAX]).unwrap();
        for &k in keys.iter().step_by(7) {
            assert!(f.may_contain(k));
        }
        assert!(f.may_contain_range(u64::MAX - 10, u64::MAX) || !keys.contains(&u64::MAX));
    }

    #[test]
    fn empty_sample_still_works() {
        let keys = pseudo_keys(1000, 11);
        let f = WorkloadAwareBucketing::new(&keys, 10.0, &[]).unwrap();
        assert_eq!(f.num_regions(), 1);
        for &k in keys.iter().step_by(13) {
            assert!(f.may_contain(k));
        }
    }

    #[test]
    fn empty_keys() {
        let f = WorkloadAwareBucketing::new(&[], 10.0, &[1, 2, 3]).unwrap();
        assert!(!f.may_contain_range(0, u64::MAX));
    }

    #[test]
    fn batch_matches_scalar_path() {
        let keys = pseudo_keys(4000, 31);
        let sample: Vec<u64> = keys.iter().step_by(9).map(|&k| k ^ 0xFFFF).collect();
        let f = WorkloadAwareBucketing::new(&keys, 10.0, &sample).unwrap();
        let mut state = 0xABCu64;
        let queries: Vec<(u64, u64)> = (0..1200)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let a = state;
                (a, a.saturating_add(state % 4096))
            })
            .collect();
        let mut batched = Vec::new();
        f.may_contain_ranges(&queries, &mut batched);
        let singles: Vec<bool> = queries
            .iter()
            .map(|&(a, b)| f.may_contain_range(a, b))
            .collect();
        assert_eq!(batched, singles, "WA batch diverged from scalar path");
    }
}

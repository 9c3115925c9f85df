//! The Grafite range filter (paper Section 3).

use grafite_hash::{LocalityHash, PairwiseHash};
use grafite_succinct::io::{WordReader, WordWriter};
use grafite_succinct::EliasFano;

use crate::error::FilterError;
use crate::parallel::Parallelism;
use crate::persist::{spec_id, Header};
use crate::sort;
use crate::traits::{BuildableFilter, FilterConfig, PersistentFilter, RangeFilter};

/// Largest supported reduced universe: the pairwise-independent family's
/// prime must exceed `r` (see [`grafite_hash::pairwise::MERSENNE_61`]).
pub const MAX_REDUCED_UNIVERSE: u64 = grafite_hash::pairwise::MERSENNE_61 - 1;

/// The Grafite approximate range-emptiness filter.
///
/// Built over a set of `u64` keys with either an (ε, L) target — false
/// positive probability at most ε for query ranges of size up to L — or a
/// plain space budget in bits per key (Corollary 3.5). Queries never return
/// false negatives, for *any* key set and *any* query distribution,
/// adversarial ones included: that robustness is the point of the paper.
///
/// # Guarantees (Theorem 3.4 / Corollary 3.5)
///
/// With budget `B` bits per key, a query of size ℓ is a false positive with
/// probability at most `min{1, ℓ/2^(B−2)}`. Query time is a constant number
/// of Elias–Fano predecessor probes (each a `O(log(L/ε))`-step binary search
/// within one high-bucket).
///
/// # Layout
///
/// The filter is the locality-preserving hash `h` and the sorted sequence
/// of the keys' codes `h(x)` as Elias–Fano, whose universe is the reduced
/// universe `r`. The sequence holds one code per key: keys whose codes
/// collide repeat the code. So an update can take a deleted key's code
/// out without touching a colliding key's (see
/// [`PersistentFilter::merged`]).
#[derive(Clone, Debug)]
pub struct GrafiteFilter {
    h: LocalityHash,
    codes: EliasFano,
    n_keys: usize,
}

impl GrafiteFilter {
    /// Builds from an explicit, already-drawn hash function. The main entry
    /// point is [`BuildableFilter::build_with`]; this constructor exists so
    /// tests can pin the exact hash of the paper's worked Example 3.2, and
    /// for ablations that swap the hash family.
    #[doc(hidden)]
    pub fn from_hash(h: LocalityHash, keys: &[u64]) -> Self {
        Self::from_hash_parallel(h, keys, Parallelism::serial())
    }

    /// [`GrafiteFilter::from_hash`] with an explicit thread budget for the
    /// hash→sort→encode pipeline: the hash evaluations run on immutable
    /// key chunks and the codes sort through
    /// [`sort::partition_radix_sort`]; the Elias–Fano encode is serial.
    /// Bit-identical to the serial path at every thread
    /// count — parallelism here is purely a wall-clock knob.
    fn from_hash_parallel(h: LocalityHash, keys: &[u64], parallelism: Parallelism) -> Self {
        let r = h.r();
        let threads = parallelism.capped(keys.len());
        let mut codes: Vec<u64> = if threads > 1 && keys.len() >= sort::PARTITION_PARALLEL_MIN {
            let mut codes = vec![0u64; keys.len()];
            let chunk = keys.len().div_ceil(threads);
            let h_ref = &h;
            std::thread::scope(|scope| {
                for (dst, src) in codes.chunks_mut(chunk).zip(keys.chunks(chunk)) {
                    scope.spawn(move || {
                        for (d, &k) in dst.iter_mut().zip(src) {
                            *d = h_ref.eval(k);
                        }
                    });
                }
            });
            codes
        } else {
            keys.iter().map(|&k| h.eval(k)).collect()
        };
        sort::partition_radix_sort(&mut codes, threads);
        let codes = EliasFano::new(&codes, r);
        Self {
            h,
            codes,
            n_keys: keys.len(),
        }
    }

    /// The reduced universe size `r = nL/ε`.
    #[inline]
    pub fn reduced_universe(&self) -> u64 {
        self.codes.universe()
    }

    /// Number of hash codes stored: one per key, so it equals
    /// [`RangeFilter::num_keys`] — except in a blob written before codes
    /// stopped being deduplicated, where colliding keys share one code.
    #[inline]
    pub fn num_codes(&self) -> usize {
        self.codes.len()
    }

    /// Upper bound on the false-positive probability for query ranges of
    /// size `l` (Lemma 3.1 union bound: `n·l / r`, clamped to 1).
    pub fn fpp_for_range_size(&self, l: u64) -> f64 {
        if self.n_keys == 0 {
            return 0.0;
        }
        (self.n_keys as f64 * l as f64 / self.reduced_universe() as f64).min(1.0)
    }

    /// Range-emptiness test over a single `r`-block: both endpoints have the
    /// same `⌊x/r⌋`, so the hashed image of `[a, b]` is the (possibly
    /// wrapped) interval `[h(a), h(b)]` and the paper's conditions (2) apply.
    #[inline]
    fn query_within_block(&self, a: u64, b: u64) -> bool {
        debug_assert_eq!(self.h.block(a), self.h.block(b));
        let ha = self.h.eval(a);
        let hb = self.h.eval(b);
        if ha <= hb {
            match self.codes.predecessor(hb) {
                Some(z) => z >= ha,
                None => false,
            }
        } else {
            // Wrapped image: [ha, r) ∪ [0, hb].
            self.codes.first() <= hb || self.codes.last() >= ha
        }
    }

    /// Approximate number of keys intersecting `[a, b]` — the counting
    /// extension described at the end of the paper's Section 3: the
    /// difference of Elias–Fano ranks at the hashed endpoints.
    ///
    /// The count is over hash codes, one per key (duplicate input keys
    /// included). A collision repeats a code, so keys inside the range are
    /// all counted: unlike under the paper's footnote 3, where colliding
    /// codes merge, counts no longer deflate. Keys outside the range whose
    /// codes land inside it inflate the count (with at most the same
    /// `ℓε/L`-style probability per key). For a range spanning a whole
    /// `r`-block the reduction is uninformative and the total code count is
    /// returned.
    pub fn approx_range_count(&self, a: u64, b: u64) -> usize {
        debug_assert!(a <= b, "inverted range [{a}, {b}]");
        if self.n_keys == 0 {
            return 0;
        }
        let (block_a, block_b) = (self.h.block(a), self.h.block(b));
        if block_a == block_b {
            self.count_within_block(a, b)
        } else if block_b == block_a + 1 {
            let b_first = block_b * self.reduced_universe();
            self.count_within_block(a, b_first - 1) + self.count_within_block(b_first, b)
        } else {
            self.codes.len()
        }
    }

    fn count_within_block(&self, a: u64, b: u64) -> usize {
        let ha = self.h.eval(a);
        let hb = self.h.eval(b);
        if ha <= hb {
            // Codes in [ha, hb]: rank counts strictly-smaller values and both
            // arguments stay <= r = universe, which EliasFano::rank accepts.
            self.codes.rank(hb + 1) - self.codes.rank(ha)
        } else {
            (self.codes.len() - self.codes.rank(ha)) + self.codes.rank(hb + 1)
        }
    }
}

impl RangeFilter for GrafiteFilter {
    /// Algorithm 2 of the paper plus the two structural cases: footnote 2's
    /// split when `[a, b]` crosses one `r`-block boundary, and an immediate
    /// "not empty" when it spans two or more boundaries (then it contains a
    /// whole block, whose hashed image is the entire reduced universe).
    fn may_contain_range(&self, a: u64, b: u64) -> bool {
        debug_assert!(a <= b, "inverted range [{a}, {b}]");
        if self.n_keys == 0 {
            return false;
        }
        let (block_a, block_b) = (self.h.block(a), self.h.block(b));
        if block_a == block_b {
            self.query_within_block(a, b)
        } else if block_b == block_a + 1 {
            // Split at b' = ⌊b/r⌋·r = b − (b mod r), the first value of b's block
            // (footnote 2); each sub-range lies within a single block.
            let b_first = block_b * self.reduced_universe();
            self.query_within_block(b_first, b) || self.query_within_block(a, b_first - 1)
        } else {
            true
        }
    }

    fn size_in_bits(&self) -> usize {
        // Elias–Fano payload + the hash parameters and counters (4 words).
        self.codes.size_in_bits() + 4 * 64
    }

    fn num_keys(&self) -> usize {
        self.n_keys
    }

    fn name(&self) -> &'static str {
        "Grafite"
    }
}

impl PersistentFilter for GrafiteFilter {
    fn spec_id(&self) -> u32 {
        spec_id::GRAFITE
    }

    fn spec_ids() -> &'static [u32] {
        &[spec_id::GRAFITE]
    }

    /// Payload: `[c1, c2, p]` followed by the Elias–Fano code sequence,
    /// whose universe is the reduced universe `r`. Together they fully
    /// determine the locality hash.
    fn write_payload(&self, w: &mut WordWriter<'_>) -> std::io::Result<()> {
        let q = self.h.pairwise();
        w.word(q.c1())?;
        w.word(q.c2())?;
        w.word(q.prime())?;
        self.codes.write_to(w)?;
        Ok(())
    }

    fn read_payload(src: &mut WordReader<'_>, header: &Header) -> Result<Self, FilterError> {
        let c1 = src.word()?;
        let c2 = src.word()?;
        let p = src.word()?;
        let codes = EliasFano::read_from(src)?;
        let r = codes.universe();
        if !PairwiseHash::params_valid(c1, c2, p, r) {
            return Err(FilterError::corrupt("pairwise hash parameters"));
        }
        let h = LocalityHash::from_pairwise(PairwiseHash::with_params(c1, c2, p, r));
        Ok(Self {
            h,
            codes,
            n_keys: header.n_keys as usize,
        })
    }

    /// Merges the update into the code sequence instead of rebuilding:
    /// the deleted keys' codes come out and the inserted keys' go in,
    /// under the unchanged hash. The result is byte-identical to
    /// [`GrafiteFilter::from_hash`] over `cfg.keys` with this filter's
    /// hash, i.e. a build pinned at this filter's reduced universe `r₀`.
    ///
    /// It merges only while keeping `r₀` keeps the paper's sizing:
    /// `r(n') ≤ r₀ ≤ r(n') + r(n')/8`, where `r(n')` is what
    /// [`BuildableFilter::build`] sizes for the `n'` keys of `cfg` (default
    /// tuning). Then a query of size ℓ is a false positive with
    /// probability at most `ℓ·n'/r₀ ≤ ℓ/2^(B−2)`. The codes must also fit
    /// in `B + 1/8` bits per key: at an integral `B` the universe rule
    /// implies it, but at a fractional one a shrinking shard's low width
    /// can step up and take up to `log₂(9/8) ≈ 0.17` bits per key more
    /// than `B`. And it needs one stored code per key, which a blob
    /// written while codes were deduplicated lacks when two of its keys
    /// collide. Otherwise `None`: rebuild.
    fn merged(
        &self,
        cfg: &FilterConfig<'_>,
        removed: &[u64],
        added: &[u64],
    ) -> Option<Box<dyn PersistentFilter>> {
        let n = cfg.keys.len();
        if self.codes.len() != self.n_keys
            || (self.n_keys + added.len()).checked_sub(removed.len()) != Some(n)
        {
            return None;
        }
        let r0 = self.reduced_universe();
        let r = reduced_universe_for(cfg, &GrafiteTuning::default()).ok()?;
        let max_bits = n as f64 * (cfg.bits_per_key + 0.125);
        if r > r0 || r0 - r > r / 8 || EliasFano::encoded_bits(n, r0) as f64 > max_bits {
            return None;
        }
        let sorted_codes = |keys: &[u64]| {
            let mut codes: Vec<u64> = keys.iter().map(|&k| self.h.eval(k)).collect();
            codes.sort_unstable();
            codes
        };
        let codes = self
            .codes
            .merged(&sorted_codes(removed), &sorted_codes(added))?;
        Some(Box::new(Self {
            h: self.h,
            codes,
            n_keys: n,
        }))
    }
}

/// Per-filter tuning for [`GrafiteFilter`] under the [`BuildableFilter`]
/// protocol. The default is the paper's configuration: exact `r = nL/ε`
/// sizing from the bits-per-key budget.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct GrafiteTuning {
    /// Round the reduced universe up to a power of two (§7's shift-and-mask
    /// proposal): slightly more space, strictly smaller FPP.
    pub pow2_universe: bool,
    /// `Some(ε)` sizes by `r = nL/ε` with `L` taken from
    /// [`FilterConfig::max_range`] (Theorem 3.4); `None` sizes by
    /// [`FilterConfig::bits_per_key`] (Corollary 3.5).
    pub epsilon: Option<f64>,
}

impl BuildableFilter for GrafiteFilter {
    type Tuning = GrafiteTuning;

    /// Sizes the reduced universe by `r = ⌈nL/ε⌉` (Theorem 3.4: FPP ≤ ε
    /// at range size `L`) when [`GrafiteTuning::epsilon`] is set, else by
    /// `r = n · 2^(B−2)` (Corollary 3.5: `B` bits per key), then draws the
    /// hash from [`FilterConfig::seed`]. Keys may be unsorted and may
    /// contain duplicates.
    fn build_with(cfg: &FilterConfig<'_>, tuning: &GrafiteTuning) -> Result<Self, FilterError> {
        let r = reduced_universe_for(cfg, tuning)?;
        let h = LocalityHash::from_seed(cfg.seed, r);
        Ok(Self::from_hash_parallel(h, cfg.keys, cfg.parallelism))
    }
}

/// The reduced universe `r` [`BuildableFilter::build_with`] sizes for the
/// keys of `cfg` under its budget and `tuning` — the one sizing rule that
/// builds and [`PersistentFilter::merged`] share.
fn reduced_universe_for(
    cfg: &FilterConfig<'_>,
    tuning: &GrafiteTuning,
) -> Result<u64, FilterError> {
    let n = cfg.keys.len();
    let r_target: u128 = match tuning.epsilon {
        Some(epsilon) => {
            let l = cfg.max_range;
            if !(epsilon > 0.0 && epsilon < 1.0) {
                return Err(FilterError::InvalidEpsilon(epsilon));
            }
            if l == 0 {
                return Err(FilterError::InvalidMaxRange(l));
            }
            ((n.max(1) as f64) * (l as f64) / epsilon).ceil() as u128
        }
        None => {
            let bits = cfg.bits_per_key;
            if !(bits > 2.0 && bits.is_finite()) {
                return Err(FilterError::InvalidBudget(bits));
            }
            ((n.max(1) as f64) * (bits - 2.0).exp2()).ceil() as u128
        }
    };
    let r_target = if tuning.pow2_universe {
        r_target.next_power_of_two()
    } else {
        r_target
    };
    if r_target > MAX_REDUCED_UNIVERSE as u128 {
        return Err(FilterError::ReducedUniverseTooLarge {
            requested: r_target,
            supported: MAX_REDUCED_UNIVERSE,
        });
    }
    Ok((r_target as u64).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use grafite_hash::PairwiseHash;

    /// The paper's set S of Examples 3.2/3.3.
    const PAPER_S: [u64; 10] = [9, 48, 50, 191, 226, 269, 335, 446, 487, 511];

    fn paper_filter() -> GrafiteFilter {
        // Example 3.2: p = 2^31 − 1, c1 = 10, c2 = 5, r = nL/ε = 100.
        let q = PairwiseHash::with_params(10, 5, (1 << 31) - 1, 100);
        GrafiteFilter::from_hash(LocalityHash::from_pairwise(q), &PAPER_S)
    }

    #[test]
    fn paper_example_false_positive() {
        let f = paper_filter();
        assert_eq!(f.reduced_universe(), 100);
        // Figure 2's sequence: one code per key, h(S) sorted.
        let codes: Vec<u64> = f.codes.iter().collect();
        assert_eq!(codes, [6, 14, 32, 51, 53, 55, 66, 70, 91, 94]);
        // Example 3.3: [44, 47] ∩ S = ∅, yet the filter says "not empty".
        assert!(f.may_contain_range(44, 47));
    }

    #[test]
    fn paper_example_no_false_negatives() {
        let f = paper_filter();
        for &k in &PAPER_S {
            assert!(f.may_contain(k), "false negative on key {k}");
            assert!(f.may_contain_range(k.saturating_sub(3), k + 3));
        }
    }

    #[test]
    fn no_false_negatives_randomized() {
        let mut state = 1u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        let keys: Vec<u64> = (0..5000).map(|_| next()).collect();
        for &bpk in &[4.0, 8.0, 12.0, 20.0] {
            let f = GrafiteFilter::build(&FilterConfig::new(&keys).bits_per_key(bpk)).unwrap();
            for (i, &k) in keys.iter().enumerate().step_by(7) {
                assert!(f.may_contain(k), "bpk={bpk} point FN at key {i}");
                let lo = k.saturating_sub(i as u64 % 800);
                let hi = k.saturating_add((i as u64 * 31) % 800);
                assert!(
                    f.may_contain_range(lo, hi),
                    "bpk={bpk} range FN around key {i}"
                );
            }
        }
    }

    #[test]
    fn empty_filter_answers_empty() {
        let f = GrafiteFilter::build(&FilterConfig::new(&[])).unwrap();
        assert!(!f.may_contain_range(0, u64::MAX));
        assert_eq!(f.approx_range_count(0, u64::MAX), 0);
        assert_eq!(f.num_keys(), 0);
    }

    #[test]
    fn single_key_and_duplicates() {
        let f = GrafiteFilter::build(&FilterConfig::new(&[7, 7, 7]).bits_per_key(12.0)).unwrap();
        assert_eq!(f.num_keys(), 3);
        // One code per key: a duplicate key repeats its code.
        assert_eq!(f.num_codes(), 3);
        assert_eq!(f.approx_range_count(0, 100), 3);
        assert!(f.may_contain(7));
        assert!(f.may_contain_range(0, 100));
    }

    #[test]
    fn extreme_universe_edges() {
        let keys = [0u64, 1, u64::MAX - 1, u64::MAX];
        let f = GrafiteFilter::build(&FilterConfig::new(&keys).bits_per_key(20.0)).unwrap();
        for &k in &keys {
            assert!(f.may_contain(k));
        }
        assert!(f.may_contain_range(u64::MAX - 5, u64::MAX));
        assert!(f.may_contain_range(0, 0));
    }

    #[test]
    fn block_boundary_split_has_no_false_negatives() {
        // Keys straddling every r-block boundary pattern. r depends only on
        // (n, budget): n = 147 keys at 10 bits/key gives r = 147 * 2^8.
        let r = 147u64 << 8;
        let keys: Vec<u64> = (1..50u64)
            .flat_map(|i| [i * r - 1, i * r, i * r + 1])
            .collect();
        let f = GrafiteFilter::build(&FilterConfig::new(&keys).bits_per_key(10.0).seed(9)).unwrap();
        assert_eq!(f.reduced_universe(), r, "r formula drifted");
        for i in 1..50u64 {
            // Crosses exactly one boundary.
            assert!(f.may_contain_range(i * r - 2, i * r + 2), "boundary {i}");
            // Spans multiple boundaries: must be (trivially) non-empty.
            assert!(f.may_contain_range(i * r - 2, i * r + 2 * r));
        }
    }

    #[test]
    fn spanning_query_over_empty_filterless_blocks() {
        // A query spanning >= 2 block boundaries always answers "not empty"
        // on a non-empty filter (the hashed image covers all of [r]).
        let f = GrafiteFilter::build(&FilterConfig::new(&[1234]).bits_per_key(8.0)).unwrap();
        let r = f.reduced_universe();
        assert!(f.may_contain_range(0, 3 * r));
    }

    #[test]
    fn fpr_respects_corollary_bound() {
        let mut state = 99u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state
        };
        let n = 4000usize;
        let keys: Vec<u64> = (0..n).map(|_| next()).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let bpk = 12.0;
        let l = 32u64;
        let f = GrafiteFilter::build(&FilterConfig::new(&keys).bits_per_key(bpk)).unwrap();
        let bound = f.fpp_for_range_size(l);
        assert!(
            bound <= 32.0 / 1024.0 + 1e-9,
            "bound formula drifted: {bound}"
        );

        let mut fps = 0usize;
        let mut empties = 0usize;
        let mut probe_state = 4242u64;
        while empties < 20_000 {
            probe_state = probe_state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = probe_state;
            let b = match a.checked_add(l - 1) {
                Some(b) => b,
                None => continue,
            };
            // Keep only truly empty ranges.
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
        assert!(
            fpr <= bound * 1.5 + 0.002,
            "empirical FPR {fpr} exceeds bound {bound} beyond statistical slack"
        );
    }

    #[test]
    fn approx_count_exact_when_collision_free() {
        let keys: Vec<u64> = (0..100u64).map(|i| i * 1_000_003).collect();
        let f = GrafiteFilter::build(&FilterConfig::new(&keys).bits_per_key(30.0).seed(3)).unwrap();
        // Ranges well inside one block (r = 100 * 2^28 >> any range here).
        for (a, b, expect) in [
            (0u64, 999_999u64, 1usize),
            (0, 5_000_000, 5),
            (1_000_003, 1_000_003, 1),
            (1, 1_000_002, 0),
            (0, 99 * 1_000_003, 100),
        ] {
            assert_eq!(f.approx_range_count(a, b), expect, "count [{a}, {b}]");
        }
    }

    #[test]
    fn builder_validation() {
        let keys = [1u64, 2, 3];
        let by_epsilon = |epsilon: f64, l: u64| {
            let tuning = GrafiteTuning {
                epsilon: Some(epsilon),
                ..GrafiteTuning::default()
            };
            GrafiteFilter::build_with(&FilterConfig::new(&keys).max_range(l), &tuning)
        };
        let by_budget =
            |bits: f64| GrafiteFilter::build(&FilterConfig::new(&keys).bits_per_key(bits));
        assert!(matches!(
            by_epsilon(0.0, 8),
            Err(FilterError::InvalidEpsilon(_))
        ));
        assert!(matches!(
            by_epsilon(1.5, 8),
            Err(FilterError::InvalidEpsilon(_))
        ));
        assert!(matches!(
            by_epsilon(0.1, 0),
            Err(FilterError::InvalidMaxRange(0))
        ));
        assert!(matches!(by_budget(2.0), Err(FilterError::InvalidBudget(_))));
        assert!(matches!(
            by_budget(64.0),
            Err(FilterError::ReducedUniverseTooLarge { .. })
        ));
    }

    #[test]
    fn space_tracks_budget() {
        let mut state = 5u64;
        let keys: Vec<u64> = (0..20_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                state
            })
            .collect();
        for &bpk in &[8.0, 12.0, 16.0, 24.0] {
            let f = GrafiteFilter::build(&FilterConfig::new(&keys).bits_per_key(bpk)).unwrap();
            let measured = f.bits_per_key();
            assert!(
                measured > bpk - 2.0 && measured < bpk + 3.0,
                "budget {bpk} produced {measured} bits/key"
            );
        }
    }

    /// Queries mixing empty, hit, block-crossing, spanning, and edge cases.
    fn batch_probe_queries(f: &GrafiteFilter, keys: &[u64], count: usize) -> Vec<(u64, u64)> {
        let r = f.reduced_universe();
        let mut state = 0xBA7C4u64;
        let mut queries: Vec<(u64, u64)> = (0..count)
            .map(|i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                match i % 5 {
                    0 => {
                        // Around a key.
                        let k = keys[(state % keys.len() as u64) as usize];
                        (k.saturating_sub(state % 64), k.saturating_add(3))
                    }
                    1 => {
                        // Random small range (usually empty).
                        let a = state;
                        (a, a.saturating_add(31))
                    }
                    2 => {
                        // Crosses exactly one r-block boundary.
                        let block = (state % (u64::MAX / r.max(1))).max(1);
                        (block * r - 2, block * r + 2)
                    }
                    3 => {
                        // Spans several blocks: trivially non-empty.
                        (state % r, state % r + 3 * r)
                    }
                    _ => {
                        // Universe edges.
                        if state % 2 == 0 {
                            (0, state % 100)
                        } else {
                            (u64::MAX - state % 100, u64::MAX)
                        }
                    }
                }
            })
            .collect();
        queries.sort_unstable();
        queries
    }

    #[test]
    fn batch_matches_per_query_path() {
        let mut state = 7u64;
        let keys: Vec<u64> = (0..4000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                state
            })
            .collect();
        for &bpk in &[6.0, 12.0, 20.0] {
            let f =
                GrafiteFilter::build(&FilterConfig::new(&keys).bits_per_key(bpk).seed(2)).unwrap();
            let queries = batch_probe_queries(&f, &keys, 2000);
            let mut batched = Vec::new();
            f.may_contain_ranges(&queries, &mut batched);
            let singles: Vec<bool> = queries
                .iter()
                .map(|&(a, b)| f.may_contain_range(a, b))
                .collect();
            assert_eq!(
                batched, singles,
                "bpk={bpk} batch diverged from per-query path"
            );
        }
    }

    #[test]
    fn batch_on_empty_filter_is_all_false() {
        let f = GrafiteFilter::build(&FilterConfig::new(&[])).unwrap();
        let queries: Vec<(u64, u64)> = (0..100u64).map(|i| (i * 3, i * 3 + 10)).collect();
        let mut out = vec![true; 3]; // stale contents must be cleared
        f.may_contain_ranges(&queries, &mut out);
        assert_eq!(out.len(), queries.len());
        assert!(out.iter().all(|&x| !x));
    }

    #[test]
    fn batch_output_vector_is_reused() {
        let keys: Vec<u64> = (0..500u64).map(|i| i * 1000).collect();
        let f = GrafiteFilter::build(&FilterConfig::new(&keys).bits_per_key(10.0)).unwrap();
        let queries = batch_probe_queries(&f, &keys, 600);
        let mut out = Vec::new();
        f.may_contain_ranges(&queries, &mut out);
        let first = out.clone();
        f.may_contain_ranges(&queries, &mut out);
        assert_eq!(out, first, "batch must be deterministic and clear `out`");
    }

    /// A merge is a build pinned at the old reduced universe, byte for
    /// byte; deleting one of two keys that share a code keeps the other.
    #[test]
    fn merged_equals_pinned_build_and_keeps_a_colliding_key() {
        let keys: Vec<u64> = (0..2_000u64).map(|i| i * 7_919 + 13).collect();
        let cfg = FilterConfig::new(&keys).bits_per_key(12.0).seed(5);
        let f = GrafiteFilter::build(&cfg).unwrap();
        let (h, r0) = (f.h, f.reduced_universe());
        // `twin` sits one r-block above `keys[0]` with the same code.
        let block = h.block(keys[0]) + 1;
        let offset = (h.eval(keys[0]) + r0 - h.eval(block * r0)) % r0;
        let twin = block * r0 + offset;
        assert_eq!(h.eval(twin), h.eval(keys[0]));
        let mut with_twin = keys.clone();
        with_twin[1] = twin; // keep n, and so r, the same
        let added = [twin];
        let removed = [keys[1]];
        let cfg_twin = FilterConfig::new(&with_twin).bits_per_key(12.0).seed(5);
        let merged = f.merged(&cfg_twin, &removed, &added).expect("n unchanged");
        assert_eq!(
            merged.to_bytes(),
            GrafiteFilter::from_hash(h, &with_twin).to_bytes()
        );
        // Deleting keys[0] leaves its twin's copy of the code.
        let rest: Vec<u64> = with_twin[1..].to_vec();
        let cfg_rest = FilterConfig::new(&rest).bits_per_key(12.0).seed(5);
        let back = GrafiteFilter::deserialize(&merged.to_bytes()).unwrap();
        let after = back
            .merged(&cfg_rest, &[keys[0]], &[])
            .expect("shrink by one");
        assert!(after.may_contain(twin), "a colliding key lost its code");
        assert_eq!(
            after.to_bytes(),
            GrafiteFilter::from_hash(h, &rest).to_bytes()
        );
        // Growth past r₀ and shrinking past r₀ − r₀/9 rebuild instead.
        let grown = [keys.clone(), vec![u64::MAX]].concat();
        let cfg_grown = FilterConfig::new(&grown).bits_per_key(12.0).seed(5);
        assert!(f.merged(&cfg_grown, &[], &[u64::MAX]).is_none());
        let cut = keys.len() / 9 + 1;
        let shrunk = keys[cut..].to_vec();
        let cfg_shrunk = FilterConfig::new(&shrunk).bits_per_key(12.0).seed(5);
        assert!(f.merged(&cfg_shrunk, &keys[..cut], &[]).is_none());
        let shrunk = keys[cut - 1..].to_vec();
        let cfg_shrunk = FilterConfig::new(&shrunk).bits_per_key(12.0).seed(5);
        assert!(f.merged(&cfg_shrunk, &keys[..cut - 1], &[]).is_some());
        // At 16.5 bits per key an 11.5 % shrink would still fit the codes
        // in B + 1/8 bits per key, but leave r₀ more than r(n')/8 above
        // r(n'): rebuild.
        let cfg = FilterConfig::new(&keys).bits_per_key(16.5).seed(5);
        let f = GrafiteFilter::build(&cfg).unwrap();
        let shrunk = keys[230..].to_vec();
        assert!(
            EliasFano::encoded_bits(shrunk.len(), f.reduced_universe()) as f64
                <= shrunk.len() as f64 * 16.625
        );
        let cfg_shrunk = FilterConfig::new(&shrunk).bits_per_key(16.5).seed(5);
        assert!(f.merged(&cfg_shrunk, &keys[..230], &[]).is_none());
        // A key the filter was not built on has, barring a collision, no
        // code to take out.
        let cfg_less = FilterConfig::new(&keys[1..]).bits_per_key(12.0).seed(5);
        assert!(f.merged(&cfg_less, &[3], &[]).is_none());
    }

    #[test]
    fn epsilon_sizing_matches_formula() {
        let keys: Vec<u64> = (0..1000u64).map(|i| i * 97_000).collect();
        let cfg = FilterConfig::new(&keys).max_range(64);
        let tuning = GrafiteTuning {
            epsilon: Some(0.01),
            pow2_universe: false,
        };
        let f = GrafiteFilter::build_with(&cfg, &tuning).unwrap();
        // r = nL/ε = 1000 * 64 / 0.01 = 6.4e6.
        assert_eq!(f.reduced_universe(), 6_400_000);
        assert!((f.fpp_for_range_size(64) - 0.01).abs() < 1e-9);
        assert!((f.fpp_for_range_size(32) - 0.005).abs() < 1e-9);
        // §7's power-of-two rounding: 6.4e6 rounds up to 2^23.
        let pow2 = GrafiteTuning {
            pow2_universe: true,
            ..tuning
        };
        let f = GrafiteFilter::build_with(&cfg, &pow2).unwrap();
        assert_eq!(f.reduced_universe(), 1 << 23);
    }
}

#[cfg(test)]
mod persist_tests {
    use super::*;

    #[test]
    fn filter_roundtrips_through_flat_bytes() {
        let keys: Vec<u64> = (0..500u64)
            .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15))
            .collect();
        let filter =
            GrafiteFilter::build(&FilterConfig::new(&keys).bits_per_key(14.0).seed(3)).unwrap();
        let bytes = filter.to_bytes();
        assert_eq!(bytes.len() * 8, filter.serialized_bits());

        let back: GrafiteFilter = GrafiteFilter::deserialize(&bytes).expect("deserialize");
        assert_eq!(back.reduced_universe(), filter.reduced_universe());
        assert_eq!(back.num_keys(), filter.num_keys());
        assert_eq!(back.num_codes(), back.num_keys());
        for &k in &keys {
            assert!(back.may_contain(k));
        }
        for probe in 0..2000u64 {
            let a = probe.wrapping_mul(0xABCDEF);
            let b = a.saturating_add(100);
            assert_eq!(filter.may_contain_range(a, b), back.may_contain_range(a, b));
        }

        // The paper's space term on disk: with `n` and `r = n · 2^(B−2)`
        // both powers of two, a blob is `B − 2` low bits and about 2 high
        // bits per key plus a constant number of framing words (header,
        // hash parameters, container lengths, partial last words). No
        // rank/select directory is stored.
        const FRAMING_WORDS: usize = 24;
        let keys: Vec<u64> = (0..1u64 << 14)
            .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15))
            .collect();
        for b in [8usize, 12, 16] {
            let cfg = FilterConfig::new(&keys).bits_per_key(b as f64).seed(3);
            let tuning = GrafiteTuning {
                pow2_universe: true,
                ..GrafiteTuning::default()
            };
            let filter = GrafiteFilter::build_with(&cfg, &tuning).unwrap();
            assert_eq!(filter.reduced_universe(), (keys.len() as u64) << (b - 2));
            let bits = filter.to_bytes().len() * 8;
            assert!(
                bits <= keys.len() * b + FRAMING_WORDS * 64,
                "B = {b}: {bits} bits for {} keys",
                keys.len()
            );
        }
    }

    #[test]
    fn foreign_bytes_are_rejected_typed() {
        let keys = [1u64, 2, 3];
        let filter = GrafiteFilter::build(&FilterConfig::new(&keys).bits_per_key(8.0)).unwrap();
        let bytes = filter.to_bytes();
        assert!(matches!(
            GrafiteFilter::deserialize(&bytes[..bytes.len() - 3]),
            Err(FilterError::TruncatedBuffer { .. })
        ));
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xFF;
        assert!(matches!(
            GrafiteFilter::deserialize(&corrupt),
            Err(FilterError::ChecksumMismatch { .. })
        ));
    }
}

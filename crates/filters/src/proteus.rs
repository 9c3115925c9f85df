//! Proteus — the self-designing range filter of Knorr et al. (SIGMOD 2022),
//! as described in the Grafite paper's §2/§5.
//!
//! Proteus combines a Fast Succinct Trie over the `l1` most significant
//! bits of every key with a Prefix Bloom Filter over `l2 > l1`-bit
//! prefixes. A range query first consults the trie: a stored `l1`-prefix
//! strictly inside the query range proves non-emptiness; no stored prefix
//! at all proves emptiness; a boundary-block hit escalates to the Bloom
//! filter, which is probed for every `l2`-prefix of the overlap.
//!
//! The defining feature is the **CPFPR auto-tuner**: given the keys, a
//! sample of the query workload, and a space budget, Proteus picks the
//! `(l1, l2)` pair minimising the modelled FPR. We reproduce the tuner at
//! byte granularity for `l1` (a deviation: our FST is byte-based, so the
//! trie can only cut keys at multiples of 8 bits) and
//! 4-bit granularity for `l2`, evaluating the exact trie/prefix structure
//! on the key set and the analytic Bloom FPR on the sampled queries — the
//! same shape as Knorr et al.'s Algorithm 1.

use grafite_bloom::{BloomFilter, PrefixBloomFilter};
use grafite_core::persist::{spec_id, Header};
use grafite_core::{BuildableFilter, FilterConfig, FilterError, PersistentFilter, RangeFilter};
use grafite_fst::{builder, Fst, Lookup};
use grafite_succinct::io::{WordReader, WordWriter};

/// Max Bloom probes per query before giving up ("maybe").
const MAX_PROBES: u64 = 1 << 12;
/// Max sample queries fed to the tuner.
const MAX_SAMPLE: usize = 1024;

/// Shift right that tolerates a shift of 64.
#[inline]
fn shr(x: u64, s: u32) -> u64 {
    if s >= 64 {
        0
    } else {
        x >> s
    }
}

/// The Proteus range filter.
#[derive(Clone, Debug)]
pub struct Proteus {
    /// Trie depth in bytes (`l1 = 8 * l1_bytes` bits); 0 disables the trie.
    l1_bytes: u32,
    /// Prefix-Bloom prefix length in bits; 0 disables the Bloom stage.
    l2: u32,
    fst: Option<Fst>,
    pbf: Option<PrefixBloomFilter>,
    n_keys: usize,
}

impl Proteus {
    /// The tuned trie depth in bits (`l1`).
    pub fn l1(&self) -> u32 {
        8 * self.l1_bytes
    }

    /// The tuned Bloom prefix length in bits (`l2`; 0 = disabled).
    pub fn l2(&self) -> u32 {
        self.l2
    }

    /// Whether the trie holds any l1-prefix within `[pa, pb]`, and whether
    /// the boundaries themselves are present: `(inner, has_pa, has_pb)`.
    fn trie_scan(&self, pa: u64, pb: u64) -> (bool, bool, bool) {
        let fst = self.fst.as_ref().expect("trie_scan without trie");
        let l1b = self.l1_bytes as usize;
        let s1 = 64 - 8 * self.l1_bytes;
        let pa_bytes_full = (pa << s1).to_be_bytes();
        let probe = &pa_bytes_full[..l1b];
        let it = match fst.seek(probe) {
            Some(it) => it,
            None => return (false, false, false),
        };
        // Every trie key is `l1_bytes` long unless the loaded blob was
        // forged; fail open then, which keeps no-false-negatives.
        let key = it.key();
        if key.len() != l1b {
            return (true, true, true);
        }
        let mut buf = [0u8; 8];
        buf[..l1b].copy_from_slice(key);
        let p_val = shr(u64::from_be_bytes(buf), s1);
        if p_val > pb {
            return (false, false, false);
        }
        let has_pa = p_val == pa;
        let inner = p_val > pa && p_val < pb;
        let has_pb = if pa == pb {
            has_pa
        } else {
            let pb_bytes_full = (pb << s1).to_be_bytes();
            matches!(fst.lookup(&pb_bytes_full[..l1b]), Lookup::Leaf { .. })
        };
        (inner, has_pa, has_pb)
    }

    /// Probes the PBF for every l2-prefix of `[lo, hi]`, within budget.
    fn probe_pbf(&self, lo: u64, hi: u64) -> bool {
        let pbf = self.pbf.as_ref().expect("probe_pbf without PBF");
        pbf.may_contain_range(lo, hi)
    }
}

impl PersistentFilter for Proteus {
    fn spec_id(&self) -> u32 {
        spec_id::PROTEUS
    }

    fn spec_ids() -> &'static [u32] {
        &[spec_id::PROTEUS]
    }

    /// Payload: `[l1_bytes, l2, has_fst, has_pbf]` + the present stages.
    /// The tuned `(l1, l2)` pair ships with the structures — loading never
    /// re-runs the CPFPR tuner.
    fn write_payload(&self, w: &mut WordWriter<'_>) -> std::io::Result<()> {
        w.word(self.l1_bytes as u64)?;
        w.word(self.l2 as u64)?;
        w.word(self.fst.is_some() as u64)?;
        w.word(self.pbf.is_some() as u64)?;
        if let Some(fst) = &self.fst {
            fst.write_to(w)?;
        }
        if let Some(pbf) = &self.pbf {
            pbf.write_to(w)?;
        }
        Ok(())
    }

    fn read_payload(src: &mut WordReader<'_>, header: &Header) -> Result<Self, FilterError> {
        let l1_bytes = src.word()?;
        if l1_bytes > 8 {
            return Err(FilterError::corrupt("Proteus trie depth above 8 bytes"));
        }
        let l2 = src.word()?;
        if l2 > 64 {
            return Err(FilterError::corrupt("Proteus prefix length above 64"));
        }
        let has_fst = src.word()?;
        let has_pbf = src.word()?;
        if (has_fst != (l1_bytes > 0) as u64) || (has_pbf != (l2 > 0) as u64) {
            return Err(FilterError::corrupt("Proteus stage flags inconsistent"));
        }
        let fst = if has_fst == 1 {
            Some(Fst::read_from(src)?)
        } else {
            None
        };
        let pbf = if has_pbf == 1 {
            let pbf = PrefixBloomFilter::read_from(src)?;
            if pbf.prefix_len() != l2 as u32 {
                return Err(FilterError::corrupt("Proteus PBF prefix length drifted"));
            }
            Some(pbf)
        } else {
            None
        };
        Ok(Self {
            l1_bytes: l1_bytes as u32,
            l2: l2 as u32,
            fst,
            pbf,
            n_keys: header.n_keys as usize,
        })
    }
}

/// Modelled FPR of a `(l1, l2)` configuration on the sampled empty queries.
#[allow(clippy::too_many_arguments)]
fn estimate_fpr(
    _sorted: &[u64],
    d1: &[u64],
    l1: u32,
    l2: u32,
    pbf_budget: f64,
    d2_tables: &[Vec<u64>],
    sample: &[(u64, u64)],
) -> f64 {
    if sample.is_empty() {
        // No workload knowledge: fall back to preferring deeper structures.
        return 1.0 - (l1 as f64 * 8.0 + l2 as f64) / 1000.0;
    }
    let (d2, bloom_fpr) = if l2 > 0 {
        let d2 = &d2_tables[(l2 / 4 - 1) as usize];
        let m = pbf_budget.max(64.0);
        let k = BloomFilter::optimal_k(m as usize, d2.len()) as f64;
        let fpr = (1.0 - (-k * d2.len() as f64 / m).exp()).powf(k);
        (Some(d2), fpr)
    } else {
        (None, 1.0)
    };
    let s1 = 64 - 8 * l1;
    let s2 = 64 - l2;
    let contains = |v: &[u64], x: u64| v.binary_search(&x).is_ok();
    let any_in = |v: &[u64], lo: u64, hi: u64| {
        let i = v.partition_point(|&p| p < lo);
        i < v.len() && v[i] <= hi
    };
    let mut total = 0.0;
    for &(a, b) in sample {
        if a > b {
            continue;
        }
        let contribution: f64 = if l1 > 0 {
            let (pa, pb) = (shr(a, s1), shr(b, s1));
            let has_pa = contains(d1, pa);
            let has_pb = contains(d1, pb);
            // Inner prefixes cannot exist for an empty query; and with an
            // exact (l1 = 8) trie, boundary presence contradicts emptiness.
            if (!has_pa && !has_pb) || l1 == 8 {
                0.0
            } else {
                match d2 {
                    None => 1.0,
                    Some(d2) => {
                        let mut p_fp = 0.0f64;
                        let mut miss_all = 1.0f64;
                        for &(x, present) in &[(pa, has_pa), (pb, has_pb)] {
                            if !present {
                                continue;
                            }
                            let block_lo = x << s1;
                            let block_hi = if s1 == 0 {
                                x
                            } else {
                                block_lo + ((1u64 << s1) - 1)
                            };
                            let lo2 = shr(a.max(block_lo), s2);
                            let hi2 = shr(b.min(block_hi), s2);
                            if any_in(d2, lo2, hi2) {
                                p_fp = 1.0;
                            } else {
                                let t = (hi2 - lo2 + 1) as f64;
                                miss_all *= (1.0 - bloom_fpr).powf(t);
                            }
                            if pa == pb {
                                break; // single boundary block: count it once
                            }
                        }
                        p_fp.max(1.0 - miss_all)
                    }
                }
            }
        } else {
            // Bloom only.
            match d2 {
                None => 1.0,
                Some(d2) => {
                    let (lo2, hi2) = (shr(a, s2), shr(b, s2));
                    if hi2 - lo2 >= MAX_PROBES || any_in(d2, lo2, hi2) {
                        1.0
                    } else {
                        1.0 - (1.0 - bloom_fpr).powf((hi2 - lo2 + 1) as f64)
                    }
                }
            }
        };
        total += contribution;
    }
    total / sample.len() as f64
}

/// Per-filter tuning for [`Proteus`]: none. The CPFPR tuner already derives
/// everything from the shared config's keys, budget, sample, and seed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProteusTuning;

impl BuildableFilter for Proteus {
    type Tuning = ProteusTuning;

    /// Builds with the CPFPR-style tuner, which optimises for
    /// [`FilterConfig::sample`] (empty ranges) — the auto-tuning advantage
    /// (and overfitting risk) the Grafite paper discusses.
    fn build_with(cfg: &FilterConfig<'_>, _tuning: &ProteusTuning) -> Result<Self, FilterError> {
        let (keys, bits_per_key, sample, seed) = (cfg.keys, cfg.bits_per_key, cfg.sample, cfg.seed);
        if !(bits_per_key > 0.0 && bits_per_key.is_finite()) {
            return Err(FilterError::InvalidBudget(bits_per_key));
        }
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let n = sorted.len();
        if n == 0 {
            return Ok(Self {
                l1_bytes: 0,
                l2: 0,
                fst: None,
                pbf: None,
                n_keys: 0,
            });
        }
        let budget = bits_per_key * n as f64;
        let sample: Vec<(u64, u64)> = sample.iter().copied().take(MAX_SAMPLE).collect();

        // Distinct prefixes for every candidate l2 (shared across l1).
        let distinct_prefixes = |bits: u32| -> Vec<u64> {
            let mut v: Vec<u64> = sorted.iter().map(|&k| shr(k, 64 - bits)).collect();
            v.dedup();
            v
        };
        let l2_candidates: Vec<u32> = (1..=16).map(|i| i * 4).collect();
        let d2_tables: Vec<Vec<u64>> = l2_candidates
            .iter()
            .map(|&l2| distinct_prefixes(l2))
            .collect();

        // Trie cost per l1 depth: branches = sum of distinct d-byte prefixes.
        let mut trie_cost = [0.0f64; 9];
        for l1 in 1..=8u32 {
            let mut branches = 0usize;
            for d in 1..=l1 {
                branches += distinct_prefixes(8 * d).len();
            }
            trie_cost[l1 as usize] = 12.0 * branches as f64; // 10 bits + directories
        }

        // Fallback (worse than any modelled candidate): a 64-bit prefix
        // Bloom filter over whatever budget exists — always constructible.
        let mut best: Option<(f64, u32, u32)> = Some((2.0, 0, 64)); // (fpr, l1_bytes, l2)
        for l1 in 0..=8u32 {
            if l1 > 0 && trie_cost[l1 as usize] > budget {
                continue;
            }
            let d1 = if l1 > 0 {
                distinct_prefixes(8 * l1)
            } else {
                Vec::new()
            };
            let pbf_budget = budget - trie_cost[l1 as usize];
            // l2 = 0 (trie only) is a candidate whenever the trie exists.
            let mut candidates: Vec<u32> = vec![];
            if l1 > 0 {
                candidates.push(0);
            }
            for &l2 in &l2_candidates {
                if l2 > 8 * l1 && pbf_budget >= 64.0 {
                    candidates.push(l2);
                }
            }
            for l2 in candidates {
                let est = estimate_fpr(&sorted, &d1, l1, l2, pbf_budget, &d2_tables, &sample);
                let better = match best {
                    None => true,
                    Some((f, _, _)) => est < f - 1e-12,
                };
                if better {
                    best = Some((est, l1, l2));
                }
            }
        }
        let (_, l1_bytes, l2) = best.expect("the fallback configuration always exists");

        // Final build.
        let fst = if l1_bytes > 0 {
            let prefixes = distinct_prefixes(8 * l1_bytes);
            let byte_prefixes: Vec<Vec<u8>> = prefixes
                .iter()
                .map(|&p| {
                    let full = p << (64 - 8 * l1_bytes);
                    full.to_be_bytes()[..l1_bytes as usize].to_vec()
                })
                .collect();
            let refs: Vec<&[u8]> = byte_prefixes.iter().map(|p| p.as_slice()).collect();
            Some(builder::build(&refs).fst)
        } else {
            None
        };
        let pbf = if l2 > 0 {
            let m = ((budget - trie_cost[l1_bytes as usize]).max(64.0)) as usize;
            let n2 = d2_tables[(l2 / 4 - 1) as usize].len();
            let k = BloomFilter::optimal_k(m, n2);
            // A finite but huge budget asks for more bits than exist.
            let mut pbf = PrefixBloomFilter::new(l2, m, k, seed)
                .ok_or(FilterError::InvalidBudget(bits_per_key))?
                .with_max_probes(MAX_PROBES);
            for &key in &sorted {
                pbf.insert(key);
            }
            Some(pbf)
        } else {
            None
        };
        Ok(Self {
            l1_bytes,
            l2,
            fst,
            pbf,
            n_keys: keys.len(),
        })
    }
}

impl RangeFilter for Proteus {
    fn may_contain_range(&self, a: u64, b: u64) -> bool {
        debug_assert!(a <= b, "inverted range [{a}, {b}]");
        if self.n_keys == 0 {
            return false;
        }
        if self.l1_bytes == 0 {
            return match &self.pbf {
                Some(_) => self.probe_pbf(a, b),
                None => true,
            };
        }
        let s1 = 64 - 8 * self.l1_bytes;
        let (pa, pb) = (shr(a, s1), shr(b, s1));
        let (inner, has_pa, has_pb) = self.trie_scan(pa, pb);
        if inner {
            return true;
        }
        if !has_pa && !has_pb {
            return false;
        }
        if self.l1_bytes == 8 {
            // Exact trie: a boundary hit is a real key in the range.
            return true;
        }
        if self.pbf.is_none() {
            return true;
        }
        // Escalate the present boundary blocks to the prefix Bloom filter.
        for &(x, present) in &[(pa, has_pa), (pb, has_pb)] {
            if !present {
                continue;
            }
            let block_lo = x << s1;
            let block_hi = block_lo + ((1u64 << s1) - 1);
            if self.probe_pbf(a.max(block_lo), b.min(block_hi)) {
                return true;
            }
            if pa == pb {
                break;
            }
        }
        false
    }

    fn size_in_bits(&self) -> usize {
        self.fst.as_ref().map_or(0, |f| f.size_in_bits())
            + self.pbf.as_ref().map_or(0, |p| p.size_in_bits())
            + 2 * 64
    }

    fn num_keys(&self) -> usize {
        self.n_keys
    }

    fn name(&self) -> &'static str {
        "Proteus"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proteus(keys: &[u64], bits_per_key: f64, sample: &[(u64, u64)], seed: u64) -> Proteus {
        let cfg = FilterConfig::new(keys)
            .bits_per_key(bits_per_key)
            .sample(sample)
            .seed(seed);
        Proteus::build(&cfg).unwrap()
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

    fn uncorrelated_sample(sorted: &[u64], count: usize, l: u64, seed: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut state = seed;
        while out.len() < count {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = state;
            let b = match a.checked_add(l - 1) {
                Some(b) => b,
                None => continue,
            };
            let i = sorted.partition_point(|&k| k < a);
            if i < sorted.len() && sorted[i] <= b {
                continue;
            }
            out.push((a, b));
        }
        out
    }

    #[test]
    fn no_false_negatives() {
        let keys = pseudo_keys(1500, 1);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let sample = uncorrelated_sample(&sorted, 200, 32, 7);
        let f = proteus(&keys, 16.0, &sample, 3);
        for (i, &k) in keys.iter().enumerate().step_by(3) {
            assert!(
                f.may_contain(k),
                "point FN at {i} (l1={}, l2={})",
                f.l1(),
                f.l2()
            );
            assert!(
                f.may_contain_range(k.saturating_sub(i as u64 % 50), k.saturating_add(31)),
                "range FN at {i}"
            );
        }
    }

    #[test]
    fn filters_the_tuned_workload() {
        let keys = pseudo_keys(3000, 5);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let sample = uncorrelated_sample(&sorted, 400, 32, 11);
        let f = proteus(&keys, 18.0, &sample, 1);
        let probes = uncorrelated_sample(&sorted, 2000, 32, 999);
        let fps = probes
            .iter()
            .filter(|&&(a, b)| f.may_contain_range(a, b))
            .count();
        let fpr = fps as f64 / probes.len() as f64;
        assert!(
            fpr < 0.15,
            "Proteus FPR {fpr} on its tuned workload (l1={}, l2={})",
            f.l1(),
            f.l2()
        );
    }

    #[test]
    fn tuner_picks_deeper_config_with_more_space() {
        let keys = pseudo_keys(1000, 9);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let sample = uncorrelated_sample(&sorted, 200, 32, 3);
        let small = proteus(&keys, 8.0, &sample, 0);
        let large = proteus(&keys, 26.0, &sample, 0);
        let depth = |p: &Proteus| p.l1() + p.l2();
        assert!(
            depth(&large) >= depth(&small),
            "more budget should not shrink the structure: small=({}, {}), large=({}, {})",
            small.l1(),
            small.l2(),
            large.l1(),
            large.l2()
        );
    }

    #[test]
    fn empty_keys() {
        let f = proteus(&[], 16.0, &[], 0);
        assert!(!f.may_contain_range(0, u64::MAX));
    }

    #[test]
    fn no_sample_still_builds_sound_filter() {
        let keys = pseudo_keys(500, 13);
        let f = proteus(&keys, 14.0, &[], 0);
        for &k in keys.iter().step_by(5) {
            assert!(f.may_contain(k));
        }
    }

    #[test]
    fn wide_ranges_stay_sound() {
        let keys = pseudo_keys(300, 17);
        let sample: Vec<(u64, u64)> = vec![];
        let f = proteus(&keys, 12.0, &sample, 0);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        // A range covering at least one key must be positive.
        let mid = sorted[150];
        assert!(f.may_contain_range(mid.saturating_sub(1 << 30), mid.saturating_add(1 << 30)));
    }
}

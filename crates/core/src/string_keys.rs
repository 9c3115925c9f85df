//! The string-key extension of Grafite sketched in the paper's Section 7:
//! choose `r = 2^k` so the reduction becomes
//! `h(x) = (q(x >> k) + x) & (r − 1)` — pure shifts, masks, and adds — and
//! realise `q` with a practical string hash (xxHash64).
//!
//! Arbitrary key types reach the 64-bit universe through a [`KeyCodec`]: a
//! **monotone** embedding into `u64`. Two codecs ship with the crate —
//! [`IdentityCodec`] for integer keys and [`BytesPrefixCodec`] for byte
//! strings (first eight bytes, big-endian, zero-padded). Monotonicity is
//! what preserves the no-false-negative guarantee: a key inside the query
//! range always lands inside the embedded range. A non-injective codec
//! (e.g. strings sharing an 8-byte prefix) can only *add* false positives;
//! the paper's integer guarantees then apply to the embedded universe.
//!
//! [`StringGrafite`] also implements the workspace-wide [`RangeFilter`] and
//! [`BuildableFilter`] protocols over the embedded `u64` universe, so it
//! plugs into the same harnesses as every integer filter.

use grafite_hash::xxhash::xxh64;
use grafite_succinct::io::{WordReader, WordWriter};
use grafite_succinct::EliasFano;

use crate::error::FilterError;
use crate::persist::{spec_id, Header};
use crate::traits::{BuildableFilter, FilterConfig, PersistentFilter, RangeFilter};

/// A monotone embedding of a key type into the `u64` universe.
///
/// # Contract
///
/// `k1 <= k2` (in the key type's order) must imply
/// `encode(k1) <= encode(k2)`. The embedding need not be injective: keys
/// that collide merely fold together, which is conservative (false
/// positives only, never false negatives).
pub trait KeyCodec {
    /// The key type this codec embeds (unsized types like `[u8]` welcome).
    type Key: ?Sized;

    /// The monotone embedding itself.
    fn encode(key: &Self::Key) -> u64;
}

/// The trivial codec for keys that already are `u64`.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdentityCodec;

impl KeyCodec for IdentityCodec {
    type Key = u64;

    #[inline]
    fn encode(key: &u64) -> u64 {
        *key
    }
}

/// Byte strings through their first eight bytes, big-endian, zero-padded.
///
/// Monotone with respect to lexicographic order; strings sharing an 8-byte
/// prefix become indistinguishable (conservative folding), so keys should
/// carry their entropy early.
#[derive(Clone, Copy, Debug, Default)]
pub struct BytesPrefixCodec;

impl KeyCodec for BytesPrefixCodec {
    type Key = [u8];

    #[inline]
    fn encode(key: &[u8]) -> u64 {
        let mut buf = [0u8; 8];
        let take = key.len().min(8);
        buf[..take].copy_from_slice(&key[..take]);
        u64::from_be_bytes(buf)
    }
}

/// A Grafite range filter over byte-string keys (or, through
/// [`StringGrafite::with_codec`], any [`KeyCodec`]-embeddable key type).
#[derive(Clone, Debug)]
pub struct StringGrafite {
    k: u32,
    seed: u64,
    codes: EliasFano,
    n_keys: usize,
}

impl StringGrafite {
    /// Builds over byte-string keys with a space budget in bits per key,
    /// embedding through [`BytesPrefixCodec`].
    ///
    /// `r` is rounded to the power of two `2^k` with
    /// `k = ⌈log2(n)⌉ + ⌈bits − 2⌉`, honouring the Corollary 3.5 sizing.
    pub fn new<K: AsRef<[u8]>>(
        keys: &[K],
        bits_per_key: f64,
        seed: u64,
    ) -> Result<Self, FilterError> {
        Self::from_embedded(
            keys.len(),
            keys.iter()
                .map(|key| BytesPrefixCodec::encode(key.as_ref())),
            bits_per_key,
            seed,
        )
    }

    /// Builds through an explicit [`KeyCodec`]. `IdentityCodec` makes this
    /// a plain power-of-two-universe Grafite over `u64` keys.
    pub fn with_codec<C, K>(keys: &[K], bits_per_key: f64, seed: u64) -> Result<Self, FilterError>
    where
        C: KeyCodec,
        K: std::borrow::Borrow<C::Key>,
    {
        Self::from_embedded(
            keys.len(),
            keys.iter().map(|key| C::encode(key.borrow())),
            bits_per_key,
            seed,
        )
    }

    /// Shared construction over already-embedded keys.
    fn from_embedded<I: Iterator<Item = u64>>(
        n: usize,
        embedded: I,
        bits_per_key: f64,
        seed: u64,
    ) -> Result<Self, FilterError> {
        if !(bits_per_key > 2.0 && bits_per_key.is_finite()) {
            return Err(FilterError::InvalidBudget(bits_per_key));
        }
        if n == 0 {
            return Ok(Self {
                k: 1,
                seed,
                codes: EliasFano::new(&[], 2),
                n_keys: 0,
            });
        }
        let k = ((n.max(2) as f64).log2().ceil() + (bits_per_key - 2.0).ceil()) as u32;
        if k >= 61 {
            return Err(FilterError::ReducedUniverseTooLarge {
                requested: 1u128 << k,
                supported: 1u64 << 60,
            });
        }
        let mut filter = Self {
            k,
            seed,
            codes: EliasFano::new(&[], 2),
            n_keys: n,
        };
        let mut codes: Vec<u64> = embedded.map(|x| filter.h(x)).collect();
        codes.sort_unstable();
        codes.dedup();
        filter.codes = EliasFano::new(&codes, 1u64 << k);
        Ok(filter)
    }

    /// The order-preserving 8-byte-prefix embedding of a byte string into
    /// the `u64` universe (the [`BytesPrefixCodec`]).
    pub fn key_to_u64(key: &[u8]) -> u64 {
        BytesPrefixCodec::encode(key)
    }

    #[inline]
    fn r(&self) -> u64 {
        1u64 << self.k
    }

    /// `q` realised with xxHash64 over the block index, as §7 suggests.
    #[inline]
    fn q(&self, block: u64) -> u64 {
        xxh64(&block.to_le_bytes(), self.seed) & (self.r() - 1)
    }

    /// `h(x) = (q(x >> k) + x) & (r − 1)`.
    #[inline]
    fn h(&self, x: u64) -> u64 {
        self.q(x >> self.k).wrapping_add(x) & (self.r() - 1)
    }

    fn query_within_block(&self, a: u64, b: u64) -> bool {
        let (ha, hb) = (self.h(a), self.h(b));
        if ha <= hb {
            match self.codes.predecessor(hb) {
                Some(z) => z >= ha,
                None => false,
            }
        } else {
            self.codes.first() <= hb || self.codes.last() >= ha
        }
    }

    /// Range emptiness over the embedded `u64` universe.
    fn query_embedded(&self, ia: u64, ib: u64) -> bool {
        debug_assert!(ia <= ib, "inverted range [{ia}, {ib}]");
        if self.n_keys == 0 {
            return false;
        }
        let (block_a, block_b) = (ia >> self.k, ib >> self.k);
        if block_a == block_b {
            self.query_within_block(ia, ib)
        } else if block_b == block_a + 1 {
            let b_first = ib & !(self.r() - 1);
            self.query_within_block(b_first, ib) || self.query_within_block(ia, b_first - 1)
        } else {
            true
        }
    }

    /// Whether the lexicographic closed range `[a, b]` may contain a key.
    ///
    /// Requires `a <= b` lexicographically (debug-asserted, consistent with
    /// the [`RangeFilter`] contract).
    pub fn may_contain_range(&self, a: &[u8], b: &[u8]) -> bool {
        debug_assert!(a <= b, "inverted string range");
        self.query_embedded(BytesPrefixCodec::encode(a), BytesPrefixCodec::encode(b))
    }

    /// Point-membership test.
    pub fn may_contain(&self, key: &[u8]) -> bool {
        self.may_contain_range(key, key)
    }

    /// Number of keys indexed.
    pub fn num_keys(&self) -> usize {
        self.n_keys
    }

    /// Heap size in bits.
    pub fn size_in_bits(&self) -> usize {
        self.codes.size_in_bits() + 3 * 64
    }
}

/// The integer view over the embedded universe, so `StringGrafite` plugs
/// into every harness that speaks [`RangeFilter`]. Probes are interpreted
/// as already-embedded keys (what a [`KeyCodec`] produces); the inherent
/// byte-slice methods shadow these for method-call syntax, so reach the
/// trait view through `RangeFilter::may_contain_range(&f, a, b)` or a
/// `&dyn RangeFilter`.
impl RangeFilter for StringGrafite {
    fn may_contain_range(&self, a: u64, b: u64) -> bool {
        debug_assert!(a <= b, "inverted range [{a}, {b}]");
        self.query_embedded(a, b)
    }

    fn size_in_bits(&self) -> usize {
        StringGrafite::size_in_bits(self)
    }

    fn num_keys(&self) -> usize {
        StringGrafite::num_keys(self)
    }

    fn name(&self) -> &'static str {
        "Grafite-String"
    }
}

impl PersistentFilter for StringGrafite {
    fn spec_id(&self) -> u32 {
        spec_id::STRING_GRAFITE
    }

    fn spec_ids() -> &'static [u32] {
        &[spec_id::STRING_GRAFITE]
    }

    /// Payload: `[seed]` + the Elias–Fano code sequence, whose universe is
    /// `2^k`.
    fn write_payload(&self, w: &mut WordWriter<'_>) -> std::io::Result<()> {
        w.word(self.seed)?;
        self.codes.write_to(w)?;
        Ok(())
    }

    fn read_payload(src: &mut WordReader<'_>, header: &Header) -> Result<Self, FilterError> {
        let seed = src.word()?;
        let codes = EliasFano::read_from(src)?;
        let k = codes.universe().trailing_zeros();
        if !codes.universe().is_power_of_two() || k == 0 || k >= 61 {
            return Err(FilterError::corrupt("string-Grafite exponent out of range"));
        }
        Ok(Self {
            k,
            seed,
            codes,
            n_keys: header.n_keys as usize,
        })
    }
}

impl BuildableFilter for StringGrafite {
    /// No extra knobs: the protocol path embeds `u64` keys through
    /// [`IdentityCodec`], sized by [`FilterConfig::bits_per_key`] and
    /// seeded by [`FilterConfig::seed`]. Byte-string keys have no
    /// [`FilterConfig`] form; they build through [`StringGrafite::new`] or
    /// [`StringGrafite::with_codec`].
    type Tuning = ();

    fn build_with(cfg: &FilterConfig<'_>, _tuning: &()) -> Result<Self, FilterError> {
        Self::with_codec::<IdentityCodec, u64>(cfg.keys, cfg.bits_per_key, cfg.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WORDS: &[&str] = &[
        "apple",
        "apricot",
        "banana",
        "blueberry",
        "cherry",
        "durian",
        "elderberry",
        "fig",
        "grape",
        "grapefruit",
        "kiwi",
        "lemon",
        "lime",
        "mango",
        "melon",
        "nectarine",
        "orange",
        "papaya",
        "peach",
        "pear",
        "plum",
        "raspberry",
        "strawberry",
        "tangerine",
        "watermelon",
    ];

    #[test]
    fn embedding_is_monotone() {
        let mut mapped: Vec<u64> = WORDS
            .iter()
            .map(|w| StringGrafite::key_to_u64(w.as_bytes()))
            .collect();
        let mut sorted = mapped.clone();
        sorted.sort_unstable();
        mapped.dedup();
        assert_eq!(mapped, sorted, "8-byte-prefix embedding must be monotone");
    }

    #[test]
    fn no_false_negatives_on_words() {
        let f = StringGrafite::new(WORDS, 14.0, 7).unwrap();
        for w in WORDS {
            assert!(f.may_contain(w.as_bytes()), "FN on {w}");
        }
        // Ranges bounded by existing words are never negative.
        assert!(f.may_contain_range(b"apple", b"banana"));
        assert!(f.may_contain_range(b"peach", b"plum"));
        assert!(f.may_contain_range(b"a", b"z"));
    }

    #[test]
    fn empty_filter() {
        let f = StringGrafite::new::<&str>(&[], 14.0, 0).unwrap();
        assert!(!f.may_contain(b"anything"));
    }

    #[test]
    fn far_ranges_mostly_filtered() {
        let f = StringGrafite::new(WORDS, 20.0, 1).unwrap();
        // Count positives over disjoint probes far from the keys (digits sort
        // before letters, so these ranges are key-free).
        let mut positives = 0;
        for i in 0..2000u32 {
            let a = format!("0query{i:05}");
            let b = format!("0query{i:05}~");
            if f.may_contain_range(a.as_bytes(), b.as_bytes()) {
                positives += 1;
            }
        }
        assert!(
            positives < 100,
            "string filter not filtering: {positives}/2000"
        );
    }

    #[test]
    fn budget_validation() {
        assert!(StringGrafite::new(WORDS, 1.0, 0).is_err());
    }

    #[test]
    fn long_shared_prefixes_fold_together() {
        // Strings sharing the first 8 bytes are indistinguishable: positives,
        // never negatives.
        let keys = ["prefix00suffix-a", "prefix00suffix-b"];
        let f = StringGrafite::new(&keys, 16.0, 0).unwrap();
        assert!(f.may_contain(b"prefix00-anything"));
    }

    #[test]
    fn identity_codec_agrees_with_byte_codec() {
        // The same logical keys through both codecs give the same filter.
        let words: Vec<&str> = WORDS.to_vec();
        let embedded: Vec<u64> = words
            .iter()
            .map(|w| BytesPrefixCodec::encode(w.as_bytes()))
            .collect();
        let via_bytes = StringGrafite::new(&words, 14.0, 3).unwrap();
        let via_ints =
            StringGrafite::build(&FilterConfig::new(&embedded).bits_per_key(14.0).seed(3)).unwrap();
        for w in &words {
            let x = BytesPrefixCodec::encode(w.as_bytes());
            assert_eq!(
                via_bytes.may_contain(w.as_bytes()),
                RangeFilter::may_contain(&via_ints, x),
                "codec mismatch on {w}"
            );
        }
        let mut probe = 0xD00Du64;
        for _ in 0..2000 {
            probe = probe.wrapping_mul(6364136223846793005).wrapping_add(1);
            let (a, b) = (probe, probe.saturating_add(1 << 20));
            assert_eq!(
                RangeFilter::may_contain_range(&via_bytes, a, b),
                RangeFilter::may_contain_range(&via_ints, a, b),
            );
        }
    }

    #[test]
    fn batch_matches_scalar_path() {
        let keys: Vec<u64> = (0..4000u64)
            .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15))
            .collect();
        let f = StringGrafite::build(&FilterConfig::new(&keys).bits_per_key(12.0).seed(9)).unwrap();
        let r = 1u64 << f.k;
        let mut state = 0x57A7Eu64;
        let queries: Vec<(u64, u64)> = (0..1500)
            .map(|i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                match i % 4 {
                    0 => {
                        let k = keys[(state % keys.len() as u64) as usize];
                        (k.saturating_sub(state % 64), k.saturating_add(5))
                    }
                    1 => (state, state.saturating_add(31)),
                    2 => {
                        // Crosses exactly one r-block boundary.
                        let block = (state % (u64::MAX / r)).max(1);
                        (block * r - 2, block * r + 2)
                    }
                    _ => (state % r, state % r + 3 * r),
                }
            })
            .collect();
        let mut batched = Vec::new();
        RangeFilter::may_contain_ranges(&f, &queries, &mut batched);
        let singles: Vec<bool> = queries
            .iter()
            .map(|&(a, b)| RangeFilter::may_contain_range(&f, a, b))
            .collect();
        assert_eq!(batched, singles, "string batch diverged from scalar path");
    }

    #[test]
    fn buildable_protocol_and_trait_view() {
        let keys: Vec<u64> = (0..3000u64)
            .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15))
            .collect();
        let cfg = FilterConfig::new(&keys).bits_per_key(14.0).seed(5);
        let f = StringGrafite::build(&cfg).unwrap();
        let dyn_f: &dyn RangeFilter = &f;
        assert_eq!(dyn_f.num_keys(), keys.len());
        assert_eq!(dyn_f.name(), "Grafite-String");
        assert!(dyn_f.bits_per_key() > 2.0);
        for &k in keys.iter().step_by(13) {
            assert!(dyn_f.may_contain(k), "FN on {k}");
        }
        // Batch answers equal singles through the default trait path.
        let queries: Vec<(u64, u64)> = keys
            .iter()
            .step_by(7)
            .map(|&k| (k.saturating_sub(10), k.saturating_add(10)))
            .collect();
        let mut out = Vec::new();
        dyn_f.may_contain_ranges(&queries, &mut out);
        assert!(out.iter().all(|&x| x), "batch lost a key-bounded range");
    }
}

//! The common interface every range filter in this workspace implements:
//! the query-side [`RangeFilter`] contract, the construction-side
//! [`BuildableFilter`] protocol over a shared [`FilterConfig`], and the
//! storage-side [`PersistentFilter`] protocol over the versioned flat-byte
//! format of [`crate::persist`].

use std::io;

use grafite_succinct::io::{CountingSink, WordReader, WordWriter};

use crate::error::FilterError;
use crate::parallel::Parallelism;
use crate::persist::{blob_checksum, words_of_bytes, Header, FORMAT_VERSION, HEADER_BYTES};

/// The seed [`FilterConfig::new`] and `grafite_store::StoreConfig::new`
/// default to ("grafite" in ASCII), so that a bare configuration is fully
/// deterministic.
pub const DEFAULT_SEED: u64 = 0x0067_7261_6669_7465;

/// An approximate range-emptiness data structure (paper Problem 1).
///
/// Implementations must guarantee **no false negatives**: if any stored key
/// lies in `[a, b]`, `may_contain_range(a, b)` returns `true`. They may
/// return `true` for empty ranges (a false positive); how often is the whole
/// game, and is what the paper's experiments measure.
///
/// # Inverted ranges
///
/// Every query method requires `a <= b`. This is a caller contract, not an
/// error condition: all implementations in this workspace `debug_assert!`
/// it, so violations panic in debug builds and return an unspecified (but
/// still memory-safe) answer in release builds. Queries never fail and
/// never allocate; all validation happens at construction time.
pub trait RangeFilter {
    /// Whether the closed range `[a, b]` *may* intersect the key set.
    ///
    /// Requires `a <= b` (debug-asserted; see the trait-level contract).
    #[must_use = "a range filter's answer is its only effect; dropping it means the query was wasted"]
    fn may_contain_range(&self, a: u64, b: u64) -> bool;

    /// Whether the point `x` may be in the key set.
    #[inline]
    #[must_use = "a range filter's answer is its only effect; dropping it means the query was wasted"]
    fn may_contain(&self, x: u64) -> bool {
        self.may_contain_range(x, x)
    }

    /// Answers a batch of closed ranges, one `bool` per query, into `out`
    /// (which is cleared first). Every query requires `lo <= hi`, as in
    /// [`RangeFilter::may_contain_range`].
    ///
    /// The default implementation is a plain loop over
    /// `may_contain_range`, and every filter in this workspace uses it. An
    /// override must return **exactly** the answers the one-at-a-time path
    /// returns, in query order.
    fn may_contain_ranges(&self, queries: &[(u64, u64)], out: &mut Vec<bool>) {
        out.clear();
        out.reserve(queries.len());
        for &(a, b) in queries {
            out.push(self.may_contain_range(a, b));
        }
    }

    /// Total heap size of the filter in bits, directories included.
    fn size_in_bits(&self) -> usize;

    /// Number of keys the filter was built on.
    fn num_keys(&self) -> usize;

    /// Space per key in bits — the x-axis of the paper's Figures 4–6.
    #[inline]
    #[must_use]
    fn bits_per_key(&self) -> f64 {
        if self.num_keys() == 0 {
            0.0
        } else {
            self.size_in_bits() as f64 / self.num_keys() as f64
        }
    }

    /// Short display name used by the experiment harness.
    fn name(&self) -> &'static str;
}

/// Everything a filter build may need, shared by all eleven filters of the
/// paper's evaluation (§6.1): the key set, a space budget, the workload's
/// max range size, a query sample for the auto-tuned filters, and a seed.
///
/// The struct is `#[non_exhaustive]`: construct it with
/// [`FilterConfig::new`] and the chainable setters, which keeps downstream
/// code compiling when a future field is added. Fields stay `pub` for
/// reading.
///
/// ```
/// use grafite_core::{BuildableFilter, FilterConfig, GrafiteFilter, RangeFilter};
///
/// let keys: Vec<u64> = (0..1000u64).map(|i| i * 97).collect();
/// let cfg = FilterConfig::new(&keys).bits_per_key(12.0).max_range(32);
/// let filter = GrafiteFilter::build(&cfg).unwrap();
/// assert!(filter.may_contain(97));
/// ```
#[derive(Clone, Copy, Debug)]
#[non_exhaustive]
pub struct FilterConfig<'a> {
    /// The key set (sorted is fine, not required; duplicates allowed).
    pub keys: &'a [u64],
    /// Space budget in bits per key. Default: 16.
    pub bits_per_key: f64,
    /// The workload's max range size (the paper's `L`). Default: 2^10.
    pub max_range: u64,
    /// Query sample (empty ranges) for the auto-tuned filters (Proteus,
    /// Rosetta, REncoder-SE, workload-aware Bucketing). Default: empty.
    pub sample: &'a [(u64, u64)],
    /// Seed for any randomised component. Default: [`DEFAULT_SEED`].
    pub seed: u64,
    /// Construction thread budget. Purely a wall-clock knob: every build
    /// is bit-identical at any thread count. Default:
    /// [`Parallelism::auto`] (`GRAFITE_THREADS`, else the machine's
    /// available parallelism).
    pub parallelism: Parallelism,
}

impl<'a> FilterConfig<'a> {
    /// Starts a configuration over `keys` with the documented defaults.
    pub fn new(keys: &'a [u64]) -> Self {
        Self {
            keys,
            bits_per_key: 16.0,
            max_range: 1 << 10,
            sample: &[],
            seed: DEFAULT_SEED,
            parallelism: Parallelism::auto(),
        }
    }

    /// Sets the space budget in bits per key.
    #[must_use = "the setters move `self`; dropping the result discards the whole configuration"]
    pub fn bits_per_key(mut self, bits: f64) -> Self {
        self.bits_per_key = bits;
        self
    }

    /// Sets the workload's max range size `L`.
    #[must_use = "the setters move `self`; dropping the result discards the whole configuration"]
    pub fn max_range(mut self, l: u64) -> Self {
        self.max_range = l;
        self
    }

    /// Sets the query sample the auto-tuned filters optimise for.
    #[must_use = "the setters move `self`; dropping the result discards the whole configuration"]
    pub fn sample(mut self, sample: &'a [(u64, u64)]) -> Self {
        self.sample = sample;
        self
    }

    /// Pins the seed for randomised components.
    #[must_use = "the setters move `self`; dropping the result discards the whole configuration"]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the construction thread budget (wall-clock only: builds are
    /// bit-identical at any thread count).
    #[must_use = "the setters move `self`; dropping the result discards the whole configuration"]
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }
}

/// The uniform storage protocol: every filter serializes to — and loads
/// from — the self-describing flat-byte format of [`crate::persist`], so
/// filters can be built offline, shipped to serving shards as immutable
/// blobs, and loaded without rebuilding them from their keys.
///
/// Implementors provide only the payload codec ([`write_payload`] /
/// [`read_payload`]) and their [spec ids](crate::persist::spec_id); the
/// header framing, checksumming, and validation are provided methods. The
/// trait is object-safe on its write side: a `Box<dyn PersistentFilter>`
/// (what the [`Registry`](crate::registry::Registry) builds and loads) can
/// be serialized and measured without knowing the concrete family.
///
/// `serialized_bits() / num_keys()` is the **measured** bits-per-key of the
/// filter — the honest space figure the paper's plots use, as opposed to
/// the in-memory estimate of [`RangeFilter::size_in_bits`].
///
/// `Send + Sync` are supertraits: a persistent filter is precisely the
/// thing a serving process shares across unboundedly many reader threads
/// (e.g. inside a `FilterStore` snapshot), so `Box<dyn PersistentFilter>`
/// must cross and be shared between threads. Every filter here is a plain
/// immutable word-array structure, so the bounds cost nothing.
///
/// [`write_payload`]: PersistentFilter::write_payload
/// [`read_payload`]: PersistentFilter::read_payload
pub trait PersistentFilter: RangeFilter + Send + Sync {
    /// The spec id written into this instance's header (most families have
    /// exactly one; SuRF and REncoder pick per the stored variant).
    fn spec_id(&self) -> u32;

    /// Every spec id blobs of this type may carry — what a typed
    /// [`deserialize`](PersistentFilter::deserialize) accepts.
    fn spec_ids() -> &'static [u32]
    where
        Self: Sized;

    /// Writes the filter's payload (everything after the header) as a flat
    /// word stream.
    fn write_payload(&self, w: &mut WordWriter<'_>) -> io::Result<()>;

    /// Reads a payload back. `header` supplies the key count and the spec
    /// id (already validated against
    /// [`spec_ids`](PersistentFilter::spec_ids)). Derives what follows
    /// from the stored bits (directories, counts) and never rebuilds the
    /// filter from keys.
    fn read_payload(src: &mut WordReader<'_>, header: &Header) -> Result<Self, FilterError>
    where
        Self: Sized;

    /// This filter updated in place of a rebuild: the filter over the key
    /// set `cfg.keys`, derived from this one by taking out the keys of
    /// `removed` and putting in those of `added`. `removed` must hold keys
    /// this filter was built on, `added` keys it was not, both sorted, and
    /// `cfg.keys` is the key set after the update. `None` when the family
    /// cannot update this way or the result would break the sizing a
    /// build under `cfg` keeps; the caller then rebuilds from `cfg`. The
    /// default is `None`; Grafite merges its code sequence
    /// (see [`GrafiteFilter`](crate::GrafiteFilter)'s implementation).
    fn merged(
        &self,
        _cfg: &FilterConfig<'_>,
        _removed: &[u64],
        _added: &[u64],
    ) -> Option<Box<dyn PersistentFilter>> {
        None
    }

    /// Serializes header + payload into `out`, returning the bytes written.
    fn serialize_into(&self, out: &mut dyn io::Write) -> Result<usize, FilterError> {
        let mut payload = Vec::new();
        {
            let mut w = WordWriter::new(&mut payload);
            self.write_payload(&mut w)?;
        }
        debug_assert_eq!(payload.len() % 8, 0);
        let mut header = Header {
            version: FORMAT_VERSION,
            spec_id: self.spec_id(),
            n_keys: self.num_keys() as u64,
            payload_words: (payload.len() / 8) as u64,
            checksum: 0,
        };
        header.checksum = blob_checksum(
            header.spec_version_word(),
            header.n_keys,
            header.payload_words,
            words_of_bytes(&payload),
        );
        header.write(out)?;
        out.write_all(&payload)?;
        Ok(HEADER_BYTES + payload.len())
    }

    /// Serializes into a fresh byte vector.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.serialize_into(&mut out)
            .expect("writing to a Vec cannot fail");
        out
    }

    /// The filter's true serialized footprint in bits — measured, not
    /// estimated. `serialized_bits() / num_keys()` is the space metric the
    /// bench harness reports. Streams the payload straight into a counting
    /// sink (no buffering, no checksum) — cheap enough for per-measurement
    /// calls.
    fn serialized_bits(&self) -> usize {
        let mut sink = CountingSink::new();
        {
            let mut w = WordWriter::new(&mut sink);
            self.write_payload(&mut w)
                .expect("counting sink cannot fail");
        }
        (HEADER_BYTES + sink.bytes_written()) * 8
    }

    /// Loads a filter of this exact type from a serialized blob, verifying
    /// magic, version, length, spec id, and checksum first. Never panics on
    /// foreign bytes: malformed input returns the typed [`FilterError`]
    /// variants.
    fn deserialize(bytes: &[u8]) -> Result<Self, FilterError>
    where
        Self: Sized,
    {
        let (header, payload) = Header::parse(bytes)?;
        if !Self::spec_ids().contains(&header.spec_id) {
            return Err(FilterError::SpecMismatch(header.spec_id));
        }
        Self::read_payload(&mut WordReader::new(payload), &header)
    }
}

/// The uniform construction protocol: every filter of the paper's
/// comparison builds from the same [`FilterConfig`], so harnesses, stores,
/// and the [`Registry`](crate::registry::Registry) can treat construction —
/// not just querying — as part of the contract.
///
/// Filter-specific knobs that fall outside the shared config (SuRF's suffix
/// mode, REncoder's variant, Rosetta's sample tuning, …) are expressed as a
/// typed [`BuildableFilter::Tuning`] value with a sensible `Default`, so
/// nothing is stringly-typed and `build` stays one call for the common
/// case.
pub trait BuildableFilter: RangeFilter + Sized {
    /// Typed per-filter tuning knobs beyond the shared [`FilterConfig`].
    /// `Default` must yield the configuration the paper's evaluation uses.
    type Tuning: Default;

    /// Builds with explicit per-filter tuning.
    fn build_with(cfg: &FilterConfig<'_>, tuning: &Self::Tuning) -> Result<Self, FilterError>;

    /// Builds with the default tuning — the paper's configuration.
    fn build(cfg: &FilterConfig<'_>) -> Result<Self, FilterError> {
        Self::build_with(cfg, &Self::Tuning::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_and_setters() {
        let keys = [1u64, 2, 3];
        let sample = [(10u64, 20u64)];
        let cfg = FilterConfig::new(&keys);
        assert_eq!(cfg.bits_per_key, 16.0);
        assert_eq!(cfg.max_range, 1 << 10);
        assert!(cfg.sample.is_empty());
        assert_eq!(cfg.seed, DEFAULT_SEED);

        let cfg = cfg
            .bits_per_key(8.0)
            .max_range(32)
            .sample(&sample)
            .seed(7)
            .parallelism(Parallelism::fixed(3));
        assert_eq!(cfg.bits_per_key, 8.0);
        assert_eq!(cfg.max_range, 32);
        assert_eq!(cfg.sample, &sample);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.keys, &keys);
        assert_eq!(cfg.parallelism.threads(), 3);
    }
}

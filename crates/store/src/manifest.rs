//! The versioned multi-shard manifest a [`FilterStore`](crate::FilterStore)
//! saves to and opens from: routing metadata plus one per-shard filter blob
//! in the [`grafite_core::persist`] flat-byte format, framed and
//! checksummed the same way — so a store built offline revives on another
//! machine with one call.
//!
//! # Manifest layout
//!
//! A manifest is a sequence of little-endian `u64` words: a fixed ten-word
//! header, then a body.
//!
//! | word | contents |
//! |---|---|
//! | 0 | [`STORE_MAGIC`] (`b"GRAFSHRD"` as a little-endian word) |
//! | 1 | low 32 bits: family spec id; high 32 bits: [`STORE_FORMAT_VERSION`] |
//! | 2 | routing kind (0 = range, 1 = hash) |
//! | 3 | shard count `S` |
//! | 4 | total distinct keys |
//! | 5 | `bits_per_key` as `f64::to_bits` |
//! | 6 | `max_range` |
//! | 7 | seed |
//! | 8 | body length in words |
//! | 9 | checksum ([`checksum_words`] over words 1–8 and the body words) |
//!
//! The body is, in order:
//!
//! * the **metadata checksum**: [`checksum_words`] over header words 1–8,
//!   the routing words, the sample words, and every per-shard framing word
//!   (key count, keys checksum, blob length) — exactly the words the scan
//!   reads, so a scan that never touches key or blob bytes still
//!   authenticates everything it routes by;
//! * routing words — range routing: `S` interval-start keys (word 2 names
//!   the kind; hash routing has no body words, its seed is header word 7);
//! * the tuning sample: a pair count followed by `lo, hi` words per pair;
//! * per shard: the key count, the sorted keys, a [`checksum_words`] over
//!   the keys, the shard blob's byte length, and the blob itself
//!   ([`grafite_core::persist`] header included) zero-padded to a word
//!   boundary.
//!
//! Shard keys ride in the manifest because updates rebuild dirty shards
//! from them; each shard blob additionally carries its own header and
//! checksum, so a manifest is two nested layers of the same threat model
//! as [`grafite_core::persist`]: accidental damage surfaces as typed
//! [`FilterError`]s, while deliberate forgery requires provenance checks
//! upstream.
//!
//! # Validation model
//!
//! One reader serves both open paths: a scan over the header, routing
//! table, tuning sample and per-shard framing, and a per-shard loader. They
//! read through a positioned-read source — the manifest bytes in memory
//! for [`FilterStore::open`](crate::FilterStore::open), the file for
//! [`FilterStore::open_mapped`](crate::FilterStore::open_mapped) — and
//! differ only in how they materialize shards.
//!
//! * **Scan** (both paths): magic, version and family fail typed first; a
//!   registry family whose loader the registry lacks is
//!   [`FilterError::Unregistered`]. The body must fit the image, and the
//!   metadata checksum authenticates every word the scan routes by. This
//!   matters for correctness, not just hygiene: routing damage re-routes
//!   keys to healthy shards that never stored them, a false negative no
//!   per-shard check could ever catch, so it must fail *before* the store
//!   opens.
//! * **Shard load** (both paths): the keys are streamed from the image in
//!   64 KiB reads, never held whole, and verified on the way: the keys
//!   checksum against the scan-authenticated one, strict ordering, and
//!   routing membership. The filter blob must name the manifest's family and
//!   carries its own header checksum (verified by its loader), and the
//!   blob's key count must agree with the manifest's. Grafite blobs load
//!   zero-copy as a `MappedGrafiteFilter`, every other family through
//!   [`FamilySpec::load`].
//! * **Eager** ([`FilterStore::open`](crate::FilterStore::open)) also
//!   verifies the whole-body checksum (header word 9, the only check that
//!   covers blob padding) between the header checks and the walk, then
//!   loads every shard and fails typed: the first failure comes back as
//!   [`FilterError::ShardLoad`] naming the shard. Its shards keep all their
//!   keys in memory.
//! * **Lazy** ([`FilterStore::open_mapped`](crate::FilterStore::open_mapped))
//!   stops at the scan. Each shard loads on first touch and **fails open**:
//!   a shard that fails to load serves a pass-all placeholder — the
//!   no-false-negative contract survives, queries degrade to `true` on that
//!   shard — and the failure is recorded in the store's
//!   [`StoreStats`](crate::StoreStats) and the shard's
//!   [`load_error`](crate::Shard::load_error). A loaded lazy shard keeps
//!   only its filter and every [`FENCE_EVERY`]-th key resident; the rest of
//!   its keys stay in the file.
//! * **Keys read after load** (lazy shards only). Queries never read keys.
//!   [`Shard::read_keys`](crate::Shard::read_keys), which `apply` and
//!   `save_to` go through, re-reads all of a shard's keys and re-verifies
//!   them with the load-time checks, so damage to the file after open fails
//!   those calls typed (a [`FilterError::ChecksumMismatch`]) and leaves the
//!   store unchanged. [`Shard::holds_key`](crate::Shard::holds_key), which
//!   the server's sampled false-positive refutation uses, reads one block
//!   of at most 255 keys between two fences and does **not** verify it: a
//!   damaged file can skew that telemetry, never an answer.

use std::borrow::Cow;
use std::io;
use std::ops::Range;

use grafite_core::persist::{checksum_words, spec_id, Checksum, Header};
use grafite_core::registry::Registry;
use grafite_core::{FilterError, MappedGrafiteFilter, RangeFilter};
use grafite_succinct::io::{le_word, MappedSource, WordWriter};

use crate::family::{DynRangeFilter, FamilySpec};
use crate::store::{Partitioning, Routing, Snapshot, StoreConfig};

/// `b"GRAFSHRD"` read as a little-endian word: the first 8 bytes of every
/// store manifest (distinct from the per-filter `GRAFILT\0` magic, so a
/// manifest handed to a filter loader — or vice versa — fails typed).
pub const STORE_MAGIC: u64 = u64::from_le_bytes(*b"GRAFSHRD");

/// The manifest format version this build writes and reads. Bumped on any
/// incompatible change, exactly like
/// [`grafite_core::persist::FORMAT_VERSION`] (the two version independently:
/// a manifest change does not invalidate filter blobs).
pub const STORE_FORMAT_VERSION: u32 = 2;

/// Header length in words.
pub const MANIFEST_HEADER_WORDS: usize = 10;

/// A mapped shard keeps one key in this many resident — keys `0, 256,
/// 512, …` of its sorted keys, its *fences* — so an exact membership check
/// reads at most one block of 255 keys between two fences from the file.
pub const FENCE_EVERY: usize = 256;

/// Keys per positioned read when a shard's keys are streamed: 64 KiB.
const STREAM_WORDS: usize = 8192;

pub(crate) const ROUTING_RANGE: u64 = 0;
pub(crate) const ROUTING_HASH: u64 = 1;

/// Serializes `snapshot` under `config` into `out`. Returns bytes written.
pub fn write(
    config: &StoreConfig,
    snapshot: &Snapshot,
    out: &mut dyn io::Write,
) -> Result<usize, FilterError> {
    // `framing` collects every word the lazy scan reads (routing, sample,
    // per-shard record framing); the metadata checksum over them — plus
    // header words 1–8 — is the scan's integrity anchor.
    let mut rest = Vec::new();
    let mut framing: Vec<u64> = Vec::new();
    {
        let mut w = WordWriter::new(&mut rest);
        match snapshot.routing() {
            Routing::Range { starts } => {
                w.words(starts)?;
                framing.extend_from_slice(starts);
            }
            Routing::Hash { .. } => {}
        }
        w.word(config.sample.len() as u64)?;
        framing.push(config.sample.len() as u64);
        for &(lo, hi) in &config.sample {
            w.word(lo)?;
            w.word(hi)?;
            framing.push(lo);
            framing.push(hi);
        }
        for shard in snapshot.shards() {
            let keys = shard.read_keys()?;
            w.prefixed(&keys)?;
            let keys_checksum = checksum_words(keys.iter().copied());
            w.word(keys_checksum)?;
            let blob = shard.filter().to_bytes();
            w.word(blob.len() as u64)?;
            w.bytes_padded(&blob)?;
            framing.push(keys.len() as u64);
            framing.push(keys_checksum);
            framing.push(blob.len() as u64);
        }
    }
    debug_assert_eq!(rest.len() % 8, 0);
    let (routing_kind, n_shards) = match snapshot.routing() {
        Routing::Range { starts } => (ROUTING_RANGE, starts.len() as u64),
        Routing::Hash { shards, .. } => (ROUTING_HASH, *shards as u64),
    };
    let body_words = ((rest.len() / 8).saturating_add(1)) as u64; // + the metadata checksum word
    let header: [u64; MANIFEST_HEADER_WORDS - 1] = [
        STORE_MAGIC,
        ((STORE_FORMAT_VERSION as u64) << 32) | config.family.spec_id() as u64,
        routing_kind,
        n_shards,
        snapshot.num_keys() as u64,
        config.bits_per_key.to_bits(),
        config.max_range,
        config.seed,
        body_words,
    ];
    let meta_checksum = checksum_words(
        header
            .iter()
            .skip(1)
            .copied()
            .chain(framing.iter().copied()),
    );
    let checksum = checksum_words(
        header
            .iter()
            .skip(1)
            .copied()
            .chain([meta_checksum])
            .chain(rest.chunks_exact(8).map(le_word)),
    );
    for w in header.iter().copied().chain([checksum, meta_checksum]) {
        out.write_all(&w.to_le_bytes())?;
    }
    out.write_all(&rest)?;
    Ok((MANIFEST_HEADER_WORDS.saturating_mul(8))
        .saturating_add(8)
        .saturating_add(rest.len()))
}

/// Header length in bytes: where the body starts.
const HEADER_BYTES: u64 = (MANIFEST_HEADER_WORDS as u64) * 8;

/// A `TruncatedBuffer` for a read ending at byte `needed` of a `have`-byte
/// image.
fn truncated(needed: u64, have: u64) -> FilterError {
    FilterError::TruncatedBuffer {
        needed: usize::try_from(needed).unwrap_or(usize::MAX),
        have: usize::try_from(have).unwrap_or(usize::MAX),
    }
}

/// Positioned reads over a manifest image — an in-memory `&[u8]` for the
/// eager open, a file for the lazy one (`crate::mapped`). [`scan`] and
/// [`Manifest::load_shard`] read through nothing else.
pub(crate) trait ManifestSource {
    /// The image length in bytes.
    fn size(&self) -> u64;

    /// `len` bytes at `pos`, which the caller has checked lie inside
    /// [`ManifestSource::size`].
    fn read_in_bounds(&self, pos: u64, len: usize) -> Result<Cow<'_, [u8]>, FilterError>;

    /// `len` bytes at absolute offset `pos`; a read past the end of the
    /// image is a [`FilterError::TruncatedBuffer`].
    fn bytes_at(&self, pos: u64, len: usize) -> Result<Cow<'_, [u8]>, FilterError> {
        let end = pos.saturating_add(len as u64);
        if end > self.size() {
            return Err(truncated(end, self.size()));
        }
        self.read_in_bounds(pos, len)
    }

    /// `n` little-endian words at absolute offset `pos`.
    fn words_at(&self, pos: u64, n: usize) -> Result<Vec<u64>, FilterError> {
        let len = n
            .checked_mul(8)
            .ok_or(FilterError::corrupt("word read length overflows usize"))?;
        Ok(self
            .bytes_at(pos, len)?
            .chunks_exact(8)
            .map(le_word)
            .collect())
    }

    /// One little-endian word at absolute offset `pos`.
    fn word_at(&self, pos: u64) -> Result<u64, FilterError> {
        Ok(le_word(&self.bytes_at(pos, 8)?))
    }
}

impl ManifestSource for &[u8] {
    fn size(&self) -> u64 {
        self.len() as u64
    }

    fn read_in_bounds(&self, pos: u64, len: usize) -> Result<Cow<'_, [u8]>, FilterError> {
        usize::try_from(pos)
            .ok()
            .and_then(|start| self.get(start..start.checked_add(len)?))
            .map(Cow::Borrowed)
            .ok_or_else(|| truncated(pos.saturating_add(len as u64), self.size()))
    }
}

/// Which body checksum [`scan`] verifies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Verify {
    /// The whole-body checksum (header word 9) and the metadata checksum:
    /// the eager open, which reads every byte anyway. Only this checksum
    /// covers the blob padding bytes.
    WholeBody,
    /// The metadata checksum only: the lazy open, which must not read the
    /// key and blob bytes it defers to [`Manifest::load_shard`].
    Metadata,
}

/// Where one shard's records live inside the manifest, in absolute byte
/// offsets. Recorded by [`scan`], consumed by [`Manifest::load_shard`].
#[derive(Clone, Copy, Debug)]
struct ShardExtent {
    /// Number of keys in the shard, per the manifest.
    n_keys: usize,
    /// Byte offset of the first key word.
    keys_start: u64,
    /// Expected [`checksum_words`] over the shard's keys, per the manifest.
    keys_checksum: u64,
    /// Byte offset of the shard's filter blob.
    blob_start: u64,
    /// Blob length in bytes (unpadded).
    blob_len: usize,
}

/// A scanned manifest: configuration, routing, and the byte extent of every
/// shard's keys and blob, with those bytes still in `source`.
pub(crate) struct Manifest<S> {
    source: S,
    registry: Registry,
    /// The reconstructed store configuration.
    pub(crate) config: StoreConfig,
    /// The routing table.
    pub(crate) routing: Routing,
    extents: Vec<ShardExtent>,
}

impl<S> std::fmt::Debug for Manifest<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Manifest")
            .field("family", &self.config.family)
            .field("num_shards", &self.extents.len())
            .finish_non_exhaustive()
    }
}

/// The one reader of the manifest layout. Validates the header (magic,
/// version, family, the registry's loader for it, shard count, budget,
/// routing kind) and the body extent; under [`Verify::WholeBody`] checks the
/// whole-body checksum; then walks the routing table, the tuning sample and
/// the per-shard framing, recording each shard's extents without reading
/// its keys or blob, and verifies the metadata checksum and the total key
/// count. `O(shards)` small reads, independent of the store's size.
pub(crate) fn scan<S: ManifestSource>(
    registry: &Registry,
    source: S,
    verify: Verify,
) -> Result<Manifest<S>, FilterError> {
    let head = source.words_at(0, MANIFEST_HEADER_WORDS)?;
    let &[magic, spec_version, routing_kind, n_shards_w, total_keys, bits_w, max_range, seed, body_words, checksum] =
        head.as_slice()
    else {
        return Err(FilterError::corrupt("manifest header length"));
    };
    if magic != STORE_MAGIC {
        return Err(FilterError::BadMagic(magic));
    }
    let version = (spec_version >> 32) as u32;
    if version != STORE_FORMAT_VERSION {
        return Err(FilterError::UnsupportedFormatVersion {
            found: version,
            supported: STORE_FORMAT_VERSION,
        });
    }
    let spec_id = spec_version as u32;
    let family = FamilySpec::from_spec_id(spec_id).ok_or(FilterError::UnknownSpecId(spec_id))?;
    if let FamilySpec::Registry(spec) = family {
        if !registry.has_loader(spec) {
            return Err(FilterError::Unregistered(spec.label()));
        }
    }
    let n_shards = usize::try_from(n_shards_w)
        .ok()
        .filter(|&s| s >= 1)
        .ok_or_else(|| FilterError::corrupt("shard count out of range"))?;
    let bits_per_key = f64::from_bits(bits_w);
    if !(bits_per_key.is_finite() && bits_per_key > 0.0) {
        return Err(FilterError::corrupt(
            "store bits-per-key not a positive float",
        ));
    }
    if !matches!(routing_kind, ROUTING_RANGE | ROUTING_HASH) {
        return Err(FilterError::corrupt("unknown routing kind"));
    }
    let body_end = body_words
        .checked_mul(8)
        .and_then(|b| b.checked_add(HEADER_BYTES))
        .unwrap_or(u64::MAX);
    if body_end > source.size() {
        return Err(truncated(body_end, source.size()));
    }
    if verify == Verify::WholeBody {
        let body_len = usize::try_from(body_end.saturating_sub(HEADER_BYTES))
            .map_err(|_| FilterError::corrupt("manifest body length overflows usize"))?;
        let body = source.bytes_at(HEADER_BYTES, body_len)?;
        let actual = checksum_words(
            head.iter()
                .skip(1)
                .take(MANIFEST_HEADER_WORDS - 2)
                .copied()
                .chain(body.chunks_exact(8).map(le_word)),
        );
        if actual != checksum {
            return Err(FilterError::ChecksumMismatch {
                expected: checksum,
                actual,
            });
        }
    }

    // Claims `bytes` from the body at the running position, bounds-checked
    // against the declared body extent; returns the start.
    let mut pos = HEADER_BYTES;
    let mut claim = |bytes: u64| -> Result<u64, FilterError> {
        let start = pos;
        pos = start
            .checked_add(bytes)
            .filter(|&e| e <= body_end)
            .ok_or(FilterError::corrupt("manifest record exceeds body"))?;
        Ok(start)
    };
    let words = |n: usize| -> Result<u64, FilterError> {
        (n as u64)
            .checked_mul(8)
            .ok_or(FilterError::corrupt("manifest record length overflows"))
    };

    // Everything the scan routes by — header fields, routing starts,
    // sample, per-shard framing words — must authenticate against the
    // metadata checksum, or a flipped routing byte could silently send keys
    // to a healthy shard that never stored them (a false negative no
    // per-shard check can catch). `framing` accumulates those words as they
    // are read; the checksum is verified once the walk completes.
    let mut framing: Vec<u64> = head
        .iter()
        .skip(1)
        .take(MANIFEST_HEADER_WORDS - 2)
        .copied()
        .collect();
    let meta_expected = source.word_at(claim(8)?)?;

    let (routing, partitioning) = if routing_kind == ROUTING_RANGE {
        let starts = source.words_at(claim(words(n_shards)?)?, n_shards)?;
        framing.extend_from_slice(&starts);
        if starts.first() != Some(&0) || !starts.windows(2).all(|w| matches!(w, [a, b] if a < b)) {
            return Err(FilterError::corrupt(
                "range routing starts not strictly increasing from 0",
            ));
        }
        (
            Routing::Range { starts },
            Partitioning::Range { shards: n_shards },
        )
    } else {
        let shards = u32::try_from(n_shards)
            .map_err(|_| FilterError::corrupt("hash shard count above u32"))?;
        (
            Routing::Hash { shards, seed },
            Partitioning::Hash { shards: n_shards },
        )
    };

    let sample_len = usize::try_from(source.word_at(claim(8)?)?)
        .map_err(|_| FilterError::corrupt("sample length overflows usize"))?;
    framing.push(sample_len as u64);
    let sample_words = sample_len
        .checked_mul(2)
        .ok_or(FilterError::corrupt("sample length overflows usize"))?;
    let sample_raw = source.words_at(claim(words(sample_words)?)?, sample_words)?;
    framing.extend_from_slice(&sample_raw);
    let sample: Vec<(u64, u64)> = sample_raw
        .chunks_exact(2)
        .filter_map(|pair| match pair {
            [lo, hi] => Some((*lo, *hi)),
            _ => None,
        })
        .collect();

    // `n_shards` is attacker-controlled until the claims below bound it
    // against the body length; clamp the capacity hint so a forged count
    // cannot force a huge up-front allocation.
    let mut extents = Vec::with_capacity(n_shards.min(1 << 20));
    let mut keys_total: u64 = 0;
    for _ in 0..n_shards {
        let n_keys = usize::try_from(source.word_at(claim(8)?)?)
            .map_err(|_| FilterError::corrupt("shard key count overflows usize"))?;
        let keys_start = claim(words(n_keys)?)?;
        let keys_checksum = source.word_at(claim(8)?)?;
        let blob_len = usize::try_from(source.word_at(claim(8)?)?)
            .map_err(|_| FilterError::corrupt("shard blob length overflows usize"))?;
        let blob_start = claim(words(blob_len.div_ceil(8))?)?;
        keys_total = keys_total.saturating_add(n_keys as u64);
        framing.push(n_keys as u64);
        framing.push(keys_checksum);
        framing.push(blob_len as u64);
        extents.push(ShardExtent {
            n_keys,
            keys_start,
            keys_checksum,
            blob_start,
            blob_len,
        });
    }
    let meta_actual = checksum_words(framing.iter().copied());
    if meta_actual != meta_expected {
        return Err(FilterError::ChecksumMismatch {
            expected: meta_expected,
            actual: meta_actual,
        });
    }
    if keys_total != total_keys {
        return Err(FilterError::corrupt(
            "total key count differs from shard sum",
        ));
    }
    let config = StoreConfig::new(family)
        .bits_per_key(bits_per_key)
        .max_range(max_range)
        .seed(seed)
        .sample(sample)
        .partitioning(partitioning);
    Ok(Manifest {
        source,
        registry: registry.clone(),
        config,
        routing,
        extents,
    })
}

impl<S: ManifestSource> Manifest<S> {
    /// Number of shards the manifest records.
    pub(crate) fn num_shards(&self) -> usize {
        self.extents.len()
    }

    /// The recorded key count of one shard (0 for an out-of-range index).
    pub(crate) fn shard_key_count(&self, shard: u32) -> usize {
        self.extents.get(shard as usize).map_or(0, |ext| ext.n_keys)
    }

    /// The one shard loader: streams one shard's keys from its recorded
    /// extent through [`Manifest::read_keys`]' checks, keeping every
    /// `stride`-th key (1 keeps them all, [`FENCE_EVERY`] keeps the fences);
    /// then reads the blob, checks its spec, its own checksummed header and
    /// the blob-vs-manifest key count, and parses the filter — zero-copy
    /// over a shared word buffer for Grafite blobs, through the family codec
    /// otherwise. Failures come back as [`FilterError::ShardLoad`] naming
    /// the shard.
    pub(crate) fn load_shard(
        &self,
        shard: u32,
        stride: usize,
    ) -> Result<(Vec<u64>, DynRangeFilter), FilterError> {
        self.load_shard_inner(shard, stride)
            .map_err(|e| FilterError::ShardLoad {
                shard,
                source: Box::new(e),
            })
    }

    fn load_shard_inner(
        &self,
        shard: u32,
        stride: usize,
    ) -> Result<(Vec<u64>, DynRangeFilter), FilterError> {
        let kept = self.read_keys(shard, stride)?;
        let ext = self.extent(shard)?;
        let filter = self.load_filter(&self.source.bytes_at(ext.blob_start, ext.blob_len)?)?;
        if filter.num_keys() != ext.n_keys {
            return Err(FilterError::corrupt(
                "shard blob key count differs from manifest",
            ));
        }
        Ok((kept, filter))
    }

    /// Keys `range` of one shard (indices into its sorted keys), in one
    /// positioned read and **unverified**: the keys checksum covers the
    /// whole shard, so a partial read cannot check it. Only sampled
    /// refutation reads keys this way.
    pub(crate) fn key_block(
        &self,
        shard: u32,
        range: Range<usize>,
    ) -> Result<Vec<u64>, FilterError> {
        let ext = self.extent(shard)?;
        if range.start > range.end || range.end > ext.n_keys {
            return Err(FilterError::corrupt("key block outside the shard"));
        }
        let offset = (range.start as u64).saturating_mul(8);
        self.source
            .words_at(ext.keys_start.saturating_add(offset), range.len())
    }

    fn extent(&self, shard: u32) -> Result<ShardExtent, FilterError> {
        self.extents
            .get(shard as usize)
            .copied()
            .ok_or(FilterError::corrupt("shard index out of range"))
    }

    /// Streams one shard's keys from the image in [`STREAM_WORDS`]-key
    /// reads, so at most one chunk of them is in memory beyond what the
    /// caller keeps, and returns every `stride`-th key (indices `0, stride,
    /// 2·stride, …`; 1 returns them all). Verifies, in this order of
    /// precedence: the keys checksum, strict ordering, and that every key
    /// routes to `shard`. The shard load runs it once; `apply` and
    /// `save_to` run it again on a mapped shard, with stride 1.
    pub(crate) fn read_keys(&self, shard: u32, stride: usize) -> Result<Vec<u64>, FilterError> {
        let ext = self.extent(shard)?;
        let stride = stride.max(1);
        let mut kept = Vec::with_capacity(ext.n_keys.div_ceil(stride));
        let mut checksum = Checksum::default();
        let (mut ordered, mut routed) = (true, true);
        let mut prev: Option<u64> = None;
        for start in (0..ext.n_keys).step_by(STREAM_WORDS) {
            let n = ext.n_keys.saturating_sub(start).min(STREAM_WORDS);
            let pos = ext
                .keys_start
                .saturating_add((start as u64).saturating_mul(8));
            let bytes = self.source.bytes_at(pos, n.saturating_mul(8))?;
            for (i, key) in bytes.chunks_exact(8).map(le_word).enumerate() {
                checksum.update([key]);
                if let Some(p) = prev {
                    ordered &= p < key;
                }
                routed &= self.routing.shard_of(key) == shard as usize;
                if start.saturating_add(i) % stride == 0 {
                    kept.push(key);
                }
                prev = Some(key);
            }
        }
        if checksum.value() != ext.keys_checksum {
            return Err(FilterError::ChecksumMismatch {
                expected: ext.keys_checksum,
                actual: checksum.value(),
            });
        }
        if !ordered {
            return Err(FilterError::corrupt("shard keys not strictly increasing"));
        }
        if !routed {
            return Err(FilterError::corrupt(
                "shard key routes to a different shard",
            ));
        }
        Ok(kept)
    }

    /// Parses one shard blob, taking the zero-copy mapped path for Grafite
    /// blobs.
    fn load_filter(&self, blob: &[u8]) -> Result<DynRangeFilter, FilterError> {
        let header = Header::peek(blob)?;
        if header.spec_id != self.config.family.spec_id() {
            return Err(FilterError::SpecMismatch(header.spec_id));
        }
        if header.spec_id == spec_id::GRAFITE {
            // One byte→word conversion pass, then every container in the
            // filter is a sub-range of the same shared buffer.
            let source = MappedSource::from_le_bytes(blob).map_err(FilterError::from)?;
            let filter = MappedGrafiteFilter::open_mapped(&source)?;
            return Ok(DynRangeFilter::from_boxed(
                self.config.family,
                Box::new(filter),
            ));
        }
        self.config.family.load(&self.registry, blob)
    }
}

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
//!   (key count, keys checksum, key-block length, blob length) — exactly
//!   the words the scan reads, so a scan that never touches key or blob
//!   bytes still authenticates everything it routes by;
//! * routing words — range routing: `S` interval-start keys (word 2 names
//!   the kind; hash routing has no body words, its seed is header word 7);
//! * the tuning sample: a pair count followed by `lo, hi` words per pair;
//! * per shard, a key record and a filter blob:
//!   - four framing words: the key count `n`, a [`checksum_words`] over
//!     the sorted keys, the length in words of the encoded key blocks, and
//!     the blob's byte length;
//!   - the **block directory**, two words per block of [`FENCE_EVERY`]
//!     keys (the last block may be shorter): the block's first key (its
//!     *fence*), then its word offset among the encoded blocks shifted
//!     left 8 bits, ORed with its low-bit width `l`;
//!   - the **encoded key blocks**, back to back: each block's keys after
//!     its fence as Elias–Fano offsets from the fence
//!     ([`grafite_succinct::ef_block`]), `l = floor(log2(span / count))` low
//!     bits per key plus the unary high parts;
//!   - the blob itself ([`grafite_core::persist`] header included),
//!     zero-padded to a word boundary.
//!
//! Shard keys ride in the manifest because updates rebuild dirty shards
//! from them. Blocked Elias–Fano (the partitioned layout of Ottaviano and
//! Venturini, SIGIR 2014) stores them in at most `l + 3` bits each, `l`
//! about the log2 of the mean gap between keys, plus 0.5 bits of
//! directory, where raw words cost 64. Each shard blob additionally
//! carries its own header and checksum, so a manifest is two nested layers
//! of the same threat model as [`grafite_core::persist`]: accidental damage
//! surfaces as typed [`FilterError`]s, while deliberate forgery requires
//! provenance checks upstream.
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
//! * **Shard load** (both paths): the block directory is read, then the
//!   key blocks are streamed from the image in reads of whole blocks up to
//!   32 KiB, never held whole, each decoded and verified on the way: the
//!   keys checksum (over the decoded key values) against the
//!   scan-authenticated one, strict ordering within and across blocks, and
//!   routing membership. A directory or block that does not decode fails
//!   the checksum too: its keys are not the checksummed ones. The decoder
//!   accepts only the canonical encoding, so any change to a key record
//!   either fails to decode or changes a key. The filter blob must name the
//!   manifest's family and carries its own header checksum (verified by its
//!   loader), and the blob's key count must agree with the manifest's.
//!   Every family's blob loads through [`FamilySpec::load`].
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
//!   only its filter and its verified block directory resident (16 bytes
//!   per [`FENCE_EVERY`] keys); its key blocks stay in the file.
//! * **Keys read after load** (lazy shards only). Queries never read keys.
//!   [`Shard::read_keys`](crate::Shard::read_keys), which `apply` and
//!   `save_to` go through, re-reads all of a shard's keys and re-verifies
//!   them with the load-time checks, so damage to the file after open fails
//!   those calls typed (a [`FilterError::ChecksumMismatch`]) and leaves the
//!   store unchanged. [`Shard::holds_key`](crate::Shard::holds_key), which
//!   the server's sampled false-positive refutation uses, decodes one block
//!   of at most [`FENCE_EVERY`] keys, located through the resident
//!   directory, and does **not** verify it against the checksum: a damaged
//!   file makes it fail typed or skews that telemetry, never an answer.

use std::borrow::Cow;
use std::io;
use std::ops::Range;

use grafite_core::persist::{checksum_words, Checksum};
use grafite_core::registry::Registry;
use grafite_core::{FilterError, RangeFilter};
use grafite_succinct::ef_block;
use grafite_succinct::io::{le_word, WordWriter};

use crate::family::{DynRangeFilter, FamilySpec};
use crate::store::{Partitioning, Routing, Snapshot, StoreConfig};

/// `b"GRAFSHRD"` read as a little-endian word: the first 8 bytes of every
/// store manifest (distinct from the per-filter `GRAFILT\0` magic, so a
/// manifest handed to a filter loader — or vice versa — fails typed).
pub const STORE_MAGIC: u64 = u64::from_le_bytes(*b"GRAFSHRD");

/// The manifest format version this build writes and reads. Bumped on any
/// incompatible change, exactly like
/// [`grafite_core::persist::FORMAT_VERSION`] (the two version independently:
/// a manifest change does not invalidate filter blobs). Version 3 stored
/// shard keys as blocked Elias–Fano; version 4 keeps that layout and
/// embeds filter blobs of format v3, which store no directories. Older
/// manifests are refused with [`FilterError::UnsupportedFormatVersion`].
pub const STORE_FORMAT_VERSION: u32 = 4;

/// Header length in words.
pub const MANIFEST_HEADER_WORDS: usize = 10;

/// Keys per encoded key block. A block's first key — keys `0, 256, 512, …`
/// of a shard's sorted keys — is its *fence*, stored raw in the block
/// directory; the block encodes the rest as offsets from it. A mapped shard
/// keeps the directory resident, so an exact membership check decodes at
/// most one block of 256 keys from the file.
pub const FENCE_EVERY: usize = 256;

/// Upper bound on the words of one positioned read when a shard's key
/// blocks are streamed (32 KiB, about 8k keys; a read always takes at
/// least one block).
const STREAM_WORDS: usize = 4096;

/// Per-shard framing words ahead of the block directory: key count, keys
/// checksum, key-block length in words, blob length in bytes.
pub(crate) const SHARD_FRAMING_WORDS: usize = 4;

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
            let (directory, blocks) = encode_keys(&keys);
            let blob = shard.filter().to_bytes();
            let record: [u64; SHARD_FRAMING_WORDS] = [
                keys.len() as u64,
                checksum_words(keys.iter().copied()),
                blocks.len() as u64,
                blob.len() as u64,
            ];
            w.words(&record)?;
            w.words(&directory)?;
            w.words(&blocks)?;
            w.bytes_padded(&blob)?;
            framing.extend_from_slice(&record);
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

/// Encodes a shard's sorted keys as blocks of [`FENCE_EVERY`]: the block
/// directory (fence, then `offset << 8 | l`, per block) and the encoded
/// blocks.
fn encode_keys(keys: &[u64]) -> (Vec<u64>, Vec<u64>) {
    let mut directory = Vec::with_capacity(keys.len().div_ceil(FENCE_EVERY).saturating_mul(2));
    // Blocks cost `l + 2` to `l + 3` bits per key; half a word per key is
    // a close first guess at today's key densities.
    let mut blocks = Vec::with_capacity(keys.len() / 2);
    for block in keys.chunks(FENCE_EVERY) {
        // A shard's blocks would need 2^56 words before the shift lost bits.
        let offset = (blocks.len() as u64).saturating_mul(1 << 8);
        let l = ef_block::encode(block, &mut blocks);
        directory.extend(block.first());
        directory.push(offset | u64::from(l));
    }
    (directory, blocks)
}

/// A shard's block directory, as read from its key record: per block of
/// [`FENCE_EVERY`] keys, the fence and the packed `offset << 8 | l` word.
/// [`Manifest::read_keys`] verifies it (with the blocks it locates); a
/// mapped shard keeps the verified copy resident to find one block.
pub(crate) struct KeyDirectory {
    /// The first key of every block.
    pub(crate) fences: Vec<u64>,
    /// Per block, its word offset among the shard's encoded blocks shifted
    /// left 8 bits, ORed with its low-bit width.
    blocks: Vec<u64>,
}

impl KeyDirectory {
    /// Bytes the directory occupies, in memory and in the file.
    pub(crate) fn bytes(&self) -> usize {
        self.fences
            .len()
            .saturating_add(self.blocks.len())
            .saturating_mul(8)
    }

    /// Block `j`'s word range among `total` encoded words and its low-bit
    /// width; `None` for a directory that does not lay the blocks out in
    /// order inside `total`.
    fn block(&self, j: usize, total: usize) -> Option<(Range<usize>, u32)> {
        let packed = *self.blocks.get(j)?;
        let start = usize::try_from(packed >> 8).ok()?;
        let end = match self.blocks.get(j.saturating_add(1)) {
            Some(next) => usize::try_from(next >> 8).ok()?,
            None => total,
        };
        (start <= end && end <= total).then_some((start..end, (packed & 0xFF) as u32))
    }
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
    /// Expected [`checksum_words`] over the shard's keys, per the manifest.
    keys_checksum: u64,
    /// Byte offset of the block directory.
    directory_start: u64,
    /// Byte offset of the first encoded key block.
    blocks_start: u64,
    /// Length of the encoded key blocks in words.
    block_words: usize,
    /// Byte offset of the shard's filter blob.
    blob_start: u64,
    /// Blob length in bytes (unpadded).
    blob_len: usize,
}

impl ShardExtent {
    /// Number of key blocks (and of directory entries).
    fn num_blocks(&self) -> usize {
        self.n_keys.div_ceil(FENCE_EVERY)
    }
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
        let record = source.words_at(claim(words(SHARD_FRAMING_WORDS)?)?, SHARD_FRAMING_WORDS)?;
        let &[n_keys_w, keys_checksum, block_words_w, blob_len_w] = record.as_slice() else {
            return Err(FilterError::corrupt("shard framing length"));
        };
        let length = |w: u64| {
            usize::try_from(w).map_err(|_| FilterError::corrupt("shard length overflows usize"))
        };
        let (n_keys, block_words, blob_len) = (
            length(n_keys_w)?,
            length(block_words_w)?,
            length(blob_len_w)?,
        );
        let directory_start = claim(words(n_keys.div_ceil(FENCE_EVERY))?.saturating_mul(2))?;
        let blocks_start = claim(words(block_words)?)?;
        let blob_start = claim(words(blob_len.div_ceil(8))?)?;
        keys_total = keys_total.saturating_add(n_keys_w);
        framing.extend_from_slice(&record);
        extents.push(ShardExtent {
            n_keys,
            keys_checksum,
            directory_start,
            blocks_start,
            block_words,
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

    /// Bytes of one shard's filter blob and of its key record (directory
    /// plus encoded blocks) in the image; `(0, 0)` for an out-of-range
    /// index.
    pub(crate) fn shard_bytes(&self, shard: u32) -> (usize, usize) {
        self.extents.get(shard as usize).map_or((0, 0), |ext| {
            let words = ext
                .num_blocks()
                .saturating_mul(2)
                .saturating_add(ext.block_words);
            (ext.blob_len, words.saturating_mul(8))
        })
    }

    /// The one shard loader: streams one shard's key blocks through
    /// [`Manifest::read_keys`]' checks — keeping every key when `keep_keys`,
    /// only the verified block directory otherwise — then reads the blob,
    /// checks its spec, its own checksummed header and the blob-vs-manifest
    /// key count, and parses the filter through the family codec.
    /// Failures come back as [`FilterError::ShardLoad`] naming the shard.
    pub(crate) fn load_shard(
        &self,
        shard: u32,
        keep_keys: bool,
    ) -> Result<(Vec<u64>, KeyDirectory, DynRangeFilter), FilterError> {
        self.load_shard_inner(shard, keep_keys)
            .map_err(|e| FilterError::ShardLoad {
                shard,
                source: Box::new(e),
            })
    }

    fn load_shard_inner(
        &self,
        shard: u32,
        keep_keys: bool,
    ) -> Result<(Vec<u64>, KeyDirectory, DynRangeFilter), FilterError> {
        let mut keys = Vec::new();
        let directory = self.walk_keys(shard, &mut keys, keep_keys)?;
        let ext = self.extent(shard)?;
        let blob = self.source.bytes_at(ext.blob_start, ext.blob_len)?;
        let filter = self.config.family.load(&self.registry, &blob)?;
        if filter.num_keys() != ext.n_keys {
            return Err(FilterError::corrupt(
                "shard blob key count differs from manifest",
            ));
        }
        Ok((keys, directory, filter))
    }

    /// Decodes key block `block` of one shard — keys `block · FENCE_EVERY`
    /// onwards, at most [`FENCE_EVERY`] of them — located through
    /// `directory`, the shard's verified resident copy, in one positioned
    /// read and **unverified**: the keys checksum covers the whole shard,
    /// so one block cannot check it. Only sampled refutation reads keys
    /// this way. Damaged words fail typed or decode wrong keys, never
    /// panic.
    pub(crate) fn key_block(
        &self,
        shard: u32,
        directory: &KeyDirectory,
        block: usize,
    ) -> Result<Vec<u64>, FilterError> {
        let ext = self.extent(shard)?;
        let (fence, (range, l)) = directory
            .fences
            .get(block)
            .zip(directory.block(block, ext.block_words))
            .ok_or(FilterError::corrupt("key block outside the shard"))?;
        let len = ext
            .n_keys
            .saturating_sub(block.saturating_mul(FENCE_EVERY))
            .min(FENCE_EVERY);
        let words = self.source.words_at(
            ext.blocks_start
                .saturating_add((range.start as u64).saturating_mul(8)),
            range.len(),
        )?;
        let mut keys = Vec::with_capacity(len);
        ef_block::decode(&words, *fence, len, l, &mut keys).map_err(FilterError::from)?;
        Ok(keys)
    }

    fn extent(&self, shard: u32) -> Result<ShardExtent, FilterError> {
        self.extents
            .get(shard as usize)
            .copied()
            .ok_or(FilterError::corrupt("shard index out of range"))
    }

    /// All of one shard's keys, decoded and verified as
    /// [`Manifest::walk_keys`] describes. `apply` and `save_to` run it on a
    /// mapped shard.
    pub(crate) fn read_keys(&self, shard: u32) -> Result<Vec<u64>, FilterError> {
        let mut keys = Vec::new();
        self.walk_keys(shard, &mut keys, true)?;
        Ok(keys)
    }

    /// Reads one shard's block directory, then streams its key blocks from
    /// the image in reads of whole blocks up to [`STREAM_WORDS`] words, so
    /// at most one read of them is in memory beyond the keys the caller
    /// keeps, and decodes each into `keys` (which holds every key when
    /// `keep`, at most one block otherwise). Verifies, in this order of
    /// precedence: the keys checksum over the decoded keys — a directory or
    /// block that does not decode fails it too — strict ordering, and that
    /// every key routes to `shard`. Returns the verified directory.
    fn walk_keys(
        &self,
        shard: u32,
        keys: &mut Vec<u64>,
        keep: bool,
    ) -> Result<KeyDirectory, FilterError> {
        let ext = self.extent(shard)?;
        let n_blocks = ext.num_blocks();
        let raw = self
            .source
            .words_at(ext.directory_start, n_blocks.saturating_mul(2))?;
        let directory = KeyDirectory {
            fences: raw.iter().step_by(2).copied().collect(),
            blocks: raw.iter().skip(1).step_by(2).copied().collect(),
        };
        if keep {
            keys.reserve(ext.n_keys);
        }
        let mut checksum = Checksum::default();
        let (mut ordered, mut routed) = (true, true);
        let mut prev: Option<u64> = None;
        let routing = &self.routing;
        let span = match routing {
            Routing::Range { .. } => Some(routing.shard_span(shard as usize)),
            Routing::Hash { .. } => None,
        };
        let mismatch = |checksum: &Checksum| FilterError::ChecksumMismatch {
            expected: ext.keys_checksum,
            actual: checksum.value(),
        };
        let mut words: Vec<u64> = Vec::new();
        let mut block = 0usize;
        while block < n_blocks {
            // One read: this block and every following one that still
            // ends within STREAM_WORDS of its start.
            let (first, _) = directory
                .block(block, ext.block_words)
                .ok_or_else(|| mismatch(&checksum))?;
            let mut end_block = block.saturating_add(1);
            let mut read_end = first.end;
            while let Some((next, _)) = directory.block(end_block, ext.block_words) {
                if next.end - first.start > STREAM_WORDS {
                    break;
                }
                read_end = next.end;
                end_block = end_block.saturating_add(1);
            }
            let bytes = self.source.bytes_at(
                ext.blocks_start
                    .saturating_add((first.start as u64).saturating_mul(8)),
                (read_end - first.start).saturating_mul(8),
            )?;
            words.clear();
            words.extend(bytes.chunks_exact(8).map(le_word));
            for j in block..end_block {
                let (range, l) = directory
                    .block(j, ext.block_words)
                    .ok_or_else(|| mismatch(&checksum))?;
                let len = ext
                    .n_keys
                    .saturating_sub(j.saturating_mul(FENCE_EVERY))
                    .min(FENCE_EVERY);
                if !keep {
                    keys.clear();
                }
                let from = keys.len();
                let fence = directory.fences.get(j).copied().unwrap_or_default();
                words
                    .get(range.start - first.start..range.end - first.start)
                    .ok_or_else(|| mismatch(&checksum))
                    .and_then(|w| {
                        ef_block::decode(w, fence, len, l, keys).map_err(|_| mismatch(&checksum))
                    })?;
                let decoded = keys.get(from..).unwrap_or_default();
                checksum.update(decoded.iter().copied());
                ordered &= match (prev, decoded.first()) {
                    (Some(p), Some(&k)) => p < k,
                    _ => true,
                } && decoded.windows(2).all(|w| matches!(w, [a, b] if a < b));
                routed &= match span {
                    Some((lo, hi)) => decoded.iter().all(|&k| lo <= k && k <= hi),
                    None => decoded
                        .iter()
                        .all(|&k| routing.shard_of(k) == shard as usize),
                };
                prev = decoded.last().copied().or(prev);
            }
            block = end_block;
        }
        // Each block decoded from exactly its canonical words, so the
        // layout is canonical once the first block starts at word 0 (the
        // last one ends at `block_words` by construction).
        if directory
            .blocks
            .first()
            .map_or(ext.block_words != 0, |&b| b >> 8 != 0)
        {
            return Err(mismatch(&checksum));
        }
        if checksum.value() != ext.keys_checksum {
            return Err(mismatch(&checksum));
        }
        if !ordered {
            return Err(FilterError::corrupt("shard keys not strictly increasing"));
        }
        if !routed {
            return Err(FilterError::corrupt(
                "shard key routes to a different shard",
            ));
        }
        if !keep {
            keys.clear();
        }
        Ok(directory)
    }
}

//! The lazy, file-backed open path of the store: a [`MappedManifest`]
//! indexes a saved manifest *in place* — one `O(shards)` pass of small
//! header reads and seeks, never touching key or blob bytes — so a
//! multi-gigabyte store cold-starts in milliseconds. Shards materialize on
//! first touch: their keys and filter blob are read from the recorded
//! extents, validated, and (for Grafite) parsed zero-copy over one shared
//! word buffer via `GrafiteFilter<MappedSource>`.
//!
//! This crate forbids `unsafe`, so "mapped" means demand-paged through
//! ordinary positioned reads rather than a raw `mmap(2)`: the operating
//! system's page cache still backs the file, so concurrently serving
//! processes share pages the usual way, and nothing is read twice. On
//! unix the materialization path issues `pread(2)`-style offset reads
//! against a shared `&File` — no seek cursor, no lock — so shards
//! faulting in concurrently never contend on the handle.
//!
//! # Validation model
//!
//! The eager [`manifest::read`](crate::manifest::read) path checksums the
//! whole body before trusting anything. The mapped path deliberately skips
//! that full-body pass (it would defeat lazy loading) and splits the same
//! guarantees in two:
//!
//! * **Scan time**: the manifest's *metadata checksum* authenticates every
//!   word the scan routes by — header fields, routing starts, the tuning
//!   sample, and each shard's framing words (key count, keys checksum,
//!   blob length). This matters for correctness, not just hygiene: routing
//!   damage re-routes keys to healthy shards that never stored them, a
//!   false negative no per-shard check could ever catch, so it must fail
//!   *before* the store opens.
//! * **Materialization time**, per shard: the keys verify against the
//!   shard's (scan-authenticated) keys checksum and are re-checked for
//!   ordering and routing membership; the filter blob carries its own
//!   header checksum (verified by its loader); and the blob's key count
//!   must agree with the manifest's. A shard that fails any of these
//!   **fails open**: it serves a pass-all placeholder — the
//!   no-false-negative contract survives, queries degrade to `true` on
//!   that shard — and the failure is recorded in the store's
//!   [`StoreStats`] and the shard's
//!   [`load_error`](crate::Shard::load_error).

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Arc;
#[cfg(not(unix))]
use std::sync::Mutex;

use grafite_core::persist::{checksum_words, spec_id, Header};
use grafite_core::registry::Registry;
use grafite_core::{FilterError, MappedGrafiteFilter, PersistentFilter, RangeFilter};
use grafite_succinct::io::{le_word, MappedSource, WordSource, WordWriter};

use crate::family::{DynRangeFilter, FamilySpec};
use crate::manifest::{ManifestHead, MANIFEST_HEADER_WORDS, ROUTING_RANGE};
use crate::stats::StoreStats;
use crate::store::{LoadedShard, Routing, StoreConfig};

/// Where one shard's records live inside the manifest file, in absolute
/// byte offsets. Recorded by the scan, consumed at materialization.
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

/// A poisoned file lock surfaces as a typed i/o failure, never a panic.
/// (Only the non-unix fallback path holds a lock at all.)
#[cfg(not(unix))]
fn lock_poisoned<T>(_: T) -> FilterError {
    FilterError::Io {
        kind: std::io::ErrorKind::Other,
        source: None,
    }
}

/// Reads `len` bytes at absolute offset `pos`.
fn read_bytes_at(file: &mut File, pos: u64, len: usize) -> Result<Vec<u8>, FilterError> {
    file.seek(SeekFrom::Start(pos))?;
    let mut buf = vec![0u8; len];
    file.read_exact(&mut buf)?;
    Ok(buf)
}

/// A read-only file handle answering positioned reads without a shared
/// cursor. On unix this is `pread(2)` via [`std::os::unix::fs::FileExt`]:
/// each call carries its own offset, takes `&File`, and never touches the
/// seek position, so concurrent cold-shard materializations proceed with
/// **no lock at all**. Elsewhere the handle falls back to the seed's
/// `Mutex<File>` + seek discipline (the cursor is shared process state).
struct PositionedFile {
    #[cfg(unix)]
    file: File,
    #[cfg(not(unix))]
    file: Mutex<File>,
}

impl PositionedFile {
    fn new(file: File) -> Self {
        #[cfg(unix)]
        {
            Self { file }
        }
        #[cfg(not(unix))]
        {
            Self {
                file: Mutex::new(file),
            }
        }
    }

    /// Reads `len` bytes at absolute offset `pos` — lock-free on unix.
    fn bytes_at(&self, pos: u64, len: usize) -> Result<Vec<u8>, FilterError> {
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            let mut buf = vec![0u8; len];
            self.file.read_exact_at(&mut buf, pos)?;
            Ok(buf)
        }
        #[cfg(not(unix))]
        {
            let mut file = self.file.lock().map_err(lock_poisoned)?;
            read_bytes_at(&mut file, pos, len)
        }
    }

    /// Reads `n` little-endian words at absolute offset `pos`.
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
}

/// Reads `n` little-endian words at absolute offset `pos`.
fn read_words_at(file: &mut File, pos: u64, n: usize) -> Result<Vec<u64>, FilterError> {
    let len = n
        .checked_mul(8)
        .ok_or(FilterError::corrupt("word read length overflows usize"))?;
    Ok(read_bytes_at(file, pos, len)?
        .chunks_exact(8)
        .map(le_word)
        .collect())
}

/// Reads one word at absolute offset `pos`.
fn read_word_at(file: &mut File, pos: u64) -> Result<u64, FilterError> {
    let bytes = read_bytes_at(file, pos, 8)?;
    Ok(le_word(&bytes))
}

/// A scanned-but-unread store manifest: header, routing, tuning sample,
/// and the byte extent of every shard's keys and blob — everything needed
/// to serve the store, with the expensive bytes still on disk.
pub struct MappedManifest {
    path: PathBuf,
    file: PositionedFile,
    registry: Registry,
    config: StoreConfig,
    routing: Routing,
    extents: Vec<ShardExtent>,
}

impl std::fmt::Debug for MappedManifest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedManifest")
            .field("path", &self.path)
            .field("family", &self.config.family)
            .field("num_shards", &self.extents.len())
            .finish_non_exhaustive()
    }
}

impl MappedManifest {
    /// Indexes the manifest at `path`: validates the ten-word header, reads
    /// the routing table and tuning sample, and records each shard's key
    /// and blob extents by seeking — `O(shards)` small reads, independent
    /// of the store's total size. The full-body checksum is **not**
    /// verified here (see the module docs' validation model).
    pub fn scan(registry: &Registry, path: &Path) -> Result<Self, FilterError> {
        let mut file = File::open(path)?;
        let file_len = file.metadata()?.len();
        let head_vec = read_words_at(&mut file, 0, MANIFEST_HEADER_WORDS)?;
        let mut raw = [0u64; MANIFEST_HEADER_WORDS];
        for (dst, src) in raw.iter_mut().zip(head_vec.iter()) {
            *dst = *src;
        }
        let head = ManifestHead::validate(raw)?;
        let header_bytes = (MANIFEST_HEADER_WORDS as u64).saturating_mul(8);
        let body_end = head
            .body_words
            .checked_mul(8)
            .and_then(|b| b.checked_add(header_bytes))
            .filter(|&end| end <= file_len)
            .ok_or(FilterError::TruncatedBuffer {
                needed: usize::try_from(head.body_words.saturating_mul(8)).unwrap_or(usize::MAX),
                have: usize::try_from(file_len).unwrap_or(usize::MAX),
            })?;
        let mut pos = header_bytes;
        // Claims `bytes` from the body at the running position, bounds-
        // checked against the declared body extent; returns the start.
        let claim = |pos: &mut u64, bytes: u64| -> Result<u64, FilterError> {
            let start = *pos;
            let end = start
                .checked_add(bytes)
                .filter(|&e| e <= body_end)
                .ok_or(FilterError::corrupt("manifest record exceeds body"))?;
            *pos = end;
            Ok(start)
        };

        // Everything the scan routes by — header fields, routing starts,
        // sample, per-shard framing words — must authenticate against the
        // metadata checksum, or a flipped routing byte could silently send
        // keys to a healthy shard that never stored them (a false
        // negative no per-shard check can catch). `framing` accumulates
        // those words as they are read; the checksum is verified once the
        // walk completes.
        let mut framing: Vec<u64> = raw.iter().skip(1).take(8).copied().collect();
        let at = claim(&mut pos, 8)?;
        let meta_expected = read_word_at(&mut file, at)?;

        let starts = if head.routing_kind == ROUTING_RANGE {
            let bytes = (head.n_shards as u64)
                .checked_mul(8)
                .ok_or(FilterError::corrupt("routing table length overflows"))?;
            let at = claim(&mut pos, bytes)?;
            read_words_at(&mut file, at, head.n_shards)?
        } else {
            Vec::new()
        };
        framing.extend_from_slice(&starts);
        let (routing, partitioning) = head.routing(starts)?;

        let at = claim(&mut pos, 8)?;
        let sample_len = usize::try_from(read_word_at(&mut file, at)?)
            .map_err(|_| FilterError::corrupt("sample length overflows usize"))?;
        framing.push(sample_len as u64);
        let sample_words = sample_len
            .checked_mul(2)
            .ok_or(FilterError::corrupt("sample length overflows usize"))?;
        let sample_bytes = (sample_words as u64)
            .checked_mul(8)
            .ok_or(FilterError::corrupt("sample length overflows"))?;
        let at = claim(&mut pos, sample_bytes)?;
        let sample_raw = read_words_at(&mut file, at, sample_words)?;
        framing.extend_from_slice(&sample_raw);
        let sample: Vec<(u64, u64)> = sample_raw
            .chunks_exact(2)
            .filter_map(|pair| match pair {
                [lo, hi] => Some((*lo, *hi)),
                _ => None,
            })
            .collect();

        let mut extents = Vec::with_capacity(head.n_shards.min(1 << 20));
        let mut keys_total: u64 = 0;
        for _ in 0..head.n_shards {
            let at = claim(&mut pos, 8)?;
            let n_keys = usize::try_from(read_word_at(&mut file, at)?)
                .map_err(|_| FilterError::corrupt("shard key count overflows usize"))?;
            let key_bytes = (n_keys as u64)
                .checked_mul(8)
                .ok_or(FilterError::corrupt("shard key run overflows"))?;
            let keys_start = claim(&mut pos, key_bytes)?;
            let at = claim(&mut pos, 8)?;
            let keys_checksum = read_word_at(&mut file, at)?;
            let at = claim(&mut pos, 8)?;
            let blob_len = usize::try_from(read_word_at(&mut file, at)?)
                .map_err(|_| FilterError::corrupt("shard blob length overflows usize"))?;
            let padded_bytes = (blob_len.div_ceil(8) as u64)
                .checked_mul(8)
                .ok_or(FilterError::corrupt("shard blob padding overflows"))?;
            let blob_start = claim(&mut pos, padded_bytes)?;
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
        if keys_total != head.total_keys {
            return Err(FilterError::corrupt(
                "total key count differs from shard sum",
            ));
        }
        Ok(Self {
            path: path.to_path_buf(),
            file: PositionedFile::new(file),
            registry: registry.clone(),
            config: head.config(partitioning, sample),
            routing,
            extents,
        })
    }

    /// The manifest file this index was scanned from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The reconstructed store configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// The routing table.
    pub fn routing(&self) -> &Routing {
        &self.routing
    }

    /// Number of shards the manifest records.
    pub fn num_shards(&self) -> usize {
        self.extents.len()
    }

    /// The recorded key count of one shard (0 for an out-of-range index).
    pub fn shard_key_count(&self, shard: u32) -> usize {
        self.extents.get(shard as usize).map_or(0, |ext| ext.n_keys)
    }

    /// Materializes one shard from its recorded extents: reads its keys and
    /// blob, validates ordering, routing membership, the blob's own
    /// checksummed header, and the key-count agreement, and parses the
    /// filter — zero-copy over a shared buffer for current-format Grafite
    /// blobs, owned through the family codec otherwise. Failures come back
    /// as [`FilterError::ShardLoad`] naming the shard.
    pub fn load_shard(&self, shard: u32) -> Result<(Vec<u64>, DynRangeFilter), FilterError> {
        self.load_shard_inner(shard)
            .map_err(|e| FilterError::ShardLoad {
                shard,
                source: Box::new(e),
            })
    }

    fn load_shard_inner(&self, shard: u32) -> Result<(Vec<u64>, DynRangeFilter), FilterError> {
        let ext = *self
            .extents
            .get(shard as usize)
            .ok_or(FilterError::corrupt("shard index out of range"))?;
        // Positioned reads carry their own offsets, so concurrent cold
        // probes materializing different shards never serialize here.
        let keys = self.file.words_at(ext.keys_start, ext.n_keys)?;
        let blob = self.file.bytes_at(ext.blob_start, ext.blob_len)?;
        let keys_actual = checksum_words(keys.iter().copied());
        if keys_actual != ext.keys_checksum {
            return Err(FilterError::ChecksumMismatch {
                expected: ext.keys_checksum,
                actual: keys_actual,
            });
        }
        if !keys.windows(2).all(|w| matches!(w, [a, b] if a < b)) {
            return Err(FilterError::corrupt("shard keys not strictly increasing"));
        }
        let shard_idx = shard as usize;
        if keys.iter().any(|&k| self.routing.shard_of(k) != shard_idx) {
            return Err(FilterError::corrupt(
                "shard key routes to a different shard",
            ));
        }
        let filter = self.load_filter(&blob)?;
        if filter.num_keys() != keys.len() {
            return Err(FilterError::corrupt(
                "shard blob key count differs from manifest",
            ));
        }
        Ok((keys, filter))
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

/// The lazy half of a [`Shard`](crate::Shard): which manifest to
/// materialize from, which shard, and where to record the outcome.
#[derive(Debug)]
pub(crate) struct ShardSource {
    manifest: Arc<MappedManifest>,
    index: u32,
    stats: Arc<StoreStats>,
}

impl ShardSource {
    pub(crate) fn new(manifest: Arc<MappedManifest>, index: u32, stats: Arc<StoreStats>) -> Self {
        Self {
            manifest,
            index,
            stats,
        }
    }

    /// Materializes the shard, failing open: on any load error the shard
    /// becomes a pass-all placeholder (no false negatives, every query on
    /// it answers `true`), the error is retained on the shard, and the
    /// store's stats record it.
    pub(crate) fn materialize(&self) -> LoadedShard {
        self.stats.record_lazy_load();
        match self.manifest.load_shard(self.index) {
            Ok((keys, filter)) => LoadedShard {
                keys,
                filter,
                error: None,
            },
            Err(error) => {
                self.stats.record_load_error();
                LoadedShard {
                    keys: Vec::new(),
                    filter: pass_all(
                        self.manifest.config.family,
                        self.manifest.shard_key_count(self.index),
                    ),
                    error: Some(error),
                }
            }
        }
    }
}

/// A pass-all placeholder for a shard that failed to materialize (see
/// [`ShardSource::materialize`]).
pub(crate) fn pass_all(family: FamilySpec, n_keys: usize) -> DynRangeFilter {
    DynRangeFilter::from_boxed(family, Box::new(PassAllFilter { family, n_keys }))
}

/// Answers `true` for every range: the safe degraded mode of a shard whose
/// bytes would not load. Not serializable — `FilterStore::save_to` refuses
/// stores holding one.
struct PassAllFilter {
    family: FamilySpec,
    n_keys: usize,
}

impl RangeFilter for PassAllFilter {
    fn may_contain_range(&self, _a: u64, _b: u64) -> bool {
        true
    }

    fn size_in_bits(&self) -> usize {
        0
    }

    fn num_keys(&self) -> usize {
        self.n_keys
    }

    fn name(&self) -> &'static str {
        "PassAll"
    }
}

impl PersistentFilter for PassAllFilter {
    fn spec_id(&self) -> u32 {
        self.family.spec_id()
    }

    fn spec_ids() -> &'static [u32] {
        &[]
    }

    /// Writes an empty payload: the placeholder has no filter bytes. A
    /// blob written this way fails typed on load (its family's decoder
    /// rejects the empty payload), and `FilterStore::save_to` refuses to
    /// get this far — the empty write only exists so size accounting and
    /// `to_bytes` stay panic-free.
    fn write_payload(&self, _w: &mut WordWriter<'_>) -> std::io::Result<()> {
        Ok(())
    }

    fn read_payload<Src: WordSource<Storage = Vec<u64>>>(
        _src: &mut Src,
        _header: &Header,
    ) -> Result<Self, FilterError> {
        Err(FilterError::corrupt(
            "pass-all placeholders are not serializable",
        ))
    }
}

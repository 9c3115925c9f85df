//! The lazy, file-backed open path of the store: the manifest file is
//! scanned *in place* by [`crate::manifest`]'s one reader — `O(shards)`
//! small positioned reads, never touching key or blob bytes — so a
//! multi-gigabyte store cold-starts in milliseconds. Shards materialize on
//! first touch through the same reader's shard loader and fail open (see
//! the [validation model](crate::manifest#validation-model)). A
//! materialized shard holds its filter and its block directory — the
//! fence (first key) of every block of
//! [`FENCE_EVERY`](crate::manifest::FENCE_EVERY) keys, plus the block's
//! offset and low-bit width; its keys are read from the file again only
//! when `apply` or `save_to` needs them all, or when the server's sampled
//! refutation decodes one block. The directory costs 128/256 = 0.5 bits
//! per key, where resident keys would cost 64.
//!
//! This crate forbids `unsafe`, so "mapped" means demand-paged through
//! ordinary positioned reads rather than a raw `mmap(2)`: the operating
//! system's page cache still backs the file, so concurrently serving
//! processes share pages the usual way, and nothing is read twice. On
//! unix the materialization path issues `pread(2)`-style offset reads
//! against a shared `&File` — no seek cursor, no lock — so shards
//! faulting in concurrently never contend on the handle.

use std::borrow::Cow;
use std::fs::File;
#[cfg(not(unix))]
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::Arc;
#[cfg(not(unix))]
use std::sync::Mutex;

use grafite_core::persist::Header;
use grafite_core::registry::Registry;
use grafite_core::{FilterError, PersistentFilter, RangeFilter};
use grafite_succinct::io::{WordReader, WordWriter};

use crate::family::{DynRangeFilter, FamilySpec};
use crate::manifest::{self, Manifest, ManifestSource, Verify};
use crate::stats::StoreStats;
use crate::store::{LoadedShard, ShardKeys};

/// A poisoned file lock surfaces as a typed i/o failure, never a panic.
/// (Only the non-unix fallback path holds a lock at all.)
#[cfg(not(unix))]
fn lock_poisoned<T>(_: T) -> FilterError {
    FilterError::Io {
        kind: std::io::ErrorKind::Other,
    }
}

/// A read-only file handle answering positioned reads without a shared
/// cursor. On unix this is `pread(2)` via [`std::os::unix::fs::FileExt`]:
/// each call carries its own offset, takes `&File`, and never touches the
/// seek position, so concurrent cold-shard materializations proceed with
/// **no lock at all**. Elsewhere the handle falls back to a `Mutex<File>`
/// and seeks (the cursor is shared process state).
pub(crate) struct PositionedFile {
    #[cfg(unix)]
    file: File,
    #[cfg(not(unix))]
    file: Mutex<File>,
    len: u64,
}

impl PositionedFile {
    fn open(path: &Path) -> Result<Self, FilterError> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        #[cfg(not(unix))]
        let file = Mutex::new(file);
        Ok(Self { file, len })
    }
}

impl ManifestSource for PositionedFile {
    fn size(&self) -> u64 {
        self.len
    }

    /// Lock-free on unix.
    fn read_in_bounds(&self, pos: u64, len: usize) -> Result<Cow<'_, [u8]>, FilterError> {
        let mut buf = vec![0u8; len];
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.read_exact_at(&mut buf, pos)?;
        }
        #[cfg(not(unix))]
        {
            let mut file = self.file.lock().map_err(lock_poisoned)?;
            file.seek(SeekFrom::Start(pos))?;
            file.read_exact(&mut buf)?;
        }
        Ok(Cow::Owned(buf))
    }
}

/// A manifest file scanned in place, its shard bytes still on disk.
pub(crate) type MappedManifest = Manifest<PositionedFile>;

/// Scans the manifest file at `path` (metadata checksum only: the
/// whole-body pass would read every shard byte the lazy open defers).
pub(crate) fn scan_file(registry: &Registry, path: &Path) -> Result<MappedManifest, FilterError> {
    manifest::scan(registry, PositionedFile::open(path)?, Verify::Metadata)
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

    /// Keys the manifest records for this shard.
    pub(crate) fn key_count(&self) -> usize {
        self.manifest.shard_key_count(self.index)
    }

    /// Bytes of this shard's filter blob and key record in the file.
    pub(crate) fn shard_bytes(&self) -> (usize, usize) {
        self.manifest.shard_bytes(self.index)
    }

    /// Materializes the shard with only its block directory resident,
    /// failing open: on any load error the shard
    /// becomes a pass-all placeholder (no false negatives, every query on
    /// it answers `true`), the error is retained on the shard, and the
    /// store's stats record it.
    pub(crate) fn materialize(&self) -> LoadedShard {
        self.stats.record_lazy_load();
        match self.manifest.load_shard(self.index, false) {
            Ok((_, directory, filter)) => LoadedShard {
                keys: ShardKeys::OnDisk {
                    directory,
                    manifest: Arc::clone(&self.manifest),
                    index: self.index,
                },
                filter,
                error: None,
            },
            Err(error) => {
                self.stats.record_load_error();
                LoadedShard {
                    keys: ShardKeys::Resident(Vec::new()),
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
fn pass_all(family: FamilySpec, n_keys: usize) -> DynRangeFilter {
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

    fn read_payload(_src: &mut WordReader<'_>, _header: &Header) -> Result<Self, FilterError> {
        Err(FilterError::corrupt(
            "pass-all placeholders are not serializable",
        ))
    }
}

//! Error types for filter construction.

use std::fmt;

use grafite_succinct::io::DecodeError;

/// Errors returned by filter builders.
///
/// Queries never fail: once a filter is built, `may_contain_range` is total
/// over `a <= b`. All validation happens at construction time.
#[derive(Clone, Debug, PartialEq)]
pub enum FilterError {
    /// `epsilon` must lie in the open interval (0, 1).
    InvalidEpsilon(f64),
    /// The maximum range size `L` must be at least 1.
    InvalidMaxRange(u64),
    /// The bits-per-key budget is out of the family's range: not finite and
    /// positive, not above Grafite's 2-bit Elias–Fano overhead, or more bits
    /// in total than the allocator can provide.
    InvalidBudget(f64),
    /// The bucket size `s` must be at least 1.
    InvalidBucketSize(u64),
    /// The requested configuration needs a reduced universe `r` beyond the
    /// supported bound (the pairwise-independent family's prime `2^61 − 1`).
    ReducedUniverseTooLarge {
        /// The `r` the configuration asked for.
        requested: u128,
        /// The largest supported `r`.
        supported: u64,
    },
    /// The budget cannot cover the filter's fixed structural cost (e.g.
    /// SuRF's ~11 bits/key trie floor — the paper's footnote 6 omits those
    /// configurations from its figures for the same reason).
    BudgetBelowFloor {
        /// The bits-per-key budget that was asked for.
        requested: f64,
        /// The smallest feasible budget for this filter.
        floor: f64,
    },
    /// No builder is registered for the requested
    /// [`FilterSpec`](crate::registry::FilterSpec) in this
    /// [`Registry`](crate::registry::Registry). Carries the spec's label.
    Unregistered(&'static str),
    /// A serialized buffer does not start with the format magic — it is not
    /// a filter blob at all. Carries the word found where
    /// [`MAGIC`](crate::persist::MAGIC) was expected.
    BadMagic(u64),
    /// The blob was written by an incompatible format version.
    UnsupportedFormatVersion {
        /// Version found in the header.
        found: u32,
        /// The version this build reads and writes.
        supported: u32,
    },
    /// The buffer ends before the serialized filter does. The counts are
    /// relative to the region being decoded: the whole blob for
    /// header-level errors, the payload region (past the 40-byte header)
    /// when a payload decoder ran short.
    TruncatedBuffer {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The payload checksum does not match the header: the blob was
    /// corrupted (or truncated mid-word) after writing.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the payload actually present.
        actual: u64,
    },
    /// The payload decoded but a field is structurally impossible (e.g. a
    /// bit width above 64).
    ///
    /// Construct filter-level checks with [`FilterError::corrupt`]; the
    /// `source` field carries the storage-level [`DecodeError`] when the
    /// corruption surfaced below the filter layer (in the succinct word
    /// decoders), and is what [`std::error::Error::source`] reports.
    CorruptPayload {
        /// Short static description of the impossible field.
        what: &'static str,
        /// The succinct-layer decode error underneath, `None` when the
        /// check that fired was the filter's own.
        source: Option<DecodeError>,
    },
    /// A typed `deserialize` was pointed at a blob written by a different
    /// filter family. Carries the spec id found in the header.
    SpecMismatch(u32),
    /// The header's spec id maps to no spec in the
    /// [`Registry`](crate::registry::Registry) table (see
    /// [`spec_id`](crate::persist::spec_id)). Non-registry families (ids
    /// ≥ 32) load through their typed `PersistentFilter::deserialize`
    /// instead.
    UnknownSpecId(u32),
    /// A shard of a store manifest failed to load from its recorded keys
    /// and blob extent. An eager open fails with it; a mapped store treats
    /// the shard as *pass-all* on first touch (no false negatives are ever
    /// introduced) and surfaces this error through its stats instead of
    /// failing queries.
    ShardLoad {
        /// Index of the shard that failed to load.
        shard: u32,
        /// The underlying load failure
        /// ([`std::error::Error::source`] reports it).
        source: Box<FilterError>,
    },
    /// A byte sink or a file read failed while (de)serializing. Decoding
    /// an in-memory blob never produces it.
    Io {
        /// The i/o failure kind.
        kind: std::io::ErrorKind,
    },
}

impl FilterError {
    /// A [`FilterError::CorruptPayload`] from a filter-level structural
    /// check (no storage-level error underneath).
    pub fn corrupt(what: &'static str) -> Self {
        FilterError::CorruptPayload { what, source: None }
    }
}

impl fmt::Display for FilterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FilterError::InvalidEpsilon(e) => {
                write!(f, "epsilon must be in (0, 1), got {e}")
            }
            FilterError::InvalidMaxRange(l) => {
                write!(f, "max range size L must be >= 1, got {l}")
            }
            FilterError::InvalidBudget(b) => write!(
                f,
                "bits-per-key budget {b:?} is out of range: it must be finite, exceed 2 \
                 for Grafite (the Elias-Fano overhead), and fit in memory"
            ),
            FilterError::InvalidBucketSize(s) => {
                write!(f, "bucket size must be >= 1, got {s}")
            }
            FilterError::ReducedUniverseTooLarge {
                requested,
                supported,
            } => write!(
                f,
                "reduced universe r = {requested} exceeds the supported bound {supported}; \
                 lower the budget/L or raise epsilon"
            ),
            FilterError::BudgetBelowFloor { requested, floor } => write!(
                f,
                "budget of {requested} bits/key is below this filter's structural floor \
                 of {floor} bits/key"
            ),
            FilterError::Unregistered(label) => {
                write!(f, "no builder registered for filter spec {label}")
            }
            FilterError::BadMagic(found) => write!(
                f,
                "buffer does not start with the filter-format magic (found {found:#018x})"
            ),
            FilterError::UnsupportedFormatVersion { found, supported } => write!(
                f,
                "serialized filter uses format version {found}; this build supports {supported}"
            ),
            FilterError::TruncatedBuffer { needed, have } => {
                write!(
                    f,
                    "truncated filter blob: needed {needed} bytes, have {have}"
                )
            }
            FilterError::ChecksumMismatch { expected, actual } => write!(
                f,
                "payload checksum {actual:#018x} does not match header {expected:#018x}"
            ),
            FilterError::CorruptPayload { what, .. } => {
                write!(f, "corrupt filter payload: {what}")
            }
            FilterError::SpecMismatch(found) => write!(
                f,
                "blob carries spec id {found}, which this filter type does not accept"
            ),
            FilterError::UnknownSpecId(id) => {
                write!(
                    f,
                    "header spec id {id} maps to no spec in this registry table"
                )
            }
            FilterError::ShardLoad { shard, source } => {
                write!(f, "shard {shard} failed to materialize: {source}")
            }
            FilterError::Io { kind, .. } => {
                write!(f, "i/o failure during (de)serialization: {kind}")
            }
        }
    }
}

impl std::error::Error for FilterError {
    /// The storage-level [`DecodeError`] a [`FilterError::CorruptPayload`]
    /// wraps, when the failure originated in the succinct word decoders
    /// rather than the filter layer itself.
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FilterError::CorruptPayload { source, .. } => source.as_ref().map(|e| e as _),
            FilterError::ShardLoad { source, .. } => Some(source.as_ref() as _),
            _ => None,
        }
    }
}

impl From<DecodeError> for FilterError {
    /// Word counts become byte counts. A forged length word can make them
    /// arbitrarily large, so the conversion saturates rather than wrap.
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Truncated { needed, have } => FilterError::TruncatedBuffer {
                needed: needed.saturating_mul(8),
                have: have.saturating_mul(8),
            },
            DecodeError::Invalid(what) => FilterError::CorruptPayload {
                what,
                source: Some(e),
            },
        }
    }
}

impl From<std::io::Error> for FilterError {
    fn from(e: std::io::Error) -> Self {
        FilterError::Io { kind: e.kind() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    /// The satellite contract: a `FilterError` born from a succinct-layer
    /// decode failure exposes that `DecodeError` through `source()`.
    #[test]
    fn source_chains_through_decode_error() {
        let invalid = DecodeError::Invalid("bit width above 64");
        let err = FilterError::from(invalid.clone());
        assert!(matches!(
            err,
            FilterError::CorruptPayload {
                what: "bit width above 64",
                ..
            }
        ));
        let src = err.source().expect("decode-born corruption must chain");
        assert_eq!(src.downcast_ref::<DecodeError>(), Some(&invalid));
    }

    /// Filter-level checks have no storage error underneath: no source.
    #[test]
    fn filter_level_errors_have_no_source() {
        assert!(FilterError::corrupt("zero bucket size").source().is_none());
        let err = FilterError::from(std::io::Error::other("sink"));
        assert!(err.source().is_none());
        assert!(FilterError::InvalidEpsilon(2.0).source().is_none());
    }

    /// Truncation translates faithfully (word counts become byte counts);
    /// it has its own typed variant rather than a chain.
    #[test]
    fn truncation_translates_words_to_bytes() {
        let err = FilterError::from(DecodeError::Truncated { needed: 3, have: 1 });
        assert_eq!(
            err,
            FilterError::TruncatedBuffer {
                needed: 24,
                have: 8
            }
        );
        // A forged length can claim any word count: the byte count
        // saturates instead of overflowing.
        let err = FilterError::from(DecodeError::Truncated {
            needed: usize::MAX / 4,
            have: usize::MAX,
        });
        assert_eq!(
            err,
            FilterError::TruncatedBuffer {
                needed: usize::MAX,
                have: usize::MAX
            }
        );
    }
}

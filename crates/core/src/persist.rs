//! The versioned flat-byte on-disk format every filter in the workspace
//! serializes to.
//!
//! # Blob layout
//!
//! A serialized filter is a self-describing sequence of little-endian `u64`
//! words: a fixed five-word header followed by a filter-specific payload.
//!
//! | word | contents |
//! |---|---|
//! | 0 | [`MAGIC`] (`b"GRAFILT\0"` as a little-endian word) |
//! | 1 | low 32 bits: spec id; high 32 bits: [`FORMAT_VERSION`] |
//! | 2 | number of keys the filter was built on |
//! | 3 | payload length in words |
//! | 4 | [checksum](checksum_words) of the payload words |
//!
//! The payload is the filter's structural fields followed by its succinct
//! containers in `grafite-succinct`'s word encoding. A payload stores bits,
//! never what follows from them: rank/select directories, element counts
//! and extremes are derived from the bits at load, so loading never
//! rebuilds a filter from its keys and never trusts a stored copy of a
//! derivable value. [`Header::parse`] verifies the blob and hands back the
//! checksummed payload slice, which one bounds-checked
//! [`WordReader`](grafite_succinct::io::WordReader) copies into owned
//! containers.
//!
//! # Versioning policy
//!
//! [`FORMAT_VERSION`] is bumped on *any* incompatible change to the header
//! or to any filter's payload encoding; readers accept exactly
//! [`FORMAT_VERSION`] and reject every other version with
//! [`FilterError::UnsupportedFormatVersion`] rather than guessing — the
//! same one-version policy the store manifest follows. Spec ids
//! are append-only: an id, once assigned (see [`spec_id`]), is never
//! reused for a different family.
//!
//! Version history:
//!
//! * **v1** — the original layout; `RsBitVec` select directories stored as
//!   block-index *hints*, which loaders had to rebuild. **No longer
//!   readable**: a v1 blob fails with
//!   [`FilterError::UnsupportedFormatVersion`] on every load path.
//! * **v2** — `RsBitVec` select directories store the exact position of
//!   every 512th one/zero (the position-sampled scheme of the succinct
//!   hot-path overhaul), which loads checked against the bits. **No longer
//!   readable.**
//! * **v3** (current) — bit vectors store their bits alone; loading
//!   derives the rank directory and select samples. Elias–Fano stores
//!   `[universe] + low + high` (its length and extremes follow from the
//!   high bits), and the tries drop their stored node and leaf counts.
//!
//! # Threat model
//!
//! Loading is hardened against *accidental* damage: truncation, bit rot,
//! version skew, and mismatched families all surface as typed
//! [`FilterError`]s (the checksum covers header words 1–3 and the whole
//! payload), and decoders additionally apply cheap structural range checks
//! (array shapes, offset bounds) that catch the common inconsistencies a
//! damaged stream exhibits. These checks are
//! best-effort, **not a verifier**: the checksum is not cryptographic, and
//! a deliberately crafted blob that forges it can still produce wrong
//! query answers. Authenticate provenance before loading filters from
//! untrusted parties, as with any serialization format without a verifier.

use std::io;

use grafite_succinct::io::le_word;

use crate::error::FilterError;

/// `b"GRAFILT\0"` read as a little-endian word: the first 8 bytes of every
/// serialized filter.
pub const MAGIC: u64 = u64::from_le_bytes(*b"GRAFILT\0");

/// The on-disk format version this build writes (and reads).
pub const FORMAT_VERSION: u32 = 3;

/// Header size in bytes (five words).
pub const HEADER_BYTES: usize = HEADER_WORDS * 8;

/// Header size in words.
pub const HEADER_WORDS: usize = 5;

/// Stable spec ids naming each filter family in the header.
///
/// Ids `1..=11` mirror the [`FilterSpec`](crate::registry::FilterSpec)
/// registry table; ids from 32 up name families that are serializable but
/// not part of the paper's eleven-way comparison. Append-only — never
/// renumber.
pub mod spec_id {
    /// Grafite (paper §3).
    pub const GRAFITE: u32 = 1;
    /// Bucketing (paper §4).
    pub const BUCKETING: u32 = 2;
    /// SNARF.
    pub const SNARF: u32 = 3;
    /// SuRF with real suffixes.
    pub const SURF_REAL: u32 = 4;
    /// SuRF with hashed suffixes.
    pub const SURF_HASH: u32 = 5;
    /// Proteus.
    pub const PROTEUS: u32 = 6;
    /// Rosetta.
    pub const ROSETTA: u32 = 7;
    /// REncoder, base configuration.
    pub const RENCODER: u32 = 8;
    /// REncoder with fixed selective storage.
    pub const RENCODER_SS: u32 = 9;
    /// REncoder with sample-estimated storage.
    pub const RENCODER_SE: u32 = 10;
    /// The trivial Bloom baseline (paper §2).
    pub const TRIVIAL_BLOOM: u32 = 11;
    /// Grafite over string keys (paper §7 sketch).
    pub const STRING_GRAFITE: u32 = 32;
    /// Workload-aware Bucketing (paper §7 sketch).
    pub const WORKLOAD_AWARE_BUCKETING: u32 = 33;
    /// SuRF without suffix bits (SuRF-Base).
    pub const SURF_BASE: u32 = 34;
}

/// FNV-1a-style 64-bit fold over a word sequence — the primitive under
/// [`blob_checksum`]. Computable from the byte image and the word image
/// alike without copying either.
pub fn checksum_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut acc = Checksum::default();
    acc.update(words);
    acc.value()
}

/// The running state of [`checksum_words`], for a word sequence that
/// arrives in pieces: feeding the pieces in order through
/// [`Checksum::update`] gives exactly `checksum_words` over their
/// concatenation, without holding the whole sequence at once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Checksum(u64);

impl Default for Checksum {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Checksum {
    /// Folds the next words of the sequence in.
    pub fn update(&mut self, words: impl IntoIterator<Item = u64>) {
        for w in words {
            self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The checksum of every word folded in so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// The checksum recorded in header word 4: [`checksum_words`] over header
/// words 1–3 (spec id + version, key count, payload length) followed by
/// the payload words. Covering the header words matters: `n_keys` steers
/// empty-filter early returns at query time, so a blob whose header
/// corrupts must fail [`FilterError::ChecksumMismatch`], never load as a
/// silently wrong (false-negative-producing) filter. Word 0 needs no
/// protection — any corruption of the magic is its own error.
pub fn blob_checksum(
    spec_version_word: u64,
    n_keys: u64,
    payload_words: u64,
    payload: impl IntoIterator<Item = u64>,
) -> u64 {
    checksum_words(
        [spec_version_word, n_keys, payload_words]
            .into_iter()
            .chain(payload),
    )
}

/// An iterator of words over a byte buffer holding whole little-endian
/// words.
pub fn words_of_bytes(bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
    debug_assert_eq!(bytes.len() % 8, 0, "payloads are whole words");
    bytes.chunks_exact(8).map(le_word)
}

/// The parsed five-word blob header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Header {
    /// Format version the blob was written with (always
    /// [`FORMAT_VERSION`] after a successful parse).
    pub version: u32,
    /// Which filter family the payload encodes (see [`spec_id`]).
    pub spec_id: u32,
    /// Number of keys the filter was built on.
    pub n_keys: u64,
    /// Payload length in words.
    pub payload_words: u64,
    /// Checksum of the payload words.
    pub checksum: u64,
}

impl Header {
    /// Header word 1: spec id in the low half, format version in the high
    /// half — the leading input of [`blob_checksum`].
    #[inline]
    pub fn spec_version_word(&self) -> u64 {
        ((self.version as u64) << 32) | self.spec_id as u64
    }

    /// Serializes the header into `out`.
    pub fn write(&self, out: &mut dyn io::Write) -> io::Result<()> {
        for w in [
            MAGIC,
            self.spec_version_word(),
            self.n_keys,
            self.payload_words,
            self.checksum,
        ] {
            out.write_all(&w.to_le_bytes())?;
        }
        Ok(())
    }

    fn validate(words: [u64; HEADER_WORDS], total_available: usize) -> Result<Self, FilterError> {
        let [magic, spec_version, n_keys, payload_words, checksum] = words;
        if magic != MAGIC {
            return Err(FilterError::BadMagic(magic));
        }
        let version = (spec_version >> 32) as u32;
        if version != FORMAT_VERSION {
            return Err(FilterError::UnsupportedFormatVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let header = Self {
            version,
            spec_id: spec_version as u32,
            n_keys,
            payload_words,
            checksum,
        };
        let needed = usize::try_from(header.payload_words)
            .ok()
            .and_then(|pw| pw.checked_add(HEADER_WORDS))
            .and_then(|w| w.checked_mul(8))
            .ok_or(FilterError::corrupt("payload length overflows usize"))?;
        if total_available < needed {
            return Err(FilterError::TruncatedBuffer {
                needed,
                have: total_available,
            });
        }
        Ok(header)
    }

    fn verify_checksum(&self, payload: impl IntoIterator<Item = u64>) -> Result<(), FilterError> {
        let actual = blob_checksum(
            self.spec_version_word(),
            self.n_keys,
            self.payload_words,
            payload,
        );
        if actual != self.checksum {
            return Err(FilterError::ChecksumMismatch {
                expected: self.checksum,
                actual,
            });
        }
        Ok(())
    }

    /// Parses a blob's header *without* verifying the checksum: magic,
    /// version, and length only. This is the cheap dispatch step
    /// (`Registry::load` uses it to pick a loader); the loader's
    /// `deserialize` performs the single full [`Header::parse`] pass.
    pub fn peek(bytes: &[u8]) -> Result<Self, FilterError> {
        if bytes.len() < HEADER_BYTES {
            return Err(FilterError::TruncatedBuffer {
                needed: HEADER_BYTES,
                have: bytes.len(),
            });
        }
        let mut words = [0u64; HEADER_WORDS];
        for (w, c) in words.iter_mut().zip(bytes.chunks_exact(8)) {
            *w = le_word(c);
        }
        Self::validate(words, bytes.len())
    }

    /// Parses and fully validates a blob's header from its byte image,
    /// returning the header and the checksummed payload bytes. Trailing
    /// bytes past the payload are permitted (and ignored), so a filter can
    /// be loaded out of a larger mapped region.
    pub fn parse(bytes: &[u8]) -> Result<(Self, &[u8]), FilterError> {
        let header = Self::peek(bytes)?;
        // `validate` (via `peek`) proved (payload_words + HEADER_WORDS) * 8
        // fits a usize and the buffer holds it, so the checked chain here
        // cannot fail in practice — but corrupt input never gets to panic.
        let payload = usize::try_from(header.payload_words)
            .ok()
            .and_then(|pw| pw.checked_mul(8))
            .and_then(|len| len.checked_add(HEADER_BYTES))
            .and_then(|end| bytes.get(HEADER_BYTES..end))
            .ok_or(FilterError::corrupt("payload extent exceeds buffer"))?;
        header.verify_checksum(words_of_bytes(payload))?;
        Ok((header, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_blob() -> Vec<u8> {
        let payload: Vec<u8> = [1u64, 2, 3].iter().flat_map(|w| w.to_le_bytes()).collect();
        let mut header = Header {
            version: FORMAT_VERSION,
            spec_id: spec_id::GRAFITE,
            n_keys: 99,
            payload_words: 3,
            checksum: 0,
        };
        header.checksum = blob_checksum(
            header.spec_version_word(),
            header.n_keys,
            header.payload_words,
            words_of_bytes(&payload),
        );
        let mut out = Vec::new();
        header.write(&mut out).unwrap();
        out.extend_from_slice(&payload);
        out
    }

    #[test]
    fn header_roundtrip_bytes_and_words() {
        let blob = sample_blob();
        let (h, payload) = Header::parse(&blob).unwrap();
        assert_eq!(h.spec_id, spec_id::GRAFITE);
        assert_eq!(h.n_keys, 99);
        assert_eq!(payload.len(), 24);

        assert_eq!(words_of_bytes(payload).collect::<Vec<_>>(), [1, 2, 3]);
        // The header's word image is the blob's first five words.
        let mut written = Vec::new();
        h.write(&mut written).unwrap();
        assert_eq!(written, blob[..HEADER_BYTES]);
        assert_eq!(
            words_of_bytes(&written).collect::<Vec<_>>(),
            [MAGIC, h.spec_version_word(), 99, 3, h.checksum]
        );
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut blob = sample_blob();
        blob[0] ^= 0xFF;
        assert!(matches!(
            Header::parse(&blob),
            Err(FilterError::BadMagic(_))
        ));
    }

    /// Every version but the current one fails typed — including the
    /// retired v1 and v2.
    #[test]
    fn wrong_version_is_typed() {
        for bad_version in [0u32, 1, 2, FORMAT_VERSION + 1, 9] {
            let mut blob = sample_blob();
            // The version half of word 1.
            blob[12..16].copy_from_slice(&bad_version.to_le_bytes());
            assert_eq!(
                Header::parse(&blob),
                Err(FilterError::UnsupportedFormatVersion {
                    found: bad_version,
                    supported: FORMAT_VERSION
                })
            );
        }
    }

    #[test]
    fn truncation_is_typed() {
        let blob = sample_blob();
        assert_eq!(
            Header::parse(&blob[..10]),
            Err(FilterError::TruncatedBuffer {
                needed: HEADER_BYTES,
                have: 10
            })
        );
        assert_eq!(
            Header::parse(&blob[..blob.len() - 1]),
            Err(FilterError::TruncatedBuffer {
                needed: blob.len(),
                have: blob.len() - 1
            })
        );
    }

    #[test]
    fn streamed_checksum_equals_one_shot_checksum() {
        let words: Vec<u64> = (0..1000u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        for piece in [1usize, 7, 256, 1000] {
            let mut streamed = Checksum::default();
            for chunk in words.chunks(piece) {
                streamed.update(chunk.iter().copied());
            }
            assert_eq!(streamed.value(), checksum_words(words.iter().copied()));
        }
        assert_eq!(Checksum::default().value(), checksum_words([]));
    }

    #[test]
    fn corruption_fails_checksum() {
        let mut blob = sample_blob();
        let last = blob.len() - 1;
        blob[last] ^= 0x01;
        assert!(matches!(
            Header::parse(&blob),
            Err(FilterError::ChecksumMismatch { .. })
        ));
    }

    /// Header words are inside the checksum domain: a corrupted key count
    /// (which steers empty-filter early returns at query time) must fail
    /// loudly, not load as a silently wrong filter.
    #[test]
    fn header_corruption_fails_checksum_too() {
        for byte in [8usize, 16, 23] {
            // spec id, n_keys low, n_keys high
            let mut blob = sample_blob();
            blob[byte] ^= 0x40;
            assert!(
                matches!(
                    Header::parse(&blob),
                    Err(FilterError::ChecksumMismatch { .. })
                ),
                "header byte {byte} corruption escaped the checksum"
            );
        }
        // peek() deliberately skips the checksum (dispatch only)…
        let mut blob = sample_blob();
        blob[16] ^= 0x40;
        assert!(Header::peek(&blob).is_ok());
        // …but the full parse every load goes through catches it.
        assert!(matches!(
            Header::parse(&blob),
            Err(FilterError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn trailing_bytes_tolerated() {
        let mut blob = sample_blob();
        blob.extend_from_slice(&[0u8; 64]);
        assert!(Header::parse(&blob).is_ok());
    }
}

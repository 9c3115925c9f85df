//! Word-oriented serialization primitives shared by every persistent
//! structure in the workspace.
//!
//! The on-disk unit is the little-endian `u64` word: every structure's
//! encoding is a flat word sequence, written through [`WordWriter`] and
//! read back through [`WordReader`], one bounds-checked reader over an
//! in-memory byte slice (the checksummed payload of a blob). Structures
//! always load into owned `Vec<u64>` storage.

use std::io;

/// Errors produced while decoding a word stream.
///
/// These are storage-level errors; `grafite-core` wraps them into its typed
/// `FilterError` variants at the filter boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The stream ended before the structure was complete.
    Truncated {
        /// Words the decoder needed.
        needed: usize,
        /// Words actually available.
        have: usize,
    },
    /// A decoded field is structurally impossible (e.g. a bit width above
    /// 64). Carries a short static description.
    Invalid(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { needed, have } => {
                write!(
                    f,
                    "truncated word stream: needed {needed} words, have {have}"
                )
            }
            DecodeError::Invalid(what) => write!(f, "invalid field: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Folds (up to) the first eight bytes of `chunk` into a little-endian
/// word. Panic-free for any input length: missing high bytes read as zero,
/// extra bytes are ignored — callers pair it with `chunks_exact(8)` or an
/// explicit length check when exactness matters.
#[inline]
pub fn le_word(chunk: &[u8]) -> u64 {
    chunk
        .iter()
        .take(8)
        .enumerate()
        .fold(0u64, |acc, (slot, &b)| acc | (u64::from(b) << (8 * slot)))
}

/// A counting writer of little-endian `u64` words over any byte sink.
///
/// Non-generic (the sink is a `&mut dyn Write`) so persistence traits using
/// it stay object-safe.
pub struct WordWriter<'a> {
    out: &'a mut dyn io::Write,
    words: usize,
}

impl<'a> WordWriter<'a> {
    /// Wraps a byte sink.
    pub fn new(out: &'a mut dyn io::Write) -> Self {
        Self { out, words: 0 }
    }

    /// Writes one word.
    #[inline]
    pub fn word(&mut self, w: u64) -> io::Result<()> {
        self.out.write_all(&w.to_le_bytes())?;
        self.words = self.words.saturating_add(1);
        Ok(())
    }

    /// Writes a slice of words.
    pub fn words(&mut self, ws: &[u64]) -> io::Result<()> {
        for &w in ws {
            self.out.write_all(&w.to_le_bytes())?;
        }
        self.words = self.words.saturating_add(ws.len());
        Ok(())
    }

    /// Writes a length-prefixed word slice: `[len, w_0, …, w_{len-1}]`.
    pub fn prefixed(&mut self, ws: &[u64]) -> io::Result<()> {
        self.word(ws.len() as u64)?;
        self.words(ws)
    }

    /// Writes `bytes` packed into words (little-endian, zero-padded to the
    /// next word boundary). The *byte* length is not written; pair with an
    /// explicit length word and [`WordReader::take_bytes`].
    pub fn bytes_padded(&mut self, bytes: &[u8]) -> io::Result<()> {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            let mut w = [0u8; 8];
            w.copy_from_slice(c);
            self.word(u64::from_le_bytes(w))?;
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            self.word(le_word(rem))?;
        }
        Ok(())
    }

    /// Number of words written so far.
    #[inline]
    pub fn words_written(&self) -> usize {
        self.words
    }
}

/// The one decode path: a reader of little-endian `u64` words over an
/// in-memory byte slice — in practice the checksummed payload slice that
/// `grafite_core`'s `Header::parse` hands back. Bulk reads
/// ([`WordReader::take`]) copy into a fresh `Vec<u64>`, the only word
/// store the workspace's structures use.
///
/// Every read checks its extent against the bytes left *before* it
/// allocates, so a forged length word can never demand an allocation
/// larger than the input itself; running short is a typed
/// [`DecodeError::Truncated`], never a panic.
#[derive(Clone, Debug)]
pub struct WordReader<'a> {
    rest: &'a [u8],
    words_read: usize,
}

impl<'a> WordReader<'a> {
    /// Starts a reader at the beginning of `bytes`. A trailing partial
    /// word is never readable.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self {
            rest: bytes,
            words_read: 0,
        }
    }

    /// Whole words left.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.rest.len() / 8
    }

    /// Consumes the next `n` words' bytes, or fails typed — before touching
    /// anything — when fewer than `n` whole words are left.
    fn advance(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let split = n
            .checked_mul(8)
            .and_then(|len| Some((self.rest.get(..len)?, self.rest.get(len..)?)));
        let Some((run, rest)) = split else {
            return Err(DecodeError::Truncated {
                needed: self.words_read.saturating_add(n),
                have: self.words_read.saturating_add(self.remaining()),
            });
        };
        self.rest = rest;
        self.words_read = self.words_read.saturating_add(n);
        Ok(run)
    }

    /// Reads one word.
    #[inline]
    pub fn word(&mut self) -> Result<u64, DecodeError> {
        self.advance(1).map(le_word)
    }

    /// Reads one word and checks it fits a `usize` length/index.
    pub fn length(&mut self) -> Result<usize, DecodeError> {
        let w = self.word()?;
        usize::try_from(w).map_err(|_| DecodeError::Invalid("length exceeds usize"))
    }

    /// Reads `n` words into a fresh word store. `n · 8` is checked against
    /// the bytes left first, so the allocation never exceeds the input.
    pub fn take(&mut self, n: usize) -> Result<Vec<u64>, DecodeError> {
        Ok(self.advance(n)?.chunks_exact(8).map(le_word).collect())
    }

    /// Reads a word-padded byte run of `n` bytes (see
    /// [`WordWriter::bytes_padded`]).
    pub fn take_bytes(&mut self, n: usize) -> Result<Vec<u8>, DecodeError> {
        let run = self.advance(n.div_ceil(8))?;
        run.get(..n)
            .map(<[u8]>::to_vec)
            .ok_or(DecodeError::Invalid("byte run exceeds its words"))
    }
}

/// A byte sink that only counts: backs `serialized_bits` measurements
/// without allocating.
#[derive(Clone, Copy, Debug, Default)]
pub struct CountingSink {
    bytes: usize,
}

impl CountingSink {
    /// A fresh zero-count sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes "written" so far.
    #[inline]
    pub fn bytes_written(&self) -> usize {
        self.bytes
    }
}

impl io::Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes = self.bytes.saturating_add(buf.len());
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The little-endian byte image of `words` — what [`WordWriter`] emits —
/// for tests that forge or truncate an encoding word by word.
#[cfg(test)]
pub(crate) fn le_bytes(words: &[u64]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_counts_and_roundtrips() {
        let mut buf = Vec::new();
        let mut w = WordWriter::new(&mut buf);
        w.word(7).unwrap();
        w.prefixed(&[1, 2, 3]).unwrap();
        w.bytes_padded(b"hello").unwrap();
        assert_eq!(w.words_written(), 6);
        assert_eq!(buf.len(), 48);

        let mut src = WordReader::new(&buf);
        assert_eq!(src.word().unwrap(), 7);
        let n = src.length().unwrap();
        assert_eq!(src.take(n).unwrap(), vec![1, 2, 3]);
        assert_eq!(src.take_bytes(5).unwrap(), b"hello");
        assert_eq!(src.remaining(), 0);
    }

    #[test]
    fn truncation_is_typed() {
        let bytes = le_bytes(&[1, 2]);
        let mut src = WordReader::new(&bytes);
        src.take(2).unwrap();
        assert_eq!(
            src.word(),
            Err(DecodeError::Truncated { needed: 3, have: 2 })
        );
        let mut src = WordReader::new(&bytes);
        assert_eq!(
            src.take(5),
            Err(DecodeError::Truncated { needed: 5, have: 2 })
        );
        // A failed read consumes nothing.
        assert_eq!(src.remaining(), 2);
        assert_eq!(src.take(2).unwrap(), vec![1, 2]);
        // A trailing partial word is never readable.
        let mut src = WordReader::new(&bytes[..12]);
        assert_eq!(src.word(), Ok(1));
        assert_eq!(
            src.word(),
            Err(DecodeError::Truncated { needed: 2, have: 1 })
        );
        assert_eq!(
            WordReader::new(&bytes[..4]).take_bytes(3),
            Err(DecodeError::Truncated { needed: 1, have: 0 })
        );
        // A length word beyond usize is invalid, not truncated.
        if usize::BITS < 64 {
            let wide = le_bytes(&[u64::MAX]);
            assert!(matches!(
                WordReader::new(&wide).length(),
                Err(DecodeError::Invalid(_))
            ));
        }
    }

    /// A forged length cannot demand an allocation: `take` checks `n · 8`
    /// against the bytes left (overflow included) before it allocates, so
    /// these fail typed instantly on a 16-byte input instead of aborting on
    /// an exabyte request.
    #[test]
    fn huge_takes_fail_typed_without_allocating() {
        let bytes = le_bytes(&[1, 2]);
        for n in [1usize << 60, usize::MAX, usize::MAX / 8 + 1, 3] {
            let mut src = WordReader::new(&bytes);
            assert_eq!(
                src.take(n),
                Err(DecodeError::Truncated { needed: n, have: 2 })
            );
            if n > 16 {
                assert!(matches!(
                    src.take_bytes(n),
                    Err(DecodeError::Truncated { have: 2, .. })
                ));
            }
            assert_eq!(src.remaining(), 2);
        }
        assert_eq!(
            WordReader::new(&bytes).take_bytes(17),
            Err(DecodeError::Truncated { needed: 3, have: 2 })
        );
    }

    #[test]
    fn counting_sink_counts() {
        let mut sink = CountingSink::new();
        let mut w = WordWriter::new(&mut sink);
        w.words(&[0; 10]).unwrap();
        assert_eq!(sink.bytes_written(), 80);
    }
}

//! The Elias–Fano encoding of monotone integer sequences, with the
//! `predecessor` operation Grafite's query algorithm is built on (paper §3).
//!
//! Given `n` non-decreasing values `z_0 <= … <= z_{n-1}` from a universe
//! `[0, universe)`, each value is split into `l = floor(log2(universe / n))`
//! low bits, stored verbatim in an [`IntVec`] `V`, and the remaining high
//! bits, encoded in negated-unary form in a bit vector `H`: bit `(z_i >> l) + i`
//! of `H` is set. The total size is `n * l + 2n + o(n)` bits, which is what
//! gives Grafite its `n log(L/eps) + 2n + o(n)` space bound (Theorem 3.4).
//!
//! # The fused hot path
//!
//! The paper's Example 3.3 locates the bucket of `y`'s high part with *two*
//! `select0` calls and then binary-searches the bucket's low parts. This
//! implementation fuses the locate into **one** `select0`: bucket `p`'s
//! elements occupy a contiguous run of ones ending right below the `p`-th
//! zero of `H`, so a word-local backward scan from that zero recovers both
//! bucket endpoints (a second `select0` is issued only for degenerate
//! multi-hundred-element buckets). The `select0` itself reads a 512-zero
//! sample and a 16-bit inventory offset to the 64-zero step below its
//! target, then selects within one or two words (see
//! [`crate::rs_bitvec`]); `H` carries that inventory in memory from the
//! moment it is built or loaded, and nothing of it is serialized. The low
//! parts are then resolved with a word-addressed sequential probe — one running bit cursor over the packed
//! array — instead of a binary search that re-derives word offsets per
//! probe; buckets are a couple of elements at the paper's densities, so the
//! sequential probe wins on every real workload (a binary search remains as
//! the fallback for adversarially deep buckets). `successor` and `rank`
//! share the same machinery. An [`EfCursor`] can walk `H` with monotone
//! state for sorted probes; no filter uses it, because the per-probe fused
//! path is as fast or faster at every batch shape the filters serve.

use crate::intvec::IntVec;
use crate::io::{DecodeError, WordReader, WordWriter};
use crate::rs_bitvec::RsBitVec;
use crate::{BitVec, WORD_BITS};

/// Word budget of the word-local scans around a bucket's delimiting zero;
/// past it the classic `select0`/`select1` probes answer exactly. At the
/// paper's densities (a set bit every ~2–3 positions of `H`) one word
/// almost always suffices.
const RUN_SCAN_WORDS: usize = 8;

/// Buckets up to this deep take the sequential word-addressed low-bits
/// probe; deeper (adversarially duplicated) buckets binary-search instead.
const LINEAR_SCAN_MAX: usize = 48;

/// When an [`EfCursor`]'s target bucket starts more than this many `H` bits
/// past the scan frontier, the cursor jumps with one fused probe instead of
/// walking the gap. The walk costs a few ns per set bit passed and a fused
/// probe ~100 ns, so the crossover sits at a few dozen bits of `H`.
const GALLOP_BITS: usize = 64;

/// The encoder's low width `l = floor(log2(universe / n))` (0 when the
/// universe is not larger than `n`), for `n > 0`.
fn low_bit_width(n: usize, universe: u64) -> usize {
    if universe > n as u64 {
        (universe / n as u64).ilog2() as usize
    } else {
        0
    }
}

/// An Elias–Fano encoded monotone sequence supporting random access,
/// predecessor/successor, and rank. Building and loading both derive the
/// high bits' rank/select directories and `select0` inventory.
#[derive(Clone, Debug)]
pub struct EliasFano {
    n: usize,
    universe: u64,
    low_bits: usize,
    low: IntVec,
    high: RsBitVec,
    first: u64,
    last: u64,
}

impl EliasFano {
    /// Encodes `values`, which must be non-decreasing and all `< universe`.
    ///
    /// Duplicate values are allowed (the encoding is a multiset): Grafite
    /// stores one code per key, so colliding keys repeat a code.
    ///
    /// Validation is hoisted out of the encode loop: one upfront
    /// monotonicity pass plus a single bounds check on the maximum (the
    /// last element, by monotonicity); the loop itself carries only
    /// `debug_assert!`s and writes the high bits word-directly.
    ///
    /// # Panics
    /// Panics if the values are not non-decreasing or exceed the universe.
    pub fn new(values: &[u64], universe: u64) -> Self {
        let n = values.len();
        if n == 0 {
            return Self {
                n: 0,
                universe,
                low_bits: 0,
                low: IntVec::new(0),
                high: RsBitVec::new(BitVec::zeros(1)).with_select0_inventory(),
                first: 0,
                last: 0,
            };
        }
        assert!(
            universe > 0,
            "universe must be positive for a non-empty set"
        );
        assert!(
            values.windows(2).all(|w| w[0] <= w[1]),
            "values must be non-decreasing"
        );
        assert!(
            values[n - 1] < universe,
            "value {} >= universe {universe}",
            values[n - 1]
        );
        let low_bits = low_bit_width(n, universe);
        let mask = if low_bits == 0 {
            0
        } else {
            (1u64 << low_bits) - 1
        };

        let hi_max = (universe - 1) >> low_bits;
        let high_len = (hi_max as usize) + n + 1;
        let mut high_words = vec![0u64; crate::div_ceil(high_len.max(1), WORD_BITS)];
        for (i, &v) in values.iter().enumerate() {
            debug_assert!(v < universe, "value {v} >= universe {universe}");
            debug_assert!(
                i == 0 || v >= values[i - 1],
                "values must be non-decreasing"
            );
            let pos = (v >> low_bits) as usize + i;
            high_words[pos / WORD_BITS] |= 1u64 << (pos % WORD_BITS);
        }
        let mut low = IntVec::with_capacity(low_bits, n);
        for &v in values {
            low.push(v & mask);
        }
        let high = BitVec::from_words(high_words, high_len);

        Self {
            n,
            universe,
            low_bits,
            low,
            high: RsBitVec::new(high).with_select0_inventory(),
            first: values[0],
            last: values[n - 1],
        }
    }

    /// The sequence with one occurrence of each value of `remove` taken out
    /// and each value of `add` put in, under the same universe — equal to
    /// [`EliasFano::new`] over the resulting multiset, bit for bit. `None`
    /// if some value of `remove` has no occurrence left to take out.
    ///
    /// The cost scales with the update, not the sequence: each update
    /// point is located by one [`EliasFano::rank`], each stretch of
    /// untouched elements between two of them moves as one block copy of
    /// its low fields and of its run of `H` (whose positions shift by the
    /// running count of inserts minus deletes, one bit per element), and
    /// only the update points are encoded afresh. When the new length
    /// changes the low width `l`, every element re-encodes instead.
    ///
    /// # Panics
    /// Panics if `remove` or `add` is not non-decreasing, or a value of
    /// `add` is not below the universe.
    pub fn merged(&self, remove: &[u64], add: &[u64]) -> Option<EliasFano> {
        assert!(
            remove.windows(2).all(|w| w[0] <= w[1]) && add.windows(2).all(|w| w[0] <= w[1]),
            "updates must be non-decreasing"
        );
        if let Some(&max) = add.last() {
            assert!(
                max < self.universe,
                "value {max} >= universe {}",
                self.universe
            );
        }
        let n = (self.n + add.len()).checked_sub(remove.len())?;
        if self.n == 0 || n == 0 || low_bit_width(n, self.universe) != self.low_bits {
            return self.merged_per_element(remove, add);
        }
        let l = self.low_bits;
        let mask = self.low_mask();
        let (old_high, old_low) = (self.high.bits(), self.low.bits());
        let mut high = BitVec::with_capacity(old_high.len() + add.len());
        let mut low = BitVec::with_capacity(n * l);
        // The frontier: old `H` bits before `pos`, holding the ones of old
        // elements before `i`, are copied (or dropped) already.
        let (mut pos, mut i) = (0usize, 0usize);
        let (mut ri, mut ai) = (0usize, 0usize);
        let mut last_removed = None;
        while ri < remove.len() || ai < add.len() {
            // Inserts of a value go before removals of it; either order
            // yields the same multiset.
            let insert = ai < add.len() && (ri == remove.len() || add[ai] <= remove[ri]);
            let v = if insert { add[ai] } else { remove[ri] };
            if v >= self.universe {
                return None;
            }
            // The update point: before the first old element not below
            // `v` (or, removing another copy of `v`, the next one), which
            // sits at `(v >> l) + at` in `H`.
            let at = match last_removed {
                Some((prev, at)) if prev == v && !insert => at + 1,
                _ => self.rank(v),
            };
            let at_pos = (v >> l) as usize + at;
            high.extend_from(old_high, pos, at_pos);
            low.extend_from(old_low, i * l, at * l);
            (pos, i) = (at_pos, at);
            if insert {
                ai += 1;
                high.push(true);
                low.push_bits(v & mask, l);
            } else {
                ri += 1;
                // Element `at` holds `v` iff its one sits at `at_pos` (so
                // its high part is `v`'s) and its low field is `v`'s.
                if at == self.n || !old_high.get(at_pos) || self.low.get(at) != v & mask {
                    return None;
                }
                last_removed = Some((v, at));
                (pos, i) = (at_pos + 1, at + 1);
            }
        }
        high.extend_from(old_high, pos, old_high.len());
        low.extend_from(old_low, i * l, self.n * l);
        Some(Self::assemble(
            self.universe,
            IntVec::from_bits(l, n, low),
            RsBitVec::new(high),
        ))
    }

    /// [`EliasFano::merged`] by decoding every element, merging, and
    /// encoding afresh: the path for a change of low width.
    fn merged_per_element(&self, remove: &[u64], add: &[u64]) -> Option<EliasFano> {
        let mut values = Vec::with_capacity(self.n + add.len());
        let (mut ri, mut ai) = (0usize, 0usize);
        for v in self.iter() {
            while ai < add.len() && add[ai] <= v {
                values.push(add[ai]);
                ai += 1;
            }
            match remove.get(ri) {
                Some(&gone) if gone < v => return None,
                Some(&gone) if gone == v => ri += 1,
                _ => values.push(v),
            }
        }
        if ri < remove.len() {
            return None;
        }
        values.extend_from_slice(&add[ai..]);
        Some(Self::new(&values, self.universe))
    }

    /// A sequence from its low fields and high bits, with `n`, `first` and
    /// `last` read off them and the `select0` inventory derived.
    fn assemble(universe: u64, low: IntVec, high: RsBitVec) -> Self {
        let mut ef = Self {
            n: high.count_ones(),
            universe,
            low_bits: low.width(),
            low,
            high: high.with_select0_inventory(),
            first: 0,
            last: 0,
        };
        if ef.n > 0 {
            (ef.first, ef.last) = (ef.get(0), ef.get(ef.n - 1));
        }
        ef
    }

    /// Bits of low fields and high bits that [`EliasFano::new`] encodes
    /// `n` values of `[0, universe)` in: `n·l + ⌊(universe−1)/2^l⌋ + n + 1`,
    /// the serialized size less its framing words.
    pub fn encoded_bits(n: usize, universe: u64) -> usize {
        if n == 0 {
            return 1;
        }
        let l = low_bit_width(n, universe);
        n * l + (universe.saturating_sub(1) >> l) as usize + n + 1
    }

    /// Number of stored values.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the sequence is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The universe bound the sequence was built with.
    #[inline]
    pub fn universe(&self) -> u64 {
        self.universe
    }

    /// The number of low bits `l` per element.
    #[inline]
    pub fn low_bit_width(&self) -> usize {
        self.low_bits
    }

    /// The smallest stored value.
    ///
    /// # Panics
    /// Panics if the sequence is empty.
    #[inline]
    pub fn first(&self) -> u64 {
        assert!(self.n > 0, "empty sequence");
        self.first
    }

    /// The largest stored value.
    ///
    /// # Panics
    /// Panics if the sequence is empty.
    #[inline]
    pub fn last(&self) -> u64 {
        assert!(self.n > 0, "empty sequence");
        self.last
    }

    /// Random access: the `i`-th smallest stored value.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        assert!(i < self.n, "index {i} out of range {}", self.n);
        let hi = (self.high.select1(i) - i) as u64;
        (hi << self.low_bits) | self.low.get(i)
    }

    #[inline]
    fn low_mask(&self) -> u64 {
        if self.low_bits == 0 {
            0
        } else {
            (1u64 << self.low_bits) - 1
        }
    }

    /// Fused bucket locate: index range `[start, end)` of the elements with
    /// high part `p`, plus the `H` position of bucket `p`'s delimiting
    /// zero — from **one** `select0`. The bucket's ones sit contiguously
    /// right below that zero (element `i` lives at bit `hi_i + i`), so a
    /// word-local backward run scan recovers `start`; only a degenerate
    /// bucket deeper than `RUN_SCAN_WORDS` words falls back to the second
    /// probe.
    #[inline]
    fn bucket_one_probe(&self, p: u64) -> (usize, usize, usize) {
        let p = p as usize;
        let zpos = self.high.select0(p);
        let end = zpos - p;
        let words = self.high.bits().words();
        let mut run = 0usize;
        let mut pos = zpos;
        let mut budget = RUN_SCAN_WORDS;
        while pos > 0 {
            let w_idx = (pos - 1) / WORD_BITS;
            let used = (pos - 1) % WORD_BITS + 1;
            let chunk = words[w_idx] << (WORD_BITS - used);
            let ones_at_top = chunk.leading_ones() as usize;
            if ones_at_top < used {
                return (end - (run + ones_at_top), end, zpos);
            }
            run += used;
            pos -= used;
            budget -= 1;
            if budget == 0 {
                let start = if p == 0 {
                    0
                } else {
                    self.high.select0(p - 1) - (p - 1)
                };
                return (start, end, zpos);
            }
        }
        (end - run, end, zpos)
    }

    /// First index in `[start, end)` whose low part passes `y_lo` — past
    /// equal lows when `include_equal` (predecessor's partition), at the
    /// first `>= y_lo` otherwise (successor/rank). Sequential
    /// word-addressed probe for real-world bucket depths, binary search for
    /// adversarial ones.
    #[inline]
    fn low_partition(&self, start: usize, end: usize, y_lo: u64, include_equal: bool) -> usize {
        if start == end {
            return start;
        }
        let width = self.low_bits;
        if width == 0 {
            // Every low is zero, and so is y_lo.
            return if include_equal { end } else { start };
        }
        if end - start > LINEAR_SCAN_MAX {
            let (mut lo, mut hi) = (start, end);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                let v = self.low.get(mid);
                if v < y_lo || (include_equal && v == y_lo) {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            return lo;
        }
        // The word-addressed sequential probe is the dispatched
        // `simd::low_partition` kernel — vectorized (gather + variable
        // shifts) where the CPU allows, the same running-cursor scalar
        // loop otherwise.
        crate::simd::low_partition(self.low.raw_words(), width, start, end, y_lo, include_equal)
    }

    /// `predecessor` with the element's index — the shared core of
    /// [`EliasFano::predecessor`] and the cursor's gallop jumps.
    fn pred_entry(&self, y: u64) -> Option<(usize, u64)> {
        if self.n == 0 || y < self.first {
            return None;
        }
        if y >= self.last {
            return Some((self.n - 1, self.last));
        }
        let p = y >> self.low_bits;
        let y_lo = y & self.low_mask();
        let (start, end, zpos) = self.bucket_one_probe(p);
        let lo = self.low_partition(start, end, y_lo, true);
        if lo > start {
            return Some((lo - 1, (p << self.low_bits) | self.low.get(lo - 1)));
        }
        if start == 0 {
            return None;
        }
        // No candidate in bucket p: the answer is element start-1, whose
        // one is the first set bit below the zero delimiting bucket p from
        // below (at position zpos - bucket_size - 1). Word-local backward
        // scan, with the classic select1 as the long-gap fallback.
        let idx = start - 1;
        let words = self.high.bits().words();
        let mut pos = zpos - (end - start) - 1;
        let mut budget = RUN_SCAN_WORDS;
        while pos > 0 {
            let w_idx = (pos - 1) / WORD_BITS;
            let used = (pos - 1) % WORD_BITS + 1;
            let chunk = words[w_idx] << (WORD_BITS - used);
            if chunk != 0 {
                let one_pos = pos - 1 - chunk.leading_zeros() as usize;
                let hi = (one_pos - idx) as u64;
                return Some((idx, (hi << self.low_bits) | self.low.get(idx)));
            }
            pos -= used;
            budget -= 1;
            if budget == 0 {
                return Some((idx, self.get(idx)));
            }
        }
        unreachable!("start > 0 guarantees a preceding element")
    }

    /// The largest stored value `<= y`, or `None` if every value is `> y`.
    ///
    /// This is the `predecessor` of the paper's Section 3, on the fused
    /// single-probe path described in the module docs: one `select0`, a
    /// word-local bucket scan, and a word-addressed low-bits probe.
    #[inline]
    pub fn predecessor(&self, y: u64) -> Option<u64> {
        self.pred_entry(y).map(|(_, v)| v)
    }

    /// The smallest stored value `>= y`, or `None` if every value is `< y`.
    pub fn successor(&self, y: u64) -> Option<u64> {
        if self.n == 0 || y > self.last {
            return None;
        }
        if y <= self.first {
            return Some(self.first);
        }
        let p = y >> self.low_bits;
        let y_lo = y & self.low_mask();
        let (start, end, zpos) = self.bucket_one_probe(p);
        let lo = self.low_partition(start, end, y_lo, false);
        if lo < end {
            return Some((p << self.low_bits) | self.low.get(lo));
        }
        // First element of a later bucket; `end < n` is guaranteed because
        // y < last here. Its one is the first set bit after zpos: forward
        // word scan, select1 as the long-gap fallback.
        let idx = end;
        let words = self.high.bits().words();
        let mut w_idx = (zpos + 1) / WORD_BITS;
        let mut w = words[w_idx] & (!0u64 << ((zpos + 1) % WORD_BITS));
        let mut budget = RUN_SCAN_WORDS;
        loop {
            if w != 0 {
                let one_pos = w_idx * WORD_BITS + w.trailing_zeros() as usize;
                let hi = (one_pos - idx) as u64;
                return Some((hi << self.low_bits) | self.low.get(idx));
            }
            budget -= 1;
            if budget == 0 {
                return Some(self.get(idx));
            }
            w_idx += 1;
            w = words[w_idx];
        }
    }

    /// Number of stored values strictly smaller than `y`.
    ///
    /// Combined with `predecessor`, this provides the approximate range-count
    /// extension of the paper (Section 3, last paragraph): the number of
    /// stored values in `[a, b]` is `rank(b + 1) - rank(a)`.
    pub fn rank(&self, y: u64) -> usize {
        if self.n == 0 || y <= self.first {
            return 0;
        }
        if y > self.last {
            return self.n;
        }
        let p = y >> self.low_bits;
        let y_lo = y & self.low_mask();
        let (start, end, _) = self.bucket_one_probe(p);
        self.low_partition(start, end, y_lo, false)
    }

    /// Whether any stored value lies in the closed interval `[a, b]`.
    #[inline]
    pub fn any_in_range(&self, a: u64, b: u64) -> bool {
        debug_assert!(a <= b);
        match self.predecessor(b) {
            Some(v) => v >= a,
            None => false,
        }
    }

    /// A stateful cursor for resolving a **non-decreasing** sequence of
    /// predecessor probes with monotone state — see [`EfCursor`]. No filter
    /// calls it; it is kept as a measured kernel of the benchmarks.
    pub fn cursor(&self) -> EfCursor<'_> {
        let words = self.high.bits().words();
        EfCursor {
            ef: self,
            idx: 0,
            word_idx: 0,
            word: words.first().copied().unwrap_or(0),
            prev: None,
            #[cfg(debug_assertions)]
            last_y: 0,
        }
    }

    /// Iterator over the stored values in non-decreasing order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.high
            .bits()
            .iter_ones()
            .enumerate()
            .map(move |(i, pos)| (((pos - i) as u64) << self.low_bits) | self.low.get(i))
    }

    /// Resident heap size in bits (low parts + high bits + rank/select
    /// directories). The serialized size is smaller: the directories are
    /// derived on load, not stored.
    pub fn size_in_bits(&self) -> usize {
        self.low.size_in_bits() + self.high.size_in_bits()
    }

    /// Serializes as `[universe] + low + high`. Returns the word count.
    pub fn write_to(&self, w: &mut WordWriter<'_>) -> std::io::Result<usize> {
        let before = w.words_written();
        w.word(self.universe)?;
        self.low.write_to(w)?;
        self.high.write_to(w)?;
        Ok(w.words_written() - before)
    }

    /// Reads back what [`EliasFano::write_to`] wrote, ready to answer
    /// `predecessor` queries. The count `n` is the number of ones in the
    /// high bits and `first`/`last` are decoded from them; the shape the
    /// encoder fixes is checked: the low width and the high-bits length
    /// follow from `(n, universe)`, and every value lies below `universe`.
    pub fn read_from(src: &mut WordReader<'_>) -> Result<Self, DecodeError> {
        let universe = src.word()?;
        let low = IntVec::read_from(src)?;
        let high = RsBitVec::read_from(src)?;
        let n = high.count_ones();
        if low.len() != n {
            return Err(DecodeError::Invalid("Elias-Fano low array shape"));
        }
        // The shape `new` writes: an empty sequence is one zero
        // bit and no low bits; otherwise `l` and `|H|` follow from `(n, u)`.
        let (want_low_bits, want_high_len) = if n == 0 {
            (0, Some(1))
        } else if universe == 0 {
            return Err(DecodeError::Invalid("Elias-Fano bounds"));
        } else {
            let l = low_bit_width(n, universe);
            let hi_max = usize::try_from((universe - 1) >> l).ok();
            (l, hi_max.and_then(|h| h.checked_add(n)?.checked_add(1)))
        };
        if low.width() != want_low_bits {
            return Err(DecodeError::Invalid("Elias-Fano low-bit width"));
        }
        if Some(high.len()) != want_high_len {
            return Err(DecodeError::Invalid("Elias-Fano high bit length"));
        }
        let ef = Self::assemble(universe, low, high);
        if n > 0 && ef.last >= universe {
            return Err(DecodeError::Invalid("Elias-Fano bounds"));
        }
        Ok(ef)
    }
}

/// A stateful scanner resolving a **non-decreasing** sequence of
/// `predecessor` probes with monotone state: the cursor remembers its
/// position in `H` and the last element it decoded, so a batch of sorted
/// probes walks the high bits once instead of restarting a probe per query.
/// Gaps wider than a few dozen bits of `H` are skipped with one fused probe
/// (galloping), so sparse batches never degrade to a full scan.
///
/// No filter uses the cursor: their batches answer through the per-probe
/// [`EliasFano::predecessor`], which was as fast or faster on every served
/// batch shape. It stays as a benchmarked kernel only.
///
/// Answers are bit-identical to [`EliasFano::predecessor`]; feeding probes
/// out of order is a contract violation (debug-asserted).
pub struct EfCursor<'a> {
    ef: &'a EliasFano,
    /// Element index of the next undecoded element.
    idx: usize,
    /// Word index of the scan frontier in `H`.
    word_idx: usize,
    /// The frontier word with already-consumed bits cleared.
    word: u64,
    /// Last consumed element as `(index, H position)` — its value decodes
    /// lazily, once per answered probe, never once per element walked.
    prev: Option<(usize, usize)>,
    #[cfg(debug_assertions)]
    last_y: u64,
}

impl EfCursor<'_> {
    /// The largest stored value `<= y`. Probes must be non-decreasing
    /// across calls on the same cursor.
    pub fn predecessor(&mut self, y: u64) -> Option<u64> {
        #[cfg(debug_assertions)]
        {
            debug_assert!(y >= self.last_y, "cursor probes must be non-decreasing");
            self.last_y = y;
        }
        let ef = self.ef;
        if ef.n == 0 || y < ef.first {
            return None;
        }
        if y >= ef.last {
            return Some(ef.last);
        }
        let p = y >> ef.low_bits;
        let y_lo = y & ef.low_mask();
        // Gallop: bucket p's delimiting zero sits at H position
        // p + |{elements below bucket p+1}| >= p + idx. If that is past the
        // frontier by more than the walk/probe crossover, one fused probe
        // beats walking the gap.
        if (p as usize + self.idx).saturating_sub(self.word_idx * WORD_BITS) > GALLOP_BITS {
            let (idx, v) = ef.pred_entry(y).expect("y >= first implies a predecessor");
            let pos = ((v >> ef.low_bits) as usize) + idx;
            self.prev = Some((idx, pos));
            self.reposition_after(pos, idx);
            return Some(v);
        }
        let words = ef.high.bits().words();
        while self.idx < ef.n {
            // idx < n guarantees a set bit remains ahead in H.
            while self.word == 0 {
                self.word_idx += 1;
                self.word = words[self.word_idx];
            }
            let pos = self.word_idx * WORD_BITS + self.word.trailing_zeros() as usize;
            let hi = (pos - self.idx) as u64;
            if hi > p {
                break; // this and every later element exceeds y
            }
            // Elements below bucket p are `<= y` by construction; only
            // bucket p's own elements need their low bits compared.
            if hi == p && ef.low.get(self.idx) > y_lo {
                break;
            }
            self.prev = Some((self.idx, pos));
            self.word &= self.word - 1;
            self.idx += 1;
        }
        self.prev
            .map(|(i, pos)| (((pos - i) as u64) << ef.low_bits) | ef.low.get(i))
    }

    /// Moves the frontier to just past the element at H position `pos`.
    fn reposition_after(&mut self, pos: usize, idx: usize) {
        self.idx = idx + 1;
        self.word_idx = pos / WORD_BITS;
        let consumed = pos % WORD_BITS + 1;
        let w = self.ef.high.bits().words()[self.word_idx];
        self.word = if consumed == WORD_BITS {
            0
        } else {
            w & (!0u64 << consumed)
        };
    }
}

impl PartialEq for EliasFano {
    /// Equal sequences and bits; the directories are derived from the
    /// bits, so they are not compared.
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
            && self.universe == other.universe
            && self.low_bits == other.low_bits
            && self.first == other.first
            && self.last == other.last
            && self.low == other.low
            && self.high.bits() == other.high.bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn reference_predecessor(set: &BTreeSet<u64>, y: u64) -> Option<u64> {
        set.range(..=y).next_back().copied()
    }

    fn reference_successor(set: &BTreeSet<u64>, y: u64) -> Option<u64> {
        set.range(y..).next().copied()
    }

    fn check(values: &[u64], universe: u64, probes: impl Iterator<Item = u64>) {
        let ef = EliasFano::new(values, universe);
        let set: BTreeSet<u64> = values.iter().copied().collect();
        assert_eq!(ef.len(), values.len());
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(ef.get(i), v, "get({i})");
        }
        let collected: Vec<u64> = ef.iter().collect();
        assert_eq!(collected, values);
        let mut sorted_probes = Vec::new();
        for y in probes {
            let y = y.min(universe - 1);
            sorted_probes.push(y);
            let expect = reference_predecessor(&set, y);
            assert_eq!(ef.predecessor(y), expect, "pred({y})");
            assert_eq!(ef.successor(y), reference_successor(&set, y), "succ({y})");
            let expect_rank = values.iter().filter(|&&v| v < y).count();
            assert_eq!(ef.rank(y), expect_rank, "rank({y})");
        }
        // The cursor answers the same probes identically when sorted.
        sorted_probes.sort_unstable();
        let mut cur = ef.cursor();
        for &y in &sorted_probes {
            let expect = reference_predecessor(&set, y);
            assert_eq!(cur.predecessor(y), expect, "cursor pred({y})");
        }
    }

    #[test]
    fn paper_example_3_2() {
        // Hash codes of Example 3.2: sorted h(S) with r = 100.
        let codes = [6u64, 14, 32, 51, 53, 55, 66, 70, 91, 94];
        let ef = EliasFano::new(&codes, 100);
        // l = floor(log2(100 / 10)) = 3, exactly as in Figure 2.
        assert_eq!(ef.low_bit_width(), 3);
        // Example 3.3: predecessor(52) = 51 (= z_4 in 1-based indexing).
        assert_eq!(ef.predecessor(52), Some(51));
        // And the query [44, 47] hashes to [49, 52]: pred(52)=51 >= 49, so the
        // structure reports "not empty" — the paper's false positive.
        assert!(ef.any_in_range(49, 52));
        check(&codes, 100, 0..100);
    }

    #[test]
    fn empty_sequence() {
        let ef = EliasFano::new(&[], 1000);
        assert!(ef.is_empty());
        assert_eq!(ef.predecessor(500), None);
        assert_eq!(ef.successor(500), None);
        assert_eq!(ef.rank(500), 0);
        assert!(!ef.any_in_range(0, 999));
        assert_eq!(ef.cursor().predecessor(500), None);
    }

    #[test]
    fn single_value() {
        let ef = EliasFano::new(&[42], 100);
        assert_eq!(ef.predecessor(41), None);
        assert_eq!(ef.predecessor(42), Some(42));
        assert_eq!(ef.predecessor(99), Some(42));
        assert_eq!(ef.successor(42), Some(42));
        assert_eq!(ef.successor(43), None);
        assert_eq!(ef.first(), 42);
        assert_eq!(ef.last(), 42);
    }

    #[test]
    fn duplicates() {
        let values = [5u64, 5, 5, 9, 9, 20];
        check(&values, 32, 0..32);
    }

    /// Adversarially deep buckets: enough duplicates to exhaust both the
    /// backward run scan and the linear low probe, forcing the second
    /// select0 and the binary-search fallbacks.
    #[test]
    fn degenerate_buckets() {
        let mut values = vec![100_000u64; 3000];
        values.extend([100_001u64; 70]);
        values.extend((0..200u64).map(|i| 500_000 + i * 1000));
        values.sort_unstable();
        check(&values, 1_000_000, (0..2000u64).map(|i| i * 499));
    }

    #[test]
    fn dense_universe() {
        // universe == n: zero low bits.
        let values: Vec<u64> = (0..64).collect();
        check(&values, 64, 0..64);
    }

    #[test]
    fn value_at_universe_edge() {
        let values = [0u64, u64::MAX - 1];
        let ef = EliasFano::new(&values, u64::MAX);
        assert_eq!(ef.predecessor(u64::MAX - 1), Some(u64::MAX - 1));
        assert_eq!(ef.predecessor(1), Some(0));
        assert_eq!(ef.successor(1), Some(u64::MAX - 1));
    }

    /// The encoder's exact bits for Example 3.2's codes: with `l = 3`,
    /// element `i` sets bit `(z_i >> 3) + i` of `H` and keeps
    /// `z_i & 7` as its low field, and `|H| = ((r − 1) >> l) + n + 1`. An
    /// empty sequence is one zero bit of `H` and no low bits.
    #[test]
    fn small_and_empty_encodes_write_the_exact_layout() {
        let codes = [6u64, 14, 32, 51, 53, 55, 66, 70, 91, 94];
        let ef = EliasFano::new(&codes, 100);
        let ones: Vec<usize> = (0..ef.high.len()).filter(|&i| ef.high.get(i)).collect();
        assert_eq!(ones, [0, 2, 6, 9, 10, 11, 14, 15, 19, 20]);
        assert_eq!(ef.high.len(), (99 >> 3) + 10 + 1);
        let low: Vec<u64> = (0..ef.low.len()).map(|i| ef.low.get(i)).collect();
        assert_eq!(low, [6, 6, 0, 3, 5, 7, 2, 6, 3, 6]);

        let empty = EliasFano::new(&[], 1000);
        assert_eq!((empty.high.len(), empty.high.get(0)), (1, false));
        assert_eq!((empty.low_bits, empty.low.len()), (0, 0));
    }

    #[test]
    fn clustered_values() {
        let mut values = Vec::new();
        for base in [0u64, 10_000, 10_001, 500_000, 999_999] {
            values.push(base);
        }
        check(&values, 1_000_000, (0..1000).map(|i| i * 997));
    }

    #[test]
    fn pseudo_random_bulk() {
        let mut state = 999u64;
        let mut values: Vec<u64> = (0..5000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                state % 1_000_000
            })
            .collect();
        values.sort_unstable();
        let probes: Vec<u64> = (0..3000u64).map(|i| (i * 337) % 1_000_000).collect();
        check(&values, 1_000_000, probes.into_iter());
    }

    /// The cursor's gallop path: sorted probes with kilobit-scale gaps in H
    /// between them must answer identically to the scalar fused path.
    #[test]
    fn cursor_gallops_across_sparse_regions() {
        let values: Vec<u64> = (0..2000u64).map(|i| i * 131_071).collect();
        let universe = 2000 * 131_071 + 1;
        let ef = EliasFano::new(&values, universe);
        let set: BTreeSet<u64> = values.iter().copied().collect();
        let mut probes: Vec<u64> = (0..4000u64).map(|i| (i * 7_919_999) % universe).collect();
        probes.sort_unstable();
        let mut cur = ef.cursor();
        for &y in &probes {
            assert_eq!(
                cur.predecessor(y),
                reference_predecessor(&set, y),
                "gallop pred({y})"
            );
        }
    }

    /// The name predates the retired borrowed-view tier: the owned load
    /// path checked here is the only one.
    #[test]
    fn serialization_roundtrips_owned_and_view() {
        use crate::io::{WordReader, WordWriter};
        let mut state = 999u64;
        let mut values: Vec<u64> = (0..3000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                state % 5_000_000
            })
            .collect();
        values.sort_unstable();
        for (vals, universe) in [
            (values.as_slice(), 5_000_000u64),
            (&[][..], 100),
            (&[42][..], 100),
        ] {
            let ef = EliasFano::new(vals, universe);
            let mut bytes = Vec::new();
            ef.write_to(&mut WordWriter::new(&mut bytes)).unwrap();

            let owned = EliasFano::read_from(&mut WordReader::new(&bytes)).unwrap();
            assert_eq!(owned, ef);
            // The loaded structure answers the paper's operations
            // bit-identically, without having rebuilt anything.
            for y in (0..universe).step_by((universe as usize / 500).max(1)) {
                assert_eq!(owned.predecessor(y), ef.predecessor(y), "pred({y})");
                assert_eq!(owned.successor(y), ef.successor(y), "succ({y})");
                assert_eq!(owned.rank(y), ef.rank(y), "rank({y})");
            }
        }
    }

    /// `select0` on the high bits — through the inventory, and through the
    /// escape of a sample range spanning `2^16` bits or more — against a
    /// naive scan, on the built sequence and on its loaded copy.
    #[test]
    fn select0_inventory_matches_reference_built_and_loaded() {
        use crate::io::{WordReader, WordWriter};
        let mut state = 7u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        // A 16-bit/key shard: n zeros and n ones in H.
        let n = 20_000u64;
        let mut shard: Vec<u64> = (0..n).map(|_| next() % (n << 14)).collect();
        shard.sort_unstable();
        // One bucket of 70,000 consecutive codes among sparse ones: the
        // sample range holding it spans more than 2^16 bits.
        let universe = 1u64 << 40;
        let run = (5 << 23)..(5 << 23) + 70_000;
        let mut escaped: Vec<u64> = run.chain((1..1000).map(|i| i << 30)).collect();
        escaped.sort_unstable();
        for (values, universe, escapes) in [(shard, n << 14, false), (escaped, universe, true)] {
            let built = EliasFano::new(&values, universe);
            let mut bytes = Vec::new();
            built.write_to(&mut WordWriter::new(&mut bytes)).unwrap();
            let loaded = EliasFano::read_from(&mut WordReader::new(&bytes)).unwrap();
            let zero_positions: Vec<usize> = (0..built.high.len())
                .filter(|&i| !built.high.get(i))
                .collect();
            let last = zero_positions.len() - 1;
            let offsets_only = zero_positions.len().div_ceil(512) * 8 * 16;
            for ef in [&built, &loaded] {
                let inventory = ef.high.select0_inventory_bits();
                assert_eq!(inventory > offsets_only, escapes, "escape taken");
                assert!(escapes || inventory == offsets_only);
                for k in [0, 63, 64, 511, 512, last] {
                    assert_eq!(ef.high.select0(k), zero_positions[k], "select0({k})");
                }
                for (k, &want) in zero_positions.iter().enumerate() {
                    assert_eq!(ef.high.select0(k), want, "select0({k})");
                }
            }
            let set: BTreeSet<u64> = values.iter().copied().collect();
            for y in (0..universe).step_by((universe / 3001) as usize) {
                assert_eq!(loaded.predecessor(y), reference_predecessor(&set, y));
            }
        }
    }

    /// `read_from` refuses a universe, a low array or high bits that
    /// disagree with the shape the encoder derives from `(n, universe)`,
    /// and a last value at or past the universe.
    #[test]
    fn load_refuses_a_shape_the_encoder_never_writes() {
        use crate::io::{WordReader, WordWriter};
        let values: Vec<u64> = (0..300u64).map(|i| i * 1_000 + 7).collect();
        let ef = EliasFano::new(&values, 1 << 20);
        // Layout: [universe] + low + high.
        let assemble = |universe: u64, low: &IntVec, high: &BitVec| {
            let mut bytes = Vec::new();
            let mut w = WordWriter::new(&mut bytes);
            w.word(universe).unwrap();
            low.write_to(&mut w).unwrap();
            high.write_to(&mut w).unwrap();
            bytes
        };
        let load = |bytes: &[u8]| EliasFano::read_from(&mut WordReader::new(bytes)).err();
        let invalid = |what| Some(DecodeError::Invalid(what));
        let (low, high) = (&ef.low, ef.high.bits());
        assert_eq!(load(&assemble(1 << 20, low, high)), None);
        assert_eq!(
            load(&assemble(1 << 21, low, high)),
            invalid("Elias-Fano low-bit width")
        );
        assert_eq!(
            load(&assemble(700_000, low, high)),
            invalid("Elias-Fano high bit length")
        );
        let mut short = IntVec::with_capacity(low.width(), 299);
        (0..299).for_each(|i| short.push(low.get(i)));
        assert_eq!(
            load(&assemble(1 << 20, &short, high)),
            invalid("Elias-Fano low array shape")
        );
        // The last one moved to the last bit of H decodes to a value at or
        // past the universe.
        let mut past = high.clone();
        past.set(ef.high.select1(299), false);
        past.set(past.len() - 1, true);
        assert_eq!(
            load(&assemble(1 << 20, low, &past)),
            invalid("Elias-Fano bounds")
        );
        assert_eq!(load(&assemble(0, low, high)), invalid("Elias-Fano bounds"));
    }

    #[test]
    fn encoded_bits_counts_the_low_fields_and_high_bits() {
        for (values, universe) in [
            (vec![], 100u64),
            (vec![6u64, 14, 32, 51, 53, 55, 66, 70, 91, 94], 100),
            ((0..64).collect(), 64),
            ((0..1000u64).map(|i| i * 4_099).collect(), 1 << 22),
        ] {
            let ef = EliasFano::new(&values, universe);
            assert_eq!(
                EliasFano::encoded_bits(values.len(), universe),
                ef.low.bits().len() + ef.high.len(),
                "n = {}",
                values.len()
            );
        }
    }

    #[test]
    fn space_close_to_theory() {
        let n = 10_000usize;
        let universe = 1u64 << 40;
        let values: Vec<u64> = (0..n as u64).map(|i| i * (universe / n as u64)).collect();
        let ef = EliasFano::new(&values, universe);
        // Theory: n * (log2(u/n) + 2) + o(n) bits.
        let theory = n as f64 * ((universe as f64 / n as f64).log2() + 2.0);
        let actual = ef.size_in_bits() as f64;
        assert!(
            actual < theory * 1.35,
            "EF size {actual} too far above theory {theory}"
        );
    }
}

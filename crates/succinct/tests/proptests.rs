//! Property-based tests pitting the succinct structures against naive
//! references on arbitrary inputs, including serialization round-trips
//! through the one load path, [`WordReader`], and its refusal of every
//! truncated stream.

use std::collections::BTreeSet;

use grafite_succinct::io::{DecodeError, WordReader, WordWriter};
use grafite_succinct::{BitVec, EliasFano, GolombRiceSeq, IntVec, RsBitVec};
use proptest::prelude::*;

/// Serializes a structure through its `write_to` and returns the byte
/// image of the stream.
fn serialize(write: impl FnOnce(&mut WordWriter<'_>) -> std::io::Result<usize>) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut w = WordWriter::new(&mut bytes);
    let words_written = write(&mut w).unwrap();
    assert_eq!(
        words_written * 8,
        bytes.len(),
        "write_to word count drifted"
    );
    bytes
}

/// Reads a structure back and checks it consumed exactly its encoding.
fn load<T>(
    bytes: &[u8],
    read: impl FnOnce(&mut WordReader<'_>) -> Result<T, DecodeError>,
) -> Result<T, DecodeError> {
    let mut src = WordReader::new(bytes);
    let value = read(&mut src)?;
    assert_eq!(src.remaining(), 0, "read_from left words unread");
    Ok(value)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rsbitvec_rank_select_match_naive(pattern in prop::collection::vec(any::<bool>(), 1..2048)) {
        let rs = RsBitVec::new(pattern.iter().copied().collect());
        let mut ones_seen = 0usize;
        let mut zeros_seen = 0usize;
        for (i, &b) in pattern.iter().enumerate() {
            prop_assert_eq!(rs.rank1(i), ones_seen);
            prop_assert_eq!(rs.rank0(i), zeros_seen);
            if b {
                prop_assert_eq!(rs.select1(ones_seen), i);
                ones_seen += 1;
            } else {
                prop_assert_eq!(rs.select0(zeros_seen), i);
                zeros_seen += 1;
            }
        }
        prop_assert_eq!(rs.rank1(pattern.len()), ones_seen);
    }

    #[test]
    fn elias_fano_matches_btreeset(
        mut values in prop::collection::vec(0u64..100_000, 0..600),
        probes in prop::collection::vec(0u64..100_000, 1..200),
        universe_slack in 1u64..1000,
    ) {
        values.sort_unstable();
        let universe = values.last().copied().unwrap_or(0) + universe_slack;
        let ef = EliasFano::new(&values, universe);
        let set: BTreeSet<u64> = values.iter().copied().collect();
        for &y in &probes {
            let y = y.min(universe - 1);
            prop_assert_eq!(ef.predecessor(y), set.range(..=y).next_back().copied());
            prop_assert_eq!(ef.successor(y), set.range(y..).next().copied());
            prop_assert_eq!(ef.rank(y), values.iter().filter(|&&v| v < y).count());
        }
        let back: Vec<u64> = ef.iter().collect();
        prop_assert_eq!(back, values);
    }

    #[test]
    fn elias_fano_range_queries(
        mut values in prop::collection::vec(0u64..50_000, 1..300),
        ranges in prop::collection::vec((0u64..50_000, 0u64..100), 1..100),
    ) {
        values.sort_unstable();
        values.dedup();
        let universe = 50_200u64;
        let ef = EliasFano::new(&values, universe);
        let set: BTreeSet<u64> = values.iter().copied().collect();
        for &(a, width) in &ranges {
            let b = (a + width).min(universe - 1);
            let expect = set.range(a..=b).next().is_some();
            prop_assert_eq!(ef.any_in_range(a, b), expect, "range [{}, {}]", a, b);
        }
    }

    #[test]
    fn golomb_rice_matches_btreeset(
        mut values in prop::collection::vec(0u64..1_000_000, 0..500),
        probes in prop::collection::vec(0u64..1_000_000, 1..100),
        param in 0usize..12,
        block_size in 1usize..200,
    ) {
        values.sort_unstable();
        let seq = GolombRiceSeq::with_params(&values, param, block_size);
        let set: BTreeSet<u64> = values.iter().copied().collect();
        let decoded: Vec<u64> = seq.iter().collect();
        prop_assert_eq!(&decoded, &values);
        for &y in &probes {
            prop_assert_eq!(seq.successor(y), set.range(y..).next().copied());
        }
    }

    #[test]
    fn intvec_roundtrip(values in prop::collection::vec(any::<u64>(), 0..300), width in 0usize..=64) {
        let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
        let masked: Vec<u64> = values.iter().map(|v| v & mask).collect();
        let iv = IntVec::from_slice(width, &masked);
        let back: Vec<u64> = iv.iter().collect();
        prop_assert_eq!(back, masked);
    }

    #[test]
    fn bitvec_field_roundtrip(ops in prop::collection::vec((any::<u64>(), 0usize..=64), 1..100)) {
        let mut bv = BitVec::new();
        let mut expected = Vec::new();
        for &(value, width) in &ops {
            let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
            let v = value & mask;
            bv.push_bits(v, width);
            expected.push((v, width));
        }
        let mut pos = 0usize;
        for &(v, width) in &expected {
            prop_assert_eq!(bv.get_bits(pos, width), v);
            pos += width;
        }
        prop_assert_eq!(bv.len(), pos);
    }

    #[test]
    fn bitvec_serialization_roundtrip(pattern in prop::collection::vec(any::<bool>(), 0..2048)) {
        let bv: BitVec = pattern.iter().copied().collect();
        let bytes = serialize(|w| bv.write_to(w));
        let owned = load(&bytes, BitVec::read_from).unwrap();
        prop_assert!(owned == bv);
        for (i, &b) in pattern.iter().enumerate() {
            prop_assert_eq!(owned.get(i), b);
        }
    }

    #[test]
    fn rsbitvec_serialization_roundtrip(pattern in prop::collection::vec(any::<bool>(), 1..2048)) {
        let rs = RsBitVec::new(pattern.iter().copied().collect());
        let bytes = serialize(|w| rs.write_to(w));
        let owned = load(&bytes, RsBitVec::read_from).unwrap();
        prop_assert_eq!(owned.count_ones(), rs.count_ones());
        for pos in 0..=pattern.len() {
            prop_assert_eq!(owned.rank1(pos), rs.rank1(pos));
        }
        for k in 0..rs.count_ones() {
            prop_assert_eq!(owned.select1(k), rs.select1(k));
        }
        for k in 0..rs.count_zeros() {
            prop_assert_eq!(owned.select0(k), rs.select0(k));
        }
    }

    #[test]
    fn intvec_serialization_roundtrip(
        values in prop::collection::vec(any::<u64>(), 0..300),
        width in 0usize..=64,
    ) {
        let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
        let masked: Vec<u64> = values.iter().map(|v| v & mask).collect();
        let iv = IntVec::from_slice(width, &masked);
        let bytes = serialize(|w| iv.write_to(w));
        let owned = load(&bytes, IntVec::read_from).unwrap();
        prop_assert!(owned == iv);
        let back: Vec<u64> = owned.iter().collect();
        prop_assert_eq!(back, masked);
    }

    #[test]
    fn elias_fano_serialization_roundtrip(
        mut values in prop::collection::vec(0u64..100_000, 0..600),
        probes in prop::collection::vec(0u64..100_000, 1..100),
        universe_slack in 1u64..1000,
    ) {
        values.sort_unstable();
        let universe = values.last().copied().unwrap_or(0) + universe_slack;
        let ef = EliasFano::new(&values, universe);
        let bytes = serialize(|w| ef.write_to(w));
        let owned = load(&bytes, EliasFano::read_from).unwrap();
        prop_assert!(owned == ef);
        for &y in &probes {
            let y = y.min(universe - 1);
            prop_assert_eq!(owned.predecessor(y), ef.predecessor(y));
            prop_assert_eq!(owned.successor(y), ef.successor(y));
            prop_assert_eq!(owned.rank(y), ef.rank(y));
        }
        // Every proper prefix of the stream fails typed, never panics.
        for cut in (0..bytes.len()).step_by(8) {
            let short = load(&bytes[..cut], EliasFano::read_from);
            prop_assert!(matches!(short, Err(DecodeError::Truncated { .. })), "cut {}", cut);
        }
    }

    /// Adversarial-density coverage for the position-sampled select
    /// directories: patterns are built from runs (all-zero stretches, dense
    /// bursts) aligned to multiples that hit the 512-bit block and sample
    /// boundaries, then checked bit-for-bit against the naive reference.
    #[test]
    fn position_sampled_select_matches_naive_on_runs(
        runs in prop::collection::vec((any::<bool>(), 1usize..700), 1..24),
        align_idx in 0usize..5,
    ) {
        let align = [1usize, 64, 511, 512, 513][align_idx];
        let mut pattern = Vec::new();
        for &(bit, len) in &runs {
            pattern.extend(std::iter::repeat(bit).take(len * align % 2048 + len));
        }
        let rs = RsBitVec::new(pattern.iter().copied().collect());
        let mut ones_seen = 0usize;
        let mut zeros_seen = 0usize;
        for (i, &b) in pattern.iter().enumerate() {
            if b {
                prop_assert_eq!(rs.select1(ones_seen), i, "select1({})", ones_seen);
                ones_seen += 1;
            } else {
                prop_assert_eq!(rs.select0(zeros_seen), i, "select0({})", zeros_seen);
                zeros_seen += 1;
            }
            prop_assert_eq!(rs.rank1(i + 1), ones_seen);
        }
    }

    /// The fused single-probe `predecessor` (and the cursor over sorted
    /// probes) answer exactly like the BTreeSet reference, across
    /// clustered/sparse mixes.
    #[test]
    fn fused_predecessor_and_cursor_equal_reference(
        mut clusters in prop::collection::vec((0u64..5_000_000, 1usize..40), 1..30),
        mut probes in prop::collection::vec(0u64..5_100_000, 1..200),
        stride in 1u64..50,
    ) {
        let mut values = Vec::new();
        clusters.sort_unstable();
        for &(base, count) in &clusters {
            for i in 0..count as u64 {
                values.push(base + i * stride);
            }
        }
        values.sort_unstable();
        let universe = values.last().unwrap() + 1 + stride;
        let ef = EliasFano::new(&values, universe);
        let set: BTreeSet<u64> = values.iter().copied().collect();
        probes.sort_unstable();
        let mut cursor = ef.cursor();
        for &y in &probes {
            let y = y.min(universe - 1);
            let expect = set.range(..=y).next_back().copied();
            prop_assert_eq!(ef.predecessor(y), expect, "fused pred({})", y);
            prop_assert_eq!(cursor.predecessor(y), expect, "cursor pred({})", y);
            prop_assert_eq!(ef.successor(y), set.range(y..).next().copied(), "succ({})", y);
        }
    }

    /// `merged` equals a fresh encode of the merged multiset, byte for
    /// byte, whether the low width holds (block copies) or changes (the
    /// per-element pass); a removal with no occurrence left is `None`.
    #[test]
    fn elias_fano_merged_equals_fresh_encode(
        mut values in prop::collection::vec(0u64..4_000, 0..400),
        picks in prop::collection::vec(any::<bool>(), 0..400),
        mut add in prop::collection::vec(0u64..4_000, 0..200),
        universe_slack in 1u64..200_000,
        stray in 0u64..4_000,
    ) {
        values.sort_unstable();
        add.sort_unstable();
        let universe = 4_000 + universe_slack;
        let ef = EliasFano::new(&values, universe);
        let remove: Vec<u64> = values
            .iter()
            .zip(picks.iter().chain(std::iter::repeat(&false)))
            .filter(|&(_, &pick)| pick)
            .map(|(&v, _)| v)
            .collect();
        let mut expect: Vec<u64> = values
            .iter()
            .zip(picks.iter().chain(std::iter::repeat(&false)))
            .filter(|&(_, &pick)| !pick)
            .map(|(&v, _)| v)
            .chain(add.iter().copied())
            .collect();
        expect.sort_unstable();
        let merged = ef.merged(&remove, &add).expect("every removal is present");
        let fresh = EliasFano::new(&expect, universe);
        prop_assert_eq!(merged.len(), expect.len());
        prop_assert!(
            serialize(|w| merged.write_to(w)) == serialize(|w| fresh.write_to(w)),
            "merged bytes differ from a fresh encode"
        );
        prop_assert!(merged == fresh);
        let back: Vec<u64> = merged.iter().collect();
        prop_assert_eq!(back, expect);
        // One more copy of a value than the sequence holds has nothing left
        // to take out.
        let held = values.iter().filter(|&&v| v == stray).count();
        let mut too_many = vec![stray; held + 1];
        too_many.extend(remove.iter().copied().filter(|&v| v != stray));
        too_many.sort_unstable();
        prop_assert!(ef.merged(&too_many, &add).is_none());
    }

    #[test]
    fn golomb_serialization_roundtrip(
        mut values in prop::collection::vec(0u64..1_000_000, 0..500),
        probes in prop::collection::vec(0u64..1_000_000, 1..100),
        param in 0usize..12,
        block_size in 1usize..200,
    ) {
        values.sort_unstable();
        let seq = GolombRiceSeq::with_params(&values, param, block_size);
        let bytes = serialize(|w| seq.write_to(w));
        let owned = load(&bytes, GolombRiceSeq::read_from).unwrap();
        prop_assert!(owned == seq);
        let decoded: Vec<u64> = owned.iter().collect();
        prop_assert_eq!(&decoded, &values);
        for &y in &probes {
            prop_assert_eq!(owned.successor(y), seq.successor(y));
        }
    }
}

/// The hand-picked `merged` shapes: an empty result, a change of low width
/// both ways, every copy of a repeated value taken out, removals that are
/// not held (absent, past the last value, past the universe), and
/// inserts and removals of one value in the same call.
#[test]
fn elias_fano_merged_edge_cases() {
    let same = |ef: &EliasFano, remove: &[u64], add: &[u64], expect: &[u64]| {
        let merged = ef.merged(remove, add).expect("removals present");
        let fresh = EliasFano::new(expect, ef.universe());
        assert!(
            serialize(|w| merged.write_to(w)) == serialize(|w| fresh.write_to(w)),
            "remove {remove:?} add {add:?}"
        );
        assert_eq!(merged.iter().collect::<Vec<_>>(), expect);
    };
    let values: Vec<u64> = vec![3, 9, 9, 9, 40, 41, 500, 511];
    let ef = EliasFano::new(&values, 512);
    assert_eq!(ef.low_bit_width(), 6);
    // Everything out: the empty sequence.
    same(&ef, &values, &[], &[]);
    // Every copy of 9 out, the low width unchanged (512 / 7 → l = 6).
    same(&ef, &[9, 9, 9], &[100], &[3, 40, 41, 100, 500, 511]);
    // Growth halves `universe / n`: l drops from 6 to 5.
    let add: Vec<u64> = (0..8u64).map(|i| i * 60 + 1).collect();
    let mut grown = [values.clone(), add.clone()].concat();
    grown.sort_unstable();
    assert_eq!(EliasFano::new(&grown, 512).low_bit_width(), 5);
    same(&ef, &[], &add, &grown);
    // Shrinking doubles it: l rises from 6 to 7.
    same(&ef, &[3, 9, 9, 40, 41], &[], &[9, 500, 511]);
    // One value removed and inserted in one call, and a value added twice.
    same(
        &ef,
        &[40],
        &[40, 77, 77],
        &[3, 9, 9, 9, 40, 41, 77, 77, 500, 511],
    );
    // From empty.
    same(&EliasFano::new(&[], 512), &[], &[7, 7, 300], &[7, 7, 300]);
    // Removals that are not held.
    for remove in [&[4u64][..], &[9, 9, 9, 9], &[512], &[u64::MAX], &[600]] {
        assert!(ef.merged(remove, &[]).is_none(), "{remove:?}");
    }
    assert!(EliasFano::new(&[], 512).merged(&[1], &[]).is_none());
    // A long sequence whose update points split many words of `H` and
    // of the low fields at every bit offset.
    let long: Vec<u64> = (0..5_000u64).map(|i| i * 97 + i % 13).collect();
    let universe = 5_000 * 97 + 13;
    let ef = EliasFano::new(&long, universe);
    let remove: Vec<u64> = long.iter().copied().step_by(37).collect();
    let add: Vec<u64> = (0..remove.len() as u64).map(|i| i * 3_571 + 5).collect();
    let mut expect: Vec<u64> = long
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 37 != 0)
        .map(|(_, &v)| v)
        .chain(add.iter().copied())
        .collect();
    expect.sort_unstable();
    same(&ef, &remove, &add, &expect);
}

//! The one property every range filter must satisfy, whatever its design:
//! **no false negatives**, on arbitrary key sets, budgets, and ranges.

use grafite_core::{BuildableFilter, FilterConfig, RangeFilter};
use grafite_filters::{
    Proteus, REncoder, REncoderTuning, REncoderVariant, Rosetta, RosettaTuning, Snarf, SuffixMode,
    Surf,
};
use proptest::prelude::*;

fn check_no_false_negatives(
    filter: &dyn RangeFilter,
    keys: &[u64],
    offsets: &[(u64, u64)],
) -> Result<(), TestCaseError> {
    for (i, &(dl, dr)) in offsets.iter().enumerate() {
        let k = keys[i % keys.len()];
        let a = k.saturating_sub(dl);
        let b = k.saturating_add(dr);
        prop_assert!(
            filter.may_contain_range(a, b),
            "{}: FN for key {} in [{}, {}]",
            filter.name(),
            k,
            a,
            b
        );
        prop_assert!(
            filter.may_contain(k),
            "{}: point FN for {}",
            filter.name(),
            k
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn surf_never_false_negative(
        keys in prop::collection::vec(any::<u64>(), 1..250),
        offsets in prop::collection::vec((0u64..3000, 0u64..3000), 1..24),
        mode_sel in 0u8..3,
    ) {
        let mode = match mode_sel {
            0 => SuffixMode::Base,
            1 => SuffixMode::Real { bits: 8 },
            _ => SuffixMode::Hash { bits: 8 },
        };
        let f = Surf::with_dense_depth(&keys, mode, None).unwrap();
        check_no_false_negatives(&f, &keys, &offsets)?;
    }

    #[test]
    fn rosetta_never_false_negative(
        keys in prop::collection::vec(any::<u64>(), 1..250),
        offsets in prop::collection::vec((0u64..500, 0u64..500), 1..16),
        bpk in 6.0f64..24.0,
    ) {
        let cfg = FilterConfig::new(&keys).bits_per_key(bpk).max_range(1 << 10).seed(99);
        let f = Rosetta::build_with(&cfg, &RosettaTuning { sample_tuned: false }).unwrap();
        check_no_false_negatives(&f, &keys, &offsets)?;
    }

    #[test]
    fn snarf_never_false_negative(
        keys in prop::collection::vec(any::<u64>(), 1..250),
        offsets in prop::collection::vec((0u64..3000, 0u64..3000), 1..24),
        bpk in 6.0f64..24.0,
    ) {
        let f = Snarf::build(&FilterConfig::new(&keys).bits_per_key(bpk)).unwrap();
        check_no_false_negatives(&f, &keys, &offsets)?;
    }

    #[test]
    fn rencoder_never_false_negative(
        keys in prop::collection::vec(any::<u64>(), 1..250),
        offsets in prop::collection::vec((0u64..500, 0u64..500), 1..16),
        bpk in 6.0f64..24.0,
        variant_sel in 0u8..3,
    ) {
        let variant = match variant_sel {
            0 => REncoderVariant::Full,
            1 => REncoderVariant::SelectiveStorage { rounds: 3 },
            _ => REncoderVariant::SampleEstimation,
        };
        let sample = [(0u64, 1023u64)];
        let cfg = FilterConfig::new(&keys).bits_per_key(bpk).sample(&sample).seed(5);
        let f = REncoder::build_with(&cfg, &REncoderTuning(variant)).unwrap();
        check_no_false_negatives(&f, &keys, &offsets)?;
    }

    #[test]
    fn proteus_never_false_negative(
        keys in prop::collection::vec(any::<u64>(), 1..200),
        offsets in prop::collection::vec((0u64..500, 0u64..500), 1..12),
        bpk in 8.0f64..24.0,
    ) {
        // A small uncorrelated sample so the tuner has something to chew on.
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let mut sample = Vec::new();
        let mut state = 7u64;
        while sample.len() < 50 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = state;
            let b = match a.checked_add(31) { Some(b) => b, None => continue };
            let i = sorted.partition_point(|&k| k < a);
            if i < sorted.len() && sorted[i] <= b { continue; }
            sample.push((a, b));
        }
        let cfg = FilterConfig::new(&keys).bits_per_key(bpk).sample(&sample).seed(1);
        let f = Proteus::build(&cfg).unwrap();
        check_no_false_negatives(&f, &keys, &offsets)?;
    }
}

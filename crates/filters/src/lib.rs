//! The competitor range filters of the Grafite paper's evaluation (§2, §6):
//! SuRF, Rosetta, SNARF, Proteus, and REncoder with its SS/SE variants —
//! all implemented from scratch on the workspace's substrates, all
//! implementing [`grafite_core::RangeFilter`], and all property-tested for
//! the no-false-negative invariant.
//!
//! | Filter | §2 design | Our substrate |
//! |---|---|---|
//! | SuRF | Fast Succinct Trie + suffix bits | `grafite-fst` |
//! | Rosetta | per-level Bloom filters + dyadic "doubting" | `grafite-bloom` |
//! | SNARF | learned spline MCDF + compressed bit array | `grafite-succinct::golomb` |
//! | Proteus | l1-deep trie + l2 prefix Bloom, sample-tuned | `grafite-fst` + `grafite-bloom` |
//! | REncoder | local range-tree encoder in a bit array | `grafite-succinct::bitvec` |

pub mod dyadic;
pub mod proteus;
pub mod rencoder;
pub mod rosetta;
pub mod snarf;
pub mod surf;

pub use proteus::{Proteus, ProteusTuning};
pub use rencoder::{REncoder, REncoderTuning, REncoderVariant};
pub use rosetta::{Rosetta, RosettaTuning};
pub use snarf::{Snarf, SnarfTuning};
pub use surf::{SuffixMode, SuffixStyle, Surf, SurfTuning};

use grafite_bloom::TrivialRangeFilter;
use grafite_core::registry::{load_as, FilterSpec, Registry};
use grafite_core::{BuildableFilter, PersistentFilter};

/// The complete filter registry of the paper's evaluation: every
/// [`FilterSpec`] — the two `grafite-core` filters, this crate's
/// competitors, and the `grafite-bloom` trivial baseline — mapped to its
/// [`BuildableFilter`] construction over the shared
/// [`FilterConfig`](grafite_core::FilterConfig) *and* to its
/// [`PersistentFilter`] loader over the flat-byte format, so
/// [`Registry::load`] revives any of the eleven families from a serialized
/// blob.
///
/// ```
/// use grafite_core::registry::FilterSpec;
/// use grafite_core::{FilterConfig, PersistentFilter};
/// use grafite_filters::standard_registry;
///
/// let keys: Vec<u64> = (0..500u64).map(|i| i * 11_400_714_819).collect();
/// let registry = standard_registry();
/// let cfg = FilterConfig::new(&keys).bits_per_key(16.0).max_range(32);
/// for spec in FilterSpec::ALL {
///     let filter = registry.build(spec, &cfg).unwrap();
///     assert!(filter.may_contain(keys[42]), "{} lost a key", filter.name());
///     // Round-trip through the on-disk format.
///     let loaded = registry.load(&filter.to_bytes()).unwrap();
///     assert!(loaded.may_contain(keys[42]), "{} lost a key on load", loaded.name());
/// }
/// ```
pub fn standard_registry() -> Registry {
    fn boxed<F: PersistentFilter + 'static>(f: F) -> Box<dyn PersistentFilter> {
        Box::new(f)
    }
    // Each entry is a plain fn pointer: default tuning unless the spec *is*
    // a tuning (SuRF's suffix family, REncoder's variants). Loaders need no
    // per-spec tuning at all — the blob is self-describing.
    let mut r = Registry::new(); // Grafite + Bucketing pre-registered
    r.register(FilterSpec::Snarf, |cfg| Snarf::build(cfg).map(boxed));
    r.register(FilterSpec::SurfReal, |cfg| Surf::build(cfg).map(boxed));
    r.register(FilterSpec::SurfHash, |cfg| {
        Surf::build_with(
            cfg,
            &SurfTuning {
                style: SuffixStyle::Hashed,
                suffix_bits: None,
            },
        )
        .map(boxed)
    });
    r.register(FilterSpec::Proteus, |cfg| Proteus::build(cfg).map(boxed));
    r.register(FilterSpec::Rosetta, |cfg| Rosetta::build(cfg).map(boxed));
    r.register(FilterSpec::REncoder, |cfg| REncoder::build(cfg).map(boxed));
    r.register(FilterSpec::REncoderSS, |cfg| {
        REncoder::build_with(
            cfg,
            &REncoderTuning(REncoderVariant::SelectiveStorage { rounds: 2 }),
        )
        .map(boxed)
    });
    r.register(FilterSpec::REncoderSE, |cfg| {
        REncoder::build_with(cfg, &REncoderTuning(REncoderVariant::SampleEstimation)).map(boxed)
    });
    r.register(FilterSpec::TrivialBloom, |cfg| {
        TrivialRangeFilter::build(cfg).map(boxed)
    });
    r.register_loader(FilterSpec::Snarf, load_as::<Snarf>);
    r.register_loader(FilterSpec::SurfReal, load_as::<Surf>);
    r.register_loader(FilterSpec::SurfHash, load_as::<Surf>);
    r.register_loader(FilterSpec::Proteus, load_as::<Proteus>);
    r.register_loader(FilterSpec::Rosetta, load_as::<Rosetta>);
    r.register_loader(FilterSpec::REncoder, load_as::<REncoder>);
    r.register_loader(FilterSpec::REncoderSS, load_as::<REncoder>);
    r.register_loader(FilterSpec::REncoderSE, load_as::<REncoder>);
    r.register_loader(FilterSpec::TrivialBloom, load_as::<TrivialRangeFilter>);
    r
}

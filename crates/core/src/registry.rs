//! The library-level filter registry: a typed table mapping every
//! [`FilterSpec`] of the paper's evaluation to a builder over the shared
//! [`FilterConfig`] and a loader over the flat-byte format of
//! [`crate::persist`].
//!
//! `grafite-core` cannot name the competitor filter types (they live in
//! crates that depend on this one), so the registry is a table of plain
//! builder/loader *functions*: this crate pre-registers its own two filters
//! (Grafite §3, Bucketing §4) via [`Registry::new`], and
//! `grafite_filters::standard_registry()` returns the table with all eleven
//! specs populated. [`Registry::load`] reads a serialized blob's header and
//! dispatches to the loader its spec id names — the one entry point a
//! serving shard needs to revive any filter family from disk.

use crate::bucketing::BucketingFilter;
use crate::error::FilterError;
use crate::grafite::GrafiteFilter;
use crate::persist::{spec_id, Header};
use crate::traits::{BuildableFilter, FilterConfig, PersistentFilter};

/// Every filter of the paper's §6 comparison, plus the §2 trivial baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FilterSpec {
    /// Grafite (this paper, robust).
    Grafite,
    /// Bucketing (this paper, heuristic).
    Bucketing,
    /// SNARF (heuristic; uses the overflow-fixed model).
    Snarf,
    /// SuRF with real suffixes (heuristic; the paper's range-query config).
    SurfReal,
    /// SuRF with hashed suffixes (heuristic; the paper's point-query config).
    SurfHash,
    /// Proteus, auto-tuned on the query sample (heuristic).
    Proteus,
    /// Rosetta, auto-tuned on the query sample (robust).
    Rosetta,
    /// REncoder, base configuration (robust for in-budget range sizes).
    REncoder,
    /// REncoder with fixed selective storage (heuristic).
    REncoderSS,
    /// REncoder with sample-estimated storage (heuristic, auto-tuned).
    REncoderSE,
    /// The §2 theoretical baseline: Bloom filter probed point-by-point.
    TrivialBloom,
}

impl FilterSpec {
    /// Number of specs (the registry's table width).
    pub const COUNT: usize = 11;

    /// Every spec, in declaration order.
    pub const ALL: [FilterSpec; Self::COUNT] = [
        FilterSpec::Grafite,
        FilterSpec::Bucketing,
        FilterSpec::Snarf,
        FilterSpec::SurfReal,
        FilterSpec::SurfHash,
        FilterSpec::Proteus,
        FilterSpec::Rosetta,
        FilterSpec::REncoder,
        FilterSpec::REncoderSS,
        FilterSpec::REncoderSE,
        FilterSpec::TrivialBloom,
    ];

    /// The robust filters of §6.4.
    pub const ROBUST: [FilterSpec; 3] = [
        FilterSpec::Grafite,
        FilterSpec::Rosetta,
        FilterSpec::REncoder,
    ];

    /// The heuristic filters of §6.3.
    pub const HEURISTIC: [FilterSpec; 6] = [
        FilterSpec::Bucketing,
        FilterSpec::SurfReal,
        FilterSpec::Snarf,
        FilterSpec::Proteus,
        FilterSpec::REncoderSS,
        FilterSpec::REncoderSE,
    ];

    /// The nine filters of the Figure 3 robustness grid.
    pub const ALL_FIG3: [FilterSpec; 9] = [
        FilterSpec::Grafite,
        FilterSpec::Bucketing,
        FilterSpec::Snarf,
        FilterSpec::SurfReal,
        FilterSpec::Proteus,
        FilterSpec::Rosetta,
        FilterSpec::REncoder,
        FilterSpec::REncoderSS,
        FilterSpec::REncoderSE,
    ];

    /// The six filters of the paper's Figure 1 teaser.
    pub const FIG1: [FilterSpec; 6] = [
        FilterSpec::Grafite,
        FilterSpec::Snarf,
        FilterSpec::SurfReal,
        FilterSpec::Proteus,
        FilterSpec::Rosetta,
        FilterSpec::REncoder,
    ];

    /// The stable on-disk spec id of this configuration (see
    /// [`crate::persist::spec_id`]).
    pub fn spec_id(&self) -> u32 {
        match self {
            FilterSpec::Grafite => spec_id::GRAFITE,
            FilterSpec::Bucketing => spec_id::BUCKETING,
            FilterSpec::Snarf => spec_id::SNARF,
            FilterSpec::SurfReal => spec_id::SURF_REAL,
            FilterSpec::SurfHash => spec_id::SURF_HASH,
            FilterSpec::Proteus => spec_id::PROTEUS,
            FilterSpec::Rosetta => spec_id::ROSETTA,
            FilterSpec::REncoder => spec_id::RENCODER,
            FilterSpec::REncoderSS => spec_id::RENCODER_SS,
            FilterSpec::REncoderSE => spec_id::RENCODER_SE,
            FilterSpec::TrivialBloom => spec_id::TRIVIAL_BLOOM,
        }
    }

    /// Inverse of [`FilterSpec::spec_id`], for header dispatch.
    pub fn from_spec_id(id: u32) -> Option<FilterSpec> {
        FilterSpec::ALL.into_iter().find(|s| s.spec_id() == id)
    }

    /// Harness display name.
    pub fn label(&self) -> &'static str {
        match self {
            FilterSpec::Grafite => "Grafite",
            FilterSpec::Bucketing => "Bucketing",
            FilterSpec::Snarf => "SNARF",
            FilterSpec::SurfReal => "SuRF",
            FilterSpec::SurfHash => "SuRF-Hash",
            FilterSpec::Proteus => "Proteus",
            FilterSpec::Rosetta => "Rosetta",
            FilterSpec::REncoder => "REncoder",
            FilterSpec::REncoderSS => "REncoderSS",
            FilterSpec::REncoderSE => "REncoderSE",
            FilterSpec::TrivialBloom => "TrivialBloom",
        }
    }

    /// Row index in the registry table.
    #[inline]
    const fn index(self) -> usize {
        self as usize
    }
}

/// A registered builder: constructs a boxed filter from the shared config,
/// or explains why the configuration is infeasible. The result is
/// [`PersistentFilter`]-boxed so anything the registry builds can also be
/// serialized and measured.
pub type BuilderFn = fn(&FilterConfig<'_>) -> Result<Box<dyn PersistentFilter>, FilterError>;

/// A registered loader: revives a boxed filter from a serialized blob
/// (header included) in the [`crate::persist`] format.
pub type LoaderFn = fn(&[u8]) -> Result<Box<dyn PersistentFilter>, FilterError>;

/// A table of filter builders and loaders keyed by [`FilterSpec`].
///
/// [`Registry::new`] pre-registers this crate's own filters (Grafite and
/// Bucketing); downstream crates register the rest — use
/// `grafite_filters::standard_registry()` for the complete table of the
/// paper's eleven configurations. Registration is by plain function
/// pointer, so a `Registry` is `Copy`-cheap to clone and needs no
/// allocation.
#[derive(Clone, Debug)]
pub struct Registry {
    builders: [Option<BuilderFn>; FilterSpec::COUNT],
    loaders: [Option<LoaderFn>; FilterSpec::COUNT],
}

impl Default for Registry {
    /// Same as [`Registry::new`]: the core filters come registered.
    fn default() -> Self {
        Self::new()
    }
}

/// The standard [`LoaderFn`] body for a concrete filter type: typed
/// `deserialize`, boxed. Use it when registering loaders for custom
/// filters, exactly as `grafite_filters::standard_registry()` does for the
/// paper's families.
pub fn load_as<F: PersistentFilter + 'static>(
    bytes: &[u8],
) -> Result<Box<dyn PersistentFilter>, FilterError> {
    F::deserialize(bytes).map(|f| Box::new(f) as _)
}

impl Registry {
    /// A registry with the core filters (Grafite, Bucketing) registered.
    pub fn new() -> Self {
        let mut r = Self::empty();
        r.register(FilterSpec::Grafite, |cfg| {
            <GrafiteFilter as BuildableFilter>::build(cfg).map(|f| Box::new(f) as _)
        });
        r.register_loader(FilterSpec::Grafite, load_as::<GrafiteFilter>);
        r.register(FilterSpec::Bucketing, |cfg| {
            <BucketingFilter as BuildableFilter>::build(cfg).map(|f| Box::new(f) as _)
        });
        r.register_loader(FilterSpec::Bucketing, load_as::<BucketingFilter>);
        r
    }

    /// A registry with no builders at all.
    pub fn empty() -> Self {
        Self {
            builders: [None; FilterSpec::COUNT],
            loaders: [None; FilterSpec::COUNT],
        }
    }

    /// Registers (or replaces) the builder for `spec`. Returns `&mut self`
    /// for chaining.
    pub fn register(&mut self, spec: FilterSpec, builder: BuilderFn) -> &mut Self {
        self.builders[spec.index()] = Some(builder);
        self
    }

    /// Registers (or replaces) the loader for `spec`. Returns `&mut self`
    /// for chaining.
    pub fn register_loader(&mut self, spec: FilterSpec, loader: LoaderFn) -> &mut Self {
        self.loaders[spec.index()] = Some(loader);
        self
    }

    /// Whether a builder is registered for `spec`.
    #[inline]
    pub fn is_registered(&self, spec: FilterSpec) -> bool {
        self.builders[spec.index()].is_some()
    }

    /// Whether a loader is registered for `spec`.
    #[inline]
    pub fn has_loader(&self, spec: FilterSpec) -> bool {
        self.loaders[spec.index()].is_some()
    }

    /// The specs with a registered builder, in declaration order.
    pub fn registered(&self) -> impl Iterator<Item = FilterSpec> + '_ {
        FilterSpec::ALL
            .into_iter()
            .filter(|&s| self.is_registered(s))
    }

    /// Builds `spec` from the shared config.
    ///
    /// Errors are either [`FilterError::Unregistered`] (no builder for this
    /// spec in this table) or whatever the filter's own
    /// [`BuildableFilter::build`] reports — e.g.
    /// [`FilterError::BudgetBelowFloor`] for SuRF under its trie floor.
    pub fn build(
        &self,
        spec: FilterSpec,
        cfg: &FilterConfig<'_>,
    ) -> Result<Box<dyn PersistentFilter>, FilterError> {
        match self.builders[spec.index()] {
            Some(builder) => builder(cfg),
            None => Err(FilterError::Unregistered(spec.label())),
        }
    }

    /// Loads a serialized filter of any *registered* family: validates the
    /// header's magic/version/length, maps its spec id to a
    /// [`FilterSpec`], and dispatches to that spec's loader (whose
    /// `deserialize` performs the one full checksum pass).
    ///
    /// This is the serving-side entry point: a shard that received a blob
    /// built offline revives it with one call, without knowing which of the
    /// paper's eleven configurations it holds. Loading never rebuilds the
    /// filter from keys — rank/select directories are derived from the
    /// blob's bits.
    ///
    /// Families outside the eleven-spec registry table (spec ids ≥ 32:
    /// [`StringGrafite`](crate::StringGrafite), workload-aware Bucketing,
    /// SuRF-Base) serialize in the same format but load through their typed
    /// [`PersistentFilter::deserialize`]; this table-driven entry point
    /// reports their ids as [`FilterError::UnknownSpecId`].
    pub fn load(&self, bytes: &[u8]) -> Result<Box<dyn PersistentFilter>, FilterError> {
        // Cheap dispatch: magic/version/length only. The loader's
        // `deserialize` performs the one full checksum pass.
        let header = Header::peek(bytes)?;
        let spec = FilterSpec::from_spec_id(header.spec_id)
            .ok_or(FilterError::UnknownSpecId(header.spec_id))?;
        match self.loaders.get(spec.index()).copied().flatten() {
            Some(loader) => loader(bytes),
            None => Err(FilterError::Unregistered(spec.label())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_table_is_consistent() {
        assert_eq!(FilterSpec::ALL.len(), FilterSpec::COUNT);
        for (i, spec) in FilterSpec::ALL.into_iter().enumerate() {
            assert_eq!(spec.index(), i, "{} out of order", spec.label());
        }
    }

    #[test]
    fn spec_ids_are_stable_and_invertible() {
        for spec in FilterSpec::ALL {
            assert_eq!(FilterSpec::from_spec_id(spec.spec_id()), Some(spec));
        }
        // The first two ids are pinned by blobs already on disk.
        assert_eq!(FilterSpec::Grafite.spec_id(), 1);
        assert_eq!(FilterSpec::Bucketing.spec_id(), 2);
        assert_eq!(FilterSpec::from_spec_id(0), None);
        assert_eq!(FilterSpec::from_spec_id(999), None);

        // The spec-id table is append-only: every id, registry spec or
        // not, names exactly one format. A new constant joins this list.
        use crate::persist::spec_id::*;
        let mut ids = [
            GRAFITE,
            BUCKETING,
            SNARF,
            SURF_REAL,
            SURF_HASH,
            PROTEUS,
            ROSETTA,
            RENCODER,
            RENCODER_SS,
            RENCODER_SE,
            TRIVIAL_BLOOM,
            STRING_GRAFITE,
            WORKLOAD_AWARE_BUCKETING,
            SURF_BASE,
        ];
        ids.sort_unstable();
        assert!(
            ids.windows(2).all(|w| w[0] != w[1]),
            "duplicate spec ids: {ids:?}"
        );
    }

    #[test]
    fn core_registry_loads_what_it_builds() {
        let keys: Vec<u64> = (0..700u64).map(|i| i * 999_983).collect();
        let cfg = FilterConfig::new(&keys).bits_per_key(12.0);
        let registry = Registry::new();
        for spec in [FilterSpec::Grafite, FilterSpec::Bucketing] {
            let built = registry.build(spec, &cfg).unwrap();
            let bytes = built.to_bytes();
            let loaded = registry.load(&bytes).unwrap();
            assert_eq!(loaded.name(), built.name());
            assert_eq!(loaded.num_keys(), built.num_keys());
            for probe in (0..700u64).map(|i| i * 999_983 / 3) {
                assert_eq!(
                    loaded.may_contain_range(probe, probe + 1000),
                    built.may_contain_range(probe, probe + 1000),
                    "{spec:?} diverged at {probe}"
                );
            }
        }
    }

    #[test]
    fn load_rejects_unknown_spec_and_unregistered_loader() {
        use crate::persist::{Header, FORMAT_VERSION};
        // Dispatch decisions precede the checksum pass, so a zero checksum
        // suffices for these header-only rejections.
        let empty_blob = |spec_id: u32| {
            let mut blob = Vec::new();
            Header {
                version: FORMAT_VERSION,
                spec_id,
                n_keys: 0,
                payload_words: 0,
                checksum: 0,
            }
            .write(&mut blob)
            .unwrap();
            blob
        };
        assert_eq!(
            Registry::new().load(&empty_blob(200)).err(),
            Some(FilterError::UnknownSpecId(200))
        );
        // A known spec id with no loader in this table.
        assert_eq!(
            Registry::new()
                .load(&empty_blob(FilterSpec::Snarf.spec_id()))
                .err(),
            Some(FilterError::Unregistered("SNARF"))
        );
    }

    #[test]
    fn core_registry_builds_its_own_filters() {
        let keys: Vec<u64> = (0..500u64).map(|i| i * 1_000_003).collect();
        let cfg = FilterConfig::new(&keys).bits_per_key(12.0);
        let registry = Registry::new();
        assert_eq!(registry.registered().count(), 2);
        for spec in [FilterSpec::Grafite, FilterSpec::Bucketing] {
            let f = registry.build(spec, &cfg).unwrap();
            assert_eq!(f.num_keys(), keys.len());
            for &k in keys.iter().step_by(17) {
                assert!(f.may_contain(k), "{} false negative", f.name());
            }
        }
    }

    #[test]
    fn unregistered_spec_errors_with_label() {
        let keys = [1u64, 2, 3];
        let cfg = FilterConfig::new(&keys);
        let err = Registry::empty().build(FilterSpec::Snarf, &cfg).err();
        assert!(matches!(err, Some(FilterError::Unregistered("SNARF"))));
        let err = Registry::new().build(FilterSpec::Proteus, &cfg).err();
        assert!(matches!(err, Some(FilterError::Unregistered("Proteus"))));
    }
}

//! The erased filter handle the store serves: [`FamilySpec`] names every
//! servable filter family — the paper's eleven registry configurations plus
//! the string-key Grafite of §7 — and [`DynRangeFilter`] wraps one built or
//! loaded instance behind an object-safe face.
//!
//! The split from [`FilterSpec`] exists because the registry table is
//! deliberately fixed to the paper's eleven-way comparison, while the
//! serving layer must also host families outside that comparison (today
//! [`StringGrafite`], spec id 32). A [`FamilySpec`] resolves construction
//! and loading either through the [`Registry`] or through the family's own
//! typed [`BuildableFilter`]/[`PersistentFilter`] implementations.

use std::io;

use grafite_core::persist::{spec_id, Header};
use grafite_core::registry::{FilterSpec, Registry};
use grafite_core::{
    BuildableFilter, FilterConfig, FilterError, PersistentFilter, RangeFilter, StringGrafite,
};

/// A filter family the serving layer can build, persist, and revive: one of
/// the paper's eleven registry configurations, or a workspace family outside
/// that comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FamilySpec {
    /// One of the eleven [`FilterSpec`] configurations, resolved through the
    /// [`Registry`] passed at build/open time.
    Registry(FilterSpec),
    /// Grafite over embedded string keys (paper §7; spec id 32), resolved
    /// through its typed implementation — it has no registry row.
    StringGrafite,
}

impl FamilySpec {
    /// Every servable family: the eleven registry specs plus
    /// [`FamilySpec::StringGrafite`].
    pub const ALL: [FamilySpec; FilterSpec::COUNT + 1] = [
        FamilySpec::Registry(FilterSpec::Grafite),
        FamilySpec::Registry(FilterSpec::Bucketing),
        FamilySpec::Registry(FilterSpec::Snarf),
        FamilySpec::Registry(FilterSpec::SurfReal),
        FamilySpec::Registry(FilterSpec::SurfHash),
        FamilySpec::Registry(FilterSpec::Proteus),
        FamilySpec::Registry(FilterSpec::Rosetta),
        FamilySpec::Registry(FilterSpec::REncoder),
        FamilySpec::Registry(FilterSpec::REncoderSS),
        FamilySpec::Registry(FilterSpec::REncoderSE),
        FamilySpec::Registry(FilterSpec::TrivialBloom),
        FamilySpec::StringGrafite,
    ];

    /// The stable on-disk spec id (see [`grafite_core::persist::spec_id`])
    /// this family writes into blob headers and the store manifest.
    pub fn spec_id(&self) -> u32 {
        match self {
            FamilySpec::Registry(spec) => spec.spec_id(),
            FamilySpec::StringGrafite => spec_id::STRING_GRAFITE,
        }
    }

    /// Inverse of [`FamilySpec::spec_id`], for manifest and header dispatch.
    pub fn from_spec_id(id: u32) -> Option<FamilySpec> {
        if id == spec_id::STRING_GRAFITE {
            return Some(FamilySpec::StringGrafite);
        }
        FilterSpec::from_spec_id(id).map(FamilySpec::Registry)
    }

    /// Display name (the registry label, or the family's own).
    pub fn label(&self) -> &'static str {
        match self {
            FamilySpec::Registry(spec) => spec.label(),
            FamilySpec::StringGrafite => "Grafite-String",
        }
    }

    /// Builds one filter of this family from the shared config, boxed into
    /// an erased [`DynRangeFilter`] handle.
    pub fn build(
        &self,
        registry: &Registry,
        cfg: &FilterConfig<'_>,
    ) -> Result<DynRangeFilter, FilterError> {
        let inner = match self {
            FamilySpec::Registry(spec) => registry.build(*spec, cfg)?,
            FamilySpec::StringGrafite => {
                Box::new(<StringGrafite as BuildableFilter>::build(cfg)?) as _
            }
        };
        Ok(DynRangeFilter {
            family: *self,
            inner,
        })
    }

    /// Revives one serialized filter of *this* family from a blob in the
    /// [`grafite_core::persist`] format. A blob of a different family is a
    /// typed [`FilterError::SpecMismatch`], never a misload.
    pub fn load(&self, registry: &Registry, bytes: &[u8]) -> Result<DynRangeFilter, FilterError> {
        let header = Header::peek(bytes)?;
        if header.spec_id != self.spec_id() {
            return Err(FilterError::SpecMismatch(header.spec_id));
        }
        let inner = match self {
            FamilySpec::Registry(_) => registry.load(bytes)?,
            FamilySpec::StringGrafite => Box::new(StringGrafite::deserialize(bytes)?) as _,
        };
        Ok(DynRangeFilter {
            family: *self,
            inner,
        })
    }
}

/// An erased, thread-shareable handle to one built (or loaded) filter of
/// any servable family.
///
/// This is the value a [`FilterStore`](crate::FilterStore) shard holds: it
/// answers the full [`RangeFilter`] contract by forwarding to the concrete
/// filter, and it serializes through the wrapped [`PersistentFilter`], so a
/// shard blob is exactly the filter's own versioned flat-byte format.
pub struct DynRangeFilter {
    family: FamilySpec,
    inner: Box<dyn PersistentFilter>,
}

impl std::fmt::Debug for DynRangeFilter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DynRangeFilter")
            .field("family", &self.family)
            .field("num_keys", &self.inner.num_keys())
            .finish_non_exhaustive()
    }
}

impl DynRangeFilter {
    /// Builds a filter of `family` from the shared config (equivalent to
    /// [`FamilySpec::build`]).
    pub fn build(
        registry: &Registry,
        family: FamilySpec,
        cfg: &FilterConfig<'_>,
    ) -> Result<Self, FilterError> {
        family.build(registry, cfg)
    }

    /// Revives a serialized filter of any servable family: the blob header
    /// names the family, so no spec needs to be supplied.
    pub fn load(registry: &Registry, bytes: &[u8]) -> Result<Self, FilterError> {
        let header = Header::peek(bytes)?;
        let family = FamilySpec::from_spec_id(header.spec_id)
            .ok_or(FilterError::UnknownSpecId(header.spec_id))?;
        family.load(registry, bytes)
    }

    /// Wraps a pre-boxed filter under an explicit family — how a mapped
    /// shard that failed to load serves its pass-all placeholder.
    pub(crate) fn from_boxed(family: FamilySpec, inner: Box<dyn PersistentFilter>) -> Self {
        Self { family, inner }
    }

    /// Wraps an already-built typed filter. Fails with
    /// [`FilterError::UnknownSpecId`] if the filter's spec id names no
    /// servable family (a custom family outside [`FamilySpec::ALL`]).
    pub fn wrap<F: PersistentFilter + 'static>(filter: F) -> Result<Self, FilterError> {
        let family = FamilySpec::from_spec_id(filter.spec_id())
            .ok_or(FilterError::UnknownSpecId(filter.spec_id()))?;
        Ok(Self {
            family,
            inner: Box::new(filter),
        })
    }

    /// Which family this handle holds.
    pub fn family(&self) -> FamilySpec {
        self.family
    }

    /// The wrapped filter, for protocols the erased handle does not re-export.
    pub fn as_persistent(&self) -> &dyn PersistentFilter {
        self.inner.as_ref()
    }

    /// The wrapped filter updated without a rebuild, when its family can
    /// (see [`PersistentFilter::merged`]).
    pub(crate) fn merged(
        &self,
        cfg: &FilterConfig<'_>,
        removed: &[u64],
        added: &[u64],
    ) -> Option<Self> {
        let inner = self.inner.merged(cfg, removed, added)?;
        Some(Self {
            family: self.family,
            inner,
        })
    }

    /// Serializes the wrapped filter (header + payload) into `out`,
    /// returning the bytes written.
    pub fn serialize_into(&self, out: &mut dyn io::Write) -> Result<usize, FilterError> {
        self.inner.serialize_into(out)
    }

    /// Serializes into a fresh byte vector.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.inner.to_bytes()
    }

    /// The wrapped filter's measured serialized footprint in bits.
    pub fn serialized_bits(&self) -> usize {
        self.inner.serialized_bits()
    }
}

impl RangeFilter for DynRangeFilter {
    #[inline]
    fn may_contain_range(&self, a: u64, b: u64) -> bool {
        self.inner.may_contain_range(a, b)
    }

    /// Forwards the whole batch to the wrapped filter: one virtual call per
    /// batch rather than one per query.
    fn may_contain_ranges(&self, queries: &[(u64, u64)], out: &mut Vec<bool>) {
        self.inner.may_contain_ranges(queries, out);
    }

    fn size_in_bits(&self) -> usize {
        self.inner.size_in_bits()
    }

    fn num_keys(&self) -> usize {
        self.inner.num_keys()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_spec_ids_roundtrip() {
        for family in FamilySpec::ALL {
            assert_eq!(FamilySpec::from_spec_id(family.spec_id()), Some(family));
        }
        assert_eq!(FamilySpec::StringGrafite.spec_id(), 32);
        assert_eq!(FamilySpec::from_spec_id(0), None);
        assert_eq!(FamilySpec::from_spec_id(999), None);
    }

    #[test]
    fn build_load_and_wrap_core_families() {
        let keys: Vec<u64> = (0..800u64).map(|i| i * 999_983).collect();
        let cfg = FilterConfig::new(&keys).bits_per_key(14.0);
        let registry = Registry::new();
        for family in [
            FamilySpec::Registry(FilterSpec::Grafite),
            FamilySpec::Registry(FilterSpec::Bucketing),
            FamilySpec::StringGrafite,
        ] {
            let built = family.build(&registry, &cfg).unwrap();
            assert_eq!(built.family(), family);
            assert_eq!(built.num_keys(), keys.len());
            let blob = built.to_bytes();
            let loaded = DynRangeFilter::load(&registry, &blob).unwrap();
            assert_eq!(loaded.family(), family);
            for &k in keys.iter().step_by(29) {
                assert!(loaded.may_contain(k), "{} lost {k}", family.label());
            }
        }
        // wrap() recovers the family from the filter's own spec id.
        let typed = StringGrafite::build(&cfg).unwrap();
        let wrapped = DynRangeFilter::wrap(typed).unwrap();
        assert_eq!(wrapped.family(), FamilySpec::StringGrafite);
    }

    #[test]
    fn load_rejects_cross_family_blobs() {
        let keys: Vec<u64> = (0..300u64).map(|i| i * 7919).collect();
        let cfg = FilterConfig::new(&keys).bits_per_key(14.0);
        let registry = Registry::new();
        let grafite = FamilySpec::Registry(FilterSpec::Grafite)
            .build(&registry, &cfg)
            .unwrap();
        let blob = grafite.to_bytes();
        assert_eq!(
            FamilySpec::StringGrafite.load(&registry, &blob).err(),
            Some(FilterError::SpecMismatch(spec_id::GRAFITE))
        );
    }
}

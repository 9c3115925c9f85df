//! # grafite — meta-crate for the Grafite range-filter reproduction
//!
//! This crate re-exports the public API of the whole workspace, which
//! reproduces *Grafite: Taming Adversarial Queries with Optimal Range
//! Filters* (Costa, Ferragina, Vinciguerra — SIGMOD 2024) in Rust:
//!
//! * [`grafite_core`] — the paper's contributions ([`GrafiteFilter`] §3,
//!   [`BucketingFilter`] §4) **and the workspace-wide contract**: the
//!   [`RangeFilter`] query trait (single + batched queries), the
//!   [`FilterConfig`]/[`BuildableFilter`] construction protocol, the
//!   [`FilterSpec`]→builder [`Registry`], and the [`KeyCodec`] embedding
//!   for non-integer keys.
//! * [`grafite_succinct`] — Elias–Fano, rank/select bit vectors, Golomb–Rice.
//! * [`grafite_hash`] — pairwise-independent and locality-preserving hashing.
//! * [`grafite_bloom`] — Bloom-filter substrates and the trivial baseline.
//! * [`grafite_fst`] — the Fast Succinct Trie behind SuRF and Proteus.
//! * [`grafite_filters`] — the competitor filters of the paper's evaluation,
//!   plus [`standard_registry`] assembling all eleven configurations.
//! * [`grafite_workloads`] — the datasets and query workloads of §6.
//! * [`grafite_store`] — the serving layer: [`FilterStore`] shards the key
//!   space across per-shard filters of any family, serves immutable
//!   lock-free [`Snapshot`]s to any number of reader threads, applies
//!   [`Update`] batches by rebuilding only dirty shards behind an atomic
//!   snapshot swap, round-trips whole stores through a versioned
//!   multi-shard manifest, and cold-starts lazily from a saved manifest
//!   file via [`FilterStore::open_mapped`] (shards materialize on first
//!   query — a multi-gigabyte store opens in milliseconds).
//! * [`grafite_server`] — the network front end: a dependency-free TCP
//!   server ([`serve`]) speaking a length-prefixed binary protocol over a
//!   shared [`FilterStore`], answering each connection's probes on its own
//!   thread against one snapshot, hot-reloading manifests without dropping
//!   in-flight queries, and exporting operational telemetry (qps, latency
//!   histograms, observed-FP estimation) as JSON — plus the matching
//!   [`Client`] and the `grafite-server` binary (`gen`/`serve`/`smoke`).
//!
//! ## Quickstart
//!
//! Every filter builds from one [`FilterConfig`] through the
//! [`BuildableFilter`] protocol:
//!
//! ```
//! use grafite::{BuildableFilter, FilterConfig, GrafiteFilter, RangeFilter};
//!
//! let keys: Vec<u64> = vec![9, 48, 50, 191, 226, 269, 335, 446, 487, 511];
//! // Budget of 16 bits per key: FPP for ranges of size l is <= l / 2^14.
//! let cfg = FilterConfig::new(&keys).bits_per_key(16.0);
//! let filter = GrafiteFilter::build(&cfg).unwrap();
//! assert!(filter.may_contain_range(48, 50)); // a true positive: no false negatives, ever
//!
//! // Batched queries return exactly the per-query answers, in query order.
//! let mut out = Vec::new();
//! filter.may_contain_ranges(&[(0, 8), (48, 50)], &mut out);
//! assert_eq!(out, [false, true]);
//! ```
//!
//! The same config drives every other filter of the paper, either through
//! its typed [`BuildableFilter`] implementation (per-filter knobs are typed
//! `Tuning` structs — no strings anywhere) or uniformly through the
//! registry:
//!
//! ```
//! use grafite::{standard_registry, FilterConfig, FilterSpec};
//!
//! let keys: Vec<u64> = (0..2000u64).map(|i| i * 11_400_714_819).collect();
//! let cfg = FilterConfig::new(&keys).bits_per_key(18.0).max_range(64);
//! let registry = standard_registry();
//! for spec in FilterSpec::ALL {
//!     let filter = registry.build(spec, &cfg).expect("feasible at 18 bits/key");
//!     assert!(filter.may_contain(keys[7]), "{} lost a key", filter.name());
//! }
//! ```
//!
//! ## Persistence
//!
//! Every filter also speaks the [`PersistentFilter`] protocol over a
//! dependency-free, versioned flat-byte format (see
//! [`grafite_core::persist`]): build offline, [`PersistentFilter::to_bytes`]
//! the blob to disk or the network, and revive it anywhere with
//! [`Registry::load`] — rank/select directories travel inside the blob, so
//! loading is one checksummed, bounds-checked copy that never rebuilds
//! anything:
//!
//! ```
//! use grafite::{standard_registry, FilterConfig, FilterSpec, PersistentFilter};
//!
//! let keys: Vec<u64> = (0..2000u64).map(|i| i * 11_400_714_819).collect();
//! let cfg = FilterConfig::new(&keys).bits_per_key(18.0);
//! let registry = standard_registry();
//! let built = registry.build(FilterSpec::Grafite, &cfg).unwrap();
//!
//! let blob = built.to_bytes();                  // ship this to your shards
//! let served = registry.load(&blob).unwrap();   // self-describing: no spec needed
//! assert!(served.may_contain(keys[7]));
//! // Measured space — serialized bits over keys — is the honest
//! // bits-per-key figure the bench harness reports.
//! assert_eq!(served.serialized_bits(), blob.len() * 8);
//! ```
//!
//! ## Serving
//!
//! Production serving wants a lifecycle — build → serve → update → reload —
//! not a bare filter value. [`FilterStore`] provides it over every family:
//!
//! ```
//! use grafite::{standard_registry, FamilySpec, FilterSpec, FilterStore, StoreConfig, Update};
//!
//! let keys: Vec<u64> = (0..4000u64).map(|i| i * 99_991).collect();
//! let registry = standard_registry();
//! let config = StoreConfig::new(FamilySpec::Registry(FilterSpec::Grafite)).bits_per_key(14.0);
//! let store = FilterStore::build(&registry, config, &keys).unwrap();
//!
//! let snap = store.snapshot();              // immutable, lock-free to query
//! store.apply(&[Update::Insert(7), Update::Delete(99_991)]).unwrap();
//! assert!(store.may_contain(7));            // the new snapshot serves the insert
//! assert!(snap.may_contain(99_991));        // old snapshots never change
//!
//! let reopened = FilterStore::open(&registry, &store.to_bytes()).unwrap();
//! assert_eq!(reopened.num_keys(), store.num_keys());
//! ```

pub use grafite_bloom;
pub use grafite_core;
pub use grafite_filters;
pub use grafite_fst;
pub use grafite_hash;
pub use grafite_server;
pub use grafite_store;
pub use grafite_succinct;
pub use grafite_workloads;

pub use grafite_core::{
    BucketingFilter, BuildableFilter, FilterConfig, FilterError, FilterSpec, GrafiteFilter,
    KeyCodec, PersistentFilter, RangeFilter, Registry, StringGrafite,
};
pub use grafite_filters::standard_registry;
pub use grafite_server::{serve, Client, ServerHandle};
pub use grafite_store::{
    DynRangeFilter, FamilySpec, FilterStore, Partitioning, Snapshot, StoreConfig, Update,
};

/// Compiles and runs every Rust snippet of the README as a doctest, so the
/// documented API cannot drift from the real one.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

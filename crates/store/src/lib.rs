//! # grafite-store — the serving layer over every filter family
//!
//! The paper evaluates its filters as static build-once structures; this
//! crate is the lifecycle API a production deployment needs on top:
//! **build → serve → update → reload**.
//!
//! * [`DynRangeFilter`] — an erased, thread-shareable handle to one filter
//!   of any servable [`FamilySpec`] (the paper's eleven registry
//!   configurations plus [`StringGrafite`](grafite_core::StringGrafite)),
//!   built from a [`FilterConfig`](grafite_core::FilterConfig) through the
//!   [`Registry`](grafite_core::Registry) or revived from a serialized
//!   blob.
//! * [`FilterStore`] — hash-or-range partitions the key space into N
//!   shards, each holding its own filter, and serves queries from
//!   immutable [`Snapshot`]s behind `Arc`: unboundedly many reader threads
//!   query lock-free while one writer applies [`Update`] batches by
//!   rebuilding only the dirty shards and atomically swapping snapshots.
//! * [`manifest`] — the versioned multi-shard on-disk format
//!   ([`FilterStore::save_to`]) and its one reader: per-shard blobs in the
//!   `grafite_core::persist` flat-byte format plus routing metadata, so a
//!   store built offline revives on another machine with one call. One
//!   scan and one shard loader back both opens, which differ only in how
//!   they materialize shards: [`FilterStore::open`] loads every shard up
//!   front and fails typed; [`FilterStore::open_mapped`] /
//!   [`FilterStore::reload_mapped`] scan the file in `O(shards)` small
//!   reads and load each shard on first touch, failing open — so a
//!   multi-gigabyte store cold-starts in milliseconds and hot-reloads
//!   without dropping in-flight queries. Every family's shard blob loads
//!   through [`FamilySpec::load`] on both paths. Shard keys are stored as
//!   blocked Elias–Fano, 256 keys a block; a mapped shard keeps only its
//!   filter and its block directory resident, and [`Shard::read_keys`]
//!   re-reads, decodes and re-verifies the keys when `apply` or `save_to`
//!   needs them.
//!   [`FilterStore::space`] reports the footprint by layer.
//! * [`StoreStats`] — always-on operational counters (lazy loads, load
//!   failures, reloads, shard-build times) the serving front end scrapes
//!   into its telemetry, recorded through the one [`Histogram`] type the
//!   server's latency telemetry also uses.
//!
//! # Example
//!
//! ```
//! use grafite_core::registry::{FilterSpec, Registry};
//! use grafite_store::{FamilySpec, FilterStore, Partitioning, StoreConfig, Update};
//!
//! let keys: Vec<u64> = (0..4000u64).map(|i| i * 99_991).collect();
//! let registry = Registry::new(); // grafite_filters::standard_registry() for all 11
//! let config = StoreConfig::new(FamilySpec::Registry(FilterSpec::Grafite))
//!     .bits_per_key(14.0)
//!     .partitioning(Partitioning::Range { shards: 4 });
//! let store = FilterStore::build(&registry, config, &keys).unwrap();
//!
//! // Serve: snapshots are immutable and lock-free to query.
//! let snap = store.snapshot();
//! assert!(snap.may_contain(99_991));
//!
//! // Update: only the dirty shard rebuilds; the swap is atomic.
//! let report = store.apply(&[Update::Insert(7), Update::Delete(99_991)]).unwrap();
//! assert_eq!(report.dirty_shards, 1);
//! assert!(store.may_contain(7));
//! assert!(snap.may_contain(99_991)); // the old snapshot never changes
//!
//! // Reload: the manifest round-trips the whole store.
//! let bytes = store.to_bytes();
//! let reopened = FilterStore::open(&registry, &bytes).unwrap();
//! assert!(reopened.may_contain(7));
//! ```

pub mod family;
pub mod manifest;
mod mapped;
pub mod stats;
pub mod store;

pub use family::{DynRangeFilter, FamilySpec};
pub use manifest::{MANIFEST_HEADER_WORDS, STORE_FORMAT_VERSION, STORE_MAGIC};
pub use stats::{Histogram, StoreStats};
pub use store::{
    ApplyReport, FilterStore, Partitioning, Routing, Shard, Snapshot, StoreConfig, StoreSpace,
    Update,
};

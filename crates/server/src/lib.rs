//! # grafite-server — the network serving front end
//!
//! A dependency-free TCP server over the sharded
//! [`FilterStore`](grafite_store::FilterStore): a small blocking pool
//! speaking a length-prefixed binary protocol
//! (`QUERY` / `BATCH_QUERY` / `APPLY` / `STATS` / `RELOAD` / `SHUTDOWN`),
//! with three properties the paper's static benchmark setting doesn't
//! need but a deployment does:
//!
//! * **One snapshot per request**: each connection thread answers its own
//!   probes against one store snapshot, which also routes them and refutes
//!   the sampled positive; no request waits on another connection's.
//! * **Mapped cold starts and hot reloads**: the binary serves a saved
//!   manifest through [`FilterStore::open_mapped`] — `O(shards)` small
//!   reads, shards materialize on first probe — and `RELOAD` swaps in a
//!   new manifest atomically without failing one in-flight query.
//! * **Operational telemetry** ([`Telemetry`]): per-verb counts and
//!   latency histograms, per-shard traffic, probes per request,
//!   rebuild durations, and an observed-FP estimator fed by retained-key
//!   refutation — all plain atomics, exported as JSON over `STATS`.
//!
//! [`FilterStore::open_mapped`]: grafite_store::FilterStore::open_mapped
//!
//! # Example
//!
//! ```no_run
//! use std::sync::Arc;
//! use grafite_core::registry::{FilterSpec, Registry};
//! use grafite_server::{serve, Client};
//! use grafite_store::{FamilySpec, FilterStore, StoreConfig};
//!
//! let keys: Vec<u64> = (0..10_000u64).map(|i| i * 99_991).collect();
//! let config = StoreConfig::new(FamilySpec::Registry(FilterSpec::Grafite));
//! let store = Arc::new(FilterStore::build(&Registry::new(), config, &keys).unwrap());
//!
//! let handle = serve(store, "127.0.0.1:0", None).unwrap();
//! let mut client = Client::connect(handle.addr()).unwrap();
//! assert!(client.query(99_991, 99_991).unwrap());
//! client.shutdown().unwrap();
//! handle.join();
//! ```

pub mod batch;
pub mod client;
pub mod protocol;
pub mod server;
pub mod telemetry;

pub use batch::Batcher;
pub use client::{ApplySummary, Client};
pub use grafite_store::Histogram;
pub use protocol::{Frame, ProtocolError, MAX_FRAME};
pub use server::{serve, ServerHandle};
pub use telemetry::Telemetry;

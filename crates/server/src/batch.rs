//! A stateless stand-in for the retired request combiner. The server no
//! longer uses it: each connection thread answers its own probes against
//! one snapshot (see [`crate::server`]). It stays only because perfbench's
//! traced run links it; ROADMAP item 1 deletes it together with that link.

use std::sync::Arc;

use grafite_store::FilterStore;

use crate::telemetry::Telemetry;

/// Answers probe batches against the store's current snapshot and counts
/// each call as one store batch.
#[derive(Debug)]
pub struct Batcher {
    store: Arc<FilterStore>,
    telemetry: Arc<Telemetry>,
}

impl Batcher {
    /// A batcher answering from `store` and recording into `telemetry`.
    pub fn new(store: Arc<FilterStore>, telemetry: Arc<Telemetry>) -> Self {
        Self { store, telemetry }
    }

    /// Answers `queries` (closed ranges, each `a <= b`) in order, from one
    /// snapshot.
    pub fn submit(&self, queries: &[(u64, u64)]) -> Vec<bool> {
        let mut answers = Vec::with_capacity(queries.len());
        self.store.snapshot().query_ranges(queries, &mut answers);
        self.telemetry.record_batch(queries.len() as u64);
        answers
    }
}

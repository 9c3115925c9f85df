//! Request coalescing: concurrently arriving probes from many connection
//! threads merge into one store batch, executed by one leader against one
//! snapshot. The store answers every probe of that batch through its
//! per-query path ([`grafite_store::Snapshot::query_ranges`]); what a
//! coalesced batch shares is the snapshot load, the handoff and the
//! adjacent-duplicate collapse below, not a batch-specific probe kernel.
//!
//! The combining protocol is leader/follower: the first thread to find no
//! batch in flight becomes the leader, takes everything queued so far
//! (its own probes included), and executes it against one snapshot.
//! Threads arriving while the leader runs enqueue into the *next*
//! generation and block on that generation's result slot; the leader
//! drains generation after generation until the queue is empty, so no
//! follower ever waits without a leader working on its behalf. Under no
//! concurrency the fast path is one uncontended mutex and a direct
//! execution — a single client pays nothing for the machinery.

use std::sync::{Arc, Condvar, Mutex};

use grafite_store::FilterStore;

use crate::telemetry::Telemetry;

/// One generation's result slot: followers block on it until the leader
/// fills it with the whole generation's answers.
struct Slot {
    out: Mutex<Option<Arc<Vec<bool>>>>,
    ready: Condvar,
}

impl Slot {
    fn new() -> Self {
        Self {
            out: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    fn fill(&self, answers: Vec<bool>) {
        let mut out = self.out.lock().expect("batch slot poisoned");
        *out = Some(Arc::new(answers));
        self.ready.notify_all();
    }

    fn wait(&self, start: usize, len: usize) -> Vec<bool> {
        let mut out = self.out.lock().expect("batch slot poisoned");
        loop {
            if let Some(answers) = out.as_ref() {
                return answers
                    .get(start..start.saturating_add(len))
                    .map(<[bool]>::to_vec)
                    .unwrap_or_else(|| vec![false; len]);
            }
            out = self.ready.wait(out).expect("batch slot poisoned");
        }
    }
}

/// The accumulating generation: probes queued since the last batch was
/// taken, and the slot their submitters wait on.
struct Pending {
    queue: Vec<(u64, u64)>,
    slot: Arc<Slot>,
    /// Whether a leader is currently draining generations.
    busy: bool,
}

/// Coalesces concurrent probe submissions into store batches. Shared
/// (behind `Arc`) by every connection thread of a server.
pub struct Batcher {
    store: Arc<FilterStore>,
    telemetry: Arc<Telemetry>,
    pending: Mutex<Pending>,
}

impl std::fmt::Debug for Batcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Batcher").finish_non_exhaustive()
    }
}

impl Batcher {
    /// A batcher executing against `store` and recording coalescing
    /// telemetry into `telemetry`.
    pub fn new(store: Arc<FilterStore>, telemetry: Arc<Telemetry>) -> Self {
        Self {
            store,
            telemetry,
            pending: Mutex::new(Pending {
                queue: Vec::new(),
                slot: Arc::new(Slot::new()),
                busy: false,
            }),
        }
    }

    /// Submits `queries` (closed ranges, each `a <= b`) and blocks until
    /// their answers are in, in submission order. Concurrent callers'
    /// probes ride in the same store batch whenever their submissions
    /// overlap in time.
    pub fn submit(&self, queries: &[(u64, u64)]) -> Vec<bool> {
        if queries.is_empty() {
            return Vec::new();
        }
        let (slot, start) = {
            let mut pending = self.pending.lock().expect("batcher lock poisoned");
            let start = pending.queue.len();
            pending.queue.extend_from_slice(queries);
            let slot = Arc::clone(&pending.slot);
            if !pending.busy {
                pending.busy = true;
                self.drain(pending);
            }
            (slot, start)
        };
        slot.wait(start, queries.len())
    }

    /// Leader loop: executes generation after generation until the queue
    /// stays empty, then clears `busy`. Consumes the guard so the lock is
    /// released while each batch runs.
    fn drain<'a>(&'a self, mut pending: std::sync::MutexGuard<'a, Pending>) {
        loop {
            let batch = std::mem::take(&mut pending.queue);
            let slot = std::mem::replace(&mut pending.slot, Arc::new(Slot::new()));
            drop(pending);
            // Adjacent identical probes collapse to one store probe: a
            // client hammering the same range (or a burst of retries)
            // pays for it once per run, and the store batch stays
            // smaller. `expand` maps each original position back to its
            // representative's answer slot.
            let mut unique: Vec<(u64, u64)> = Vec::with_capacity(batch.len());
            let mut expand: Vec<usize> = Vec::with_capacity(batch.len());
            for &probe in &batch {
                if unique.last() != Some(&probe) {
                    unique.push(probe);
                }
                expand.push(unique.len().saturating_sub(1));
            }
            let dedup_hits = (batch.len() - unique.len()) as u64;
            let mut compact = Vec::new();
            self.store.snapshot().query_ranges(&unique, &mut compact);
            let answers: Vec<bool> = expand
                .iter()
                .map(|&i| compact.get(i).copied().unwrap_or(false))
                .collect();
            self.telemetry.record_batch(batch.len() as u64);
            if dedup_hits > 0 {
                self.telemetry.record_dedup_hits(dedup_hits);
            }
            slot.fill(answers);
            pending = self.pending.lock().expect("batcher lock poisoned");
            if pending.queue.is_empty() {
                pending.busy = false;
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grafite_core::registry::{FilterSpec, Registry};
    use grafite_store::{FamilySpec, Partitioning, StoreConfig};

    fn small_store() -> Arc<FilterStore> {
        let keys: Vec<u64> = (0..2000u64).map(|i| i * 99_991).collect();
        let config = StoreConfig::new(FamilySpec::Registry(FilterSpec::Grafite))
            .bits_per_key(14.0)
            .max_range(64)
            .partitioning(Partitioning::Range { shards: 4 });
        Arc::new(FilterStore::build(&Registry::new(), config, &keys).unwrap())
    }

    #[test]
    fn adjacent_duplicates_are_answered_once() {
        let store = small_store();
        let telemetry = Arc::new(Telemetry::new(4));
        let batcher = Batcher::new(Arc::clone(&store), Arc::clone(&telemetry));
        let snap = store.snapshot();
        // Runs of identical probes interleaved with distinct ones.
        let mut queries = Vec::new();
        for i in 0..50u64 {
            let a = i * 99_991;
            let b = a + (i % 16);
            for _ in 0..=(i % 4) {
                queries.push((a, b));
            }
        }
        let got = batcher.submit(&queries);
        let want: Vec<bool> = queries
            .iter()
            .map(|&(a, b)| snap.may_contain_range(a, b))
            .collect();
        assert_eq!(got, want, "dedup must not change any answer");
        let expected_hits: u64 = (0..50u64).map(|i| i % 4).sum();
        assert_eq!(telemetry.dedup_hits(), expected_hits);
    }

    #[test]
    fn coalesced_answers_match_direct_queries() {
        let store = small_store();
        let telemetry = Arc::new(Telemetry::new(4));
        let batcher = Arc::new(Batcher::new(Arc::clone(&store), Arc::clone(&telemetry)));
        let snap = store.snapshot();
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let batcher = Arc::clone(&batcher);
            let snap = Arc::clone(&snap);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    let a = (t * 7919 + i).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 1;
                    let b = a.saturating_add(i % 32);
                    let got = batcher.submit(&[(a, b)]);
                    assert_eq!(got, vec![snap.may_contain_range(a, b)], "[{a}, {b}]");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Every probe rode in some executed batch.
        assert!(
            telemetry.coalescing_factor() >= 1.0,
            "coalescing factor {}",
            telemetry.coalescing_factor()
        );
    }
}

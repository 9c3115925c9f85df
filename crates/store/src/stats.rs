//! Operational counters for the serving store: cheap, always-on atomics
//! the serving front end (`grafite-server`) scrapes into its telemetry
//! export, and the [`Histogram`] both crates record durations into.
//!
//! The counters are deliberately *store-level* facts — lazy shard
//! materializations, materialization failures, manifest reloads — not
//! query-path metrics: per-query counting belongs to the server's
//! telemetry module, where it can be sampled and histogrammed without
//! taxing the store's lock-free read path.
//!
//! Every atomic here is `Relaxed`: no counter publishes other data, so
//! nothing synchronizes on one.

use std::sync::atomic::{AtomicU64, Ordering};

/// A log₂-bucketed streaming histogram of `u64` samples: bucket `i` holds
/// samples whose bit length is `i` (value 0 lands in bucket 0). Quantiles
/// come back as the upper bound of the bucket the rank falls in — within
/// 2× of the true value, which is all a latency dashboard needs.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; 64],
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, value: u64) {
        let idx = (64 - value.leading_zeros() as usize).min(63);
        if let Some(bucket) = self.buckets.get(idx) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Snapshot of every bucket's count: entry `i` counts the samples of
    /// bit length `i`.
    pub(crate) fn counts(&self) -> [u64; 64] {
        // A concurrent `record` may tear this snapshot across buckets
        // slightly, which telemetry tolerates.
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.counts().iter().sum()
    }

    /// The approximate `num/den` quantile: the upper bound of the bucket
    /// holding that rank (0 when empty).
    pub fn quantile(&self, num: u64, den: u64) -> u64 {
        let counts = self.counts();
        let total: u64 = counts.iter().sum();
        if total == 0 || den == 0 {
            return 0;
        }
        let rank = (total as u128)
            .saturating_mul(num as u128)
            .div_ceil(den as u128)
            .max(1) as u64;
        let mut seen = 0u64;
        for (idx, &count) in counts.iter().enumerate() {
            seen = seen.saturating_add(count);
            if seen >= rank {
                return upper_bound(idx);
            }
        }
        upper_bound(63)
    }
}

/// The largest value bucket `idx` of a [`Histogram`] can hold.
fn upper_bound(idx: usize) -> u64 {
    if idx == 0 {
        0
    } else if idx >= 63 {
        u64::MAX
    } else {
        (1u64 << idx) - 1
    }
}

/// Monotonic counters shared by a [`FilterStore`](crate::FilterStore) and
/// every lazy shard it hands out. All methods are lock-free and safe to
/// call from any thread.
#[derive(Debug, Default)]
pub struct StoreStats {
    lazy_shard_loads: AtomicU64,
    shard_load_errors: AtomicU64,
    reloads: AtomicU64,
    /// Worker-thread count of the most recent build or update-batch
    /// rebuild fan-out (0 until the first one).
    rebuild_workers: AtomicU64,
    /// Dirty shards update batches merged into their filters.
    merged_shards: AtomicU64,
    /// Dirty shards update batches rebuilt from their keys.
    rebuilt_shards: AtomicU64,
    /// Per-shard build wall times in microseconds.
    shard_build_us: Histogram,
}

impl StoreStats {
    /// Records one lazy shard materialization attempt.
    pub(crate) fn record_lazy_load(&self) {
        self.lazy_shard_loads.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one failed shard materialization (the shard now serves
    /// pass-all).
    pub(crate) fn record_load_error(&self) {
        self.shard_load_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one successful manifest hot-reload.
    pub(crate) fn record_reload(&self) {
        self.reloads.fetch_add(1, Ordering::Relaxed);
    }

    /// Lazy shard materialization attempts so far (mapped stores only;
    /// eagerly opened stores never increment this).
    pub fn lazy_shard_loads(&self) -> u64 {
        self.lazy_shard_loads.load(Ordering::Relaxed)
    }

    /// Shard materializations that failed and fell back to a pass-all
    /// placeholder. Non-zero means queries are safe (no false negatives)
    /// but degraded (every query on that shard answers `true`).
    pub fn shard_load_errors(&self) -> u64 {
        self.shard_load_errors.load(Ordering::Relaxed)
    }

    /// Whether any shard materialization has ever failed: queries stay
    /// safe (no false negatives) but the failed shard answers pass-all,
    /// so the store's precision is degraded.
    pub fn is_degraded(&self) -> bool {
        self.shard_load_errors() > 0
    }

    /// Successful manifest hot-reloads since the store opened.
    pub fn reloads(&self) -> u64 {
        self.reloads.load(Ordering::Relaxed)
    }

    /// Records the worker count a build/rebuild fan-out ran with.
    pub(crate) fn record_rebuild_workers(&self, workers: u64) {
        self.rebuild_workers.store(workers, Ordering::Relaxed);
    }

    /// Records how one update batch changed its dirty shards: `merged` by
    /// a merge into their filters, `rebuilt` from their keys.
    pub(crate) fn record_apply_shards(&self, merged: u64, rebuilt: u64) {
        self.merged_shards.fetch_add(merged, Ordering::Relaxed);
        self.rebuilt_shards.fetch_add(rebuilt, Ordering::Relaxed);
    }

    /// Dirty shards that update batches merged into their filters instead
    /// of rebuilding them.
    pub fn merged_shards(&self) -> u64 {
        self.merged_shards.load(Ordering::Relaxed)
    }

    /// Dirty shards that update batches rebuilt from their keys.
    pub fn rebuilt_shards(&self) -> u64 {
        self.rebuilt_shards.load(Ordering::Relaxed)
    }

    /// Records one shard build's wall time into the microsecond histogram.
    pub(crate) fn record_shard_build(&self, nanos: u64) {
        self.shard_build_us.record(nanos / 1_000);
    }

    /// Worker threads used by the most recent build or update-batch
    /// rebuild fan-out (0 if the store has never built a shard — e.g. it
    /// was opened from a manifest and not yet updated).
    pub fn rebuild_workers(&self) -> u64 {
        self.rebuild_workers.load(Ordering::Relaxed)
    }

    /// The per-shard build wall-time histogram folded into the 16 entries
    /// the `STATS` export carries: entry `i` counts builds that took
    /// `[2^i, 2^(i+1))` microseconds, i.e. histogram bucket `i + 1`; entry 0
    /// also takes sub-microsecond builds and entry 15 everything longer.
    pub fn shard_build_histogram(&self) -> [u64; 16] {
        let mut out = [0u64; 16];
        for (idx, count) in self.shard_build_us.counts().into_iter().enumerate() {
            out[idx.saturating_sub(1).min(15)] += count;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_start_zero_and_count() {
        let stats = StoreStats::default();
        assert_eq!(stats.lazy_shard_loads(), 0);
        assert_eq!(stats.shard_load_errors(), 0);
        assert_eq!(stats.reloads(), 0);
        assert!(!stats.is_degraded());
        stats.record_lazy_load();
        stats.record_lazy_load();
        stats.record_load_error();
        stats.record_reload();
        stats.record_apply_shards(2, 1);
        stats.record_apply_shards(0, 1);
        assert_eq!(stats.lazy_shard_loads(), 2);
        assert_eq!(stats.shard_load_errors(), 1);
        assert!(stats.is_degraded());
        assert_eq!(stats.reloads(), 1);
        assert_eq!((stats.merged_shards(), stats.rebuilt_shards()), (2, 2));
    }

    #[test]
    fn rebuild_telemetry_buckets_and_gauge() {
        let stats = StoreStats::default();
        assert_eq!(stats.rebuild_workers(), 0);
        assert_eq!(stats.shard_build_histogram(), [0; 16]);
        stats.record_rebuild_workers(8);
        stats.record_rebuild_workers(4); // gauge: last write wins
        assert_eq!(stats.rebuild_workers(), 4);
        stats.record_shard_build(500); // < 1 µs -> bucket 0
        stats.record_shard_build(3_000); // 3 µs -> bucket 1
        stats.record_shard_build(1_000_000); // 1 ms -> bucket 9
        stats.record_shard_build(u64::MAX); // clamps to the last bucket
        let hist = stats.shard_build_histogram();
        assert_eq!(hist[0], 1);
        assert_eq!(hist[1], 1);
        assert_eq!(hist[9], 1);
        assert_eq!(hist[15], 1);
        assert_eq!(hist.iter().sum::<u64>(), 4);
    }
}

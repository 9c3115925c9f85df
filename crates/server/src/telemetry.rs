//! Operational telemetry: lock-free counters and streaming histograms the
//! server updates on every request and exports as JSON over `STATS`.
//!
//! Everything is plain `std` atomics — no dependencies, no sampling locks
//! — so recording costs a handful of relaxed atomic adds per request:
//!
//! * per-verb request counts, error counts, and log₂-bucketed latency
//!   histograms (approximate p50/p99 in microseconds),
//! * per-shard probe counts (which shards the routing sends traffic to;
//!   a range counts once in every shard it routes to),
//! * store batches (`batch.*`): each `QUERY` or `BATCH_QUERY` is answered
//!   as one store batch on its connection thread, so `batch.batches`
//!   counts those requests, `batch.probes` the probes answered, and
//!   `batch.coalescing_factor` is probes per request. No batch merges
//!   requests, so `batch.dedup_hits` is always 0; the fields keep the v1
//!   schema,
//! * rebuild (apply) durations,
//! * transient accept errors the acceptor backed off from and survived
//!   (`accept_errors`; they fail no request, so they stay out of
//!   `total_errors`),
//! * an observed-false-positive estimator. Every negative answer is a
//!   true negative (a range filter never answers a false negative). One
//!   positive answer in [`REFUTE_EVERY`] (`fp.sample_every`), numbered in
//!   the order the server records them, is checked against the shard keys
//!   (`fp.sampled`); a positive they refute is a confirmed false positive
//!   (`fp.refuted`). `fp.observed_rate` is refuted ÷ sampled, the estimated
//!   share of positive answers that were false: a false-*discovery* rate,
//!   not the FPR. `fp.fpr` estimates the false-positive rate over
//!   empty-range probes as F ÷ (F + negatives), with F = observed_rate ×
//!   positives. Both are 0 before the first sample. The sample's key reads
//!   on a mapped store are not checksum-verified, so a file damaged after
//!   open can skew these estimates but no answer,
//! * the bytes of shard keys held in memory (`store.resident_key_bytes`):
//!   every key of a built, eagerly opened or rebuilt shard, only the block
//!   directory of a mapped one,
//! * the store's footprint by layer (`store.space`, from
//!   [`FilterStore::space`]): the key count and the bytes of filters,
//!   retained keys in memory, key records left in the manifest file, and
//!   manifest framing — divide by `num_keys` for bytes per key.
//!
//! Every latency and duration histogram is the store's [`Histogram`], the
//! same type [`StoreStats`](grafite_store::StoreStats) records shard builds
//! into.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use grafite_store::{FilterStore, Histogram};

/// Relaxed monotonic add — every counter in this module goes through here.
fn add(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

/// Relaxed counter read for reporting.
fn get(counter: &AtomicU64) -> u64 {
    // Counters are read one by one: a STATS export may tear slightly
    // across them, which telemetry tolerates.
    counter.load(Ordering::Relaxed)
}

/// The server checks one positive answer in this many against the shard
/// keys (see [`Telemetry::record_positives`]): the sample behind `fp.*`.
pub const REFUTE_EVERY: u64 = 64;

/// Labels for the six request verbs, indexed by `verb - 1`.
const VERB_LABELS: [&str; 6] = [
    "query",
    "batch_query",
    "apply",
    "stats",
    "reload",
    "shutdown",
];

/// One verb's counters: requests served, requests failed, latency.
#[derive(Debug, Default)]
pub struct VerbStats {
    count: AtomicU64,
    errors: AtomicU64,
    latency_us: Histogram,
}

impl VerbStats {
    /// Requests of this verb answered successfully.
    pub fn count(&self) -> u64 {
        get(&self.count)
    }

    /// Requests of this verb that failed (malformed or rejected).
    pub fn errors(&self) -> u64 {
        get(&self.errors)
    }

    /// The latency histogram (microseconds).
    pub fn latency_us(&self) -> &Histogram {
        &self.latency_us
    }
}

/// The server's full telemetry state. One instance lives as long as the
/// server; handlers record into it lock-free from every connection thread.
#[derive(Debug)]
pub struct Telemetry {
    started: Instant,
    verbs: [VerbStats; 6],
    shard_probes: Vec<AtomicU64>,
    batches: AtomicU64,
    batched_probes: AtomicU64,
    positives: AtomicU64,
    sampled: AtomicU64,
    refuted: AtomicU64,
    negatives: AtomicU64,
    rebuild_us: Histogram,
    bad_frames: AtomicU64,
    accept_errors: AtomicU64,
}

impl Telemetry {
    /// Fresh telemetry for a store with `num_shards` shards (per-shard
    /// probe counters are sized once; probes to shards beyond the initial
    /// count — possible after a reload — are dropped from the per-shard
    /// breakdown but still counted per verb).
    pub fn new(num_shards: usize) -> Self {
        Self {
            started: Instant::now(),
            verbs: Default::default(),
            shard_probes: (0..num_shards).map(|_| AtomicU64::new(0)).collect(),
            batches: AtomicU64::new(0),
            batched_probes: AtomicU64::new(0),
            positives: AtomicU64::new(0),
            sampled: AtomicU64::new(0),
            refuted: AtomicU64::new(0),
            negatives: AtomicU64::new(0),
            rebuild_us: Histogram::default(),
            bad_frames: AtomicU64::new(0),
            accept_errors: AtomicU64::new(0),
        }
    }

    fn verb_slot(&self, verb: u8) -> Option<&VerbStats> {
        self.verbs.get((verb as usize).wrapping_sub(1))
    }

    /// Records one successfully served request of `verb` and its latency.
    pub fn record_request(&self, verb: u8, latency_us: u64) {
        if let Some(slot) = self.verb_slot(verb) {
            add(&slot.count, 1);
            slot.latency_us.record(latency_us);
        }
    }

    /// Records one failed request of `verb` (pass `0` for frames whose
    /// verb never parsed; those land in no per-verb slot but the caller
    /// still counts them via [`Telemetry::record_bad_frame`]).
    pub fn record_error(&self, verb: u8) {
        if let Some(slot) = self.verb_slot(verb) {
            add(&slot.errors, 1);
        } else {
            self.record_bad_frame();
        }
    }

    /// Records a frame that failed before its verb was known (bad length
    /// prefix, unknown verb). These land in a dedicated counter rather
    /// than any per-verb error slot.
    pub fn record_bad_frame(&self) {
        add(&self.bad_frames, 1);
    }

    /// Records one transient `accept` error the acceptor backed off from.
    pub fn record_accept_error(&self) {
        add(&self.accept_errors, 1);
    }

    /// Transient `accept` errors survived. Not part of
    /// [`Telemetry::total_errors`]: no request failed.
    pub fn accept_errors(&self) -> u64 {
        get(&self.accept_errors)
    }

    /// Records one request's per-shard traffic: `counts[i]` probes routed
    /// to shard `i`. Costs one atomic add per touched shard.
    pub fn record_shard_probes(&self, counts: &[u64]) {
        for (slot, &n) in self.shard_probes.iter().zip(counts) {
            if n > 0 {
                add(slot, n);
            }
        }
    }

    /// Records one store batch answering `probes` probes (one `QUERY` or
    /// `BATCH_QUERY` request).
    pub fn record_batch(&self, probes: u64) {
        add(&self.batches, 1);
        add(&self.batched_probes, probes);
    }

    /// Store batches answered: one per `QUERY` or `BATCH_QUERY`.
    pub fn batches(&self) -> u64 {
        get(&self.batches)
    }

    /// Probes answered across all store batches.
    pub fn batched_probes(&self) -> u64 {
        get(&self.batched_probes)
    }

    /// Records `n` positive answers and returns the number of the first:
    /// positives are numbered `0, 1, 2, …` in the order they are recorded,
    /// and the server refutes number `p` iff `p % REFUTE_EVERY == 0`.
    pub fn record_positives(&self, n: u64) -> u64 {
        self.positives.fetch_add(n, Ordering::Relaxed)
    }

    /// Records one sampled positive and whether the key check refuted it
    /// (refuted = confirmed false positive).
    pub fn record_sample(&self, refuted: bool) {
        add(&self.sampled, 1);
        if refuted {
            add(&self.refuted, 1);
        }
    }

    /// Records `n` negative answers (each a true negative: the filter
    /// never answers a false negative).
    pub fn record_negatives(&self, n: u64) {
        add(&self.negatives, n);
    }

    /// Positive answers served.
    pub fn positives(&self) -> u64 {
        get(&self.positives)
    }

    /// Positive answers checked against the shard keys.
    pub fn sampled(&self) -> u64 {
        get(&self.sampled)
    }

    /// Sampled positives the shard keys refuted (confirmed false
    /// positives).
    pub fn refuted(&self) -> u64 {
        get(&self.refuted)
    }

    /// Negative answers served.
    pub fn negatives(&self) -> u64 {
        get(&self.negatives)
    }

    /// Records one `apply` rebuild duration in microseconds.
    pub fn record_rebuild(&self, duration_us: u64) {
        self.rebuild_us.record(duration_us);
    }

    /// Total requests that failed across all verbs plus unparseable
    /// frames — the number a smoke test gates on.
    pub fn total_errors(&self) -> u64 {
        self.verbs
            .iter()
            .map(VerbStats::errors)
            .sum::<u64>()
            .saturating_add(get(&self.bad_frames))
    }

    /// The mean number of probes per store batch, i.e. per `QUERY` or
    /// `BATCH_QUERY` request (STATS `batch.coalescing_factor`; 0.0 before
    /// the first batch).
    pub fn coalescing_factor(&self) -> f64 {
        ratio(get(&self.batched_probes), get(&self.batches))
    }

    /// The estimated share of positive answers that were false, refuted ÷
    /// sampled (0.0 before the first sample): a false-*discovery* rate, not
    /// the FPR, whose denominator would be every empty-range probe.
    pub fn observed_fp_rate(&self) -> f64 {
        ratio(get(&self.refuted), get(&self.sampled))
    }

    /// The estimated false-positive rate over empty-range probes: the
    /// false positives estimated from the sample, `observed_fp_rate ×
    /// positives`, over themselves plus the negatives (0.0 before the first
    /// sample or empty-range probe).
    pub fn fpr(&self) -> f64 {
        let false_positives = self.observed_fp_rate() * get(&self.positives) as f64;
        let empty = false_positives + get(&self.negatives) as f64;
        if empty == 0.0 {
            return 0.0;
        }
        false_positives / empty
    }
}

/// `num / den`, or 0.0 when `den` is 0.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        return 0.0;
    }
    num as f64 / den as f64
}

/// Renders the full telemetry state — plus the store's own counters and
/// current snapshot shape — as one JSON object. Hand-rolled: keys are
/// fixed identifiers and values numeric, so no escaping is needed.
pub fn render_json(t: &Telemetry, store: &FilterStore) -> String {
    let uptime = t.started.elapsed();
    let uptime_s = uptime.as_secs_f64().max(1e-9);
    let snap = store.snapshot();
    let stats = store.stats();
    let mut out = String::with_capacity(2048);
    out.push('{');
    push_kv(&mut out, "schema", "\"grafite-server-stats-v1\"");
    push_kv(
        &mut out,
        "family",
        &format!("\"{}\"", store.config().family.label()),
    );
    push_kv(&mut out, "uptime_ms", &format!("{}", uptime.as_millis()));
    out.push_str("\"verbs\":{");
    for (idx, label) in VERB_LABELS.iter().enumerate() {
        if idx > 0 {
            out.push(',');
        }
        let slot = &t.verbs[idx];
        out.push_str(&format!(
            "\"{label}\":{{\"count\":{},\"errors\":{},\"qps\":{:.3},\"p50_us\":{},\"p99_us\":{}}}",
            slot.count(),
            slot.errors(),
            slot.count() as f64 / uptime_s,
            slot.latency_us().quantile(1, 2),
            slot.latency_us().quantile(99, 100),
        ));
    }
    out.push_str("},");
    push_kv(&mut out, "bad_frames", &format!("{}", get(&t.bad_frames)));
    push_kv(&mut out, "total_errors", &format!("{}", t.total_errors()));
    push_kv(&mut out, "accept_errors", &format!("{}", t.accept_errors()));
    out.push_str("\"batch\":{");
    out.push_str(&format!(
        "\"batches\":{},\"probes\":{},\"dedup_hits\":0,\"coalescing_factor\":{:.3}}},",
        t.batches(),
        t.batched_probes(),
        t.coalescing_factor(),
    ));
    out.push_str("\"shard_probes\":[");
    for (idx, slot) in t.shard_probes.iter().enumerate() {
        if idx > 0 {
            out.push(',');
        }
        out.push_str(&format!("{}", get(slot)));
    }
    out.push_str("],");
    out.push_str(&format!(
        "\"fp\":{{\"positives\":{},\"sample_every\":{REFUTE_EVERY},\"sampled\":{},\"refuted\":{},\"observed_rate\":{:.6},\"negatives\":{},\"fpr\":{:.6}}},",
        t.positives(),
        t.sampled(),
        t.refuted(),
        t.observed_fp_rate(),
        t.negatives(),
        t.fpr(),
    ));
    out.push_str(&format!(
        "\"rebuild_us\":{{\"count\":{},\"p50\":{},\"p99\":{}}},",
        t.rebuild_us.count(),
        t.rebuild_us.quantile(1, 2),
        t.rebuild_us.quantile(99, 100),
    ));
    out.push_str(&format!(
        "\"store\":{{\"version\":{},\"published_version\":{},\"num_shards\":{},\"resident_key_bytes\":{},\"lazy_shard_loads\":{},\"shard_load_errors\":{},\"reloads\":{},\"degraded\":{},\"merged_shards\":{},\"rebuilt_shards\":{},",
        snap.version(),
        // `published_version` stays in schema v1 and equals `version`.
        snap.version(),
        snap.num_shards(),
        snap.resident_key_bytes(),
        stats.lazy_shard_loads(),
        stats.shard_load_errors(),
        stats.reloads(),
        stats.is_degraded(),
        stats.merged_shards(),
        stats.rebuilt_shards(),
    ));
    let space = store.space();
    out.push_str(&format!(
        "\"space\":{{\"num_keys\":{},\"filter_bytes\":{},\"keys_resident_bytes\":{},\"keys_on_disk_bytes\":{},\"framing_bytes\":{}}},",
        space.num_keys,
        space.filter_bytes,
        space.keys_resident_bytes,
        space.keys_on_disk_bytes,
        space.framing_bytes,
    ));
    // Construction parallelism: worker threads of the last build/rebuild
    // fan-out plus the per-shard build wall-time histogram (16 log2
    // buckets, microseconds — bucket i counts builds in [2^i, 2^(i+1)) µs).
    out.push_str(&format!(
        "\"rebuild_workers\":{},\"shard_build_us_log2\":[",
        stats.rebuild_workers()
    ));
    for (idx, count) in stats.shard_build_histogram().iter().enumerate() {
        if idx > 0 {
            out.push(',');
        }
        out.push_str(&format!("{count}"));
    }
    out.push_str("]}");
    out.push('}');
    out
}

/// Appends `"key":value,` to a JSON object under construction.
fn push_kv(out: &mut String, key: &str, value: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    out.push_str(value);
    out.push(',');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let h = Histogram::default();
        for v in [1u64, 2, 3, 100, 1000, 100_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        let p50 = h.quantile(1, 2);
        let p99 = h.quantile(99, 100);
        assert!((3..=127).contains(&p50), "p50 bucket bound: {p50}");
        assert!(p99 >= 100_000, "p99 bound: {p99}");
        assert!(p99 <= 262_143, "p99 bound: {p99}");
        assert_eq!(Histogram::default().quantile(1, 2), 0);
    }

    #[test]
    fn telemetry_counts_and_ratios() {
        let t = Telemetry::new(4);
        t.record_request(1, 10);
        t.record_request(1, 20);
        t.record_error(1);
        t.record_bad_frame();
        t.record_batch(8);
        t.record_batch(2);
        assert_eq!((t.batches(), t.batched_probes()), (2, 10));
        assert_eq!(t.record_positives(2), 0);
        t.record_sample(true);
        t.record_sample(false);
        t.record_negatives(3);
        t.record_shard_probes(&[0, 1, 3, 0, 7]); // shard 4 is out of range: dropped
        let shard_probes: Vec<u64> = t.shard_probes.iter().map(get).collect();
        assert_eq!(shard_probes, [0, 1, 3, 0]);
        t.record_accept_error();
        assert_eq!(t.accept_errors(), 1);
        assert_eq!(t.total_errors(), 2, "accept errors fail no request");
        assert!((t.coalescing_factor() - 5.0).abs() < 1e-9);
        assert!((t.observed_fp_rate() - 0.5).abs() < 1e-9);
        assert!((t.fpr() - 0.25).abs() < 1e-9);
    }

    /// The estimator scales the sample up to every positive, and reports
    /// 0.0 — never NaN — when a denominator is empty.
    #[test]
    fn fp_estimator_edge_cases() {
        let fp_json = |t: &Telemetry| {
            let json = render_json(t, &empty_store());
            let at = json.find("\"fp\":").expect("fp object");
            json[at..at + json[at..].find('}').expect("fp object ends") + 1].to_string()
        };

        let t = Telemetry::new(1);
        assert_eq!((t.observed_fp_rate(), t.fpr()), (0.0, 0.0));
        assert_eq!(
            fp_json(&t),
            "\"fp\":{\"positives\":0,\"sample_every\":64,\"sampled\":0,\"refuted\":0,\
             \"observed_rate\":0.000000,\"negatives\":0,\"fpr\":0.000000}"
        );

        // Positives and negatives, but no sample yet: no estimate.
        assert_eq!(t.record_positives(10), 0);
        t.record_negatives(5);
        assert_eq!((t.observed_fp_rate(), t.fpr()), (0.0, 0.0));
        assert!(!fp_json(&t).contains("NaN"));

        // Numbering continues across calls.
        assert_eq!(t.record_positives(3), 10);

        // Every sample refuted, no negatives: every empty probe was a FP.
        let t = Telemetry::new(1);
        t.record_positives(REFUTE_EVERY * 4);
        for _ in 0..4 {
            t.record_sample(true);
        }
        assert_eq!((t.observed_fp_rate(), t.fpr()), (1.0, 1.0));

        // One of two samples refuted over 128 positives estimates 64 FPs;
        // with 192 negatives that is an FPR of 64 / 256.
        let t = Telemetry::new(1);
        t.record_positives(128);
        t.record_sample(true);
        t.record_sample(false);
        t.record_negatives(192);
        assert_eq!(t.observed_fp_rate(), 0.5);
        assert_eq!(t.fpr(), 0.25);
        assert!(fp_json(&t).contains("\"sampled\":2,\"refuted\":1,\"observed_rate\":0.500000,\"negatives\":192,\"fpr\":0.250000}"));
    }

    fn empty_store() -> FilterStore {
        let config = grafite_store::StoreConfig::new(grafite_store::FamilySpec::Registry(
            grafite_core::registry::FilterSpec::Grafite,
        ));
        FilterStore::build(&grafite_core::registry::Registry::new(), config, &[])
            .expect("an empty store builds")
    }
}

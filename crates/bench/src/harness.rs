//! Measurement loops and run configuration shared by all experiments.

use std::hint::black_box;
use std::time::Instant;

use grafite_core::PersistentFilter;
use grafite_workloads::RangeQuery;

/// Run-wide configuration, parsed from the `repro` CLI.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Number of keys per dataset (paper: 200M; default here: 100k — scale
    /// with `--n`).
    pub n: usize,
    /// Number of queries per batch (paper: 10M; default here: 20k).
    pub queries: usize,
    /// Master seed.
    pub seed: u64,
    /// Output directory for CSV files.
    pub out_dir: std::path::PathBuf,
    /// Directory searched for real SOSD datasets.
    pub data_dir: std::path::PathBuf,
    /// Space budgets swept in the space-vs-FPR figures.
    pub budgets: Vec<f64>,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            n: 100_000,
            queries: 20_000,
            seed: 42,
            out_dir: "results".into(),
            data_dir: "data".into(),
            budgets: vec![8.0, 12.0, 16.0, 20.0, 24.0, 28.0],
        }
    }
}

/// Outcome of running one filter against one query batch.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    /// Fraction of positive answers. On an all-empty batch this is the FPR.
    pub positive_rate: f64,
    /// Mean wall-clock nanoseconds per query.
    pub ns_per_query: f64,
    /// Filter space in bits per key — **measured** from the serialized
    /// flat-byte size (`serialized_bits / n`, the figure the paper reports),
    /// not the in-memory struct estimate.
    pub bits_per_key: f64,
}

/// Measured bits per key: the filter's true serialized footprint over its
/// key count. This is how the paper reports space, and what every
/// experiment CSV now carries.
pub fn measured_bits_per_key(filter: &dyn PersistentFilter) -> f64 {
    if filter.num_keys() == 0 {
        0.0
    } else {
        filter.serialized_bits() as f64 / filter.num_keys() as f64
    }
}

/// Runs the batch once for timing and FPR in the same pass.
pub fn measure(filter: &dyn PersistentFilter, queries: &[RangeQuery]) -> Measurement {
    assert!(!queries.is_empty(), "empty query batch");
    let start = Instant::now();
    let mut positives = 0usize;
    for q in queries {
        if black_box(filter.may_contain_range(q.lo, q.hi)) {
            positives += 1;
        }
    }
    let elapsed = start.elapsed();
    Measurement {
        positive_rate: positives as f64 / queries.len() as f64,
        ns_per_query: elapsed.as_nanos() as f64 / queries.len() as f64,
        bits_per_key: measured_bits_per_key(filter),
    }
}

/// Times a construction closure, returning (seconds, its output).
pub fn time_it<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Formats an FPR the way the paper's log-scale plots read: `0` stays `0`.
pub fn fmt_fpr(fpr: f64) -> String {
    if fpr == 0.0 {
        "0".to_string()
    } else {
        format!("{fpr:.2e}")
    }
}

//! One function per table/figure of the paper's evaluation (§6), plus
//! ablations of choices the paper discusses without plotting (the
//! `ablation_*` functions), and the experiments behind the committed
//! `results/BENCH_*.json` baselines (`serve`, `scale`, `hotpath`). Each
//! prints the paper's rows/series as a text table and writes a CSV under
//! the configured output directory.
//!
//! The grid figures (1, 3–6, the Fb study and the Normal check) share one
//! pipeline. A figure names its workloads (keys plus the `Draw`s of its
//! queries and tuning sample), range sizes, filters and budgets;
//! `measure_cells` builds and measures every combination into typed
//! `Cell`s, and the figure's table — stdout and CSV alike — is a projection
//! of those cells onto `Col`umns. Side outputs (Figures 4/5's average
//! times, the Normal check's best filter) are folds over the same cells.

use grafite_core::registry::FilterSpec;
use grafite_core::{
    sort, BucketingFilter, BucketingTuning, BuildableFilter, FilterConfig, GrafiteFilter,
    GrafiteTuning, RangeFilter, WorkloadAwareBucketing,
};
use grafite_filters::{standard_registry, Rosetta, RosettaTuning, Snarf, SnarfTuning};
use grafite_workloads::{
    correlated_queries, datasets::Dataset, extract_real_queries, non_empty_queries, sosd,
    uncorrelated_queries, RangeQuery,
};

use std::borrow::Cow;
use std::collections::BTreeMap;

use crate::harness::{fmt_fpr, measure, measured_bits_per_key, time_it, Measurement, RunConfig};
use crate::report::Table;

/// The paper's three query sizes: point (2^0), small (2^5), large (2^10).
pub const RANGE_SIZES: [RangeSize; 3] = [(1, "point"), (32, "small"), (1024, "large")];

/// A query range size `L` and its name in the paper.
type RangeSize = (u64, &'static str);

/// Queries in every auto-tuner sample ([`FilterConfig::sample`]).
const SAMPLE_QUERIES: usize = 1024;

fn queries_as_pairs(qs: &[RangeQuery]) -> Vec<(u64, u64)> {
    qs.iter().map(|q| (q.lo, q.hi)).collect()
}

/// How a figure row draws its queries from its keys.
#[derive(Clone, Copy, Debug)]
enum Draw {
    /// Empty ranges at correlation degree `D` to the keys (§6.1).
    Correlated(f64),
    /// Empty ranges anywhere in the key universe.
    Uncorrelated,
    /// Ranges that each hold at least one key (§6.5).
    NonEmpty,
    /// Empty ranges whose left endpoints are extracted from the keys (§6.1).
    Real,
}

impl Draw {
    /// The keys a filter is built on — all of `keys` but the endpoints a
    /// real workload extracted — and `n` queries of width `l`.
    fn take(self, keys: &[u64], n: usize, l: u64, seed: u64) -> (Cow<'_, [u64]>, Vec<RangeQuery>) {
        let queries = match self {
            Draw::Correlated(degree) => correlated_queries(keys, n, l, degree, seed),
            Draw::Uncorrelated => uncorrelated_queries(keys, n, l, seed),
            Draw::NonEmpty => non_empty_queries(keys, n, l, seed),
            Draw::Real => {
                let (remaining, queries) = extract_real_queries(keys, n, l, seed);
                return (remaining.into(), queries);
            }
        };
        (keys.into(), queries)
    }
}

/// A figure's workload: its name, its keys, and how it draws the measured
/// queries and the tuning sample, each with the salt xored into the seed.
type Workload<'k> = (&'static str, &'k [u64], [Draw; 2], [u64; 2]);

/// One point of the evaluation grid: `spec` built at `budget` bits/key on a
/// workload's keys and measured on its queries of one range size.
#[derive(Clone, Copy, Debug)]
struct Cell {
    workload: &'static str,
    range: RangeSize,
    draw: Draw,
    budget: f64,
    spec: FilterSpec,
    /// `None` when the filter declined the build (e.g. below its space floor).
    measurement: Option<Measurement>,
}

/// The one build-measure loop of the paper's grid figures. Every range size
/// and workload makes a row (keys, queries, tuning sample); every budget and
/// spec on a row makes a cell, in that nesting order. A row without queries
/// makes none.
fn measure_cells(
    cfg: &RunConfig,
    sizes: &[RangeSize],
    workloads: &[Workload],
    specs: &[FilterSpec],
    budgets: &[f64],
) -> Vec<Cell> {
    let registry = standard_registry();
    let mut cells = Vec::new();
    for &range in sizes {
        for &(workload, keys, [draw, sample_draw], [salt, sample_salt]) in workloads {
            let (build_keys, queries) = draw.take(keys, cfg.queries, range.0, cfg.seed ^ salt);
            if queries.is_empty() {
                continue;
            }
            let (_, sample) =
                sample_draw.take(keys, SAMPLE_QUERIES, range.0, cfg.seed ^ sample_salt);
            let sample = queries_as_pairs(&sample);
            for &budget in budgets {
                let fc = FilterConfig::new(&build_keys)
                    .bits_per_key(budget)
                    .max_range(range.0)
                    .sample(&sample)
                    .seed(cfg.seed);
                for &spec in specs {
                    // Per the paper (§6.1): hashed suffixes for point queries.
                    let spec = match spec {
                        FilterSpec::SurfReal if range.0 == 1 => FilterSpec::SurfHash,
                        spec => spec,
                    };
                    let built = registry.build(spec, &fc).ok();
                    let measurement = built.map(|filter| measure(filter.as_ref(), &queries));
                    cells.push(Cell {
                        workload,
                        range,
                        draw,
                        budget,
                        spec,
                        measurement,
                    });
                }
            }
        }
    }
    cells
}

/// A column of a figure table: its header and its value in a cell.
type Col = (&'static str, fn(&Cell) -> String);

/// `value` of the cell's measurement to `decimals` places; `-` for a
/// declined build.
fn shown(cell: &Cell, value: fn(&Measurement) -> f64, decimals: usize) -> String {
    let render = |m| format!("{:.*}", decimals, value(&m));
    cell.measurement.map_or_else(|| "-".into(), render)
}

const WORKLOAD: Col = ("workload", |c| c.workload.into());
const DATASET: Col = ("dataset", |c| c.workload.into());
const RANGE: Col = ("range", |c| c.range.1.into());
const FILTER: Col = ("filter", |c| c.spec.label().into());
const BITS: Col = ("bits/key", |c| shown(c, |m| m.bits_per_key, 1));
const NS: Col = ("ns/query", |c| shown(c, |m| m.ns_per_query, 0));
const POSITIVE_RATE: Col = ("positive_rate", |c| shown(c, |m| m.positive_rate, 3));
const DEGREE: Col = ("degree", |c| match c.draw {
    Draw::Correlated(degree) => format!("{degree:.1}"),
    _ => "-".into(),
});
/// The positive rate in the paper's log-scale notation; a declined build
/// names its budget.
const FPR: Col = ("fpr", |c| match c.measurement {
    Some(m) => fmt_fpr(m.positive_rate),
    None => format!("infeasible at {}", c.budget),
});

/// Whether the filter of `cell` was built (and measured).
fn built(cell: &&Cell) -> bool {
    cell.measurement.is_some()
}

/// Projects `cells` onto `cols`, then prints the table and writes
/// `<csv_name>.csv`.
fn report<'c>(
    cfg: &RunConfig,
    csv_name: &str,
    cols: &[Col],
    cells: impl Iterator<Item = &'c Cell>,
) {
    let header: Vec<&str> = cols.iter().map(|col| col.0).collect();
    let mut table = Table::new(&header);
    for cell in cells {
        table.row(cols.iter().map(|col| (col.1)(cell)).collect());
    }
    table.print();
    let _ = table.write_csv(&cfg.out_dir, csv_name);
}

/// Figure 1 (intro teaser): FPR and query time vs correlation degree for the
/// six headline filters, small ranges, 20 bits/key.
pub fn fig1(cfg: &RunConfig) {
    println!("== Figure 1: FPR and time vs correlation degree (small ranges, 20 bits/key) ==");
    correlation_sweep(cfg, &FilterSpec::FIG1, &[RANGE_SIZES[1]], "fig1");
}

/// Figure 3 (§6.2): the full robustness grid — nine filters, three range
/// sizes, correlation degree swept 0 → 1 at 20 bits/key.
pub fn fig3(cfg: &RunConfig) {
    println!("== Figure 3: robustness to key-query correlation (20 bits/key) ==");
    correlation_sweep(cfg, &FilterSpec::ALL_FIG3, &RANGE_SIZES, "fig3");
}

fn correlation_sweep(cfg: &RunConfig, specs: &[FilterSpec], sizes: &[RangeSize], csv_name: &str) {
    let keys = sosd::dataset_or_synthetic(Dataset::Uniform, cfg.n, cfg.seed, &cfg.data_dir);
    let draws = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0].map(|d| [Draw::Correlated(d); 2]);
    let workloads = draws.map(|draws| ("Uniform", &keys[..], draws, [0xF163, 0x5A]));
    let cells = measure_cells(cfg, sizes, &workloads, specs, &[20.0]);
    let cols = [RANGE, DEGREE, FILTER, BITS, FPR, NS];
    report(cfg, csv_name, &cols, cells.iter().filter(built));
}

/// Figures 4 and 5 (§6.3/§6.4): FPR vs space budget over the four
/// dataset/workload rows and three range sizes, plus the per-row average
/// query-time tables.
pub fn fig4(cfg: &RunConfig) {
    println!("== Figure 4: heuristic filters, FPR vs space ==");
    space_grid(cfg, &FilterSpec::HEURISTIC, "fig4");
}

/// Figure 5 (§6.4): the robust filters on the same grid.
pub fn fig5(cfg: &RunConfig) {
    println!("== Figure 5: robust filters, FPR vs space ==");
    space_grid(cfg, &FilterSpec::ROBUST, "fig5");
}

fn space_grid(cfg: &RunConfig, specs: &[FilterSpec], csv_name: &str) {
    let [uniform, books, osm] = [Dataset::Uniform, Dataset::Books, Dataset::Osm]
        .map(|d| sosd::dataset_or_synthetic(d, cfg.n, cfg.seed, &cfg.data_dir));
    // Correlated (D = 0.8, the paper's default) and uncorrelated on Uniform,
    // then the real workloads, whose query endpoints leave the data.
    let (correlated, uncorrelated) = ([Draw::Correlated(0.8); 2], [Draw::Uncorrelated; 2]);
    let workloads: [Workload; 4] = [
        ("Correlated", &uniform, correlated, [0xC0, 0xC1]),
        ("Uncorrelated", &uniform, uncorrelated, [0xD0, 0xD1]),
        ("Books", &books, [Draw::Real; 2], [0xE0, 0xE1]),
        ("Osm", &osm, [Draw::Real; 2], [0xE0, 0xE1]),
    ];
    let cells = measure_cells(cfg, &RANGE_SIZES, &workloads, specs, &cfg.budgets);
    let cols = [WORKLOAD, RANGE, FILTER, BITS, FPR, NS];
    report(cfg, csv_name, &cols, cells.iter().filter(built));

    // The per-row average-time side tables of Figures 4/5.
    println!("-- average query time per workload row (all budgets & sizes) --");
    let mut times: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    for (cell, m) in cells.iter().filter_map(|c| Some((c, c.measurement?))) {
        let key = (cell.workload, cell.spec.label());
        times.entry(key).or_default().push(m.ns_per_query);
    }
    let mut time_table = Table::new(&["workload", "filter", "avg ns/query"]);
    let mean = |ns: &[f64]| ns.iter().sum::<f64>() / ns.len() as f64;
    let mut rows: Vec<_> = times.iter().map(|(&key, ns)| (key, mean(ns))).collect();
    rows.sort_by_key(|&((workload, _), avg)| (workload, avg as u64));
    for ((workload, filter), avg) in rows {
        time_table.row(vec![workload.into(), filter.into(), format!("{avg:.0}")]);
    }
    time_table.print();
    let _ = time_table.write_csv(&cfg.out_dir, &format!("{csv_name}_times"));
}

/// Figure 6 (§6.5): query time on *non-empty* queries vs space budget.
pub fn fig6(cfg: &RunConfig) {
    println!("== Figure 6: query time on non-empty queries ==");
    let keys = sosd::dataset_or_synthetic(Dataset::Uniform, cfg.n, cfg.seed, &cfg.data_dir);
    // The auto-tuners learn from empty ranges.
    let draws = [Draw::NonEmpty, Draw::Uncorrelated];
    let workload = ("Uniform", &keys[..], draws, [0x6E, 0x6F]);
    let specs = FilterSpec::ALL_FIG3;
    let cells = measure_cells(cfg, &RANGE_SIZES, &[workload], &specs, &cfg.budgets);
    let cols = [RANGE, FILTER, BITS, NS, POSITIVE_RATE];
    report(cfg, "fig6", &cols, cells.iter().filter(built));
}

/// Figure 7 (§6.6): construction time per key as n grows, averaged over two
/// budgets, including the auto-tuners' sample cost (which runs inside the
/// constructors, as in the paper's shaded bars).
pub fn fig7(cfg: &RunConfig) {
    println!("== Figure 7: construction time vs number of keys ==");
    let registry = standard_registry();
    let mut table = Table::new(&["n", "filter", "ns/key"]);
    let sizes = [10_000usize, 100_000, 1_000_000].map(|n| n.min(cfg.n));
    let mut seen = std::collections::HashSet::new();
    for n in sizes {
        if !seen.insert(n) {
            continue;
        }
        let keys = sosd::dataset_or_synthetic(Dataset::Uniform, n, cfg.seed, &cfg.data_dir);
        let l = 32u64;
        let sample = queries_as_pairs(&uncorrelated_queries(&keys, 1024, l, cfg.seed ^ 0x71));
        for &spec in &FilterSpec::ALL_FIG3 {
            let mut total = 0.0;
            let budgets = [12.0, 20.0];
            let mut built = 0;
            for &budget in &budgets {
                let fc = FilterConfig::new(&keys)
                    .bits_per_key(budget)
                    .max_range(l)
                    .sample(&sample)
                    .seed(cfg.seed);
                let (secs, filter) = time_it(|| registry.build(spec, &fc));
                if filter.is_ok() {
                    total += secs;
                    built += 1;
                }
            }
            if built > 0 {
                table.row(vec![
                    n.to_string(),
                    spec.label().to_string(),
                    format!("{:.0}", total / built as f64 * 1e9 / n as f64),
                ]);
            }
        }
    }
    table.print();
    let _ = table.write_csv(&cfg.out_dir, "fig7");
}

/// Table 1 (§5): the theoretical space bounds next to the space our
/// implementations actually measure at the reference configuration
/// ε = 0.01, L = 2^10.
pub fn table1(cfg: &RunConfig) {
    println!("== Table 1: theoretical bounds vs measured space (eps=0.01, L=2^10) ==");
    let registry = standard_registry();
    let keys = sosd::dataset_or_synthetic(Dataset::Uniform, cfg.n, cfg.seed, &cfg.data_dir);
    let l = 1024u64;
    let eps = 0.01f64;
    let log_l_eps = (l as f64 / eps).log2(); // 16.64
    let b = log_l_eps + 2.0;
    let sample = queries_as_pairs(&uncorrelated_queries(&keys, 1024, l, cfg.seed ^ 0x7A));
    let fc = FilterConfig::new(&keys)
        .bits_per_key(b)
        .max_range(l)
        .sample(&sample)
        .seed(cfg.seed);
    let mut table = Table::new(&["filter", "theory bits/key", "measured bits/key", "note"]);
    table.row(vec![
        "Lower bound (Thm 2.1)".into(),
        format!("{:.1}", (l as f64).log2() + (1.0f64 / eps).log2() - 2.0),
        "-".into(),
        "log2(L^(1-O(eps))/eps) - O(1)".into(),
    ]);
    table.row(vec![
        "Goswami et al.".into(),
        format!("{:.1}", log_l_eps + 3.0),
        "-".into(),
        "not practical; +3n lower-order".into(),
    ]);
    for (spec, theory, note) in [
        (
            FilterSpec::Grafite,
            log_l_eps + 2.0,
            "n log(L/eps) + 2n + o(n)",
        ),
        (FilterSpec::Rosetta, 1.44 * log_l_eps, "1.44 n log(L/eps)"),
        (
            FilterSpec::TrivialBloom,
            1.44 * log_l_eps,
            "point Bloom at eps/L, O(L) query",
        ),
        (
            FilterSpec::SurfReal,
            10.0 + (b - 11.0).round(),
            "(10+m)n + 10z + o(n+z)",
        ),
        (
            FilterSpec::Snarf,
            (b - 2.4 - 1.4).max(1.0) + 2.4,
            "n log K + 2.4n",
        ),
        (
            FilterSpec::Bucketing,
            f64::NAN,
            "t(log(u/ts) + 2): data-dependent",
        ),
        (FilterSpec::REncoder, f64::NAN, "O(n(k + log 1/eps))"),
        (
            FilterSpec::Proteus,
            f64::NAN,
            "no closed formula (auto-tuned)",
        ),
    ] {
        let measured = registry
            .build(spec, &fc)
            .map(|f| format!("{:.1}", measured_bits_per_key(f.as_ref())))
            .unwrap_or_else(|_| "-".into());
        let theory_s = if theory.is_nan() {
            "?".into()
        } else {
            format!("{theory:.1}")
        };
        table.row(vec![spec.label().into(), theory_s, measured, note.into()]);
    }
    table.print();
    let _ = table.write_csv(&cfg.out_dir, "table1");
}

/// The §6.1 Fb case study: at ~12 bits/key, Grafite's reduced universe
/// nearly covers Fb's effective universe, driving the FPR to (near) zero
/// while heuristic filters still err.
pub fn fb(cfg: &RunConfig) {
    println!("== Fb case study (§6.1): Grafite at 12 bits/key ==");
    let keys = sosd::dataset_or_synthetic(Dataset::Fb, cfg.n, cfg.seed, &cfg.data_dir);
    let workload = ("Fb", &keys[..], [Draw::Correlated(0.8); 2], [0xFB, 0xFC]);
    let (small, specs) = ([RANGE_SIZES[1]], FilterSpec::ALL_FIG3);
    let cells = measure_cells(cfg, &small, &[workload], &specs, &[12.0]);
    // Declined builds stay in, as the paper's "infeasible" rows.
    report(cfg, "fb", &[FILTER, BITS, FPR], cells.iter());
}

/// §6.6 text: multi-threaded construction sorting (the paper reports
/// 1.5/1.8/2.0× speedups at 2/4/8 threads on 200M keys).
///
/// Two inputs: uniform full-range keys, and Grafite-code-shaped values
/// below `n·2^14` (the reduced universe at 16 bits/key), whose top bits
/// never vary — the input the build path actually sorts.
pub fn sort_ablation(cfg: &RunConfig) {
    println!("== Sort ablation (§6.6): construction is sort-bound ==");
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "   (machine reports {cores} available core(s); the paper's 1.5-2.0x \
         speedups need >= 2)"
    );
    let n = cfg.n.max(1_000_000);
    let mut keys = grafite_workloads::generate(Dataset::Uniform, n, cfg.seed);
    let r = (n as u64) << 14;
    let codes: Vec<u64> = keys.iter().map(|&k| k % r).collect();
    // `generate` returns sorted keys, and pdqsort finishes a sorted run in
    // one pass: shuffle them (Fisher–Yates) so the row times a real sort.
    let mut rng = grafite_workloads::WorkloadRng::new(cfg.seed);
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut table = Table::new(&["input", "sort", "ns/key", "speedup vs std"]);
    for (input, values) in [("uniform u64", &keys), ("codes < n*2^14", &codes)] {
        let (std_secs, _) = time_it(|| {
            let mut v = values.clone();
            sort::std_sort(&mut v);
            v.len()
        });
        table.row(vec![
            input.into(),
            "std (pdqsort)".into(),
            format!("{:.1}", std_secs * 1e9 / n as f64),
            "1.0x".into(),
        ]);
        let (radix_secs, _) = time_it(|| {
            let mut v = values.clone();
            sort::radix_sort(&mut v);
            v.len()
        });
        table.row(vec![
            input.into(),
            "radix (LSD-8)".into(),
            format!("{:.1}", radix_secs * 1e9 / n as f64),
            format!("{:.1}x", std_secs / radix_secs),
        ]);
        for threads in [2usize, 4, 8] {
            let (secs, _) = time_it(|| {
                let mut v = values.clone();
                sort::partition_radix_sort(&mut v, threads);
                v.len()
            });
            table.row(vec![
                input.into(),
                format!("partition x{threads}"),
                format!("{:.1}", secs * 1e9 / n as f64),
                format!("{:.1}x", std_secs / secs),
            ]);
        }
    }
    table.print();
    let _ = table.write_csv(&cfg.out_dir, "sort_ablation");
}

/// Ablation: exact `r = nL/ε` vs power-of-two `r` (§7's shift-and-mask
/// proposal) — space, FPR, and query time.
pub fn ablation_pow2(cfg: &RunConfig) {
    println!("== Ablation: Grafite with power-of-two reduced universe ==");
    let keys = sosd::dataset_or_synthetic(Dataset::Uniform, cfg.n, cfg.seed, &cfg.data_dir);
    let l = 32u64;
    let queries = uncorrelated_queries(&keys, cfg.queries, l, cfg.seed ^ 0xAB);
    let mut table = Table::new(&["variant", "bits/key", "fpr", "ns/query"]);
    let fc = FilterConfig::new(&keys).bits_per_key(16.0).seed(cfg.seed);
    for (label, pow2_universe) in [("exact r = nL/eps", false), ("r rounded to 2^k", true)] {
        let tuning = GrafiteTuning {
            pow2_universe,
            epsilon: None,
        };
        let filter = GrafiteFilter::build_with(&fc, &tuning).unwrap();
        let m = measure(&filter, &queries);
        table.row(vec![
            label.into(),
            format!("{:.2}", m.bits_per_key),
            fmt_fpr(m.positive_rate),
            format!("{:.0}", m.ns_per_query),
        ]);
    }
    table.print();
    let _ = table.write_csv(&cfg.out_dir, "ablation_pow2");
}

/// Ablation: SNARF with the original overflow-prone model (paper footnote
/// 5) — demonstrates the false negatives on an Fb-like gap structure.
pub fn ablation_snarf_overflow(cfg: &RunConfig) {
    println!("== Ablation: SNARF model overflow (paper footnote 5) ==");
    // Keys spaced 2^55 apart make every outlier spline segment span ~2^62,
    // so the u64 rank interpolation (x−k0)·Δr wraps (needs 69 bits).
    let mut keys: Vec<u64> = grafite_workloads::generate(Dataset::Uniform, cfg.n / 2, cfg.seed)
        .iter()
        .map(|k| k % (1 << 40))
        .collect();
    keys.extend((0..256u64).map(|j| (1u64 << 62) + (j << 55)));
    keys.sort_unstable();
    keys.dedup();
    let mut table = Table::new(&["model", "false negatives", "trials"]);
    for (label, faithful) in [
        ("u128-safe (ours)", false),
        ("u64 faithful (original)", true),
    ] {
        let tuning = SnarfTuning {
            faithful_overflow: faithful,
        };
        let filter =
            Snarf::build_with(&FilterConfig::new(&keys).bits_per_key(16.0), &tuning).unwrap();
        let mut fns = 0usize;
        let mut trials = 0usize;
        for &k in keys.iter().filter(|&&k| k >= 1 << 62) {
            for shift in [40u32, 48, 50, 52, 54] {
                let a = k.saturating_sub(1u64 << shift);
                let b = k.saturating_add(1u64 << shift);
                trials += 1;
                if !filter.may_contain_range(a, b) {
                    fns += 1;
                }
            }
        }
        table.row(vec![label.into(), fns.to_string(), trials.to_string()]);
    }
    table.print();
    let _ = table.write_csv(&cfg.out_dir, "ablation_snarf_overflow");
}

/// Ablation: Rosetta with and without sample-based level re-weighting.
pub fn ablation_rosetta_tuning(cfg: &RunConfig) {
    println!("== Ablation: Rosetta sample tuning ==");
    let keys = sosd::dataset_or_synthetic(Dataset::Uniform, cfg.n, cfg.seed, &cfg.data_dir);
    let l = 32u64;
    let queries = correlated_queries(&keys, cfg.queries, l, 0.8, cfg.seed ^ 0xBB);
    let sample = queries_as_pairs(&correlated_queries(&keys, 1024, l, 0.8, cfg.seed ^ 0xBC));
    let mut table = Table::new(&["variant", "bits/key", "fpr", "ns/query"]);
    let fc = FilterConfig::new(&keys)
        .bits_per_key(20.0)
        .max_range(l)
        .sample(&sample)
        .seed(cfg.seed);
    for (label, sample_tuned) in [("untuned", false), ("sample-tuned", true)] {
        let filter = Rosetta::build_with(&fc, &RosettaTuning { sample_tuned }).unwrap();
        let m = measure(&filter, &queries);
        table.row(vec![
            label.into(),
            format!("{:.1}", m.bits_per_key),
            fmt_fpr(m.positive_rate),
            format!("{:.0}", m.ns_per_query),
        ]);
    }
    table.print();
    let _ = table.write_csv(&cfg.out_dir, "ablation_rosetta_tuning");
}

/// Ablation: Bucketing's space/FPR trade as the bucket size s sweeps.
pub fn ablation_bucketing(cfg: &RunConfig) {
    println!("== Ablation: Bucketing bucket-size sweep ==");
    let keys = sosd::dataset_or_synthetic(Dataset::Uniform, cfg.n, cfg.seed, &cfg.data_dir);
    let l = 32u64;
    let queries = uncorrelated_queries(&keys, cfg.queries, l, cfg.seed ^ 0xCC);
    let mut table = Table::new(&["log2(s)", "buckets", "bits/key", "fpr", "ns/query"]);
    let fc = FilterConfig::new(&keys);
    for log2_s in [20u32, 26, 32, 38, 44, 50] {
        let tuning = BucketingTuning {
            bucket_size: Some(1u64 << log2_s),
        };
        let filter = BucketingFilter::build_with(&fc, &tuning).unwrap();
        let m = measure(&filter, &queries);
        table.row(vec![
            log2_s.to_string(),
            filter.num_buckets().to_string(),
            format!("{:.2}", m.bits_per_key),
            fmt_fpr(m.positive_rate),
            format!("{:.0}", m.ns_per_query),
        ]);
    }
    table.print();
    let _ = table.write_csv(&cfg.out_dir, "ablation_bucketing");
}

/// §6.1 "Other datasets and query workloads": the Normal dataset must not
/// change the relative ranking of the filters vs Uniform (the paper found
/// "no interesting change" and omits the plots; we verify the claim).
pub fn normal_check(cfg: &RunConfig) {
    println!("== Normal-dataset check (§6.1): relative ranking vs Uniform ==");
    let [uniform, normal] = [Dataset::Uniform, Dataset::Normal]
        .map(|d| sosd::dataset_or_synthetic(d, cfg.n, cfg.seed, &cfg.data_dir));
    let draws = [Draw::Correlated(0.8); 2];
    let workloads: [Workload; 2] = [
        ("Uniform", &uniform, draws, [0x42, 0x43]),
        ("Normal", &normal, draws, [0x42, 0x43]),
    ];
    let (small, specs) = ([RANGE_SIZES[1]], FilterSpec::ALL_FIG3);
    let cells = measure_cells(cfg, &small, &workloads, &specs, &[20.0]);
    let cols = [DATASET, FILTER, FPR, NS];
    report(cfg, "normal_check", &cols, cells.iter().filter(built));
    // The lowest FPR per dataset; ties go to the first filter in spec order.
    let best = |dataset: &str| {
        let built = cells.iter().filter(|c| c.workload == dataset);
        let fprs = built.filter_map(|c| Some((c.spec.label(), c.measurement?.positive_rate)));
        fprs.min_by(|a, b| a.1.total_cmp(&b.1))
            .map_or("", |best| best.0)
    };
    println!(
        "best filter on Uniform: {}; on Normal: {} (paper: relative performance unchanged)",
        best("Uniform"),
        best("Normal")
    );
}

/// Ablation: the §7 future-work workload-aware Bucketing against plain
/// Bucketing on a skewed (hot-band) workload.
pub fn ablation_wa_bucketing(cfg: &RunConfig) {
    println!("== Ablation: workload-aware Bucketing (§7 future work) ==");
    let keys = sosd::dataset_or_synthetic(Dataset::Uniform, cfg.n, cfg.seed, &cfg.data_dir);
    let l = 32u64;
    // A hot band around the median key: 80% of queries land there.
    let hot_center = keys[keys.len() / 2];
    let span = 1u64 << 44;
    let mut rng = grafite_workloads::WorkloadRng::new(cfg.seed ^ 0x3A);
    let propose = |rng: &mut grafite_workloads::WorkloadRng| {
        if rng.below(10) < 8 {
            hot_center
                .saturating_sub(span / 2)
                .saturating_add(rng.below(span))
        } else {
            rng.next_u64()
        }
    };
    let mut sample = Vec::new();
    let mut queries = Vec::new();
    while queries.len() < cfg.queries {
        let a = propose(&mut rng);
        let b = match a.checked_add(l - 1) {
            Some(b) => b,
            None => continue,
        };
        let i = keys.partition_point(|&k| k < a);
        if i < keys.len() && keys[i] <= b {
            continue;
        }
        if sample.len() < 2000 {
            sample.push((a, b));
        } else {
            queries.push(grafite_workloads::RangeQuery { lo: a, hi: b });
        }
    }
    let mut table = Table::new(&["variant", "regions", "bits/key", "fpr", "ns/query"]);
    for &budget in &[6.0, 10.0, 14.0] {
        let fc = FilterConfig::new(&keys).bits_per_key(budget);
        let plain = BucketingFilter::build(&fc).unwrap();
        let aware = WorkloadAwareBucketing::build(&fc.sample(&sample)).unwrap();
        for (label, f, regions) in [
            (
                "plain",
                &plain as &dyn grafite_core::PersistentFilter,
                1usize,
            ),
            (
                "workload-aware",
                &aware as &dyn grafite_core::PersistentFilter,
                aware.num_regions(),
            ),
        ] {
            let m = measure(f, &queries);
            table.row(vec![
                format!("{label} @{budget:.0}bpk"),
                regions.to_string(),
                format!("{:.2}", m.bits_per_key),
                fmt_fpr(m.positive_rate),
                format!("{:.0}", m.ns_per_query),
            ]);
        }
    }
    table.print();
    let _ = table.write_csv(&cfg.out_dir, "ablation_wa_bucketing");
}

/// The serving cold-start experiment behind `results/BENCH_serve.json`:
/// saves a ≥100 MB multi-shard manifest, then times the eager
/// [`open`](grafite_store::FilterStore::open) path (read the whole file,
/// checksum the whole body, parse every shard) against the lazy
/// [`open_mapped`](grafite_store::FilterStore::open_mapped) scan
/// (`O(shards)` small reads), plus the first-query latency that pays for
/// one shard's materialization. CI gates the committed JSON through
/// `scripts/check_perf.py serve`: the store must stay ≥100 MB and the
/// mapped cold-start ≥10× faster than the eager open.
pub fn serve(cfg: &RunConfig) {
    use grafite_store::{FamilySpec, FilterStore, Partitioning, StoreConfig};

    println!("== serve: mapped cold-start vs eager open on a >=100MB manifest ==");
    // Uniform keys cost ~5.3 bytes each as blocked Elias–Fano (about 40
    // low bits plus 2–3 high bits at a 2^40 mean gap) plus ~2 filter bytes
    // at 16 bits/key: 16M keys make a ~118 MB manifest, above the 100 MB
    // floor.
    let n = cfg.n.max(16_000_000);
    let shards = 64usize;
    let keys = sosd::dataset_or_synthetic(Dataset::Uniform, n, cfg.seed, &cfg.data_dir);
    let registry = &standard_registry();
    let config = StoreConfig::new(FamilySpec::Registry(FilterSpec::Grafite))
        .bits_per_key(16.0)
        .max_range(32)
        .seed(cfg.seed)
        .partitioning(Partitioning::Range { shards });
    let (build_secs, store) =
        time_it(|| FilterStore::build(registry, config, &keys).expect("store build"));
    std::fs::create_dir_all(&cfg.out_dir).expect("create out dir");
    let path = cfg.out_dir.join("serve_store.bin");
    {
        let file = std::fs::File::create(&path).expect("create manifest file");
        let mut out = std::io::BufWriter::new(file);
        store.save_to(&mut out).expect("save manifest");
    }
    let store_bytes = std::fs::metadata(&path).expect("manifest metadata").len();
    drop(store);

    // Eager open: the whole file comes off disk and through the full-body
    // checksum before the first query can run.
    let mut open_eager_secs = f64::INFINITY;
    for _ in 0..3 {
        let (secs, eager) = time_it(|| {
            let bytes = std::fs::read(&path).expect("read manifest");
            FilterStore::open(registry, &bytes).expect("eager open")
        });
        open_eager_secs = open_eager_secs.min(secs);
        assert!(eager.may_contain(keys[n / 2]));
    }

    // Mapped open: header + routing + per-shard extents only.
    let mut open_mapped_secs = f64::INFINITY;
    for _ in 0..5 {
        let (secs, mapped) =
            time_it(|| FilterStore::open_mapped(registry, &path).expect("mapped open"));
        open_mapped_secs = open_mapped_secs.min(secs);
        drop(mapped);
    }
    let mapped = FilterStore::open_mapped(registry, &path).expect("mapped open");
    let (first_query_secs, hit) = time_it(|| mapped.may_contain(keys[n / 2]));
    assert!(hit, "mapped store lost a present key");
    let lazy_loads = mapped.stats().lazy_shard_loads();
    let _ = std::fs::remove_file(&path);

    let mapped_speedup = open_eager_secs / open_mapped_secs;
    let mut table = Table::new(&["metric", "value", "notes"]);
    table.row(vec![
        "store_bytes".into(),
        store_bytes.to_string(),
        format!("{n} keys, {shards} shards, build {build_secs:.1}s"),
    ]);
    table.row(vec![
        "open_eager_ms".into(),
        format!("{:.2}", open_eager_secs * 1e3),
        "full read + body checksum + every shard parsed".into(),
    ]);
    table.row(vec![
        "open_mapped_ms".into(),
        format!("{:.2}", open_mapped_secs * 1e3),
        "O(shards) scan, metadata checksum only".into(),
    ]);
    table.row(vec![
        "mapped_speedup".into(),
        format!("{mapped_speedup:.0}x"),
        "acceptance target: >= 10x".into(),
    ]);
    table.row(vec![
        "first_query_ms".into(),
        format!("{:.3}", first_query_secs * 1e3),
        format!("materialized {lazy_loads} of {shards} shards"),
    ]);
    table.print();
    let _ = table.write_csv(&cfg.out_dir, "serve");

    let mut config_obj = crate::report::JsonObject::new();
    config_obj
        .int("n", n as u64)
        .int("shards", shards as u64)
        .int("seed", cfg.seed);
    let mut metrics = crate::report::JsonObject::new();
    metrics.int("store_bytes", store_bytes);
    metrics.num("open_eager_ms", open_eager_secs * 1e3);
    metrics.num("open_mapped_ms", open_mapped_secs * 1e3);
    metrics.num("mapped_speedup", mapped_speedup);
    metrics.num("first_query_ms", first_query_secs * 1e3);
    metrics.int("lazy_shard_loads_after_first_query", lazy_loads);
    let mut doc = crate::report::JsonObject::new();
    doc.str_field("schema", "grafite-serve-v1")
        .obj("config", &config_obj)
        .obj("metrics", &metrics);
    doc.write(&cfg.out_dir, "BENCH_serve")
        .expect("write BENCH_serve.json");
}

/// Peak resident set size of this process (`VmHWM`) in KiB; 0 where
/// `/proc` is unavailable (non-Linux).
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")?
                    .split_whitespace()
                    .next()?
                    .parse()
                    .ok()
            })
        })
        .unwrap_or(0)
}

/// The parallel-construction experiment behind `results/BENCH_build.json`:
/// sweeps build-thread counts {1, 2, 4, 8} across two key-set sizes
/// through the whole pipeline — parallel key sort, shard fan-out, per-shard
/// hash → partitioned radix sort → Elias–Fano encode — on a
/// 16-shard range-partitioned store and on a single-shard Grafite build,
/// recording build throughput (keys/s), peak RSS, BPK drift, and the
/// byte-identity of every artifact against its serial (threads = 1) twin.
///
/// CI gates the committed JSON through `scripts/check_perf.py build`:
/// `bpk_drift == 0` and `bytes_identical == 1` always; whenever the
/// recording machine had at least two cores, the ≥ 1.5× eight-thread store
/// throughput floor (`speedup_at_8_threads`) and the ≥ 1.2× eight-thread
/// single-filter floor (`filter_speedup_at_8_threads`, the hash→sort→encode
/// pipeline alone). A one-core machine cannot speed anything up, but its
/// builds must still be byte-identical. Deliberately not part of `all`.
pub fn scale(cfg: &RunConfig) {
    use grafite_core::{BuildableFilter, Parallelism, PersistentFilter};
    use grafite_store::{FamilySpec, FilterStore, Partitioning, StoreConfig};

    println!("== scale: parallel construction sweep (n x threads) ==");
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "   (machine reports {cores} available core(s); the paper's §6.6 \
         speedups need >= 2)"
    );
    let shards = 16usize;
    let thread_counts = [1usize, 2, 4, 8];
    let n_big = cfg.n.max(1_000_000);
    let sizes = [n_big / 4, n_big];
    let registry = &standard_registry();

    let mut table = Table::new(&[
        "n",
        "threads",
        "store keys/s",
        "speedup",
        "filter keys/s",
        "bytes==serial",
    ]);
    let mut metrics = crate::report::JsonObject::new();
    let mut gate_speedup = 0.0f64;
    let mut gate_filter_speedup = 0.0f64;
    let mut gate_bpk_drift = 0.0f64;
    let mut all_identical = true;
    for &n in &sizes {
        let keys = grafite_workloads::generate(Dataset::Uniform, n, cfg.seed);
        let mut serial_manifest: Vec<u8> = Vec::new();
        let mut serial_blob: Vec<u8> = Vec::new();
        let mut serial_store_secs = f64::INFINITY;
        let mut serial_filter_secs = f64::INFINITY;
        let mut serial_bpk = 0.0f64;
        for &threads in &thread_counts {
            let par = Parallelism::fixed(threads);
            let store_config = StoreConfig::new(FamilySpec::Registry(FilterSpec::Grafite))
                .bits_per_key(16.0)
                .max_range(32)
                .seed(cfg.seed)
                .partitioning(Partitioning::Range { shards })
                .parallelism(par);
            let mut store_secs = f64::INFINITY;
            let mut manifest = Vec::new();
            for _ in 0..2 {
                let (secs, store) = time_it(|| {
                    FilterStore::build(registry, store_config.clone(), &keys).expect("store build")
                });
                store_secs = store_secs.min(secs);
                manifest = store.to_bytes();
            }
            let filter_config = FilterConfig::new(&keys)
                .bits_per_key(16.0)
                .max_range(32)
                .seed(cfg.seed)
                .parallelism(par);
            let mut filter_secs = f64::INFINITY;
            let mut blob = Vec::new();
            for _ in 0..2 {
                let (secs, filter) =
                    time_it(|| GrafiteFilter::build(&filter_config).expect("filter build"));
                filter_secs = filter_secs.min(secs);
                blob = filter.to_bytes();
            }
            let bpk = (blob.len() * 8) as f64 / n as f64;
            if threads == 1 {
                serial_manifest = manifest.clone();
                serial_blob = blob.clone();
                serial_store_secs = store_secs;
                serial_filter_secs = filter_secs;
                serial_bpk = bpk;
            }
            let identical = manifest == serial_manifest && blob == serial_blob;
            all_identical &= identical;
            let drift = (bpk - serial_bpk).abs();
            let speedup = serial_store_secs / store_secs;
            if n == n_big {
                gate_bpk_drift = gate_bpk_drift.max(drift);
                if threads == 8 {
                    gate_speedup = speedup;
                    gate_filter_speedup = serial_filter_secs / filter_secs;
                }
            }
            table.row(vec![
                n.to_string(),
                threads.to_string(),
                format!("{:.0}", n as f64 / store_secs),
                format!("{speedup:.2}x"),
                format!("{:.0}", n as f64 / filter_secs),
                identical.to_string(),
            ]);
            let mut point = crate::report::JsonObject::new();
            point
                .int("n", n as u64)
                .int("threads", threads as u64)
                .num("store_keys_per_s", n as f64 / store_secs)
                .num("filter_keys_per_s", n as f64 / filter_secs)
                .num("store_speedup_vs_serial", speedup)
                .num("filter_bits_per_key", bpk)
                .int("bytes_identical", u64::from(identical));
            metrics.obj(&format!("n{n}_t{threads}"), &point);
        }
    }
    table.print();
    let _ = table.write_csv(&cfg.out_dir, "scale");

    metrics
        .num("speedup_at_8_threads", gate_speedup)
        .num("filter_speedup_at_8_threads", gate_filter_speedup)
        .num("bpk_drift", gate_bpk_drift)
        .int("bytes_identical", u64::from(all_identical))
        .int("peak_rss_mb", peak_rss_kb() / 1024);
    let mut config_obj = crate::report::JsonObject::new();
    config_obj
        .int("n", n_big as u64)
        .int("shards", shards as u64)
        .int("seed", cfg.seed)
        .int("cores", cores as u64);
    let mut doc = crate::report::JsonObject::new();
    doc.str_field("schema", "grafite-build-v1")
        .obj("config", &config_obj)
        .obj("metrics", &metrics);
    doc.write(&cfg.out_dir, "BENCH_build")
        .expect("write BENCH_build.json");
}

/// Minimum-of-`reps` wall-clock nanoseconds per operation for a closure
/// performing `ops` operations per call — the noise-robust estimator every
/// hotpath metric uses (the minimum over repetitions discards scheduler
/// and frequency noise that inflates means).
fn best_ns_per_op<T>(reps: usize, ops: usize, mut f: impl FnMut() -> T) -> f64 {
    assert!(reps > 0 && ops > 0);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = std::time::Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_nanos() as f64 / ops as f64);
    }
    best
}

/// The succinct hot-path experiment: micro timings of the fused Elias–Fano
/// `predecessor` against the uncompressed sorted-vec alternative (which
/// doubles as a machine-speed normalizer), each vectorized kernel against
/// its forced-scalar twin, plus filter-level Grafite/Bucketing query
/// latency. Prints a table and writes the
/// machine-readable `BENCH_query.json` that CI's perf-smoke step diffs
/// against the committed baseline in `results/` — this file is the repo's
/// query-performance trajectory.
pub fn hotpath(cfg: &RunConfig) {
    use grafite_succinct::EliasFano;
    use grafite_workloads::WorkloadRng;

    println!("== hotpath: succinct hot-path micro + query-latency baseline ==");
    const MICRO_PROBES: usize = 8192;
    const MICRO_ROUNDS: usize = 16; // probes replayed per timing rep
    let reps = 9; // min-of-9 keeps shared-runner noise out of the gate

    // --- micro: Elias–Fano at the paper-scale ~16 bits/key density. The
    // element count is floored at 1M so the structure leaves the cache the
    // way the paper's 200M-key experiments do — the fused probe's saved
    // memory touches are the point of the measurement.
    let micro_n = cfg.n.max(1_000_000);
    let universe = (micro_n as u64) << 14;
    let mut rng = WorkloadRng::new(cfg.seed ^ 0x407);
    let mut values: Vec<u64> = (0..micro_n).map(|_| rng.below(universe)).collect();
    values.sort_unstable();
    values.dedup();
    let ef = EliasFano::new(&values, universe);
    let probes: Vec<u64> = (0..MICRO_PROBES).map(|_| rng.below(universe)).collect();
    let micro_ops = MICRO_PROBES * MICRO_ROUNDS;
    let fused_ns = best_ns_per_op(reps, micro_ops, || {
        let mut acc = 0u64;
        for _ in 0..MICRO_ROUNDS {
            for &y in &probes {
                acc ^= ef.predecessor(y).unwrap_or(0);
            }
        }
        acc
    });
    let sorted_vec_ns = best_ns_per_op(reps, micro_ops, || {
        let mut acc = 0u64;
        for _ in 0..MICRO_ROUNDS {
            for &y in &probes {
                let idx = values.partition_point(|&v| v <= y);
                if idx > 0 {
                    acc ^= values[idx - 1];
                }
            }
        }
        acc
    });

    // --- kernel micro: each vectorized succinct kernel, forced-scalar vs
    // the dispatched level, on identical probe sequences. Answers are
    // asserted identical inside the agreement tests; here only time moves.
    use grafite_succinct::simd::{self, SimdLevel};
    let active = simd::level();
    let simd_active = active != SimdLevel::Scalar;

    let rank_words: Vec<u64> = (0..4096).map(|_| rng.next_u64()).collect();
    let rank_probes: Vec<(usize, usize)> = (0..MICRO_PROBES)
        .map(|_| {
            let w = rng.below((rank_words.len() - 8) as u64) as usize;
            (w, rng.below(513) as usize)
        })
        .collect();
    let time_rank = |lvl: SimdLevel| {
        best_ns_per_op(reps, micro_ops, || {
            let mut acc = 0usize;
            for _ in 0..MICRO_ROUNDS {
                for &(w, upto) in &rank_probes {
                    acc ^= simd::rank1_x8_at(lvl, &rank_words[w..w + 8], upto);
                }
            }
            acc
        })
    };

    let sel_probes: Vec<(u64, u32)> = (0..MICRO_PROBES)
        .map(|_| {
            let w = rng.next_u64() | 1;
            let k = rng.below(w.count_ones() as u64) as u32;
            (w, k)
        })
        .collect();
    let time_select = |lvl: SimdLevel| {
        best_ns_per_op(reps, micro_ops, || {
            let mut acc = 0u32;
            for _ in 0..MICRO_ROUNDS {
                for &(w, k) in &sel_probes {
                    acc ^= simd::select_in_word_at(lvl, w, k);
                }
            }
            acc
        })
    };

    // Low-bits partition: EF-bucket-shaped runs (a few dozen fields) over
    // a packed random buffer at a realistic low-bits width. Targets sit
    // near the top of the field range so probes scan their whole run —
    // the adversarial duplicated-bucket regime this kernel exists for;
    // uniform targets would early-exit after ~2 fields and measure
    // nothing but loop setup.
    let lp_width = 14usize;
    let lp_words: Vec<u64> = (0..2048).map(|_| rng.next_u64()).collect();
    let lp_fields = lp_words.len() * 64 / lp_width - 2;
    let lp_mask = (1u64 << lp_width) - 1;
    let lp_probes: Vec<(usize, usize, u64)> = (0..MICRO_PROBES)
        .map(|_| {
            let start = rng.below((lp_fields - 64) as u64) as usize;
            let end = start + 1 + rng.below(63) as usize;
            (start, end, lp_mask - rng.below(4))
        })
        .collect();
    let time_lp = |lvl: SimdLevel| {
        best_ns_per_op(reps, MICRO_PROBES, || {
            let mut acc = 0usize;
            for &(s, e, y) in &lp_probes {
                acc ^= simd::low_partition_at(lvl, &lp_words, lp_width, s, e, y, false);
            }
            acc
        })
    };

    let kernels = [
        ("rank1", time_rank(SimdLevel::Scalar), time_rank(active)),
        (
            "select_in_word",
            time_select(SimdLevel::Scalar),
            time_select(active),
        ),
        ("low_partition", time_lp(SimdLevel::Scalar), time_lp(active)),
    ];

    // --- macro: filter-level query latency at 16 bits/key ---
    let keys: Vec<u64> = (0..cfg.n).map(|_| rng.next_u64()).collect();
    let fc = FilterConfig::new(&keys).bits_per_key(16.0);
    let grafite = GrafiteFilter::build(&fc.seed(cfg.seed)).expect("grafite build");
    let bucketing = BucketingFilter::build(&fc).expect("bucketing build");

    let mut table = Table::new(&["metric", "ns/op", "notes"]);
    let mut metrics = crate::report::JsonObject::new();
    metrics.num("ef_predecessor_fused_ns", fused_ns);
    metrics.num("sorted_vec_predecessor_ns", sorted_vec_ns);
    table.row(vec![
        "ef_predecessor_fused".into(),
        format!("{fused_ns:.1}"),
        "one select0 + word-local scans".into(),
    ]);
    table.row(vec![
        "sorted_vec_predecessor".into(),
        format!("{sorted_vec_ns:.1}"),
        "uncompressed baseline / machine normalizer".into(),
    ]);

    metrics.str_field("simd_level", active.name());
    metrics.int("simd_active", u64::from(simd_active));
    for &(name, scalar_ns, simd_ns) in &kernels {
        metrics.num(&format!("kernel_{name}_scalar_ns"), scalar_ns);
        metrics.num(&format!("kernel_{name}_simd_ns"), simd_ns);
        metrics.num(&format!("kernel_speedup_{name}"), scalar_ns / simd_ns);
        table.row(vec![
            format!("kernel_{name}"),
            format!("{simd_ns:.1}"),
            format!(
                "scalar {scalar_ns:.1} ns, {:.2}x at {}",
                scalar_ns / simd_ns,
                active.name()
            ),
        ]);
    }

    for &(l, size_name) in &RANGE_SIZES {
        let queries = uncorrelated_queries(&keys, cfg.queries, l, cfg.seed ^ 0xB07);
        let mut scalar = f64::INFINITY;
        let mut fpr = 0.0;
        let mut bpk = 0.0;
        for _ in 0..reps {
            let m = measure(&grafite, &queries);
            scalar = scalar.min(m.ns_per_query);
            fpr = m.positive_rate;
            bpk = m.bits_per_key;
        }
        metrics.num(&format!("grafite_query_{size_name}_ns"), scalar);
        table.row(vec![
            format!("grafite_query_{size_name}"),
            format!("{scalar:.1}"),
            format!("fpr={} bpk={bpk:.1}", fmt_fpr(fpr)),
        ]);
        let mut bucketing_ns = f64::INFINITY;
        for _ in 0..reps {
            bucketing_ns = bucketing_ns.min(measure(&bucketing, &queries).ns_per_query);
        }
        metrics.num(&format!("bucketing_query_{size_name}_ns"), bucketing_ns);
        table.row(vec![
            format!("bucketing_query_{size_name}"),
            format!("{bucketing_ns:.1}"),
            "one EF predecessor per query".into(),
        ]);
    }

    table.print();
    let _ = table.write_csv(&cfg.out_dir, "hotpath");

    let mut config = crate::report::JsonObject::new();
    config
        .int("n", cfg.n as u64)
        .int("queries", cfg.queries as u64)
        .int("seed", cfg.seed);
    let mut doc = crate::report::JsonObject::new();
    doc.str_field("schema", "grafite-hotpath-v1")
        .obj("config", &config)
        .obj("metrics", &metrics);
    doc.write(&cfg.out_dir, "BENCH_query")
        .expect("write BENCH_query.json");
}

/// Runs every experiment.
pub fn all(cfg: &RunConfig) {
    fig1(cfg);
    fig3(cfg);
    fig4(cfg);
    fig5(cfg);
    fig6(cfg);
    fig7(cfg);
    table1(cfg);
    fb(cfg);
    sort_ablation(cfg);
    ablation_pow2(cfg);
    ablation_snarf_overflow(cfg);
    ablation_rosetta_tuning(cfg);
    ablation_bucketing(cfg);
    ablation_wa_bucketing(cfg);
    normal_check(cfg);
    hotpath(cfg);
}

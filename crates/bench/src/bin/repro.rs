//! `repro` — regenerates the paper's tables and figures.
//!
//! ```text
//! repro <experiment> [--n N] [--queries Q] [--seed S] [--out DIR]
//!                    [--data DIR] [--budgets 8,12,16,20,24,28]
//! ```
//!
//! Run `repro` with no arguments for the list of experiments. `serve`
//! builds a >=100MB manifest to time mapped vs eager cold starts (writes
//! BENCH_serve.json); `scale` sweeps build-thread counts over the parallel
//! construction pipeline (writes BENCH_build.json). Both are deliberately
//! not part of `all`.
//!
//! Defaults run at laptop scale (n = 100k keys, 20k queries; the paper used
//! 200M/10M on a Xeon). Scale up with `--n` / `--queries`. `--n` and
//! `--queries` must be positive and every budget finite and positive; any
//! other value is a usage error (exit 2).

use grafite_bench::experiments;
use grafite_bench::harness::RunConfig;

/// An experiment's name on the command line and the function it runs.
type Experiment = (&'static str, fn(&RunConfig));

/// Every experiment `repro` runs; the usage text lists them in this order.
const EXPERIMENTS: &[Experiment] = &[
    ("fig1", experiments::fig1),
    ("fig3", experiments::fig3),
    ("fig4", experiments::fig4),
    ("fig5", experiments::fig5),
    ("fig6", experiments::fig6),
    ("fig7", experiments::fig7),
    ("table1", experiments::table1),
    ("fb", experiments::fb),
    ("normal_check", experiments::normal_check),
    ("serve", experiments::serve),
    ("scale", experiments::scale),
    ("hotpath", experiments::hotpath),
    ("sort_ablation", experiments::sort_ablation),
    ("ablation_pow2", experiments::ablation_pow2),
    (
        "ablation_snarf_overflow",
        experiments::ablation_snarf_overflow,
    ),
    (
        "ablation_rosetta_tuning",
        experiments::ablation_rosetta_tuning,
    ),
    ("ablation_bucketing", experiments::ablation_bucketing),
    ("ablation_wa_bucketing", experiments::ablation_wa_bucketing),
    ("all", experiments::all),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(experiment) = args.first() else {
        usage_and_exit();
    };
    let Some(&(_, run)) = EXPERIMENTS.iter().find(|(name, _)| name == experiment) else {
        eprintln!("unknown experiment '{experiment}'");
        usage_and_exit();
    };
    let mut cfg = RunConfig::default();
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args.get(i + 1).unwrap_or_else(|| {
            eprintln!("missing value for {flag}");
            std::process::exit(2);
        });
        match flag {
            "--n" => cfg.n = parse_or_exit(flag, value, |&n| n > 0),
            "--queries" => cfg.queries = parse_or_exit(flag, value, |&q| q > 0),
            "--seed" => cfg.seed = parse_or_exit(flag, value, |_| true),
            "--out" => cfg.out_dir = value.into(),
            "--data" => cfg.data_dir = value.into(),
            "--budgets" => {
                let positive = |b: &f64| b.is_finite() && *b > 0.0;
                cfg.budgets = value
                    .split(',')
                    .map(|s| parse_or_exit(flag, s, positive))
                    .collect();
            }
            _ => {
                eprintln!("unknown flag {flag}");
                usage_and_exit();
            }
        }
        i += 2;
    }

    println!(
        "[repro] {experiment}: n={} queries={} seed={} budgets={:?}",
        cfg.n, cfg.queries, cfg.seed, cfg.budgets
    );
    let start = std::time::Instant::now();
    run(&cfg);
    println!("[repro] done in {:.1}s", start.elapsed().as_secs_f64());
}

/// Parses one flag value that `valid` accepts, or reports the flag and exits
/// 2 (a usage error). Counts must be positive and budgets positive and
/// finite: no experiment can run on zero keys or queries, and no filter
/// can be sized from a budget that is not.
fn parse_or_exit<T: std::str::FromStr>(flag: &str, value: &str, valid: impl Fn(&T) -> bool) -> T {
    match value.parse() {
        Ok(parsed) if valid(&parsed) => parsed,
        _ => {
            eprintln!("invalid value '{value}' for {flag}");
            usage_and_exit();
        }
    }
}

fn usage_and_exit() -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|&(name, _)| name).collect();
    eprintln!(
        "usage: repro <{}> [--n N] [--queries Q] [--seed S] [--out DIR] \
         [--data DIR] [--budgets 8,12,...]",
        names.join("|")
    );
    std::process::exit(2);
}

//! `repro` — regenerates the paper's tables and figures.
//!
//! ```text
//! repro <experiment> [--n N] [--queries Q] [--seed S] [--out DIR]
//!                    [--data DIR] [--budgets 8,12,16,20,24,28]
//!
//! experiments:
//!   fig1  fig3  fig4  fig5  fig6  fig7  table1  fb  normal_check  serving
//!   serve  scale  hotpath  sort_ablation  ablation_pow2
//!   ablation_snarf_overflow  ablation_rosetta_tuning
//!   ablation_bucketing  ablation_wa_bucketing  all
//!
//! `serve` builds a >=100MB manifest to time mapped vs eager cold starts
//! (writes BENCH_serve.json); `scale` sweeps build-thread counts over the
//! parallel construction pipeline (writes BENCH_build.json). Both are
//! deliberately not part of `all`.
//! ```
//!
//! Defaults run at laptop scale (n = 100k keys, 20k queries; the paper used
//! 200M/10M on a Xeon). Scale up with `--n` / `--queries`.

use grafite_bench::experiments;
use grafite_bench::harness::RunConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage_and_exit();
    }
    let experiment = args[0].clone();
    let mut cfg = RunConfig::default();
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args.get(i + 1).unwrap_or_else(|| {
            eprintln!("missing value for {flag}");
            std::process::exit(2);
        });
        match flag {
            "--n" => cfg.n = value.parse().expect("--n expects an integer"),
            "--queries" => cfg.queries = value.parse().expect("--queries expects an integer"),
            "--seed" => cfg.seed = value.parse().expect("--seed expects an integer"),
            "--out" => cfg.out_dir = value.into(),
            "--data" => cfg.data_dir = value.into(),
            "--budgets" => {
                cfg.budgets = value
                    .split(',')
                    .map(|s| {
                        s.parse()
                            .expect("--budgets expects comma-separated numbers")
                    })
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
    match experiment.as_str() {
        "fig1" => experiments::fig1(&cfg),
        "fig3" => experiments::fig3(&cfg),
        "fig4" => experiments::fig4(&cfg),
        "fig5" => experiments::fig5(&cfg),
        "fig6" => experiments::fig6(&cfg),
        "fig7" => experiments::fig7(&cfg),
        "table1" => experiments::table1(&cfg),
        "fb" => experiments::fb(&cfg),
        "sort_ablation" => experiments::sort_ablation(&cfg),
        "ablation_pow2" => experiments::ablation_pow2(&cfg),
        "ablation_snarf_overflow" => experiments::ablation_snarf_overflow(&cfg),
        "ablation_rosetta_tuning" => experiments::ablation_rosetta_tuning(&cfg),
        "ablation_bucketing" => experiments::ablation_bucketing(&cfg),
        "ablation_wa_bucketing" => experiments::ablation_wa_bucketing(&cfg),
        "normal_check" => experiments::normal_check(&cfg),
        "serving" => experiments::serving(&cfg),
        "serve" => experiments::serve(&cfg),
        "scale" => experiments::scale(&cfg),
        "hotpath" => experiments::hotpath(&cfg),
        "all" => experiments::all(&cfg),
        other => {
            eprintln!("unknown experiment '{other}'");
            usage_and_exit();
        }
    }
    println!("[repro] done in {:.1}s", start.elapsed().as_secs_f64());
}

fn usage_and_exit() -> ! {
    eprintln!(
        "usage: repro <fig1|fig3|fig4|fig5|fig6|fig7|table1|fb|normal_check|serving|\
         serve|scale|hotpath|sort_ablation|ablation_pow2|ablation_snarf_overflow|\
         ablation_rosetta_tuning|ablation_bucketing|ablation_wa_bucketing|all> \
         [--n N] [--queries Q] [--seed S] [--out DIR] \
         [--data DIR] [--budgets 8,12,...]"
    );
    std::process::exit(2);
}

//! The experiment harness regenerating every table and figure of the
//! Grafite paper's evaluation (§6), plus ablations of choices the paper
//! discusses without plotting, and the committed `results/BENCH_*.json`
//! perf baselines that `scripts/check_perf.py` gates.
//!
//! Entry point: the `repro` binary (`cargo run --release -p grafite-bench
//! --bin repro -- <experiment>`).

pub mod experiments;
pub mod harness;
pub mod report;

//! Datasets and query workloads of the Grafite paper's evaluation (§6.1).
//!
//! The paper evaluates on three 200M-key datasets — **Uniform** (synthetic),
//! **Books** (Amazon sales popularity) and **Osm** (OpenStreetMap cell ids) —
//! plus a **Normal** robustness check and the **Fb** case study. The real
//! datasets come from the SOSD benchmark suite and are not redistributable;
//! this crate synthesises statistically similar stand-ins (see
//! [`datasets`]) and transparently loads the real SOSD binaries when the
//! user drops them into a data directory (see [`sosd`]). The stand-ins
//! mimic each dataset's gap structure, which is what decides a range
//! filter's FPR, so the comparisons between filters carry over; absolute
//! FPRs and times need not match the paper's.
//!
//! Query workloads follow §6.1 exactly: batches of emptiness queries
//! `[x, x + L − 1]` with point (`L = 2^0`), small (`L = 2^5`) and large
//! (`L = 2^10`) sizes; left endpoints drawn **uncorrelated** (uniform),
//! **correlated** with a degree `D` (`x ∈ [k, k + 2^{30(1−D)}]` for a random
//! key `k`), or **extracted from the dataset** (real workloads); emptiness is
//! enforced by discarding ranges that intersect the keys. A separate
//! generator produces the §6.5 *non-empty* queries.

pub mod datasets;
pub mod queries;
pub mod rng;
pub mod sosd;

pub use datasets::{generate, Dataset};
pub use queries::{
    correlated_queries, extract_real_queries, non_empty_queries, uncorrelated_queries, RangeQuery,
};
pub use rng::WorkloadRng;

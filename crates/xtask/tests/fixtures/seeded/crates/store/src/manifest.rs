//! Seeded store-version (L3) and atomic-ordering (L6) violations.

use std::sync::atomic::{AtomicU64, Ordering};

pub const STORE_FORMAT_VERSION: u32 = 0;

pub fn bump(counter: &AtomicU64) -> u64 {
    counter.fetch_add(1, Ordering::Relaxed)
}

pub fn load_count(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Acquire)
}

//! Seeded atomic-ordering (L6) violation beside its `Relaxed` twin.

use std::sync::atomic::{AtomicU64, Ordering};

pub fn bump(counter: &AtomicU64) -> u64 {
    counter.fetch_add(1, Ordering::Relaxed)
}

pub fn load_count(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Acquire)
}

//! Seeded L3: version bumped with no regenerated goldens.

pub const FORMAT_VERSION: u32 = 9;

/// Spec table stub.
pub mod spec_id {
    /// Grafite.
    pub const GRAFITE: u32 = 1;
}

pub fn read_from(words: &[u64]) -> u64 {
    words[3]
}

/// Seeded L6: `unsafe` outside the kernel allowlist.
pub unsafe fn touch() {}

//! Seeded L1: a bare index inside a `read_from` body of a core file.

pub fn read_from(words: &[u64]) -> u64 {
    words[3]
}

/// Seeded L6: `unsafe` outside the kernel allowlist.
pub unsafe fn touch() {}

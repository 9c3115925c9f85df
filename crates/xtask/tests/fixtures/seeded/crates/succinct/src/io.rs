//! Seeded L1/L7 violations: this file mirrors the untrusted io module.

pub fn decode(words: &[u64]) -> u64 {
    let first = words[0];
    let total = first * 8;
    let x: u64 = words.iter().copied().next().unwrap();
    // lint:allow(fixture demonstrates a counted suppression)
    let allowed = words[1];
    panic!("seeded: {first} {total} {x} {allowed}");
}

pub fn decode_checked(words: &[u64]) -> Option<u64> {
    let first = words.first().copied()?;
    first.checked_mul(8)
}

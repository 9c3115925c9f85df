//! The declared untrusted-input surface and the shared lint configuration.
//!
//! Everything here is a *policy declaration*: which files parse
//! attacker-controllable bytes, which functions in otherwise-trusted files
//! do, and where `unsafe` may appear. The lints in
//! [`crate::lints`] are mechanisms; this module is the contract they
//! enforce. Grow these tables as new load paths land (the server/mmap/LSM
//! work on the ROADMAP) — a new `read_from` in a listed crate is picked up
//! automatically by the function-name rules.

/// Files whose **entire** (non-`#[cfg(test)]`) contents consume untrusted
/// bytes: the word-stream primitives, the blob header codec, and the store
/// manifest parser. L1 (panic-freedom) and L7 (dataflow taint) apply to
/// every line.
pub const UNTRUSTED_FILES: &[&str] = &[
    "crates/succinct/src/io.rs",
    "crates/core/src/persist.rs",
    "crates/store/src/manifest.rs",
    "crates/store/src/mapped.rs",
    "crates/server/src/protocol.rs",
];

/// Function names that decode untrusted bytes wherever they appear inside
/// [`UNTRUSTED_FN_GLOBS`] files: the `read_from`/deserialize family.
/// L1 and L7 apply inside the body of every function with one of these
/// names.
pub const UNTRUSTED_FNS: &[&str] = &[
    "read_from",
    "read_payload",
    "decode",
    "decode_payload",
    "deserialize",
    "load",
    "load_as",
    "open",
    "from_bytes",
    "parse",
    "peek",
    "validate",
    "verify_checksum",
];

/// Directory prefixes searched for [`UNTRUSTED_FNS`] bodies. (Benches,
/// examples, integration tests, and the shims are deliberately absent:
/// they consume trusted, locally produced bytes.)
pub const UNTRUSTED_FN_GLOBS: &[&str] = &[
    "crates/succinct/src/",
    "crates/core/src/",
    "crates/store/src/",
    "crates/fst/src/",
    "crates/bloom/src/",
    "crates/filters/src/",
    "crates/server/src/",
];

/// The only files allowed to contain `unsafe` at all (L6): the SIMD
/// kernel module, where every `unsafe` block must carry an adjacent
/// `// safety:` justification. Everywhere else in
/// [`UNSAFE_SCAN_GLOBS`], any `unsafe` token is a violation.
pub const UNSAFE_KERNEL_FILES: &[&str] = &["crates/succinct/src/simd/kernels.rs"];

/// The comment marker that justifies an `unsafe` block for L6.
pub const SAFETY_JUSTIFICATION: &str = "safety:";

/// How many lines above an `unsafe` token L6 searches for the
/// justification comment: soundness arguments for gathers and raw loads
/// legitimately run several comment lines.
pub const SAFETY_COMMENT_WINDOW: usize = 5;

/// Directory prefixes L6 sweeps for `unsafe` tokens and atomic orderings
/// other than `Relaxed` — every source tree of the workspace (libraries,
/// binaries, benches, integration tests, examples, shims).
/// `crates/xtask/tests/` is deliberately absent: the seeded-violation
/// fixtures plant both on purpose.
pub const UNSAFE_SCAN_GLOBS: &[&str] = &[
    "src/",
    "examples/",
    "tests/",
    "shims/",
    "crates/bench/",
    "crates/bloom/src/",
    "crates/core/src/",
    "crates/filters/src/",
    "crates/fst/src/",
    "crates/hash/src/",
    "crates/server/src/",
    "crates/store/src/",
    "crates/succinct/",
    "crates/workloads/src/",
    "crates/xtask/src/",
];

// ---------------------------------------------------------------------------
// L7 — dataflow taint. Sources are where attacker-controlled values enter a
// function; sinks are the operations a hostile length/offset must never
// reach unlaundered; sanitizers are the only things that clear taint.
// ---------------------------------------------------------------------------

/// Call names whose *result* is attacker-controlled inside the untrusted
/// surface: the word-stream primitives, the frame-payload readers, and the
/// raw little-endian decoders.
pub const TAINT_SOURCE_CALLS: &[&str] = &[
    "le_word",
    "u64_at",
    "u32_at",
    "from_le_bytes",
    "from_be_bytes",
    "word",
    "length",
    "take",
    "take_bytes",
    "read_head",
];

/// Parameter names that denote attacker-controlled buffers or values when
/// they appear in an untrusted-surface function signature.
pub const TAINT_SOURCE_PARAMS: &[&str] = &[
    "payload", "bytes", "body", "buf", "blob", "raw", "declared", "chunk", "frame", "words",
];

/// Calls that *fill* a `&mut` buffer argument with untrusted bytes
/// (`Read::read_exact` and friends): their identifier arguments become
/// tainted.
pub const TAINT_FILL_CALLS: &[&str] = &["read_exact", "read_exact_at", "read_at", "read"];

/// Call names whose argument is an allocation size, raw offset, or length
/// (L7 sinks). `vec![_; n]`, slice indexing, shift amounts, and bare
/// `+`/`*` operands are recognized structurally by the lint rather than by
/// name.
pub const TAINT_SINK_CALLS: &[&str] = &[
    "with_capacity",
    "reserve",
    "reserve_exact",
    "resize",
    "set_len",
    "get_unchecked",
    "get_unchecked_mut",
    "read_exact_at",
    "read_at",
];

/// Method names that launder taint for L7 (the value is bounded by a
/// trusted operand). Note `wrapping_*` is deliberately *not* here: a
/// wrapped attacker length is overflow-explicit but still attacker-sized.
pub const TAINT_SANITIZER_METHODS: &[&str] = &["min", "clamp"];

/// Method-name prefixes that launder taint for L7.
pub const TAINT_SANITIZER_PREFIXES: &[&str] = &["checked_", "saturating_"];

/// Keywords that may legitimately precede a `[` without it being an index
/// expression (slice patterns, array types, `in [..]` iteration, …).
pub const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "in", "if", "else", "match", "return", "as", "mut", "ref", "move", "const", "static",
    "dyn", "impl", "where", "break", "continue", "type", "fn", "pub", "use", "unsafe", "while",
    "for", "loop", "box",
];

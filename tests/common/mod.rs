//! Shared by the suites that pin faulted delivery order.

/// FNV-1a over `text` — the hasher of `crates/kernel/tests/ops_trace.rs`,
/// stable across platforms and runs.
pub fn fingerprint(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

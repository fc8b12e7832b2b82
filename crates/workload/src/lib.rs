//! Workload generators and experiment drivers for the SIGMOD '92
//! evaluation (§4).
//!
//! Three drivers cover the paper's experiments:
//!
//! * [`build_by_appends`] — create an object by successive fixed-size
//!   appends (§4.2, Figure 5);
//! * [`sequential_scan`] — read the whole object front to back in
//!   fixed-size chunks (§4.3, Figure 6);
//! * [`MixedWorkload`] — the §4.4 update mix: 40 % reads, 30 % inserts,
//!   30 % deletes, sizes varied ±50 % about a mean, positions uniform
//!   over the object, each delete sized like the previous insert so the
//!   object size stays stable. Average per-operation I/O costs and the
//!   storage utilization are sampled at regular *marks* (every 2000
//!   operations in the paper's figures).
//!
//! All costs come from the simulated disk ([`lobstore_simdisk::IoStats`]
//! deltas), so runs are deterministic given a seed.
//!
//! [`model`] is the one reference model the model-checked tests in
//! `tests/` are configurations of.

mod builder;
mod churn;
mod metrics;
mod mixed;
pub mod model;
mod scanner;

pub use builder::{build_by_appends, build_object, BuildReport};
pub use churn::{ChurnConfig, ChurnMark, ChurnReport, ChurnWorkload};
pub use lobstore_core::ManagerSpec;
pub use metrics::NAMES as METRIC_NAMES;
pub use mixed::{Mark, MixedConfig, MixedReport, MixedWorkload, OpKind};
pub use scanner::{
    cursor_reads, random_reads, sequential_scan, stream_scan, CursorRead, ScanReport,
};

/// Deterministic filler bytes for generated workloads: cheap to produce
/// and distinctive enough that content bugs surface in tests.
pub fn fill_bytes(buf: &mut [u8], seed: u64) {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    for chunk in buf.chunks_mut(8) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let b = x.to_le_bytes();
        chunk.copy_from_slice(&b[..chunk.len()]);
    }
}

/// `len` bytes of [`fill_bytes`] for `seed`: the one payload filler of
/// the tests.
pub fn fill(len: usize, seed: u64) -> Vec<u8> {
    let mut buf = vec![0u8; len];
    fill_bytes(&mut buf, seed);
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_bytes_is_deterministic_and_varied() {
        let mut a = vec![0u8; 1000];
        let mut b = vec![0u8; 1000];
        fill_bytes(&mut a, 7);
        fill_bytes(&mut b, 7);
        assert_eq!(a, b);
        fill_bytes(&mut b, 8);
        assert_ne!(a, b);
        // Not constant.
        assert!(a.windows(2).any(|w| w[0] != w[1]));
    }
}

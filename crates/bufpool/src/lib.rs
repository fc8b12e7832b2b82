//! Buffer manager for large-object storage (§3.2 of Biliris SIGMOD '92).
//!
//! The paper's buffering scheme is a *hybrid*:
//!
//! * page-level `fix`/`unfix` with a small pool (12 pages in the study),
//!   LRU replacement that frees least-recently-used **clean** pages before
//!   resorting to dirty ones (which must be written back);
//! * multi-page segment reads of up to a configurable limit (4 pages in
//!   the study) are read **in one I/O call** into contiguous pool frames;
//! * larger segments bypass the pool entirely and are copied from disk
//!   directly into the caller's space — with the **3-step I/O** of Figure 4
//!   when the requested byte range does not match page boundaries: the
//!   partial first and last pages are staged through the pool while the
//!   interior pages go straight to the caller's buffer.
//!
//! The pool owns the [`SimDisk`](lobstore_simdisk::SimDisk); every layer
//! above performs I/O through it, so the disk's
//! [`IoStats`](lobstore_simdisk::IoStats) capture the complete simulated
//! cost.
#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::cast_possible_truncation
    )
)]

mod frame;
mod metrics;
mod pool;
mod segio;

pub use metrics::NAMES as METRIC_NAMES;
pub use pool::{BufferPool, FrameRef, PageGuard, PageGuardMut, PoolConfig, PoolStats};

//! Simulated page-addressed disk with an analytical seek/transfer cost model.
//!
//! This crate is the lowest layer of `lobstore`, the reproduction of
//! Biliris, *"The Performance of Three Database Storage Structures for
//! Managing Large Objects"* (SIGMOD 1992). The paper evaluates the three
//! storage structures on a **simulated** disk whose cost model separates
//! seek time from transfer time (§4.1, Table 1):
//!
//! * one seek (33 ms, including rotational delay) is charged for every
//!   disk access (I/O call), and
//! * data transfers at 1 KB per millisecond, i.e. 4 ms per 4 KB page.
//!
//! Reading a 3-page segment in one call therefore costs `33 + 4×3 = 45` ms,
//! while reading the same pages with three calls costs `(33 + 4) × 3 = 111`
//! ms — the distinction that motivates segment-based storage in the first
//! place.
//!
//! Unlike the paper's prototype (which kept no leaf data and only counted
//! I/O calls), [`SimDisk`] stores the *real bytes* of every page so that
//! all higher-level algorithms are verifiable end to end; simulated time
//! is accumulated in [`IoStats`] from the [`CostModel`] parameters.
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

mod convert;
mod cost;
mod disk;
mod image;
mod metrics;
mod stats;
mod trace;

pub use convert::{bytes, cast};
pub use cost::CostModel;
pub use disk::{Piece, SimDisk};
pub use metrics::NAMES as METRIC_NAMES;
pub use stats::IoStats;
pub use trace::{TraceEvent, TraceKind};

/// Size of a disk page (block) in bytes. The paper runs all experiments on
/// 4 KB pages (§4.1) and the on-page layouts of the count tree assume it.
pub const PAGE_SIZE: usize = 4096;

/// [`PAGE_SIZE`] as a `u64`, for byte-offset arithmetic that lives in
/// `u64` space (object sizes, file offsets).
pub const PAGE_SIZE_U64: u64 = PAGE_SIZE as u64;

/// Identifier of a database area.
///
/// The evaluation uses two areas (§4.1): one for the leaf segments holding
/// the large-object bytes, and one for everything else (index pages, buddy
/// directories, object roots).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct AreaId(pub u8);

impl AreaId {
    /// Conventional area for index pages, object roots and directories.
    pub const META: AreaId = AreaId(0);
    /// Conventional area for the leaf segments of large objects.
    pub const LEAF: AreaId = AreaId(1);
}

impl std::fmt::Display for AreaId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "A{}", self.0)
    }
}

/// Address of one disk page: an area plus a page number within that area.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct PageId {
    /// The disk area the page lives in.
    pub area: AreaId,
    /// The page number within that area.
    pub page: u32,
}

impl PageId {
    /// Build a page address from an area and a page number.
    pub const fn new(area: AreaId, page: u32) -> Self {
        PageId { area, page }
    }
}

impl std::fmt::Display for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.area, self.page)
    }
}

/// Number of pages needed to hold `bytes` bytes.
#[inline]
pub fn pages_for_bytes(bytes: u64) -> u32 {
    cast::to_u32(bytes.div_ceil(PAGE_SIZE_U64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_for_bytes_rounds_up() {
        assert_eq!(pages_for_bytes(0), 0);
        assert_eq!(pages_for_bytes(1), 1);
        assert_eq!(pages_for_bytes(4096), 1);
        assert_eq!(pages_for_bytes(4097), 2);
        assert_eq!(pages_for_bytes(10 * 1024 * 1024), 2560);
    }

    #[test]
    fn page_id_display() {
        let pid = PageId::new(AreaId::LEAF, 42);
        assert_eq!(pid.to_string(), "A1:42");
    }

    #[test]
    fn area_ordering_is_by_number() {
        assert!(AreaId::META < AreaId::LEAF);
    }
}

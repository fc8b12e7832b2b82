//! Binary buddy disk-space management (§3.1 of Biliris SIGMOD '92).
//!
//! A database area is divided into **buddy spaces**: fixed-length runs of
//! physically adjacent pages, each preceded by a one-page **directory**
//! that records the allocation state of every page in the space. Segments
//! (runs of contiguous pages) are allocated with the binary buddy
//! discipline — internally sizes are powers of two — but, as in EOS:
//!
//! * a client may request a segment of *any* size; the covering buddy
//!   block is found and the unused tail is immediately trimmed back to
//!   free, so requests are satisfied "down to the precision of one block";
//! * a client may free any *portion* of a previously allocated segment,
//!   not necessarily the whole segment.
//!
//! Allocation and deallocation touch only the directory page of one space.
//! To avoid probing every space on allocation, an in-memory
//! **superdirectory** records (an upper bound on) the largest free block
//! in each space; a wrong guess is corrected the first time it misleads
//! us, exactly as described in the paper. In steady state an allocation
//! therefore costs at most one disk access (and usually zero, when the
//! directory page is hot in the buffer pool).
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

mod bitmap;
mod manager;

pub use bitmap::{Bitmap, BuddyBitmap};
pub use manager::{BuddyConfig, BuddyManager, FragStats};

use lobstore_simdisk::AreaId;

/// A contiguous run of allocated pages within one area.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Extent {
    /// The database area the pages live in.
    pub area: AreaId,
    /// First page of the extent (absolute page number in the area).
    pub start: u32,
    /// Number of pages.
    pub pages: u32,
}

impl Extent {
    /// Build an extent from its area, first page, and page count.
    pub fn new(area: AreaId, start: u32, pages: u32) -> Self {
        Extent { area, start, pages }
    }

    /// Last page of the extent.
    pub fn end(&self) -> u32 {
        // Extent invariants bound start + pages to the area size (the
        // consistency walk checks this at runtime).
        // loblint: allow(arith-overflow)
        self.start + self.pages
    }

    /// The sub-extent consisting of the first `pages` pages.
    pub fn prefix(&self, pages: u32) -> Extent {
        assert!(pages <= self.pages);
        Extent::new(self.area, self.start, pages)
    }

    /// The sub-extent that remains after removing the first `pages` pages.
    pub fn suffix(&self, pages: u32) -> Extent {
        assert!(pages <= self.pages);
        // Guarded by the assert above: pages <= self.pages <= end().
        // loblint: allow(arith-overflow)
        Extent::new(self.area, self.start + pages, self.pages - pages)
    }
}

impl std::fmt::Display for Extent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:[{}..{})", self.area, self.start, self.end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// splitmix64, the seeded generator behind this crate's scripted tests.
    pub(crate) struct SplitMix(pub(crate) u64);

    impl SplitMix {
        /// The next value in `0..bound`.
        pub(crate) fn below(&mut self, bound: u32) -> u32 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            u32::try_from((z ^ (z >> 31)) % u64::from(bound)).unwrap()
        }
    }

    #[test]
    fn extent_prefix_suffix() {
        let e = Extent::new(AreaId::LEAF, 10, 8);
        assert_eq!(e.prefix(3), Extent::new(AreaId::LEAF, 10, 3));
        assert_eq!(e.suffix(3), Extent::new(AreaId::LEAF, 13, 5));
        assert_eq!(e.end(), 18);
        assert_eq!(e.to_string(), "A1:[10..18)");
    }

    #[test]
    #[should_panic]
    fn prefix_beyond_extent_panics() {
        Extent::new(AreaId::LEAF, 0, 4).prefix(5);
    }
}

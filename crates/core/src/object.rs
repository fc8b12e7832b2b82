//! The common large-object interface, implemented by [`crate::Lob`].

use lobstore_buddy::Extent;
use lobstore_simdisk::AreaId;

use crate::db::Db;
use crate::error::{LobError, Result};
use crate::MAX_OP_BYTES;

/// Validate the byte range `[off, off + len)` of an operation against the
/// object's current `size` (and the per-operation sanity bound); returns
/// `size` so callers can tell an insert at the end from one in the middle.
pub(crate) fn check_range(size: u64, off: u64, len: u64) -> Result<u64> {
    if off.checked_add(len).is_none_or(|end| end > size) {
        return Err(LobError::OutOfRange { off, len, size });
    }
    check_op_len(len)?;
    Ok(size)
}

/// Reject an operation carrying more than [`MAX_OP_BYTES`].
pub(crate) fn check_op_len(len: u64) -> Result<()> {
    if len > MAX_OP_BYTES as u64 {
        return Err(LobError::OperationTooLarge { len });
    }
    Ok(())
}

/// Which storage structure an object uses.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum StorageKind {
    /// EXODUS Storage Manager: fixed-size leaves under a count tree (§2.1).
    Esm,
    /// Starburst long-field manager: doubling extents, flat descriptor (§2.2).
    Starburst,
    /// EOS: variable-size segments under a count tree with threshold T (§2.3).
    Eos,
}

impl StorageKind {
    /// Stable on-disk tag (matches the root-page `kind` byte).
    pub fn as_u8(self) -> u8 {
        match self {
            StorageKind::Esm => 1,
            StorageKind::Eos => 2,
            StorageKind::Starburst => 3,
        }
    }

    /// The scheme's name ("ESM", "Starburst", "EOS"): its `Display` and
    /// its spans' `scheme` field.
    pub fn name(self) -> &'static str {
        match self {
            StorageKind::Esm => "ESM",
            StorageKind::Starburst => "Starburst",
            StorageKind::Eos => "EOS",
        }
    }

    /// Inverse of [`Self::as_u8`].
    pub fn from_u8(tag: u8) -> Option<StorageKind> {
        match tag {
            1 => Some(StorageKind::Esm),
            2 => Some(StorageKind::Eos),
            3 => Some(StorageKind::Starburst),
            _ => None,
        }
    }
}

impl std::fmt::Display for StorageKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Storage-utilization breakdown of one object (§4.4.1: "storage
/// utilization compares the object size with the actual space required to
/// store the object including possible index pages").
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Utilization {
    /// Logical object size in bytes.
    pub object_bytes: u64,
    /// Pages allocated to the object's data segments.
    pub data_pages: u64,
    /// Pages allocated to index structures (root/descriptor + interior
    /// index pages).
    pub index_pages: u64,
}

impl Utilization {
    /// Object bytes over all allocated bytes (data + index), in `[0, 1]`.
    pub fn ratio(&self) -> f64 {
        let denom = (self.data_pages + self.index_pages) * lobstore_simdisk::PAGE_SIZE as u64;
        if denom == 0 {
            return 1.0;
        }
        self.object_bytes as f64 / denom as f64
    }
}

/// One data segment of an object, as reported by
/// [`LargeObject::segments`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SegmentInfo {
    /// Object offset of the segment's first byte.
    pub offset: u64,
    /// First disk page of the segment (LEAF area).
    pub start_page: u32,
    /// Bytes stored in the segment.
    pub bytes: u64,
    /// Pages allocated to the segment (≥ `ceil(bytes / PAGE_SIZE)`; larger
    /// only for a tail segment still growing by appends).
    pub pages: u32,
    /// META page of the level-0 index node whose pair names the segment
    /// (the root's, or the Starburst descriptor's, at level 0). A cursor
    /// joins on-disk neighbours into one read only within one node.
    pub node_page: u32,
}

/// Location of the contiguous stored segment holding one byte offset, as
/// reported by [`LargeObject::locate`], for probes and tooling. Streaming
/// readers do not ask for it: a cursor finds its segment below the root
/// it parsed at open ([`crate::SpanCursor`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SegSpan {
    /// Object offset of the segment's first byte.
    pub start: u64,
    /// Bytes stored contiguously in the segment.
    pub bytes: u64,
    /// First disk page of the segment (LEAF area).
    pub page: u32,
}

/// A large object stored in the database.
///
/// All operations borrow the [`Db`] because every byte they touch moves
/// through the buffer pool and the simulated disk; the handle itself holds
/// only the root page number and immutable parameters, so it can move
/// to another thread.
pub trait LargeObject: Send {
    /// Which structure this is.
    fn kind(&self) -> StorageKind;

    /// Page number (META area) of the object's root / descriptor page.
    fn root_page(&self) -> u32;

    /// Current object size in bytes.
    fn size(&self, db: &mut Db) -> u64;

    /// Append `bytes` at the end of the object.
    fn append(&mut self, db: &mut Db, bytes: &[u8]) -> Result<()>;

    /// Read `out.len()` bytes starting at `off` into `out`.
    fn read(&self, db: &mut Db, off: u64, out: &mut [u8]) -> Result<()>;

    /// Locate the contiguous stored segment containing byte `off`
    /// (requires `off < size`): one costed descent of the count tree
    /// (for Starburst, of its one-level descriptor).
    fn locate(&self, db: &mut Db, off: u64) -> Result<SegSpan>;

    /// Insert `bytes` so the first inserted byte lands at offset `off`
    /// (`off == size` appends).
    fn insert(&mut self, db: &mut Db, off: u64, bytes: &[u8]) -> Result<()>;

    /// Delete `len` bytes starting at `off`.
    fn delete(&mut self, db: &mut Db, off: u64, len: u64) -> Result<()>;

    /// Overwrite `bytes.len()` bytes starting at `off` (no size change).
    fn replace(&mut self, db: &mut Db, off: u64, bytes: &[u8]) -> Result<()>;

    /// Release build-time over-allocation at the object's tail (Starburst
    /// trims its last segment, §2.2; EOS likewise). No-op for ESM.
    fn trim(&mut self, db: &mut Db) -> Result<()>;

    /// Delete the object and free all of its storage. The handle must not
    /// be used afterwards.
    fn destroy(&mut self, db: &mut Db) -> Result<()>;

    /// Current storage-utilization breakdown. Cost-free (metric code).
    fn utilization(&self, db: &Db) -> Utilization;

    /// The object's data segments, left to right. Cost-free (inspection
    /// and tooling).
    fn segments(&self, db: &Db) -> Vec<SegmentInfo>;

    /// Every META page of the object's index structure, the root
    /// included. Cost-free (inspection and tooling).
    fn index_page_numbers(&self, db: &Db) -> Vec<u32>;

    /// Verify every structural invariant of this object. Cost-free.
    fn check_invariants(&self, db: &Db) -> Result<()>;

    /// Cost-free snapshot of the full object content, for verification
    /// against reference models in tests.
    fn snapshot(&self, db: &Db) -> Vec<u8>;
}

/// Every extent `obj` reaches: its index pages, the root included, in
/// META and its segments in LEAF. Cost-free. The one claim walk:
/// [`Db::verify`] holds the allocators against it, and allocation-log
/// replay rebuilds them from it.
pub(crate) fn claims(obj: &dyn LargeObject, db: &Db) -> Vec<Extent> {
    let index = obj
        .index_page_numbers(db)
        .into_iter()
        .map(|page| Extent::new(AreaId::META, page, 1));
    let segments = obj
        .segments(db)
        .into_iter()
        .map(|s| Extent::new(AreaId::LEAF, s.start_page, s.pages));
    index.chain(segments).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_ratio() {
        let u = Utilization {
            object_bytes: 4096 * 3,
            data_pages: 3,
            index_pages: 1,
        };
        assert!((u.ratio() - 0.75).abs() < 1e-12);
        let empty = Utilization {
            object_bytes: 0,
            data_pages: 0,
            index_pages: 0,
        };
        assert_eq!(empty.ratio(), 1.0);
    }

    #[test]
    fn kind_display() {
        assert_eq!(StorageKind::Esm.to_string(), "ESM");
        assert_eq!(StorageKind::Starburst.to_string(), "Starburst");
        assert_eq!(StorageKind::Eos.to_string(), "EOS");
    }
}

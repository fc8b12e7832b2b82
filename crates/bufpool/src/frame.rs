//! One pool frame: its page bytes behind the frame's own latch
//! ([`Frame`]) and its replacement metadata ([`FrameMeta`]), which the
//! pool keeps in the control block under `BufferPool.ctl`.

use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use lobstore_obs::sync::{self, Guard, Rank};
use lobstore_simdisk::{PageId, PAGE_SIZE};

/// One page worth of heap bytes.
pub(crate) type PageBox = Box<[u8; PAGE_SIZE]>;

/// The bytes of one frame. The box is allocated once and overwritten in
/// place when the frame changes pages; *which* page the bytes belong to
/// is [`FrameMeta::pid`], decided under the control block.
pub(crate) struct Frame {
    /// The frame latch: shared for readers, exclusive for writers and
    /// for the refill after an eviction.
    bytes: RwLock<PageBox>,
}

impl Frame {
    /// A frame of zero bytes.
    pub fn zeroed() -> Self {
        Frame {
            bytes: RwLock::new(Box::new([0u8; PAGE_SIZE])),
        }
    }

    /// The frame latch, shared.
    pub fn read(&self) -> Guard<RwLockReadGuard<'_, PageBox>> {
        sync::read(&self.bytes, Rank::FrameBytes)
    }

    /// The frame latch, exclusive.
    pub fn write(&self) -> Guard<RwLockWriteGuard<'_, PageBox>> {
        sync::write(&self.bytes, Rank::FrameBytes)
    }
}

/// Control information of one buffer frame.
pub(crate) struct FrameMeta {
    /// The page currently held, if any.
    pub pid: Option<PageId>,
    /// Whether the frame content is newer than the disk copy.
    pub dirty: bool,
    /// Fix count; a fixed frame is never evicted.
    pub pins: u32,
    /// Logical timestamp of the last use, for LRU.
    pub last_used: u64,
}

impl FrameMeta {
    /// A frame holding no page.
    pub fn empty() -> Self {
        FrameMeta {
            pid: None,
            dirty: false,
            pins: 0,
            last_used: 0,
        }
    }

    /// Whether the frame holds no page.
    pub fn is_free(&self) -> bool {
        self.pid.is_none()
    }
}

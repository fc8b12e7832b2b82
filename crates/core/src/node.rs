//! In-memory representation and page layout of positional-tree nodes.
//!
//! Both ESM and EOS index their leaf segments with the same tree of
//! `(count, pointer)` pairs (§2.1, §2.3): entry *i* of a node records how
//! many object bytes live in the subtree (or leaf segment) it points to.
//! The paper stores cumulative counts; we store per-child counts, which
//! occupy the same 8 bytes per pair and make structural updates local.
//!
//! Page layouts (all integers little-endian):
//!
//! ```text
//! interior node page              root page
//! ┌────────────────────────┐     ┌──────────────────────────────┐
//! │ 0..2   n_entries  u16  │     │ 0..4   magic            u32  │
//! │ 2..3   level      u8   │     │ 4..5   kind             u8   │
//! │ 3..8   reserved        │     │ 5..6   level            u8   │
//! │ 8..    entries         │     │ 6..8   n_entries        u16  │
//! │        (count u32,     │     │ 8..16  object size      u64  │
//! │         ptr   u32)*    │     │ 16..24 manager params   u64  │
//! └────────────────────────┘     │ 24..28 last_seg_alloc   u32  │
//!                                │ 28..40 reserved              │
//! (4096−8)/8  = 511 pairs        │ 40..   entries               │
//!                                └──────────────────────────────┘
//!                                (4096−40)/8 = 507 pairs
//! ```
//!
//! matching the paper's 511/507 pair capacities (§4.1).

use lobstore_simdisk::{cast, PAGE_SIZE};

use crate::layout::{get_u16, get_u32, get_u64, put_u16, put_u32, put_u64};

/// Byte offset of the entry array in an interior node page.
pub(crate) const NODE_ENTRIES_OFF: usize = 8;
/// Byte offset of the entry array in a root page.
pub(crate) const ROOT_ENTRIES_OFF: usize = 40;
/// Physical pair capacity of an interior node page.
pub(crate) const NODE_MAX_ENTRIES: usize = (PAGE_SIZE - NODE_ENTRIES_OFF) / 8;
/// Physical pair capacity of a root page.
pub(crate) const ROOT_MAX_ENTRIES: usize = (PAGE_SIZE - ROOT_ENTRIES_OFF) / 8;

/// One `(count, pointer)` pair.
///
/// For a node of level 0, `ptr` is the first page of a leaf segment in the
/// LEAF area; for higher levels it is an index page in the META area.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct Entry {
    /// Bytes stored in the subtree / leaf segment behind `ptr`.
    pub count: u64,
    pub ptr: u32,
}

/// An index node held in memory while it is being read or rewritten.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Node {
    /// 0 ⇒ entries point at leaf segments; k>0 ⇒ entries point at nodes of
    /// level k−1.
    pub level: u8,
    pub entries: Vec<Entry>,
}

impl Node {
    /// An empty node (test/builder helper).
    #[cfg(test)]
    pub fn new(level: u8) -> Self {
        Node {
            level,
            entries: Vec::new(),
        }
    }

    /// Total bytes under this node.
    pub fn total(&self) -> u64 {
        self.entries.iter().map(|e| e.count).sum()
    }

    /// Locate the child holding byte `off`; `off == total()` selects the
    /// last child with its full count as the in-child offset (the append
    /// position). Returns `(entry index, offset within that child)`.
    ///
    /// # Panics
    /// If the node is empty or `off > total()`.
    pub fn find_child(&self, off: u64) -> (usize, u64) {
        find_child(&self.entries, off)
    }

    /// Byte offset (relative to this node) at which entry `idx` starts.
    #[cfg(test)]
    pub fn offset_of(&self, idx: usize) -> u64 {
        self.entries[..idx].iter().map(|e| e.count).sum()
    }

    /// Parse an interior node page.
    pub fn read_page(page: &[u8]) -> Node {
        let n = usize::from(get_u16(page, 0));
        let level = page.get(2).copied().unwrap_or(0);
        assert!(n <= NODE_MAX_ENTRIES, "corrupt node: {n} entries");
        let mut entries = Vec::with_capacity(n);
        for i in 0..n {
            let at = NODE_ENTRIES_OFF + i * 8;
            entries.push(Entry {
                count: u64::from(get_u32(page, at)),
                ptr: get_u32(page, at + 4),
            });
        }
        Node { level, entries }
    }

    /// Serialize into an interior node page.
    pub fn write_page(&self, page: &mut [u8]) {
        assert!(self.entries.len() <= NODE_MAX_ENTRIES, "node overflow");
        put_u16(page, 0, cast::usize_to_u16(self.entries.len()));
        if let Some(b) = page.get_mut(2) {
            *b = self.level;
        }
        if let Some(gap) = page.get_mut(3..NODE_ENTRIES_OFF) {
            gap.fill(0);
        }
        write_entries(
            &self.entries,
            page.get_mut(NODE_ENTRIES_OFF..).unwrap_or_default(),
        );
    }

    /// Parse the entry array of a root page (level/count come from the
    /// header, already parsed into `hdr`).
    pub fn read_root(page: &[u8], hdr: &RootHdr) -> Node {
        let n = usize::from(hdr.n_entries);
        assert!(n <= ROOT_MAX_ENTRIES, "corrupt root: {n} entries");
        let mut entries = Vec::with_capacity(n);
        for i in 0..n {
            let at = ROOT_ENTRIES_OFF + i * 8;
            entries.push(Entry {
                count: u64::from(get_u32(page, at)),
                ptr: get_u32(page, at + 4),
            });
        }
        Node {
            level: hdr.level,
            entries,
        }
    }

    /// Serialize entries into a root page and refresh the header fields
    /// that the tree owns (level, n_entries).
    pub fn write_root(&self, page: &mut [u8], hdr: &mut RootHdr) {
        assert!(self.entries.len() <= ROOT_MAX_ENTRIES, "root overflow");
        hdr.level = self.level;
        hdr.n_entries = cast::usize_to_u16(self.entries.len());
        hdr.write(page);
        write_entries(
            &self.entries,
            page.get_mut(ROOT_ENTRIES_OFF..).unwrap_or_default(),
        );
    }
}

/// [`Node::find_child`] over a bare entry list (Starburst's descriptor is
/// one: the segment holding byte `off` starts at `off - within`).
pub(crate) fn find_child(entries: &[Entry], off: u64) -> (usize, u64) {
    assert!(!entries.is_empty(), "find_child on empty node");
    let mut rem = off;
    for (i, e) in entries.iter().enumerate() {
        if rem < e.count {
            return (i, rem);
        }
        rem = rem.saturating_sub(e.count);
    }
    let last = entries.len() - 1;
    assert!(rem == 0, "offset beyond node total");
    (last, entries.last().map_or(0, |e| e.count))
}

fn write_entries(entries: &[Entry], out: &mut [u8]) {
    for (i, e) in entries.iter().enumerate() {
        assert!(e.count <= u64::from(u32::MAX), "count exceeds on-page u32");
        put_u32(out, i * 8, cast::to_u32(e.count));
        put_u32(out, i * 8 + 4, e.ptr);
    }
}

/// The root-page header shared by the tree-based managers (and reused, with
/// its own magic, by Starburst's descriptor page).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct RootHdr {
    pub magic: u32,
    pub kind: u8,
    pub level: u8,
    pub n_entries: u16,
    /// Current object size in bytes.
    pub size: u64,
    /// Manager-specific parameter word (ESM leaf pages; EOS threshold;
    /// Starburst max segment pages).
    pub params: u64,
    /// Pages *allocated* to the rightmost segment (which may exceed the
    /// pages *used*, while an object is being built by appends). 0 when
    /// the last segment is exact.
    pub last_seg_alloc: u32,
    /// First page of the segment `last_seg_alloc` refers to, so the
    /// over-allocation can be attributed (and freed) safely even after
    /// structural changes. Meaningless when `last_seg_alloc == 0`.
    pub last_seg_ptr: u32,
}

impl RootHdr {
    /// Parse the header fields of a root page.
    pub fn read(page: &[u8]) -> RootHdr {
        RootHdr {
            magic: get_u32(page, 0),
            kind: page.get(4).copied().unwrap_or(0),
            level: page.get(5).copied().unwrap_or(0),
            n_entries: get_u16(page, 6),
            size: get_u64(page, 8),
            params: get_u64(page, 16),
            last_seg_alloc: get_u32(page, 24),
            last_seg_ptr: get_u32(page, 28),
        }
    }

    /// Serialize the header fields into a root page.
    pub fn write(&self, page: &mut [u8]) {
        put_u32(page, 0, self.magic);
        if let Some(b) = page.get_mut(4) {
            *b = self.kind;
        }
        if let Some(b) = page.get_mut(5) {
            *b = self.level;
        }
        put_u16(page, 6, self.n_entries);
        put_u64(page, 8, self.size);
        put_u64(page, 16, self.params);
        put_u32(page, 24, self.last_seg_alloc);
        put_u32(page, 28, self.last_seg_ptr);
        if let Some(gap) = page.get_mut(32..ROOT_ENTRIES_OFF) {
            gap.fill(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(count: u64, ptr: u32) -> Entry {
        Entry { count, ptr }
    }

    #[test]
    fn capacities_match_the_paper() {
        assert_eq!(NODE_MAX_ENTRIES, 511);
        assert_eq!(ROOT_MAX_ENTRIES, 507);
    }

    #[test]
    fn node_page_roundtrip() {
        let mut n = Node::new(2);
        for i in 0..100 {
            n.entries.push(entry(u64::from(i) * 13 + 1, 1000 + i));
        }
        let mut page = [0u8; PAGE_SIZE];
        n.write_page(&mut page);
        let back = Node::read_page(&page);
        assert_eq!(back, n);
    }

    #[test]
    fn root_page_roundtrip() {
        let mut hdr = RootHdr {
            magic: 0x1234_5678,
            kind: 2,
            level: 1,
            n_entries: 0,
            size: 98_765,
            params: 16,
            last_seg_alloc: 7,
            last_seg_ptr: 0,
        };
        let mut n = Node::new(1);
        n.entries.push(entry(500, 3));
        n.entries.push(entry(98_265, 9));
        let mut page = [0u8; PAGE_SIZE];
        n.write_root(&mut page, &mut hdr);
        let hdr2 = RootHdr::read(&page);
        assert_eq!(hdr2, hdr);
        assert_eq!(hdr2.n_entries, 2);
        let back = Node::read_root(&page, &hdr2);
        assert_eq!(back, n);
    }

    #[test]
    fn find_child_walks_counts() {
        let mut n = Node::new(0);
        n.entries = vec![entry(900, 1), entry(930, 2)];
        assert_eq!(n.total(), 1830); // the paper's Figure 1 example
        assert_eq!(n.find_child(0), (0, 0));
        assert_eq!(n.find_child(899), (0, 899));
        assert_eq!(n.find_child(900), (1, 0));
        assert_eq!(n.find_child(1829), (1, 929));
        // Append position: one past the end.
        assert_eq!(n.find_child(1830), (1, 930));
        assert_eq!(n.offset_of(1), 900);
    }

    #[test]
    #[should_panic(expected = "offset beyond node total")]
    fn find_child_rejects_far_offsets() {
        let mut n = Node::new(0);
        n.entries = vec![entry(10, 1)];
        n.find_child(11);
    }

    #[test]
    fn full_capacity_roundtrip() {
        let mut n = Node::new(0);
        for i in 0..NODE_MAX_ENTRIES {
            n.entries.push(entry(1, i as u32));
        }
        let mut page = [0u8; PAGE_SIZE];
        n.write_page(&mut page);
        assert_eq!(Node::read_page(&page).entries.len(), NODE_MAX_ENTRIES);
    }
}

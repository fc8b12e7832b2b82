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

    /// [`find_child`] over this node's entries, without the entry.
    #[cfg(test)]
    pub fn find_child(&self, off: u64) -> (usize, u64) {
        let (idx, within, _) = find_child(self.entries.iter().copied(), off);
        (idx, within)
    }

    /// Byte offset (relative to this node) at which entry `idx` starts.
    #[cfg(test)]
    pub fn offset_of(&self, idx: usize) -> u64 {
        self.entries[..idx].iter().map(|e| e.count).sum()
    }

    /// Parse an interior node page.
    pub fn read_page(page: &[u8]) -> Node {
        NodeView::of_page(page).to_node()
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
        NodeView::of_root(page, hdr).to_node()
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

/// The pair array of an index page, searched where it lies: a descent has
/// the page fixed in the pool anyway, so it decodes only the pairs it walks
/// past instead of parsing all of them into a [`Node`] first. The view
/// borrows the page bytes, so it lives no longer than the frame latch they
/// were read under — nothing outlives a write to the page, nothing can go
/// stale. This is the only decoder of the on-page pair layout.
#[derive(Copy, Clone)]
pub(crate) struct NodeView<'a> {
    pub level: u8,
    /// Exactly `n_entries` 8-byte `(count u32, ptr u32)` pairs.
    pairs: &'a [u8],
}

impl<'a> NodeView<'a> {
    /// View an interior node page.
    pub fn of_page(page: &'a [u8]) -> Self {
        let n = usize::from(get_u16(page, 0));
        assert!(n <= NODE_MAX_ENTRIES, "corrupt node: {n} entries");
        NodeView {
            level: page.get(2).copied().unwrap_or(0),
            pairs: page
                .get(NODE_ENTRIES_OFF..NODE_ENTRIES_OFF + n * 8)
                .unwrap_or_default(),
        }
    }

    /// View the entry array of a root page (level/count come from the
    /// header, already parsed into `hdr`).
    pub fn of_root(page: &'a [u8], hdr: &RootHdr) -> Self {
        let n = usize::from(hdr.n_entries);
        assert!(n <= ROOT_MAX_ENTRIES, "corrupt root: {n} entries");
        NodeView {
            level: hdr.level,
            pairs: page
                .get(ROOT_ENTRIES_OFF..ROOT_ENTRIES_OFF + n * 8)
                .unwrap_or_default(),
        }
    }

    /// Whether the node has no entries.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The entries in page order, decoded as they are reached.
    pub fn iter(&self) -> impl Iterator<Item = Entry> + 'a {
        self.pairs.chunks_exact(8).map(|pair| Entry {
            count: u64::from(get_u32(pair, 0)),
            ptr: get_u32(pair, 4),
        })
    }

    /// Total bytes under this node.
    pub fn total(&self) -> u64 {
        self.iter().map(|e| e.count).sum()
    }

    /// [`find_child`] over the page's pairs.
    pub fn find_child(&self, off: u64) -> (usize, u64, Entry) {
        find_child(self.iter(), off)
    }

    /// The owned form, for paths that go on to change the node.
    pub fn to_node(self) -> Node {
        Node {
            level: self.level,
            entries: self.iter().collect(),
        }
    }
}

/// Locate the child holding byte `off` among `entries` (a node's, or
/// Starburst's descriptor: the segment holding byte `off` starts at
/// `off - within`); `off` equal to their total selects the last child with
/// its full count as the in-child offset (the append position). Returns
/// `(entry index, offset within that child, the entry)`.
///
/// # Panics
/// If there are no entries or `off` exceeds their total.
pub(crate) fn find_child(
    entries: impl IntoIterator<Item = Entry>,
    off: u64,
) -> (usize, u64, Entry) {
    let mut rem = off;
    let mut last = None;
    for (i, e) in entries.into_iter().enumerate() {
        if rem < e.count {
            return (i, rem, e);
        }
        rem = rem.saturating_sub(e.count);
        last = Some((i, e));
    }
    let Some((i, e)) = last else {
        panic!("find_child on empty node");
    };
    assert!(rem == 0, "offset beyond node total");
    (i, e.count, e)
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

    /// What a call returned, or the message it panicked with.
    fn outcome<T>(f: impl FnOnce() -> T) -> Result<T, String> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|p| {
            p.downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(ToString::to_string))
                .unwrap_or_default()
        })
    }

    /// Write `node` as a root or interior page and check the view of that
    /// page against the node at every offset where the two could differ.
    fn check_view_against_node(root: bool, node: &Node) {
        let mut page = [0u8; PAGE_SIZE];
        let mut hdr = RootHdr::read(&page);
        let view = if root {
            node.write_root(&mut page, &mut hdr);
            hdr = RootHdr::read(&page);
            NodeView::of_root(&page, &hdr)
        } else {
            node.write_page(&mut page);
            NodeView::of_page(&page)
        };
        assert_eq!(view.level, node.level);
        assert_eq!(view.is_empty(), node.entries.is_empty());
        assert!(view.iter().eq(node.entries.iter().copied()));
        assert_eq!(view.total(), node.total());
        assert_eq!(&view.to_node(), node);

        // 0, every entry boundary ± 1, the append position and one past it.
        let total = node.total();
        let mut probes = vec![0, total, total + 1];
        let mut boundary = 0u64;
        for e in &node.entries {
            boundary += e.count;
            probes.extend([boundary.saturating_sub(1), boundary, boundary + 1]);
        }
        for off in probes {
            let want = outcome(|| {
                let (idx, within) = node.find_child(off);
                (idx, within, node.entries[idx])
            });
            assert_eq!(
                outcome(|| view.find_child(off)),
                want,
                "offset {off} of {total}"
            );
            if node.entries.is_empty() {
                assert_eq!(want, Err("find_child on empty node".to_string()));
            } else if off > total {
                assert_eq!(want, Err("offset beyond node total".to_string()));
            } else {
                assert!(want.is_ok(), "offset {off} of {total}: {want:?}");
            }
        }
    }

    #[test]
    fn view_of_a_written_page_equals_the_node() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // The full-page sweeps are the slow part unoptimized (ci.sh runs
        // this module in release too).
        let seeds = if cfg!(debug_assertions) { 4 } else { 64 };
        for seed in 0..seeds {
            let mut rng = StdRng::seed_from_u64(seed);
            for (root, cap) in [(true, ROOT_MAX_ENTRIES), (false, NODE_MAX_ENTRIES)] {
                for n in [0, 1, 2, cap] {
                    let mut node = Node::new(rng.gen_range(0..4u8));
                    for _ in 0..n {
                        let count = match rng.gen_range(0..8u8) {
                            0 | 1 => 0,
                            2 => u64::from(u32::MAX),
                            _ => rng.gen_range(1..=3 * PAGE_SIZE as u64),
                        };
                        node.entries.push(entry(count, rng.gen()));
                    }
                    check_view_against_node(root, &node);
                }
            }
        }
    }

    #[test]
    fn entry_count_above_capacity_is_corruption() {
        let mut page = [0u8; PAGE_SIZE];
        put_u16(&mut page, 0, (NODE_MAX_ENTRIES + 1) as u16);
        assert_eq!(
            outcome(|| NodeView::of_page(&page).total()),
            Err("corrupt node: 512 entries".to_string())
        );
        let mut hdr = RootHdr::read(&page);
        hdr.n_entries = (ROOT_MAX_ENTRIES + 1) as u16;
        assert_eq!(
            outcome(|| NodeView::of_root(&page, &hdr).total()),
            Err("corrupt root: 508 entries".to_string())
        );
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

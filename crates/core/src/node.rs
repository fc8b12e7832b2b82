//! In-memory representation and page layout of positional-tree nodes.
//!
//! ESM and EOS index their leaf segments with the same tree of
//! `(count, pointer)` pairs (§2.1, §2.3): entry *i* of a node records how
//! many object bytes live in the subtree (or leaf segment) it points to.
//! Starburst's descriptor (§2.2) is a root of that tree that stays at
//! level 0.
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
//!                                │ 28..32 last_seg_ptr     u32  │
//!                                │ 32..40 reserved              │
//! (4096−8)/8  = 511 pairs        │ 40..   entries               │
//!                                └──────────────────────────────┘
//!                                (4096−40)/8 = 507 pairs
//! ```
//!
//! matching the paper's 511/507 pair capacities (§4.1).

use lobstore_simdisk::{cast, pages_for_bytes, PAGE_SIZE};

use crate::error::{LobError, Result};
use crate::layout::{get_u16, get_u32, get_u64, put_u16, put_u32, put_u64};
use crate::object::StorageKind;

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
    pub fn find_child(&self, off: u64) -> Result<(usize, u64)> {
        let (idx, within, _) = find_child(self.entries.iter().copied(), off)?;
        Ok((idx, within))
    }

    /// Byte offset (relative to this node) at which entry `idx` starts.
    #[cfg(test)]
    pub fn offset_of(&self, idx: usize) -> u64 {
        self.entries[..idx].iter().map(|e| e.count).sum()
    }

    /// Parse an interior node page.
    pub fn read_page(page: &[u8]) -> Result<Node> {
        NodeView::of_page(page).map(NodeView::to_node)
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
        let n = self.entries.len();
        NodeMut {
            page,
            at: INTERIOR,
            n,
        }
        .encode(0, &self.entries);
    }

    /// Parse the entry array of a root page (level/count come from the
    /// header, already parsed into `hdr`).
    pub fn read_root(page: &[u8], hdr: &RootHdr) -> Result<Node> {
        NodeView::of_root(page, hdr).map(NodeView::to_node)
    }

    /// Serialize entries into a root page and refresh the header fields
    /// that the tree owns (level, n_entries).
    pub fn write_root(&self, page: &mut [u8], hdr: &mut RootHdr) {
        assert!(self.entries.len() <= ROOT_MAX_ENTRIES, "root overflow");
        hdr.level = self.level;
        hdr.n_entries = cast::usize_to_u16(self.entries.len());
        hdr.write(page);
        let n = self.entries.len();
        NodeMut { page, at: ROOT, n }.encode(0, &self.entries);
    }
}

/// The pair array of an index page, searched where it lies: a descent has
/// the page fixed in the pool anyway, so it decodes only the pairs it walks
/// past instead of parsing all of them into a [`Node`] first. The view
/// borrows the page bytes, so it lives no longer than the frame latch they
/// were read under — nothing outlives a write to the page, nothing can go
/// stale. This is the only decoder of the on-page pair layout, and it is
/// total: a pair count above the page's capacity is [`LobError::Corrupt`].
#[derive(Copy, Clone)]
pub(crate) struct NodeView<'a> {
    pub level: u8,
    /// Exactly `n_entries` 8-byte `(count u32, ptr u32)` pairs.
    pairs: &'a [u8],
}

impl<'a> NodeView<'a> {
    /// View an interior node page.
    pub fn of_page(page: &'a [u8]) -> Result<Self> {
        let level = page.get(INTERIOR.level_at).copied().unwrap_or(0);
        Self::of(page, INTERIOR, get_u16(page, INTERIOR.len_at), level)
    }

    /// View the entry array of a root page (level/count come from the
    /// header, already parsed into `hdr`).
    pub fn of_root(page: &'a [u8], hdr: &RootHdr) -> Result<Self> {
        Self::of(page, ROOT, hdr.n_entries, hdr.level)
    }

    /// The first `n` pairs of a page in `at`'s layout: `Corrupt` when they
    /// do not fit its capacity. (Pages are `PAGE_SIZE` long, so `n` pairs
    /// within the capacity lie inside the page.)
    fn of(page: &'a [u8], at: Layout, n: u16, level: u8) -> Result<Self> {
        let n = usize::from(n);
        if n > at.cap {
            return Err(LobError::Corrupt(format!(
                "{} of {n} entries, above its capacity of {}",
                at.name, at.cap
            )));
        }
        let pairs = page.get(at.pairs_at..at.pairs_at + n * 8);
        Ok(NodeView {
            level,
            pairs: pairs.unwrap_or_default(),
        })
    }

    /// Whether the node has no entries.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Number of entries (the page's `n_entries`).
    pub fn len(&self) -> usize {
        self.pairs.len() / 8
    }

    /// Entry `i`, if the node has that many.
    pub fn get(&self, i: usize) -> Option<Entry> {
        let at = i.checked_mul(8)?;
        self.pairs.get(at..at.checked_add(8)?).map(decode_pair)
    }

    /// The entries in page order, decoded as they are reached.
    pub fn iter(&self) -> impl Iterator<Item = Entry> + 'a {
        self.pairs.chunks_exact(8).map(decode_pair)
    }

    /// The entries from index `i` on, in page order (none when `i` is at
    /// or past the end): a slice of the page, not a walk past the first `i`.
    pub fn iter_from(&self, i: usize) -> impl Iterator<Item = Entry> + 'a {
        let at = i.saturating_mul(8).min(self.pairs.len());
        self.pairs
            .get(at..)
            .unwrap_or_default()
            .chunks_exact(8)
            .map(decode_pair)
    }

    /// [`find_child`] over the page's pairs.
    pub fn find_child(&self, off: u64) -> Result<(usize, u64, Entry)> {
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
/// `(entry index, offset within that child, the entry)`, or `Corrupt`
/// when there are no entries or `off` exceeds their total: callers
/// range-check `off` against the object size first, so either means the
/// counts on the page disagree with it.
pub(crate) fn find_child(
    entries: impl IntoIterator<Item = Entry>,
    off: u64,
) -> Result<(usize, u64, Entry)> {
    let mut rem = off;
    let mut last = None;
    for (i, e) in entries.into_iter().enumerate() {
        if rem < e.count {
            return Ok((i, rem, e));
        }
        rem = rem.saturating_sub(e.count);
        last = Some((i, e));
    }
    match last {
        Some((i, e)) if rem == 0 => Ok((i, e.count, e)),
        Some(_) => Err(LobError::Corrupt(format!(
            "offset {off} lies {rem} bytes beyond its node"
        ))),
        None => Err(LobError::Corrupt(format!(
            "offset {off} searched in a node with no entries"
        ))),
    }
}

/// One 8-byte `(count u32, ptr u32)` pair.
fn decode_pair(pair: &[u8]) -> Entry {
    Entry {
        count: u64::from(get_u32(pair, 0)),
        ptr: get_u32(pair, 4),
    }
}

/// `count + delta`: how every count moves by a signed amount.
///
/// # Panics
/// If the result would be negative.
pub(crate) fn add_signed(count: u64, delta: i64) -> u64 {
    let Some(moved) = count.checked_add_signed(delta) else {
        panic!("count underflow");
    };
    moved
}

/// Where the fields a [`NodeMut`] edits lie on its page.
#[derive(Copy, Clone)]
struct Layout {
    /// Offset of the `n_entries` u16.
    len_at: usize,
    /// Offset of the level byte.
    level_at: usize,
    /// Offset of the pair array.
    pairs_at: usize,
    /// Physical pair capacity.
    cap: usize,
    /// What the page is, for the assert messages.
    name: &'static str,
}

const INTERIOR: Layout = Layout {
    len_at: 0,
    level_at: 2,
    pairs_at: NODE_ENTRIES_OFF,
    cap: NODE_MAX_ENTRIES,
    name: "node",
};

const ROOT: Layout = Layout {
    len_at: 6,
    level_at: 5,
    pairs_at: ROOT_ENTRIES_OFF,
    cap: ROOT_MAX_ENTRIES,
    name: "root",
};

/// [`NodeView`]'s write twin: an index page edited where its pairs lie,
/// its pair count read once, when it is opened.
/// An update changes one or a few pairs of a node of up to 511, so a
/// splice moves the pairs behind the edit once (`copy_within`) and encodes
/// only the new ones, instead of decoding every pair into a [`Node`] and
/// encoding every pair back. Bytes past `n_entries` stay as they were,
/// exactly as the whole-node encode left them. The level and the rest of
/// the header are not touched. This is the only encoder of the on-page
/// pair layout: [`Node::write_page`] and [`Node::write_root`] go through
/// it too.
pub(crate) struct NodeMut<'a> {
    page: &'a mut [u8],
    at: Layout,
    /// The page's `n_entries`, at most `at.cap`.
    n: usize,
}

impl<'a> NodeMut<'a> {
    /// Edit an interior node page: `Corrupt` if its pair count is above
    /// the capacity.
    pub fn of_page(page: &'a mut [u8]) -> Result<Self> {
        let n = NodeView::of_page(page)?.len();
        Ok(NodeMut {
            page,
            at: INTERIOR,
            n,
        })
    }

    /// Edit the entry array of a root page (its `n_entries` header field
    /// included): `Corrupt` if that count is above the capacity.
    pub fn of_root(page: &'a mut [u8]) -> Result<Self> {
        let n = NodeView::of_root(page, &RootHdr::read(page))?.len();
        Ok(NodeMut { page, at: ROOT, n })
    }

    /// The page's pairs, read where they lie.
    fn view(&self) -> NodeView<'_> {
        let at = self.at.pairs_at;
        NodeView {
            level: 0,
            pairs: self.page.get(at..at + self.n * 8).unwrap_or_default(),
        }
    }

    fn len(&self) -> usize {
        self.n
    }

    /// Entry `i`.
    ///
    /// # Panics
    /// If the node has no entry `i`.
    fn entry(&self, i: usize) -> Entry {
        let Some(e) = self.view().get(i) else {
            panic!("no pair {i} in a {} of {} pairs", self.at.name, self.len());
        };
        e
    }

    /// Replace pairs `at..at + remove` with `repl` and return the change
    /// in the node's byte count (`repl`'s counts less the removed ones').
    ///
    /// # Panics
    /// If the range runs past the last pair, the node would outgrow the
    /// page, or a count exceeds the on-page `u32`.
    pub fn splice(&mut self, at: usize, remove: usize, repl: &[Entry]) -> i64 {
        let n = self.len();
        let end = at + remove;
        assert!(
            end <= n,
            "splice {at}..{end} of a {} of {n} pairs",
            self.at.name
        );
        let new_n = n - remove + repl.len();
        assert!(new_n <= self.at.cap, "{} overflow", self.at.name);
        let removed: u64 = self
            .view()
            .iter()
            .skip(at)
            .take(remove)
            .map(|e| e.count)
            .sum();
        if repl.len() != remove {
            let pairs = self.page.get_mut(self.at.pairs_at..).unwrap_or_default();
            pairs.copy_within(end * 8..n * 8, (at + repl.len()) * 8);
        }
        self.encode(at, repl);
        put_u16(self.page, self.at.len_at, cast::usize_to_u16(new_n));
        self.n = new_n;
        let added: u64 = repl.iter().map(|e| e.count).sum();
        added as i64 - removed as i64
    }

    /// Add `delta` to entry `i`'s count.
    ///
    /// # Panics
    /// If there is no entry `i`, or the count would drop below zero or
    /// exceed the on-page `u32`.
    pub fn add_count(&mut self, i: usize, delta: i64) {
        let mut e = self.entry(i);
        e.count = add_signed(e.count, delta);
        self.encode(i, &[e]);
    }

    /// Point entry `i` at `ptr`.
    ///
    /// # Panics
    /// If there is no entry `i`.
    pub fn set_ptr(&mut self, i: usize, ptr: u32) {
        let e = self.entry(i);
        self.encode(i, &[Entry { ptr, ..e }]);
    }

    /// Write `entries` as pairs `at..at + entries.len()`: the one place the
    /// pair layout is written.
    fn encode(&mut self, at: usize, entries: &[Entry]) {
        let out = self.page.get_mut(self.at.pairs_at..).unwrap_or_default();
        for (i, e) in (at..).zip(entries) {
            assert!(e.count <= u64::from(u32::MAX), "count exceeds on-page u32");
            put_u32(out, i * 8, cast::to_u32(e.count));
            put_u32(out, i * 8 + 4, e.ptr);
        }
    }
}

/// The root-page header of all three managers (Starburst's descriptor
/// page carries it too, with its own magic).
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
    /// structural changes. EOS and Starburst set it whenever they set
    /// `last_seg_alloc`, and move it when they shadow that segment.
    /// Meaningless when `last_seg_alloc == 0`.
    pub last_seg_ptr: u32,
}

impl RootHdr {
    /// The header of a new, empty `kind` root with parameter word `params`.
    pub fn new(kind: StorageKind, params: u64) -> RootHdr {
        RootHdr {
            magic: Self::magic(kind),
            kind: kind.as_u8(),
            level: 0,
            n_entries: 0,
            size: 0,
            params,
            last_seg_alloc: 0,
            last_seg_ptr: 0,
        }
    }

    /// Whether `entry` is the over-allocated rightmost segment.
    pub fn flags(&self, entry: &Entry) -> bool {
        self.last_seg_alloc > 0 && self.last_seg_ptr == entry.ptr
    }

    /// Pages allocated to the segment behind `entry`: the flagged one's
    /// over-allocation, else the pages its bytes use.
    pub fn alloc_of(&self, entry: &Entry) -> u32 {
        if self.flags(entry) {
            self.last_seg_alloc
        } else {
            pages_for_bytes(entry.count)
        }
    }

    /// The magic a `kind` root starts with.
    pub fn magic(kind: StorageKind) -> u32 {
        match kind {
            StorageKind::Esm => 0x4553_4D31,       // "ESM1"
            StorageKind::Eos => 0x454F_5331,       // "EOS1"
            StorageKind::Starburst => 0x5354_4152, // "STAR"
        }
    }

    /// Check that this header, read from `page`, heads an object root:
    /// its magic and kind byte name the same scheme — `kind` when given
    /// (a manager's `open`), else the one the kind byte names (a pinned
    /// cursor). Returns that scheme, or the error its `open` returns.
    pub fn check_root(&self, page: u32, kind: Option<StorageKind>) -> crate::Result<StorageKind> {
        let Some(kind) = kind.or(StorageKind::from_u8(self.kind)) else {
            return Err(LobError::Corrupt(format!(
                "page {page} is not an object root (kind {})",
                self.kind
            )));
        };
        if self.magic == Self::magic(kind) && self.kind == kind.as_u8() {
            return Ok(kind);
        }
        Err(LobError::Corrupt(format!(
            "page {page} is not {}",
            match kind {
                StorageKind::Esm => "an ESM object root",
                StorageKind::Eos => "an EOS object root",
                StorageKind::Starburst => "a Starburst descriptor",
            }
        )))
    }

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
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    fn entry(count: u64, ptr: u32) -> Entry {
        Entry { count, ptr }
    }

    /// Flip bit `b % (8 * len)` of `page` for every `b` in `bits`.
    fn flip(page: &mut [u8], bits: &[u32]) {
        for &b in bits {
            let b = b as usize % (page.len() * 8);
            page[b / 8] ^= 1 << (b % 8);
        }
    }

    /// Decode `page` as an interior node: `Corrupt` exactly when its
    /// count is above the capacity; an `Ok` view has the header's count
    /// and level, and writing its node back gives the page's bytes
    /// (the reserved header bytes aside). The owned and in-place forms
    /// agree.
    fn check_node_page(page: &[u8]) {
        let n = usize::from(get_u16(page, 0));
        let view = NodeView::of_page(page);
        assert_eq!(view.is_ok(), n <= NODE_MAX_ENTRIES, "{n} entries");
        let mut copy = page.to_vec();
        assert_eq!(
            NodeMut::of_page(&mut copy).map(|m| m.len()).ok(),
            view.as_ref().map(|v| v.len()).ok()
        );
        let Ok(view) = view else {
            assert!(Node::read_page(page).is_err());
            return;
        };
        assert_eq!((view.len(), view.level), (n, page[2]));
        let node = view.to_node();
        assert_eq!(Node::read_page(page).unwrap(), node);
        node.write_page(&mut copy);
        assert_eq!((&copy[..3], &copy[8..]), (&page[..3], &page[8..]));
    }

    /// [`check_node_page`] for a root page: its header re-encodes to its
    /// bytes, the view of its pairs is `Corrupt` exactly when the header
    /// counts more than a root holds, and `check_root` accepts a scheme
    /// only when magic and kind byte both name it.
    fn check_root_page(page: &[u8]) {
        let hdr = RootHdr::read(page);
        let mut copy = page.to_vec();
        hdr.write(&mut copy);
        assert_eq!(&copy[..32], &page[..32]);
        for want in [
            None,
            Some(StorageKind::Esm),
            Some(StorageKind::Eos),
            Some(StorageKind::Starburst),
        ] {
            if let Ok(kind) = hdr.check_root(9, want) {
                assert!(want.is_none_or(|w| w == kind));
                assert_eq!((hdr.magic, hdr.kind), (RootHdr::magic(kind), kind.as_u8()));
            }
        }
        let n = usize::from(hdr.n_entries);
        let view = NodeView::of_root(page, &hdr);
        assert_eq!(view.is_ok(), n <= ROOT_MAX_ENTRIES, "{n} entries");
        let mut copy = page.to_vec();
        assert_eq!(
            NodeMut::of_root(&mut copy).map(|m| m.len()).ok(),
            view.as_ref().map(|v| v.len()).ok()
        );
        let Ok(view) = view else {
            assert!(Node::read_root(page, &hdr).is_err());
            return;
        };
        assert_eq!((view.len(), view.level), (n, hdr.level));
        let node = view.to_node();
        assert_eq!(Node::read_root(page, &hdr).unwrap(), node);
        node.write_root(&mut copy, &mut hdr.clone());
        assert_eq!((&copy[..32], &copy[40..]), (&page[..32], &page[40..]));
    }

    /// A random page, a node of up to 512 random pairs at a random level,
    /// and bits to flip.
    type PageNodeFlips = (Vec<u8>, (u8, Vec<(u32, u32)>), Vec<u32>);

    fn page_node_flips() -> impl Strategy<Value = PageNodeFlips> {
        (
            proptest::collection::vec(any::<u8>(), PAGE_SIZE..PAGE_SIZE + 1),
            (
                any::<u8>(),
                proptest::collection::vec((any::<u32>(), any::<u32>()), 0..512),
            ),
            proptest::collection::vec(any::<u32>(), 1..8),
        )
    }

    fn node_of(level: u8, pairs: &[(u32, u32)], cap: usize) -> Node {
        Node {
            level,
            entries: pairs
                .iter()
                .take(cap)
                .map(|&(c, p)| entry(u64::from(c), p))
                .collect(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: if cfg!(debug_assertions) { 64 } else { 256 },
            ..ProptestConfig::default()
        })]
        /// The interior-node decoders are total over arbitrary pages,
        /// valid node pages written over them, and those with bits
        /// flipped: a consistent `Ok` or `Corrupt`, never a panic.
        #[test]
        fn node_pages_decode_totally((noise, (level, pairs), flips) in page_node_flips()) {
            check_node_page(&noise);
            let mut page = noise.clone();
            node_of(level, &pairs, NODE_MAX_ENTRIES).write_page(&mut page);
            check_node_page(&page);
            flip(&mut page, &flips);
            check_node_page(&page);
        }

        /// The root decoders — header, `check_root` and the pair view, the
        /// Starburst descriptor's segment list included — are total over
        /// the same three kinds of page.
        #[test]
        fn root_pages_decode_totally((noise, (level, pairs), flips) in page_node_flips()) {
            check_root_page(&noise);
            let kind = StorageKind::from_u8(level % 3 + 1).unwrap();
            let mut hdr = RootHdr::new(kind, u64::from(pairs.len() as u32));
            let mut page = noise.clone();
            node_of(level, &pairs, ROOT_MAX_ENTRIES).write_root(&mut page, &mut hdr);
            check_root_page(&page);
            flip(&mut page, &flips);
            check_root_page(&page);
        }
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
        let back = Node::read_page(&page).unwrap();
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
        let back = Node::read_root(&page, &hdr2).unwrap();
        assert_eq!(back, n);
    }

    #[test]
    fn find_child_walks_counts() {
        let mut n = Node::new(0);
        n.entries = vec![entry(900, 1), entry(930, 2)];
        assert_eq!(n.total(), 1830); // the paper's Figure 1 example
        assert_eq!(n.find_child(0), Ok((0, 0)));
        assert_eq!(n.find_child(899), Ok((0, 899)));
        assert_eq!(n.find_child(900), Ok((1, 0)));
        assert_eq!(n.find_child(1829), Ok((1, 929)));
        // Append position: one past the end.
        assert_eq!(n.find_child(1830), Ok((1, 930)));
        assert_eq!(n.offset_of(1), 900);
    }

    #[test]
    fn find_child_rejects_far_offsets_as_corruption() {
        let mut n = Node::new(0);
        let corrupt = |m: &str| Err(LobError::Corrupt(m.to_string()));
        assert_eq!(
            n.find_child(0),
            corrupt("offset 0 searched in a node with no entries")
        );
        n.entries = vec![entry(10, 1)];
        assert_eq!(
            n.find_child(11),
            corrupt("offset 11 lies 1 bytes beyond its node")
        );
    }

    /// What a call returned, or the message it panicked with.
    fn outcome<T>(f: impl FnOnce() -> T) -> std::result::Result<T, String> {
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
            NodeView::of_root(&page, &hdr).unwrap()
        } else {
            node.write_page(&mut page);
            NodeView::of_page(&page).unwrap()
        };
        assert_eq!(view.level, node.level);
        assert_eq!(view.is_empty(), node.entries.is_empty());
        assert!(view.iter().eq(node.entries.iter().copied()));
        assert_eq!(view.iter().map(|e| e.count).sum::<u64>(), node.total());
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
            let want = node
                .find_child(off)
                .map(|(idx, within)| (idx, within, node.entries[idx]));
            assert_eq!(view.find_child(off), want, "offset {off} of {total}");
            let fits = !node.entries.is_empty() && off <= total;
            assert_eq!(want.is_ok(), fits, "offset {off} of {total}: {want:?}");
        }
    }

    fn random_entry(rng: &mut StdRng) -> Entry {
        let count = match rng.gen_range(0..8u8) {
            0 | 1 => 0,
            2 => u64::from(u32::MAX),
            _ => rng.gen_range(1..=3 * PAGE_SIZE as u64),
        };
        entry(count, rng.gen())
    }

    /// The owned path's entry `i`, panicking as `NodeMut` does when absent.
    fn pair_mut(entries: &mut [Entry], i: usize, root: bool) -> &mut Entry {
        let (n, name) = (entries.len(), ["node", "root"][usize::from(root)]);
        let Some(e) = entries.get_mut(i) else {
            panic!("no pair {i} in a {name} of {n} pairs");
        };
        e
    }

    /// Edit `node`, written as a root or interior page over noise, once in
    /// place and once through the owned path (decode, edit the `Vec`,
    /// encode all of it back), at every boundary: splices at the front,
    /// middle and back, removing nothing, one pair or the rest, inserting
    /// up to a full page and one past it, with and without a count the
    /// on-page `u32` cannot hold; count adds that underflow and overflow;
    /// pointer rewrites. The two must return the same delta or panic with
    /// the same message, and leave byte-identical pages — the stale pairs
    /// past `n_entries` included.
    fn check_edits_against_node(root: bool, node: &Node, rng: &mut StdRng) {
        let cap = if root {
            ROOT_MAX_ENTRIES
        } else {
            NODE_MAX_ENTRIES
        };
        let mut base = [0u8; PAGE_SIZE];
        rng.fill_bytes(&mut base);
        if root {
            let mut hdr = RootHdr::read(&base);
            node.write_root(&mut base, &mut hdr);
        } else {
            node.write_page(&mut base);
        }
        // Make one edit both ways and compare what they did.
        let twin = |label: &str,
                    in_place: &dyn Fn(&mut NodeMut<'_>) -> i64,
                    owned: &dyn Fn(&mut Vec<Entry>)| {
            let mut a = base;
            let got = outcome(|| {
                let mut view = if root {
                    NodeMut::of_root(&mut a).unwrap()
                } else {
                    NodeMut::of_page(&mut a).unwrap()
                };
                in_place(&mut view)
            });
            let mut b = base;
            let want = outcome(|| {
                let mut hdr = RootHdr::read(&b);
                let mut edited = if root {
                    Node::read_root(&b, &hdr).unwrap()
                } else {
                    Node::read_page(&b).unwrap()
                };
                owned(&mut edited.entries);
                let delta = edited.total() as i64 - node.total() as i64;
                if root {
                    edited.write_root(&mut b, &mut hdr);
                } else {
                    edited.write_page(&mut b);
                }
                delta
            });
            assert_eq!(got, want, "{label}");
            if got.is_ok() {
                assert!(a == b, "{label}: pages differ");
            }
        };
        let n = node.entries.len();
        let mut at = vec![0, n / 2, n];
        at.dedup();
        for &i in &at {
            let mut removes = vec![0, 1.min(n - i), n - i];
            removes.dedup();
            for &k in &removes {
                let room = cap - (n - k);
                let mut lens = vec![0, 1, 2, room, room + 1];
                lens.sort_unstable();
                lens.dedup();
                for r in lens {
                    let mut repl: Vec<Entry> = (0..r).map(|_| random_entry(rng)).collect();
                    for too_big in [false, true] {
                        if too_big {
                            let Some(last) = repl.last_mut() else {
                                continue;
                            };
                            last.count = u64::from(u32::MAX) + 1;
                        }
                        twin(
                            &format!("splice {i}..{} of {n} with {r}, too big {too_big}", i + k),
                            &|v| v.splice(i, k, &repl),
                            &|es| {
                                es.splice(i..i + k, repl.iter().copied());
                            },
                        );
                    }
                }
            }
        }
        for i in [0, n.saturating_sub(1), n] {
            let count = node.entries.get(i).map_or(0, |e| e.count) as i64;
            for delta in [1, -1, -count, -count - 1, i64::from(u32::MAX) - count + 1] {
                twin(
                    &format!("add {delta} to pair {i} of {n}"),
                    &|v| {
                        v.add_count(i, delta);
                        delta
                    },
                    &|es| {
                        let e = pair_mut(es, i, root);
                        e.count = add_signed(e.count, delta);
                    },
                );
            }
            let ptr = rng.gen();
            twin(
                &format!("point pair {i} of {n} at {ptr}"),
                &|v| {
                    v.set_ptr(i, ptr);
                    0
                },
                &|es| pair_mut(es, i, root).ptr = ptr,
            );
        }
    }

    #[test]
    fn view_of_a_written_page_equals_the_node() {
        // The full-page sweeps are the slow part unoptimized (ci.sh runs
        // this module in release too).
        let seeds = if cfg!(debug_assertions) { 4 } else { 64 };
        for seed in 0..seeds {
            let mut rng = StdRng::seed_from_u64(seed);
            for (root, cap) in [(true, ROOT_MAX_ENTRIES), (false, NODE_MAX_ENTRIES)] {
                for n in [0, 1, 2, cap] {
                    let mut node = Node::new(rng.gen_range(0..4u8));
                    node.entries = (0..n).map(|_| random_entry(&mut rng)).collect();
                    check_view_against_node(root, &node);
                    check_edits_against_node(root, &node, &mut rng);
                }
            }
        }
    }

    #[test]
    fn entry_count_above_capacity_is_corruption() {
        fn corrupt<T>(what: &str) -> Result<T> {
            Err(LobError::Corrupt(what.to_string()))
        }
        let mut page = [0u8; PAGE_SIZE];
        put_u16(&mut page, 0, (NODE_MAX_ENTRIES + 1) as u16);
        let node = "node of 512 entries, above its capacity of 511";
        assert_eq!(NodeView::of_page(&page).map(|v| v.len()), corrupt(node));
        assert_eq!(Node::read_page(&page), corrupt(node));
        assert_eq!(NodeMut::of_page(&mut page).map(|m| m.len()), corrupt(node));
        let mut hdr = RootHdr::read(&page);
        hdr.n_entries = 600;
        hdr.write(&mut page);
        let root = "root of 600 entries, above its capacity of 507";
        assert_eq!(
            NodeView::of_root(&page, &hdr).map(|v| v.len()),
            corrupt(root)
        );
        assert_eq!(Node::read_root(&page, &hdr), corrupt(root));
        assert_eq!(NodeMut::of_root(&mut page).map(|m| m.len()), corrupt(root));
    }

    #[test]
    fn full_capacity_roundtrip() {
        let mut n = Node::new(0);
        for i in 0..NODE_MAX_ENTRIES {
            n.entries.push(entry(1, i as u32));
        }
        let mut page = [0u8; PAGE_SIZE];
        n.write_page(&mut page);
        assert_eq!(
            Node::read_page(&page).unwrap().entries.len(),
            NODE_MAX_ENTRIES
        );
    }
}

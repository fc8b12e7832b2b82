//! The positional "count tree" of ESM and EOS (§2.1, §2.3), whose level-0
//! root is Starburst's descriptor too (§2.2).
//!
//! A B+-tree-like structure whose separators are byte counts rather than
//! keys: each `(count, ptr)` pair says how many object bytes live behind
//! `ptr`. Locating byte *N* walks one root-to-leaf path; structural
//! changes (leaf splits/merges) are confined to that path, so the cost of
//! any update is independent of the object size — the property the paper
//! credits ESM/EOS with in §4.6.
//!
//! The tree manages **index** nodes only. What a level-0 entry points at —
//! a fixed-size ESM leaf, a variable-size EOS segment or a Starburst
//! extent — is the storage manager's business; managers feed the tree
//! replacement entries and the tree keeps counts, fan-out bounds, and
//! balance. Starburst writes its descriptor itself (§3.5) and never
//! splits it.
//!
//! All index pages live in the META area. Every modified non-root node is
//! shadowed through the operation's [`OpCtx`] (§3.3); the root is updated
//! in place and left to the buffer pool.
//!
//! A manager descends once, from the offset its operation names; from
//! there it moves along the search path. A multi-leaf read or replace
//! descends once too. (A read cursor does not use this tree: it parses
//! the root once and refills below it, `crate::stream`.) [`PosTree::next`] and
//! [`PosTree::prev`] climb the path to the nearest ancestor with an entry
//! on that side and walk down from it, searching no pairs on the way.
//! [`PosTree::splice`] replaces a run of adjacent leaf entries one edit
//! at a time, each on the path the edit before it left: a path whose
//! every level was edited in place stays valid with its pages mapped to
//! the operation's shadow copies; after a split, merge, borrow or height
//! change the splice descends again. A walk fixes only the node it
//! climbed to and those below it, one fix a node.

use std::ops::Range;

use lobstore_buddy::Extent;
use lobstore_bufpool::{BufferPool, FrameRef};
use lobstore_simdisk::{cast, AreaId, PageId, PAGE_SIZE_U64};

use crate::db::Db;
use crate::error::{LobError, Result};
use crate::metrics;
use crate::node::{
    add_signed, Entry, Node, NodeMut, NodeView, RootHdr, NODE_MAX_ENTRIES, ROOT_MAX_ENTRIES,
};
use crate::object::{check_range, SegSpan, SegmentInfo, Utilization};
use crate::segdata::{patch_in_place, peek_segs, read_seg_bytes};
use crate::shadow::OpCtx;

/// One step of a root-to-leaf search path: the node's page, the entry
/// index taken in it and the node's pair count, read under the fix that
/// took the step. `path[0]` is always the root.
#[derive(Copy, Clone, Debug)]
pub(crate) struct PathStep {
    pub page: u32,
    pub idx: usize,
    pub len: usize,
}

/// Result of a byte-offset search.
#[derive(Clone, Debug)]
pub(crate) struct LeafPos {
    /// Search path, root first, ending at the leaf's parent (a level-0
    /// node).
    pub path: Vec<PathStep>,
    /// The leaf entry found.
    pub entry: Entry,
    /// Offset of the searched byte within the leaf (equal to the leaf's
    /// byte count when the search offset was the object size — the append
    /// position).
    pub off_in_leaf: u64,
    /// Object offset at which this leaf starts.
    pub leaf_start: u64,
}

impl LeafPos {
    /// Object offset one past the leaf's last byte.
    pub fn leaf_end(&self) -> u64 {
        self.leaf_start + self.entry.count
    }

    /// The start of leaf `entry`, reached by `path`, at object offset
    /// `leaf_start`.
    fn at_start(path: Vec<PathStep>, entry: Entry, leaf_start: u64) -> Self {
        LeafPos {
            path,
            entry,
            off_in_leaf: 0,
            leaf_start,
        }
    }

    /// Whether this is the object's last leaf, read off the path.
    pub fn is_last(&self) -> bool {
        self.path.iter().all(|s| s.idx + 1 == s.len)
    }
}

/// Where a [`PosTree::splice`] left the tree. Nothing is fixed until a
/// position is asked for: [`PosTree::first`] or [`PosTree::after`].
#[derive(Debug)]
pub(crate) struct Spliced {
    /// Object offset at which the replacements start.
    start: u64,
    /// The first replacement, if any.
    first: Option<Entry>,
    /// How many replacements there are, and their bytes.
    put: (usize, u64),
    /// Search path to the first replacement's slot, kept when every level
    /// of the last edit was made in place; `None` after a restructure.
    path: Option<Vec<PathStep>>,
}

/// Handle to one object's count tree, anchored at its root page.
#[derive(Copy, Clone, Debug)]
pub(crate) struct PosTree {
    pub root_page: u32,
}

impl PosTree {
    /// Wrap an existing root page in a tree handle.
    pub fn new(root_page: u32) -> Self {
        PosTree { root_page }
    }

    fn root_cap(&self, db: &Db) -> usize {
        db.config().tree.root_entries.min(ROOT_MAX_ENTRIES)
    }

    fn node_cap(&self, db: &Db) -> usize {
        db.config().tree.node_entries.min(NODE_MAX_ENTRIES)
    }

    fn node_min(&self, db: &Db) -> usize {
        self.node_cap(db) / 2
    }

    // ----- page access ---------------------------------------------------

    /// Read the object header stored on the root page.
    pub fn read_hdr(&self, db: &mut Db) -> Result<RootHdr> {
        db.with_meta_root(self.root_page, |hdr, _| *hdr)
    }

    /// Write the object header back to the root page.
    pub fn write_hdr(&self, db: &mut Db, hdr: &RootHdr) {
        db.with_meta_page_mut(self.root_page, |p| hdr.write(p));
    }

    /// Root header + entries by value, for the structural write paths
    /// (and Starburst's updates). Read-only walks step through
    /// [`Db::with_meta_root`]'s view instead.
    pub(crate) fn load_root(&self, db: &mut Db) -> Result<(RootHdr, Node)> {
        db.with_meta_root(self.root_page, |hdr, node| (*hdr, node.to_node()))
    }

    /// Write `node` back as the root, keeping the header fields the tree
    /// does not own (nothing writes them while a node is decoded).
    fn store_root(&self, db: &mut Db, node: &Node) {
        db.with_meta_page_mut(self.root_page, |p| {
            node.write_root(p, &mut RootHdr::read(p));
        });
    }

    fn load_node(&self, db: &mut Db, page: u32) -> Result<Node> {
        db.with_meta_node(page, |node| node.to_node())
    }

    fn store_node(&self, db: &mut Db, page: u32, node: &Node) {
        db.with_meta_page_mut(page, |p| node.write_page(p));
    }

    fn store_node_new(&self, db: &mut Db, page: u32, node: &Node) {
        db.with_new_meta_page(page, |p| node.write_page(p));
    }

    /// Fix index page `page` and run `f` on its pair array, in the root's
    /// layout if it is the root.
    fn view<R>(&self, db: &Db, page: u32, f: impl FnOnce(NodeView<'_>) -> R) -> Result<R> {
        if page == self.root_page {
            db.with_meta_root(page, |_, v| f(v))
        } else {
            db.with_meta_node(page, f)
        }
    }

    /// One level of an update on index page `page` (in the root's layout
    /// if it is the root). A read fix learns the node's level and the pair
    /// count `edit` would leave and asks `plain`; if it says yes, a write
    /// fix makes the edit where the pairs lie, otherwise the node comes
    /// back decoded, the edit not made. Those are the two fixes the
    /// decoding path took, so the pool sees the same sequence either way.
    fn edit_level(
        &self,
        db: &mut Db,
        page: u32,
        edit: &Edit,
        plain: impl FnOnce(usize, u8) -> bool,
    ) -> Result<Level> {
        let decoded = self.view(db, page, |v| {
            (!plain(edit.len_after(v.len()), v.level)).then(|| v.to_node())
        })?;
        if let Some(node) = decoded {
            return Ok(Level::Decoded(node));
        }
        db.with_meta_page_mut(page, |p| {
            let node = if page == self.root_page {
                NodeMut::of_root(p)
            } else {
                NodeMut::of_page(p)
            };
            node.map(|node| Level::Edited(edit.make(node)))
        })
    }

    // ----- search ---------------------------------------------------------

    /// Find the leaf containing byte `off` (`off == size` selects the
    /// rightmost leaf at its end). Returns `None` for an empty object,
    /// and `Corrupt` when `off` lies beyond the tree's counts (callers
    /// range-check it against the stored object size first).
    pub fn descend(&self, db: &mut Db, off: u64) -> Result<Option<LeafPos>> {
        self.descend_gated(db, |_, _| Ok(Some(off)))
    }

    /// The leaf holding byte `off` of a read of `[off, off + len)`
    /// (`len > 0`), range-checked against the header under the descent's
    /// own root fix: an out-of-range request fails with
    /// [`LobError::OutOfRange`] after that one fix and descends no
    /// further.
    pub fn descend_checked(&self, db: &mut Db, off: u64, len: u64) -> Result<LeafPos> {
        self.descend_gated(db, |hdr, _| {
            check_range(hdr.size, off, len).map(|_| Some(off))
        })?
        .ok_or_else(|| self.no_leaf(off))
    }

    /// The leaf holding byte `off`, where an insert puts its bytes,
    /// checked under the descent's root fix: `off` must lie in
    /// `[0, size]`, then `check` must pass. `None` when `off` is the
    /// object size: the insert is an append, and the descent stops at the
    /// root.
    pub fn descend_insert(
        &self,
        db: &mut Db,
        off: u64,
        check: impl FnOnce() -> Result<()>,
    ) -> Result<Option<LeafPos>> {
        self.descend_gated(db, |hdr, _| {
            if check_range(hdr.size, off, 0)? == off {
                return Ok(None);
            }
            check().map(|()| Some(off))
        })
    }

    /// The rightmost leaf at its end (`off_in_leaf` is its byte count), if
    /// any: a descent to the root's byte total, taken under the root's
    /// fix. Uses the tree's entries, not the header size, which may lag
    /// within an operation.
    pub fn rightmost(&self, db: &mut Db) -> Result<Option<LeafPos>> {
        self.descend_gated(db, |_, v| Ok(Some(v.iter().map(|e| e.count).sum())))
    }

    /// The one descent: `gate` sees the root header and pairs under the
    /// root's fix and names the offset to descend to; `Ok(None)` ends the
    /// walk there and `Err` refuses it, before any pair is searched. A
    /// page on the way that holds no node ends it with `Corrupt`.
    fn descend_gated(
        &self,
        db: &mut Db,
        gate: impl FnOnce(&RootHdr, &NodeView<'_>) -> Result<Option<u64>>,
    ) -> Result<Option<LeafPos>> {
        // Each step searches the fixed page's pair array in place.
        let step_in = |node: NodeView<'_>, rem: u64| {
            let (idx, within, entry) = node.find_child(rem)?;
            Ok::<_, LobError>((idx, node.len(), within, entry, node.level))
        };
        let first = db.with_meta_root(self.root_page, |hdr, node| {
            let off = gate(hdr, &node)?.filter(|_| !node.is_empty());
            off.map(|off| Ok((off, step_in(node, off)?))).transpose()
        })??;
        let Some((off, (mut idx, mut len, mut within, mut entry, mut level))) = first else {
            return Ok(None);
        };
        let mut path = Vec::with_capacity(4);
        path.push(PathStep {
            page: self.root_page,
            idx,
            len,
        });
        while level > 0 {
            let page = entry.ptr;
            let rem = within;
            (idx, len, within, entry, level) =
                db.with_meta_node(page, |node| step_in(node, rem))??;
            path.push(PathStep { page, idx, len });
        }
        metrics::TREE_DESCENTS.add(1);
        metrics::TREE_DESCEND_DEPTH.add(path.len() as u64);
        Ok(Some(LeafPos {
            path,
            entry,
            off_in_leaf: within,
            leaf_start: off - within,
        }))
    }

    /// [`Self::descend`], required to succeed. Callers use it only after
    /// the offset has been range-checked, so an absent leaf means the
    /// tree and the stored object size disagree — an invariant violation,
    /// not a caller error.
    pub fn try_descend(&self, db: &mut Db, off: u64) -> Result<LeafPos> {
        self.descend(db, off)?.ok_or_else(|| self.no_leaf(off))
    }

    fn no_leaf(&self, off: u64) -> LobError {
        LobError::InvariantViolated(format!(
            "count tree at page {} has no leaf covering offset {off}",
            self.root_page
        ))
    }

    // ----- moving along the path ------------------------------------------

    /// The leaf after `pos`'s, or `None` at the tree's right edge (no fix
    /// then). Climbs `pos.path` to the nearest node with an entry to the
    /// right of the step taken and walks down from there, fixing that
    /// node and each one below it.
    pub fn next(&self, db: &mut Db, pos: &LeafPos) -> Result<Option<LeafPos>> {
        let found = self.slot(db, &pos.path, 1)?;
        Ok(found.map(|(path, entry)| LeafPos::at_start(path, entry, pos.leaf_end())))
    }

    /// The leaf before `pos`'s (at its start), or `None` at the tree's
    /// left edge; the mirror of [`Self::next`].
    pub fn prev(&self, db: &mut Db, pos: &LeafPos) -> Result<Option<LeafPos>> {
        let Some(d) = pos.path.iter().rposition(|s| s.idx > 0) else {
            return Ok(None);
        };
        let (above, from) = pos.path.split_at(d);
        let Some(&PathStep { page, idx, .. }) = from.first() else {
            return Ok(None);
        };
        let (path, entry) = self.walk_down(db, above, page, idx - 1, false)?;
        let start = pos.leaf_start.saturating_sub(entry.count);
        Ok(Some(LeafPos::at_start(path, entry, start)))
    }

    /// The leaf entry `skip` places after the one `path` ends at (which
    /// may lie past the end of its node): the first node up the path with
    /// an entry that far right, then the leftmost entries below it, one
    /// fix a node from there down. `None`, with no fix, at the tree's
    /// right edge.
    fn slot(
        &self,
        db: &mut Db,
        path: &[PathStep],
        skip: usize,
    ) -> Result<Option<(Vec<PathStep>, Entry)>> {
        let last = path.len().saturating_sub(1);
        let found = path.iter().enumerate().rev().find_map(|(d, s)| {
            let idx = s.idx + if d == last { skip } else { 1 };
            (idx < s.len).then_some((d, s.page, idx))
        });
        let Some((d, page, idx)) = found else {
            return Ok(None);
        };
        let above = path.get(..d).unwrap_or_default();
        self.walk_down(db, above, page, idx, true).map(Some)
    }

    /// Walk down from index page `page`, which `above` leads to, to a
    /// leaf entry, one fix a node: entry `idx` of `page`, then the first
    /// or last entry of every node below, as `leftmost` says.
    fn walk_down(
        &self,
        db: &mut Db,
        above: &[PathStep],
        mut page: u32,
        idx: usize,
        leftmost: bool,
    ) -> Result<(Vec<PathStep>, Entry)> {
        let mut path = above.to_vec();
        let mut idx = Some(idx);
        loop {
            let (i, len, entry, level) = self.view(db, page, |v| {
                let len = v.len();
                let i = idx.unwrap_or(if leftmost { 0 } else { len.saturating_sub(1) });
                (i, len, v.get(i), v.level)
            })?;
            let Some(entry) = entry else {
                let msg = format!("index page {page} has no entry {i}");
                return Err(LobError::InvariantViolated(msg));
            };
            path.push(PathStep { page, idx: i, len });
            if level == 0 {
                return Ok((path, entry));
            }
            page = entry.ptr;
            idx = None;
        }
    }

    // ----- localized updates ----------------------------------------------

    /// Add `delta` to the leaf count along `path` (and to every ancestor
    /// entry). Used for in-place appends that change no pointers. Every
    /// level is edited where it lies and none is restructured.
    pub fn add_count(
        &self,
        db: &mut Db,
        ctx: &mut OpCtx,
        path: &[PathStep],
        delta: i64,
    ) -> Result<()> {
        let mut moved = None;
        for (d, step) in path.iter().enumerate().rev() {
            let page = if d == 0 {
                self.root_page
            } else {
                ctx.shadow_page(db, step.page)
            };
            let edit = Edit::Adjust {
                at: step.idx,
                delta,
                ptr: moved,
            };
            self.edit_level(db, page, &edit, |_, _| true)?;
            moved = (page != step.page).then_some(page);
        }
        Ok(())
    }

    /// Replace the run of adjacent leaf entries `old`, the first at
    /// `first`, with `repl` (empty: remove the run). The edits are one
    /// [`Self::apply`] per entry, left to right: every entry but the last
    /// is removed, the last is replaced by `repl`. Each edit runs on the
    /// path the one before it left — the same path with its pages mapped
    /// to their shadow copies while every level was edited in place, a
    /// fresh descent to the run's start after a split, merge, borrow or
    /// height change. Before its edit each entry is checked against
    /// `old`: a run that is not the one the caller names fails with
    /// [`LobError::InvariantViolated`], the edits before it made.
    pub fn splice(
        &self,
        db: &mut Db,
        ctx: &mut OpCtx,
        first: &LeafPos,
        old: &[Entry],
        repl: Vec<Entry>,
    ) -> Result<Spliced> {
        let start = first.leaf_start;
        let mut at = Some((first.path.clone(), first.entry));
        for (i, want) in old.iter().enumerate() {
            let (mut path, entry) = match at.take() {
                Some(found) => found,
                None => {
                    let pos = self.try_descend(db, start)?;
                    (pos.path, pos.entry)
                }
            };
            if entry.ptr != want.ptr {
                return Err(LobError::InvariantViolated(format!(
                    "splice at offset {start}: entry {i} of the run is page {}, not page {}",
                    entry.ptr, want.ptr
                )));
            }
            if i + 1 == old.len() {
                let (first, put) = (repl.first().copied(), (repl.len(), entries_total(&repl)));
                let plain = self.apply(db, ctx, &mut path, repl)?;
                return Ok(Spliced {
                    start,
                    first,
                    put,
                    path: plain.then_some(path),
                });
            }
            let plain = self.apply(db, ctx, &mut path, Vec::new())?;
            if plain {
                // The removed entry's slot now holds the next one.
                let Some((path, entry)) = self.slot(db, &path, 0)? else {
                    return Err(self.no_leaf(start));
                };
                at = Some((path, entry));
            }
        }
        Err(LobError::InvariantViolated(format!(
            "splice at offset {start} names no entry"
        )))
    }

    /// The first replacement a [`Self::splice`] made, at its start: no
    /// fix when the splice kept its path, a descent otherwise.
    pub fn first(&self, db: &mut Db, s: &Spliced) -> Result<LeafPos> {
        match (&s.path, s.first) {
            (Some(path), Some(entry)) => Ok(LeafPos::at_start(path.clone(), entry, s.start)),
            _ => self.try_descend(db, s.start),
        }
    }

    /// The leaf after a [`Self::splice`]'s replacements (after the removed
    /// run when there were none), or `None` at the tree's end: a walk as
    /// [`Self::next`]'s when the splice kept its path, a descent otherwise.
    pub fn after(&self, db: &mut Db, s: Spliced) -> Result<Option<LeafPos>> {
        let (n, bytes) = s.put;
        // The replacements lie inside the object.
        // loblint: allow(arith-overflow)
        let end = s.start + bytes;
        let Some(path) = s.path else {
            let pos = self.descend(db, end)?;
            return Ok(pos.filter(|p| p.off_in_leaf < p.entry.count));
        };
        let found = self.slot(db, &path, n)?;
        Ok(found.map(|(path, entry)| LeafPos::at_start(path, entry, end)))
    }

    /// Append `entry` after the current rightmost leaf (or as the first
    /// leaf of an empty object).
    pub fn append_entry(&self, db: &mut Db, ctx: &mut OpCtx, entry: Entry) -> Result<()> {
        match self.rightmost(db)? {
            None => {
                let first = Edit::Splice {
                    at: 0,
                    remove: 0,
                    repl: vec![entry],
                };
                self.apply_at_root(db, ctx, first)?;
            }
            Some(mut pos) => {
                self.apply(db, ctx, &mut pos.path, vec![pos.entry, entry])?;
            }
        }
        Ok(())
    }

    // ----- structural engine ----------------------------------------------

    /// Bottom-up splice engine: at the node addressed by the last step of
    /// `path`, replace the entry at that step's index with `repl`; then
    /// walk up fixing counts/pointers, splitting overfull nodes and
    /// rebalancing underfull ones.
    ///
    /// A level whose node stays within `[node_min, node_cap]` — the plain
    /// case, nearly every update — is edited where its pairs lie and hands
    /// its parent a 1→1 rewrite: the parent's pair count plus this level's
    /// byte delta, and the shadow copy's page number. Only a split, merge,
    /// borrow, root grow or height shrink decodes a node into a [`Node`].
    ///
    /// Returns whether every level was plain. Then `path` still addresses
    /// the edited slot: its pages are the shadow copies the edit went to,
    /// and its last node's pair count is the one the edit left.
    fn apply(
        &self,
        db: &mut Db,
        ctx: &mut OpCtx,
        path: &mut [PathStep],
        repl: Vec<Entry>,
    ) -> Result<bool> {
        let Some(&leaf_parent) = path.last() else {
            unreachable!("search paths always contain at least the root");
        };
        let grown = repl.len();
        let mut edit = Edit::Splice {
            at: leaf_parent.idx,
            remove: 1,
            repl,
        };
        let mut plain = true;
        for d in (1..path.len()).rev() {
            let step = path[d];
            let target = ctx.shadow_page(db, step.page);
            let (cap, min) = (self.node_cap(db), self.node_min(db));
            edit = match self.edit_level(db, target, &edit, |n, _| (min..=cap).contains(&n))? {
                Level::Edited(delta) => {
                    if let Some(step) = path.get_mut(d) {
                        step.page = target;
                    }
                    Edit::Adjust {
                        at: path[d - 1].idx,
                        delta,
                        ptr: (target != step.page).then_some(target),
                    }
                }
                Level::Decoded(mut node) => {
                    plain = false;
                    edit.make_owned(&mut node.entries);
                    self.restructure(db, ctx, &path[..=d], target, node)?
                }
            };
        }
        plain &= self.apply_at_root(db, ctx, edit)?;
        if let Some(lp) = path.last_mut() {
            lp.len = (lp.len + grown).saturating_sub(1);
        }
        Ok(plain)
    }

    /// The structural half of one [`Self::apply`] level: `node`, decoded
    /// from `target` (the shadow of the last page of `path`) and already
    /// edited, has left `[node_min, node_cap]`. Split it, or rebalance it
    /// with a sibling, and return the splice its parent must make.
    fn restructure(
        &self,
        db: &mut Db,
        ctx: &mut OpCtx,
        path: &[PathStep],
        target: u32,
        node: Node,
    ) -> Result<Edit> {
        let d = path.len() - 1;
        let cap = self.node_cap(db);
        let pidx = path[d - 1].idx;
        if node.entries.len() > cap {
            // Split into evenly filled pieces; the first keeps this page.
            let pieces = split_even(&node.entries, cap);
            let mut out = Vec::with_capacity(pieces.len());
            for (i, piece) in pieces.into_iter().enumerate() {
                let n2 = Node {
                    level: node.level,
                    entries: piece,
                };
                let pg = if i == 0 { target } else { ctx.fresh_page(db) };
                if i == 0 {
                    self.store_node(db, pg, &n2);
                } else {
                    self.store_node_new(db, pg, &n2);
                }
                out.push(Entry {
                    count: n2.total(),
                    ptr: pg,
                });
            }
            return Ok(Edit::Splice {
                at: pidx,
                remove: 1,
                repl: out,
            });
        }
        // Underflow: rebalance with a sibling, if one exists.
        let parent_node = if d - 1 == 0 {
            self.load_root(db)?.1
        } else {
            self.load_node(db, path[d - 1].page)?
        };
        if parent_node.entries.len() < 2 {
            // No sibling (parent is a 1-entry root): tolerate the
            // underflow; root collapse will absorb it eventually.
            self.store_node(db, target, &node);
            return Ok(Edit::Splice {
                at: pidx,
                remove: 1,
                repl: vec![Entry {
                    count: node.total(),
                    ptr: target,
                }],
            });
        }
        let (lo, hi) = if pidx > 0 {
            (pidx - 1, pidx)
        } else {
            (pidx, pidx + 1)
        };
        let sib_is_left = pidx > 0;
        let sib_old = parent_node.entries[if sib_is_left { lo } else { hi }].ptr;
        let sib_target = ctx.shadow_page(db, sib_old);
        let sib = self.load_node(db, sib_target)?;
        debug_assert_eq!(sib.level, node.level);
        let mut combined = Vec::with_capacity(sib.entries.len() + node.entries.len());
        if sib_is_left {
            combined.extend_from_slice(&sib.entries);
            combined.extend_from_slice(&node.entries);
        } else {
            combined.extend_from_slice(&node.entries);
            combined.extend_from_slice(&sib.entries);
        }
        let repl = if combined.len() <= cap {
            // Merge into the left page; free the right one.
            let left_pg = if sib_is_left { sib_target } else { target };
            let right_pg = if sib_is_left { target } else { sib_target };
            let merged = Node {
                level: node.level,
                entries: combined,
            };
            self.store_node(db, left_pg, &merged);
            ctx.free_page_later(right_pg);
            vec![Entry {
                count: merged.total(),
                ptr: left_pg,
            }]
        } else {
            // Borrow: redistribute evenly across both pages.
            let mid = combined.len() / 2;
            let right_entries = combined.split_off(mid);
            let (left_pg, right_pg) = if sib_is_left {
                (sib_target, target)
            } else {
                (target, sib_target)
            };
            let left = Node {
                level: node.level,
                entries: combined,
            };
            let right = Node {
                level: node.level,
                entries: right_entries,
            };
            self.store_node(db, left_pg, &left);
            self.store_node(db, right_pg, &right);
            vec![
                Entry {
                    count: left.total(),
                    ptr: left_pg,
                },
                Entry {
                    count: right.total(),
                    ptr: right_pg,
                },
            ]
        };
        Ok(Edit::Splice {
            at: lo,
            remove: 2,
            repl,
        })
    }

    /// Terminal step of [`Self::apply`] at the root: make `edit` in place
    /// if the root neither outgrows `root_cap` nor is left an interior
    /// root with one child; otherwise decode it, grow the tree on overflow
    /// or shrink it while the root has a single child. Returns whether
    /// the edit was made in place.
    fn apply_at_root(&self, db: &mut Db, ctx: &mut OpCtx, edit: Edit) -> Result<bool> {
        let rcap = self.root_cap(db);
        let plain = |n: usize, level: u8| n <= rcap && !(level > 0 && n == 1);
        let Level::Decoded(mut node) = self.edit_level(db, self.root_page, &edit, plain)? else {
            return Ok(true);
        };
        edit.make_owned(&mut node.entries);
        if node.entries.len() > rcap {
            // Push everything one level down (§2.1: the tree grows at the
            // root, like a B-tree).
            let pieces = split_even(&node.entries, self.node_cap(db));
            let mut out = Vec::with_capacity(pieces.len());
            for piece in pieces {
                let child = Node {
                    level: node.level,
                    entries: piece,
                };
                let pg = ctx.fresh_page(db);
                self.store_node_new(db, pg, &child);
                out.push(Entry {
                    count: child.total(),
                    ptr: pg,
                });
            }
            node.entries = out;
            node.level += 1;
        }
        // Height shrink: absorb a lone internal child into the root —
        // but only if it fits (the root holds fewer pairs than an
        // interior node because of its larger header).
        while node.level > 0 && node.entries.len() == 1 {
            let child_pg = node.entries[0].ptr;
            let child = self.load_node(db, child_pg)?;
            if child.entries.len() > rcap {
                break;
            }
            ctx.free_page_later(child_pg);
            node = child;
        }
        self.store_root(db, &node);
        Ok(false)
    }

    // ----- the object body the three managers share ------------------------
    //
    // What the managers do identically over this tree lives here once:
    // every read, lookup, `destroy` and inspection. What differs (how many
    // pages a leaf entry owns, how a leaf is shadowed) is passed in.

    /// Object size recorded in the root header.
    pub fn size(&self, db: &mut Db) -> Result<u64> {
        Ok(self.read_hdr(db)?.size)
    }

    /// Add `delta` to the object size recorded in the root header.
    pub fn bump_size(&self, db: &mut Db, delta: i64) -> Result<()> {
        let mut hdr = self.read_hdr(db)?;
        hdr.size = (hdr.size as i64 + delta) as u64;
        self.write_hdr(db, &hdr);
        Ok(())
    }

    /// Visit, left to right, every leaf overlapping object bytes
    /// `[off, off + len)`: `visit` gets the leaf and the sub-range of the
    /// caller's `len`-byte buffer that falls in it. One range-checked
    /// descent finds the first leaf; an empty request descends nowhere and
    /// is checked against [`Self::size`]. Each later leaf is a walk along
    /// the leaf level: [`Self::next`], or [`Self::after`] the [`Spliced`]
    /// `visit` returns when it replaced its leaf.
    fn for_each_leaf(
        &self,
        db: &mut Db,
        off: u64,
        len: usize,
        mut visit: impl FnMut(&mut Db, &LeafPos, Range<usize>) -> Result<Option<Spliced>>,
    ) -> Result<()> {
        if len == 0 {
            return check_range(self.size(db)?, off, 0).map(drop);
        }
        let mut pos = self.descend_checked(db, off, len as u64)?;
        let mut done = 0usize;
        loop {
            // `off + len` was range-checked against the object size.
            // loblint: allow(arith-overflow)
            let at = off + done as u64;
            let take = cast::to_usize((pos.leaf_end() - at).min((len - done) as u64));
            let spliced = visit(db, &pos, done..done + take)?;
            done += take;
            if done == len {
                return Ok(());
            }
            let next = match spliced {
                Some(s) => self.after(db, s)?,
                None => self.next(db, &pos)?,
            };
            pos = next.ok_or_else(|| self.no_leaf(pos.leaf_end()))?;
        }
    }

    /// Read `out.len()` bytes at `off`: one descent, then a walk from leaf
    /// to leaf, `fetch` copying each leaf's piece out ([`read_piece`] but
    /// for ESM's whole-leaf ablation) under [`fetch_leaf`]'s hold while
    /// bytes remain after it.
    pub fn read(
        &self,
        db: &mut Db,
        off: u64,
        out: &mut [u8],
        mut fetch: impl FnMut(&Db, &LeafPos, &mut [u8]),
    ) -> Result<()> {
        let len = out.len();
        self.for_each_leaf(db, off, len, |db, pos, r| {
            let walks_on = r.end < len;
            // `for_each_leaf` hands out sub-ranges of `0..out.len()`.
            // loblint: allow(panic-path)
            fetch_leaf(db, pos, walks_on, &mut out[r], &mut fetch);
            Ok(None)
        })
    }

    /// The stored segment holding byte `off` (`off < size`): one costed,
    /// range-checked descent.
    pub fn locate(&self, db: &mut Db, off: u64) -> Result<SegSpan> {
        let pos = self.descend_checked(db, off, 1)?;
        Ok(SegSpan {
            start: pos.leaf_start,
            bytes: pos.entry.count,
            page: pos.entry.ptr,
        })
    }

    /// Overwrite `[off, off + bytes.len())` (`bytes` not empty), leaf by
    /// leaf as [`Self::read`] walks them, range-checked under the one
    /// descent's root fix. Under shadowing each touched leaf is read
    /// whole, patched in memory and handed to `shadow_leaf`, which writes
    /// the new copy, queues the old one for release and returns the
    /// replacement entry; the splice that puts it in is where the walk to
    /// the next leaf starts. Without shadowing the bytes are patched in
    /// place.
    pub fn replace_range(
        &self,
        db: &mut Db,
        ctx: &mut OpCtx,
        off: u64,
        bytes: &[u8],
        mut shadow_leaf: impl FnMut(&mut Db, &mut OpCtx, &LeafPos, &[u8]) -> Result<Entry>,
    ) -> Result<()> {
        self.for_each_leaf(db, off, bytes.len(), |db, pos, r| {
            // `for_each_leaf` hands out sub-ranges of `0..bytes.len()`.
            // loblint: allow(panic-path)
            let patch = &bytes[r];
            if !db.config().shadowing {
                patch_in_place(db, pos.entry.ptr, pos.off_in_leaf, patch);
                return Ok(None);
            }
            let s = cast::to_usize(pos.off_in_leaf);
            let mut content = read_seg_bytes(db, pos.entry.ptr, 0, pos.entry.count);
            // The patch lies inside this leaf: `s + patch.len()` is at
            // most the leaf's byte count, which is `content.len()`.
            // loblint: allow(panic-path)
            content[s..s + patch.len()].copy_from_slice(patch);
            let e = shadow_leaf(db, ctx, pos, &content)?;
            self.splice(db, ctx, pos, &[pos.entry], vec![e]).map(Some)
        })
    }

    /// Free every leaf segment (`leaf_pages` says how many pages an entry
    /// owns), every index page and the root. The index is read through
    /// the pool, so finding the segments is I/O-costed — `destroy` really
    /// does have to read it.
    pub fn destroy(&self, db: &mut Db, leaf_pages: impl Fn(&RootHdr, &Entry) -> u32) -> Result<()> {
        let (hdr, root) = self.load_root(db)?;
        let mut leaves = Vec::new();
        walk_leaves(
            self.root_page,
            &root,
            &mut |page| self.load_node(db, page),
            &mut 0,
            &mut |_, _, e| leaves.push(e),
        )?;
        let index = self.index_page_numbers(db)?;
        for e in leaves {
            db.free_leaf(Extent::new(AreaId::LEAF, e.ptr, leaf_pages(&hdr, &e)));
        }
        for page in index.into_iter().skip(1) {
            db.free_meta_page(page);
        }
        db.free_meta_page(self.root_page);
        db.op_commit();
        Ok(())
    }

    // ----- whole-tree walks (cost-free, for metrics and verification) -----

    /// Every leaf entry with its object start offset, left to right.
    /// Cost-free (peeks pages).
    pub fn collect_leaves(&self, db: &Db) -> Result<Vec<(u64, Entry)>> {
        let mut out = Vec::new();
        self.peek_leaves(db, &mut |_, off, e| out.push((off, e)))?;
        Ok(out)
    }

    /// [`walk_leaves`] over peeked pages, from the root. Cost-free.
    fn peek_leaves(&self, db: &Db, visit: &mut impl FnMut(u32, u64, Entry)) -> Result<()> {
        let (_, root) = db.peek_root(self.root_page)?;
        let fetch = &mut |page| db.peek_node(page);
        walk_leaves(self.root_page, &root, fetch, &mut 0, visit)
    }

    /// The data segments, left to right; `leaf_pages` says how many pages
    /// an entry owns. Cost-free.
    pub fn segments(
        &self,
        db: &Db,
        leaf_pages: impl Fn(&RootHdr, &Entry) -> u32,
    ) -> Result<Vec<SegmentInfo>> {
        let (hdr, _) = db.peek_root(self.root_page)?;
        let mut out = Vec::new();
        self.peek_leaves(db, &mut |node_page, offset, e| {
            out.push(SegmentInfo {
                offset,
                start_page: e.ptr,
                bytes: e.count,
                pages: leaf_pages(&hdr, &e),
                node_page,
            });
        })?;
        Ok(out)
    }

    /// Storage-utilization breakdown over [`Self::segments`]. Cost-free.
    pub fn utilization(
        &self,
        db: &Db,
        leaf_pages: impl Fn(&RootHdr, &Entry) -> u32,
    ) -> Result<Utilization> {
        let segs = self.segments(db, leaf_pages)?;
        Ok(Utilization {
            object_bytes: segs.iter().map(|s| s.bytes).sum(),
            data_pages: segs.iter().map(|s| u64::from(s.pages)).sum(),
            index_pages: self.index_page_numbers(db)?.len() as u64,
        })
    }

    /// Cost-free copy of the full object content (peeked pages).
    pub fn peek_content(&self, db: &Db) -> Result<Vec<u8>> {
        let leaves: Vec<Entry> = self
            .collect_leaves(db)?
            .into_iter()
            .map(|(_, e)| e)
            .collect();
        Ok(peek_segs(db, &leaves))
    }

    /// Every index page of this tree, the root first. Cost-free.
    pub fn index_page_numbers(&self, db: &Db) -> Result<Vec<u32>> {
        let (_, root) = db.peek_root(self.root_page)?;
        let mut out = vec![self.root_page];
        self.collect_internal(db, &root, &mut out)?;
        Ok(out)
    }

    fn collect_internal(&self, db: &Db, node: &Node, out: &mut Vec<u32>) -> Result<()> {
        if node.level == 0 {
            return Ok(());
        }
        for e in &node.entries {
            out.push(e.ptr);
            self.collect_internal(db, &db.peek_node(e.ptr)?, out)?;
        }
        Ok(())
    }

    /// Structural checks: count consistency, level monotonicity, fan-out
    /// bounds, half-full rule for non-root nodes.
    pub fn check_invariants(&self, db: &Db) -> Result<()> {
        let (hdr, root) = db.peek_root(self.root_page)?;
        if root.entries.len() > self.root_cap(db) {
            return Err(LobError::InvariantViolated(format!(
                "root holds {} entries, cap {}",
                root.entries.len(),
                self.root_cap(db)
            )));
        }
        if root.level > 0 && root.entries.len() < 2 {
            // A lone child is tolerated only when it cannot be absorbed
            // into the root (the root's pair capacity is slightly smaller
            // than an interior node's).
            let child = db.peek_node(root.entries[0].ptr)?;
            if child.entries.len() <= self.root_cap(db) {
                return Err(LobError::InvariantViolated(
                    "internal root with a lone absorbable child".into(),
                ));
            }
        }
        let total = self.check_node(db, &root, true)?;
        if total != hdr.size {
            return Err(LobError::InvariantViolated(format!(
                "tree total {} != header size {}",
                total, hdr.size
            )));
        }
        Ok(())
    }

    fn check_node(&self, db: &Db, node: &Node, is_root: bool) -> Result<u64> {
        if !is_root {
            let (cap, min) = (self.node_cap(db), self.node_min(db));
            if node.entries.len() > cap {
                return Err(LobError::InvariantViolated(format!(
                    "node with {} entries over cap {cap}",
                    node.entries.len()
                )));
            }
            if node.entries.len() < min {
                return Err(LobError::InvariantViolated(format!(
                    "node with {} entries under min {min}",
                    node.entries.len()
                )));
            }
        }
        let mut total = 0u64;
        for e in &node.entries {
            if node.level == 0 {
                total += e.count;
            } else {
                let child = db.peek_node(e.ptr)?;
                if child.level != node.level - 1 {
                    return Err(LobError::InvariantViolated(format!(
                        "child level {} under node level {}",
                        child.level, node.level
                    )));
                }
                let sub = self.check_node(db, &child, false)?;
                if sub != e.count {
                    return Err(LobError::InvariantViolated(format!(
                        "entry count {} != subtree total {sub}",
                        e.count
                    )));
                }
                total += sub;
            }
        }
        Ok(total)
    }
}

/// The change one level of an update makes to a node's pairs, handed up
/// the path by [`PosTree::apply`].
enum Edit {
    /// Replace pairs `at..at + remove` with `repl`.
    Splice {
        at: usize,
        remove: usize,
        repl: Vec<Entry>,
    },
    /// Rewrite pair `at`: add `delta` to its count and, when the child
    /// moved to a shadow copy, point it at `ptr`.
    Adjust {
        at: usize,
        delta: i64,
        ptr: Option<u32>,
    },
}

impl Edit {
    /// Pairs a node of `n` pairs holds after the edit.
    fn len_after(&self, n: usize) -> usize {
        match self {
            Edit::Splice { remove, repl, .. } => (n + repl.len()).saturating_sub(*remove),
            Edit::Adjust { .. } => n,
        }
    }

    /// Make the edit where the pairs lie; returns the change in the node's
    /// byte count.
    fn make(&self, mut node: NodeMut<'_>) -> i64 {
        match *self {
            Edit::Splice {
                at,
                remove,
                ref repl,
            } => node.splice(at, remove, repl),
            Edit::Adjust { at, delta, ptr } => {
                node.add_count(at, delta);
                if let Some(ptr) = ptr {
                    node.set_ptr(at, ptr);
                }
                delta
            }
        }
    }

    /// Make the edit on a decoded node's entries (the structural paths).
    fn make_owned(self, entries: &mut Vec<Entry>) {
        match self {
            Edit::Splice { at, remove, repl } => {
                entries.splice(at..at + remove, repl);
            }
            Edit::Adjust { at, delta, ptr } => {
                let Some(e) = entries.get_mut(at) else {
                    panic!("no pair {at} in a node of {} pairs", entries.len());
                };
                e.count = add_signed(e.count, delta);
                e.ptr = ptr.unwrap_or(e.ptr);
            }
        }
    }
}

/// What one level of an update turned out to need
/// ([`PosTree::edit_level`]).
enum Level {
    /// Plain: the edit was made in place and moved the node's byte count
    /// by this much.
    Edited(i64),
    /// Structural: the node decoded, the edit not yet made.
    Decoded(Node),
}

/// A read's copy out of one leaf: the §3.2 hybrid-policy segment read of
/// `piece.len()` bytes from the leaf's `off_in_leaf`.
pub(crate) fn read_piece(db: &Db, pos: &LeafPos, piece: &mut [u8]) {
    db.pool
        .read_segment(AreaId::LEAF, pos.entry.ptr, pos.off_in_leaf, piece);
}

/// Run a read's `fetch` of the leaf at `pos`. When `walks_on` — the walk
/// goes on from this leaf — and the next leaf is the next entry of the
/// same level-0 node, that node is held pinned over the fetch
/// ([`BufferPool::hold`]) so the leaf read cannot evict it from under the
/// walk's next step. The hold ends when this returns, unwinding included.
/// It counts no fix and moves no LRU stamp, and the walk fixes the node
/// again as before, so the pool sees the same fixes; where the leaf read
/// would have taken the node as its victim, it takes the next one in
/// §3.2's order instead and the walk's re-fix hits. The hold leaves as
/// many frames unpinned as the leaf has pages, or is not taken: it must
/// never push a buffered read onto the direct path.
fn fetch_leaf<F: FnOnce(&Db, &LeafPos, &mut [u8])>(
    db: &Db,
    pos: &LeafPos,
    walks_on: bool,
    piece: &mut [u8],
    fetch: F,
) {
    let leaf_pages = cast::to_usize(pos.entry.count.div_ceil(PAGE_SIZE_U64));
    let _held = pos
        .path
        .last()
        .filter(|s| walks_on && s.idx + 1 < s.len)
        .and_then(|s| db.pool.hold(PageId::new(AreaId::META, s.page), leaf_pages))
        .map(|r| Held { pool: &db.pool, r });
    fetch(db, pos, piece);
}

/// A pin [`fetch_leaf`] holds; released when dropped.
struct Held<'a> {
    pool: &'a BufferPool,
    r: FrameRef,
}

impl Drop for Held<'_> {
    fn drop(&mut self) {
        self.pool.unfix(self.r);
    }
}

/// Bytes behind `entries`.
fn entries_total(entries: &[Entry]) -> u64 {
    entries.iter().map(|e| e.count).sum()
}

/// Depth-first leaf walk under `node`, the one on index page `page`,
/// preserving left-to-right order: `visit(node page, object offset,
/// entry)` for each leaf entry. `fetch` loads a child index page (costed
/// through the pool for `destroy`, peeked for the cost-free inspections).
fn walk_leaves(
    page: u32,
    node: &Node,
    fetch: &mut impl FnMut(u32) -> Result<Node>,
    off: &mut u64,
    visit: &mut impl FnMut(u32, u64, Entry),
) -> Result<()> {
    for e in &node.entries {
        if node.level == 0 {
            visit(page, *off, *e);
            *off += e.count;
        } else {
            walk_leaves(e.ptr, &fetch(e.ptr)?, fetch, off, visit)?;
        }
    }
    Ok(())
}

/// Split `entries` into `ceil(n/cap)` consecutive pieces with sizes as
/// even as possible (difference ≤ 1), so every piece is at least half a
/// node when `n > cap`.
fn split_even(entries: &[Entry], cap: usize) -> Vec<Vec<Entry>> {
    let n = entries.len();
    let k = n.div_ceil(cap);
    let base = n / k;
    let extra = n % k;
    let mut out = Vec::with_capacity(k);
    let mut pos = 0;
    for i in 0..k {
        let take = base + usize::from(i < extra);
        out.push(entries[pos..pos + take].to_vec());
        pos += take;
    }
    debug_assert_eq!(pos, n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{DbConfig, TreeConfig};
    use crate::node::RootHdr;
    use crate::object::StorageKind;
    use lobstore_bufpool::PoolConfig;

    /// Build a db with tiny fan-out and an initialized empty root.
    fn setup(fanout: usize) -> (Db, PosTree) {
        setup_with(DbConfig {
            tree: TreeConfig::tiny(fanout),
            ..DbConfig::default()
        })
    }

    /// Build a db from `cfg` with an initialized empty root.
    fn setup_with(cfg: DbConfig) -> (Db, PosTree) {
        let mut db = Db::new(cfg);
        let root = db.alloc_meta_page();
        let hdr = RootHdr::new(StorageKind::Esm, 0);
        db.with_new_meta_page(root, |p| hdr.write(p));
        (db, PosTree::new(root))
    }

    fn e(count: u64, ptr: u32) -> Entry {
        Entry { count, ptr }
    }

    /// Append n leaves of `sz` bytes each and keep header size in sync.
    fn build(db: &mut Db, tree: &PosTree, n: u32, sz: u64) {
        for i in 0..n {
            let mut ctx = OpCtx::new();
            tree.append_entry(db, &mut ctx, e(sz, 1000 + i)).unwrap();
            let mut hdr = tree.read_hdr(db).unwrap();
            hdr.size += sz;
            tree.write_hdr(db, &hdr);
            ctx.finish(db);
        }
    }

    #[test]
    fn empty_tree_descends_to_none() {
        let (mut db, tree) = setup(4);
        assert!(tree.descend(&mut db, 0).unwrap().is_none());
        tree.check_invariants(&db).unwrap();
    }

    #[test]
    fn append_entries_until_the_tree_grows() {
        let (mut db, tree) = setup(4);
        build(&mut db, &tree, 20, 10);
        tree.check_invariants(&db).unwrap();
        let hdr = tree.read_hdr(&mut db).unwrap();
        assert_eq!(hdr.size, 200);
        assert!(hdr.level >= 1, "fan-out 4 with 20 leaves must grow");
        let leaves = tree.collect_leaves(&db).unwrap();
        assert_eq!(leaves.len(), 20);
        assert_eq!(leaves[7], (70, e(10, 1007)));
        assert!(tree.index_page_numbers(&db).unwrap().len() > 1);
    }

    #[test]
    fn descend_finds_correct_leaf_and_offsets() {
        let (mut db, tree) = setup(4);
        build(&mut db, &tree, 20, 10);
        for off in [0u64, 9, 10, 55, 199] {
            let pos = tree.descend(&mut db, off).unwrap().unwrap();
            assert_eq!(pos.leaf_start, (off / 10) * 10);
            assert_eq!(pos.off_in_leaf, off % 10);
            assert_eq!(pos.entry.ptr, 1000 + (off / 10) as u32);
        }
        // Append position.
        let pos = tree.descend(&mut db, 200).unwrap().unwrap();
        assert_eq!(pos.off_in_leaf, 10);
        assert_eq!(pos.entry.ptr, 1019);
    }

    #[test]
    fn add_count_updates_every_level() {
        let (mut db, tree) = setup(4);
        build(&mut db, &tree, 20, 10);
        let pos = tree.descend(&mut db, 55).unwrap().unwrap();
        let mut ctx = OpCtx::new();
        tree.add_count(&mut db, &mut ctx, &pos.path, 7).unwrap();
        let mut hdr = tree.read_hdr(&mut db).unwrap();
        hdr.size += 7;
        tree.write_hdr(&mut db, &hdr);
        ctx.finish(&mut db);
        tree.check_invariants(&db).unwrap();
        let leaves = tree.collect_leaves(&db).unwrap();
        assert_eq!(leaves[5].1.count, 17);
    }

    #[test]
    fn add_count_shadows_non_root_path_pages() {
        let (mut db, tree) = setup(4);
        build(&mut db, &tree, 20, 10);
        let pos = tree.descend(&mut db, 0).unwrap().unwrap();
        assert!(pos.path.len() >= 2);
        let old_pages: Vec<u32> = pos.path.iter().skip(1).map(|s| s.page).collect();
        let mut ctx = OpCtx::new();
        tree.add_count(&mut db, &mut ctx, &pos.path, 1).unwrap();
        let mut hdr = tree.read_hdr(&mut db).unwrap();
        hdr.size += 1;
        tree.write_hdr(&mut db, &hdr);
        ctx.finish(&mut db);
        tree.check_invariants(&db).unwrap();
        // The path below the root was relocated by shadowing.
        let pos2 = tree.descend(&mut db, 0).unwrap().unwrap();
        let new_pages: Vec<u32> = pos2.path.iter().skip(1).map(|s| s.page).collect();
        assert_ne!(old_pages, new_pages);
    }

    #[test]
    fn splice_in_many_splits_leaf_parent() {
        let (mut db, tree) = setup(4);
        build(&mut db, &tree, 4, 10);
        // Replace leaf 1 with five new leaves: forces a split at fan-out 4.
        let pos = tree.descend(&mut db, 10).unwrap().unwrap();
        let mut ctx = OpCtx::new();
        let repl: Vec<Entry> = (0..5).map(|i| e(2, 2000 + i)).collect();
        tree.splice(&mut db, &mut ctx, &pos, &[pos.entry], repl)
            .unwrap();
        ctx.finish(&mut db);
        // Ten bytes out, five leaves of two in: the object size is unchanged.
        assert_eq!(tree.read_hdr(&mut db).unwrap().size, 40);
        tree.check_invariants(&db).unwrap();
        let leaves = tree.collect_leaves(&db).unwrap();
        assert_eq!(leaves.len(), 8);
        assert_eq!(leaves[1].1, e(2, 2000));
        assert_eq!(leaves[5].1, e(2, 2004));
        assert_eq!(leaves[6], (20, e(10, 1002)));
    }

    #[test]
    fn remove_entries_shrinks_back_to_flat_root() {
        let (mut db, tree) = setup(4);
        build(&mut db, &tree, 20, 10);
        // Remove leaves one at a time from the front.
        for remaining in (1..=20u64).rev() {
            let pos = tree.descend(&mut db, 0).unwrap().unwrap();
            let mut ctx = OpCtx::new();
            tree.splice(&mut db, &mut ctx, &pos, &[pos.entry], Vec::new())
                .unwrap();
            let mut hdr = tree.read_hdr(&mut db).unwrap();
            hdr.size -= 10;
            tree.write_hdr(&mut db, &hdr);
            ctx.finish(&mut db);
            tree.check_invariants(&db)
                .unwrap_or_else(|e| panic!("at {remaining} leaves left: {e}"));
        }
        let hdr = tree.read_hdr(&mut db).unwrap();
        assert_eq!(hdr.size, 0);
        assert_eq!(hdr.level, 0, "tree collapsed");
        assert!(tree.collect_leaves(&db).unwrap().is_empty());
        assert_eq!(
            tree.index_page_numbers(&db).unwrap(),
            [tree.root_page],
            "only the root remains"
        );
    }

    #[test]
    fn random_mixed_structure_ops_stay_consistent() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let (mut db, tree) = setup(6);
        let mut rng = StdRng::seed_from_u64(42);
        let mut model: Vec<(u64, u32)> = Vec::new(); // (count, ptr)
        let mut next_ptr = 1u32;
        for step in 0..400 {
            let total: u64 = model.iter().map(|x| x.0).sum();
            let do_insert = model.is_empty() || rng.gen_bool(0.55);
            let mut ctx = OpCtx::new();
            if do_insert {
                let count = rng.gen_range(1..=50u64);
                let ptr = next_ptr;
                next_ptr += 1;
                if model.is_empty() || rng.gen_bool(0.3) {
                    tree.append_entry(&mut db, &mut ctx, e(count, ptr)).unwrap();
                    model.push((count, ptr));
                } else {
                    // Replace a random leaf with [old, new] (a split).
                    let i = rng.gen_range(0..model.len());
                    let off: u64 = model[..i].iter().map(|x| x.0).sum();
                    let pos = tree.descend(&mut db, off).unwrap().unwrap();
                    assert_eq!(pos.entry.ptr, model[i].1, "model desync at step {step}");
                    let old = pos.entry;
                    let repl = vec![old, e(count, ptr)];
                    tree.splice(&mut db, &mut ctx, &pos, &[old], repl).unwrap();
                    model.insert(i + 1, (count, ptr));
                }
                let mut hdr = tree.read_hdr(&mut db).unwrap();
                hdr.size = total + count;
                tree.write_hdr(&mut db, &hdr);
            } else {
                let i = rng.gen_range(0..model.len());
                let off: u64 = model[..i].iter().map(|x| x.0).sum();
                let pos = tree.descend(&mut db, off).unwrap().unwrap();
                assert_eq!(pos.entry.ptr, model[i].1);
                tree.splice(&mut db, &mut ctx, &pos, &[pos.entry], Vec::new())
                    .unwrap();
                let removed = model.remove(i).0;
                let mut hdr = tree.read_hdr(&mut db).unwrap();
                hdr.size = total - removed;
                tree.write_hdr(&mut db, &hdr);
            }
            ctx.finish(&mut db);
            tree.check_invariants(&db)
                .unwrap_or_else(|err| panic!("step {step}: {err}"));
            let leaves = tree.collect_leaves(&db).unwrap();
            let got: Vec<(u64, u32)> = leaves.iter().map(|(_, e)| (e.count, e.ptr)).collect();
            assert_eq!(got, model, "leaf sequence mismatch at step {step}");
        }
    }

    #[test]
    fn meta_pages_are_not_leaked() {
        let (mut db, tree) = setup(4);
        build(&mut db, &tree, 50, 10);
        for _ in 0..50 {
            let pos = tree.descend(&mut db, 0).unwrap().unwrap();
            let mut ctx = OpCtx::new();
            tree.splice(&mut db, &mut ctx, &pos, &[pos.entry], Vec::new())
                .unwrap();
            let mut hdr = tree.read_hdr(&mut db).unwrap();
            hdr.size -= 10;
            tree.write_hdr(&mut db, &hdr);
            ctx.finish(&mut db);
        }
        assert_eq!(
            db.meta_pages_allocated(),
            1,
            "all index pages except the root returned to the allocator"
        );
    }

    #[test]
    fn split_even_bounds() {
        let entries: Vec<Entry> = (0..23).map(|i| e(1, i)).collect();
        let pieces = split_even(&entries, 10);
        assert_eq!(pieces.len(), 3);
        let sizes: Vec<usize> = pieces.iter().map(Vec::len).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 23);
        assert!(sizes.iter().all(|&s| (7..=8).contains(&s)));
        // Order preserved.
        assert_eq!(pieces[0][0].ptr, 0);
        assert_eq!(pieces[2].last().unwrap().ptr, 22);
    }

    /// Buffer-pool fixes `f` makes, resident or not.
    fn fixes_of<T>(db: &mut Db, f: impl FnOnce(&mut Db) -> T) -> (T, u64) {
        let count = |db: &Db| {
            let s = db.pool.pool_stats();
            s.hits + s.misses
        };
        let before = count(db);
        let got = f(db);
        (got, count(db) - before)
    }

    /// A position as a descent reports it: the leaf, where it starts, and
    /// every step's page, index and pair count.
    fn shape(pos: &LeafPos) -> (Entry, u64, u64, Vec<(u32, usize, usize)>) {
        let path = pos.path.iter().map(|s| (s.page, s.idx, s.len)).collect();
        (pos.entry, pos.leaf_start, pos.off_in_leaf, path)
    }

    /// The fixes a walk from path `from` to path `to` makes: one a level,
    /// from the node it climbed to (the last step the two paths share
    /// before the walk took another entry, or the leaf's parent when it
    /// took none) down.
    fn walk_fixes(from: &[PathStep], to: &[PathStep]) -> u64 {
        let shared = from
            .iter()
            .zip(to)
            .take_while(|(a, b)| (a.page, a.idx) == (b.page, b.idx))
            .count();
        (to.len() - shared.min(to.len() - 1)) as u64
    }

    /// `next`/`prev` find the leaf a descent to its offset finds, with
    /// the same path. The walk fixes only the nodes from the one it
    /// climbed to down, so never more than the descent, and nothing at
    /// an edge.
    #[test]
    fn next_and_prev_walk_to_the_descended_neighbours() {
        let (mut db, tree) = setup(4);
        build(&mut db, &tree, 40, 10);
        assert!(tree.read_hdr(&mut db).unwrap().level >= 2);
        for i in 0..40u64 {
            let pos = tree.descend(&mut db, i * 10).unwrap().unwrap();
            let (next, n) = fixes_of(&mut db, |db| tree.next(db, &pos).unwrap());
            let (prev, p) = fixes_of(&mut db, |db| tree.prev(db, &pos).unwrap());
            for (got, fixes, at) in [(next, n, i + 1), (prev, p, i.wrapping_sub(1))] {
                if at >= 40 {
                    assert!(got.is_none(), "leaf {i}: no neighbour at {at}");
                    assert_eq!(fixes, 0, "leaf {i}: the edge costs no fix");
                    continue;
                }
                let got = got.unwrap();
                let (want, d) = fixes_of(&mut db, |db| tree.descend(db, at * 10).unwrap().unwrap());
                assert_eq!(shape(&got), shape(&want), "leaf {i} -> {at}");
                let walked = walk_fixes(&pos.path, &got.path);
                assert_eq!(fixes, walked, "leaf {i} -> {at}: one fix a level walked");
                assert!(
                    fixes <= d,
                    "leaf {i} -> {at}: {fixes} fixes, the descent {d}"
                );
            }
        }
        let last = tree.rightmost(&mut db).unwrap().unwrap();
        assert!(last.is_last());
        assert_eq!(
            shape(&last),
            shape(&tree.descend(&mut db, 400).unwrap().unwrap())
        );
    }

    /// Random runs of one to three leaves replaced by zero to three: the
    /// leaves come out as `Vec::splice` says, and `first`/`after` find the
    /// positions a descent to the same offset finds — path pages, indices
    /// and pair counts — whether the splice kept its path or
    /// restructured. On a kept path `first` fixes nothing and `after`
    /// walks (one fix a node from the one it climbed to down); otherwise
    /// each is the descent. Never more fixes than the descent's.
    #[test]
    fn splice_leaves_the_positions_a_descent_finds() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let (mut db, tree) = setup(4);
        build(&mut db, &tree, 30, 10);
        let mut model: Vec<Entry> = tree
            .collect_leaves(&db)
            .unwrap()
            .into_iter()
            .map(|x| x.1)
            .collect();
        let mut rng = StdRng::seed_from_u64(35);
        let mut next_ptr = 5000;
        for step in 0..300 {
            let i = rng.gen_range(0..model.len());
            let n = rng.gen_range(1..=3.min(model.len() - i));
            let k = if model.len() < 8 {
                rng.gen_range(1..=3)
            } else {
                rng.gen_range(0..=3)
            };
            let repl: Vec<Entry> = (0..k)
                .map(|_| {
                    next_ptr += 1;
                    e(rng.gen_range(1..=30), next_ptr)
                })
                .collect();
            let start: u64 = model[..i].iter().map(|x| x.count).sum();
            let pos = tree.descend(&mut db, start).unwrap().unwrap();
            let mut ctx = OpCtx::new();
            let run = model[i..i + n].to_vec();
            let spliced = tree
                .splice(&mut db, &mut ctx, &pos, &run, repl.clone())
                .unwrap();
            let moved = entries_total(&repl) as i64 - entries_total(&run) as i64;
            model.splice(i..i + n, repl.iter().copied());
            let at = format!("step {step}: {n} at {i} -> {k}");
            let kept = spliced.path.clone();
            if k > 0 {
                let (got, f) = fixes_of(&mut db, |db| tree.first(db, &spliced).unwrap());
                let (want, d) = fixes_of(&mut db, |db| tree.descend(db, start).unwrap().unwrap());
                assert_eq!(shape(&got), shape(&want), "{at}: first");
                let first = if kept.is_some() { 0 } else { d };
                assert_eq!(f, first, "{at}: first's fixes");
            }
            let end = start + entries_total(&repl);
            let (got, f) = fixes_of(&mut db, |db| tree.after(db, spliced).unwrap());
            let (want, d) = fixes_of(&mut db, |db| tree.descend(db, end).unwrap());
            let want = want.filter(|p| p.off_in_leaf < p.entry.count);
            assert_eq!(
                got.as_ref().map(shape),
                want.as_ref().map(shape),
                "{at}: after"
            );
            match (&kept, &got) {
                (Some(from), Some(to)) => {
                    assert_eq!(f, walk_fixes(from, &to.path), "{at}: after walks");
                    assert!(f <= d, "{at}: after's {f} fixes, the descent {d}");
                }
                (Some(_), None) => assert_eq!(f, 0, "{at}: after at the edge"),
                (None, _) => assert_eq!(f, d, "{at}: after descends"),
            }
            tree.bump_size(&mut db, moved).unwrap();
            ctx.finish(&mut db);
            tree.check_invariants(&db)
                .unwrap_or_else(|err| panic!("{at}: {err}"));
            let got = tree.collect_leaves(&db).unwrap().into_iter().map(|x| x.1);
            assert!(got.eq(model.iter().copied()), "{at}: leaves differ");
        }
    }

    /// A run the caller names wrongly fails the splice with an invariant
    /// violation, not a panic; the edits before the mismatch are made.
    #[test]
    fn a_window_naming_the_wrong_page_fails_the_splice() {
        let (mut db, tree) = setup(4);
        build(&mut db, &tree, 20, 10);
        let pos = tree.descend(&mut db, 30).unwrap().unwrap();
        let mut ctx = OpCtx::new();
        let run = [pos.entry, e(10, 999)];
        let got = tree.splice(&mut db, &mut ctx, &pos, &run, vec![e(20, 77)]);
        let Err(LobError::InvariantViolated(msg)) = got else {
            panic!("expected an invariant violation, got {got:?}");
        };
        assert!(msg.contains("page 1004, not page 999"), "{msg}");
    }

    #[test]
    fn reads_fix_the_root_once() {
        use crate::object::{LargeObject, StorageKind};
        use crate::{Lob, ManagerSpec, ObjectReader};
        use std::io::{BufRead, Read, Seek, SeekFrom};
        // Twelve one-page leaves under fan-out 4: for ESM and EOS a root
        // over interior nodes (depth 2), for Starburst its descriptor
        // (depth 1). The leaves were written direct, so none is in the
        // pool, and a cold leaf's read fixes nothing.
        const SIZE: u64 = 12 * 4096;
        for kind in [StorageKind::Esm, StorageKind::Eos, StorageKind::Starburst] {
            let mut db = Db::new(DbConfig {
                tree: TreeConfig::tiny(4),
                ..DbConfig::default()
            });
            let spec = match kind {
                StorageKind::Esm => ManagerSpec::esm(1),
                StorageKind::Eos => ManagerSpec::Eos {
                    threshold_pages: 1,
                    max_seg_pages: 1,
                },
                StorageKind::Starburst => ManagerSpec::Starburst {
                    max_seg_pages: 1,
                    known_size: false,
                },
            };
            let mut obj = Lob::create(&mut db, spec).unwrap();
            let bytes: Vec<u8> = (0..SIZE).map(|i| (i % 253) as u8).collect();
            obj.append(&mut db, &bytes).unwrap();
            let depth = u64::from(db.peek_root(obj.root_page()).unwrap().0.level) + 1;
            let want_depth = if kind == StorageKind::Starburst { 1 } else { 2 };
            assert_eq!(depth, want_depth, "{kind}: depth");

            // A one-leaf read fixes every level once.
            let mut out = [0u8; 100];
            let (r, n) = fixes_of(&mut db, |db| obj.read(db, 5 * 4096 + 10, &mut out));
            r.unwrap();
            assert_eq!(out[..], bytes[5 * 4096 + 10..][..100]);
            assert_eq!(n, depth, "{kind}: a one-leaf read fixes each level");

            // The cursor fixes the root once as it opens (the parse it
            // takes the size from and refills below); a refill fixes the
            // levels below the root, and a read at or past the end nothing.
            let pool_fixes = || {
                lobstore_obs::counter_value("bufpool.hits")
                    + lobstore_obs::counter_value("bufpool.misses")
            };
            let before = pool_fixes();
            let mut r = ObjectReader::new(&mut db, &obj);
            assert_eq!(pool_fixes() - before, 1, "{kind}: open");
            let mut read_at = |off: u64, out: &mut [u8]| {
                r.seek(SeekFrom::Start(off)).unwrap();
                let before = pool_fixes();
                let n = r.read(out).unwrap();
                (n, pool_fixes() - before)
            };
            let mut span = [0u8; 99];
            let refill = read_at(7 * 4096 + 10, &mut span);
            assert_eq!(refill, (99, depth - 1), "{kind}: refill");
            assert_eq!(span[..], bytes[7 * 4096 + 10..][..99]);
            for off in [SIZE, SIZE + 7] {
                assert_eq!(read_at(off, &mut span), (0, 0), "{kind}: read at {off}");
            }
            // The leaves lie back to back, so a span runs on to the end
            // of its level-0 node: for ESM and EOS leaves 6-8, for
            // Starburst the descriptor's last leaf.
            r.seek(SeekFrom::Start(6 * 4096 + 96)).unwrap();
            let len = r.fill_buf().unwrap().len() as u64;
            let node_end = if kind == StorageKind::Starburst {
                12
            } else {
                9
            };
            assert_eq!(
                len,
                node_end * 4096 - (6 * 4096 + 96),
                "{kind}: a span ends with its node"
            );
            drop(r);

            // Out of range: the error the size check always gave, after
            // the root fix alone.
            let oor = |off, len| LobError::OutOfRange {
                off,
                len,
                size: SIZE,
            };
            for (off, len) in [(SIZE - 50, 100u64), (SIZE, 1), (SIZE + 7, 0), (0, SIZE + 1)] {
                let mut out = vec![0u8; cast::to_usize(len)];
                let (r, n) = fixes_of(&mut db, |db| obj.read(db, off, &mut out));
                assert_eq!(r.unwrap_err(), oor(off, len), "{kind}: read({off}, {len})");
                assert_eq!(n, 1, "{kind}: read({off}, {len}) fixes only the root");
            }
            for off in [SIZE, SIZE + 7] {
                let (r, n) = fixes_of(&mut db, |db| obj.locate(db, off));
                assert_eq!(r.unwrap_err(), oor(off, 1), "{kind}: locate({off})");
                assert_eq!(n, 1, "{kind}: locate({off}) fixes only the root");
            }

            // Zero-length at the end: still a success, still one fix.
            let (r, n) = fixes_of(&mut db, |db| obj.read(db, SIZE, &mut []));
            r.unwrap();
            assert_eq!(n, 1, "{kind}: an empty read fixes the root");

            // A whole-object pass on cold leaves. Bulk: one descent to the
            // first leaf, then a walk to each next one. The cursor: its
            // open fix, then the levels below the root once a run (here a
            // level-0 node's leaves, as above), and no descent the tree
            // counts.
            let tree = PosTree::new(obj.root_page());
            let segs = obj.segments(&db);
            let paths: Vec<_> = segs
                .iter()
                .map(|s| tree.descend(&mut db, s.offset).unwrap().unwrap().path)
                .collect();
            let walks: u64 = paths.windows(2).map(|w| walk_fixes(&w[0], &w[1])).sum();
            let want = paths[0].len() as u64 + walks;
            let whole = |db: &mut Db, pass: &dyn Fn(&mut Db) -> Vec<u8>| {
                for s in &segs {
                    db.pool.discard_range(AreaId::LEAF, s.start_page, s.pages);
                }
                let descents = metrics::TREE_DESCENTS.value();
                let (got, n) = fixes_of(db, pass);
                assert!(got == bytes, "{kind}: a whole pass reads the object");
                (metrics::TREE_DESCENTS.value() - descents, n)
            };
            let bulk = whole(&mut db, &|db| {
                let mut out = vec![0u8; bytes.len()];
                obj.read(db, 0, &mut out).unwrap();
                out
            });
            assert_eq!(bulk, (1, want), "{kind}: a whole read descends once");
            let streamed = whole(&mut db, &|db| {
                let mut out = Vec::new();
                ObjectReader::new(db, &obj).read_to_end(&mut out).unwrap();
                out
            });
            let nodes = if kind == StorageKind::Starburst { 1 } else { 4 };
            assert_eq!(
                streamed,
                (0, 1 + nodes * (depth - 1)),
                "{kind}: a whole cursor pass"
            );
        }
    }

    /// The write path this tree shipped before it edited pages in place,
    /// kept as its oracle: every level decodes its node into a
    /// `Vec<Entry>`, splices that, encodes all of it back and sends its
    /// parent the recounted total.
    mod oracle {
        use super::*;

        impl PosTree {
            pub(super) fn old_add_count(
                &self,
                db: &mut Db,
                ctx: &mut OpCtx,
                path: &[PathStep],
                delta: i64,
            ) {
                let mut child_ptr_fix: Option<u32> = None;
                for (d, step) in path.iter().enumerate().rev() {
                    let adjust = |e: &mut Entry, fix: Option<u32>| {
                        let new = e.count as i64 + delta;
                        assert!(new >= 0, "count underflow");
                        e.count = new as u64;
                        if let Some(p) = fix {
                            e.ptr = p;
                        }
                    };
                    if d == 0 {
                        let (mut hdr, mut node) = self.load_root(db).unwrap();
                        adjust(&mut node.entries[step.idx], child_ptr_fix);
                        self.old_store_root(db, &mut hdr, &node);
                    } else {
                        let target = ctx.shadow_page(db, step.page);
                        let mut node = self.load_node(db, target).unwrap();
                        adjust(&mut node.entries[step.idx], child_ptr_fix);
                        self.store_node(db, target, &node);
                        child_ptr_fix = (target != step.page).then_some(target);
                    }
                }
            }

            pub(super) fn old_replace_entry(
                &self,
                db: &mut Db,
                ctx: &mut OpCtx,
                path: &[PathStep],
                repl: Vec<Entry>,
            ) {
                assert!(!repl.is_empty(), "use old_remove_entry to delete");
                self.old_apply(db, ctx, path, 1, repl);
            }

            pub(super) fn old_remove_entry(&self, db: &mut Db, ctx: &mut OpCtx, path: &[PathStep]) {
                self.old_apply(db, ctx, path, 1, Vec::new());
            }

            pub(super) fn old_append_entry(&self, db: &mut Db, ctx: &mut OpCtx, entry: Entry) {
                match self.rightmost(db).unwrap() {
                    None => {
                        let (mut hdr, mut node) = self.load_root(db).unwrap();
                        debug_assert_eq!(node.level, 0);
                        node.entries.push(entry);
                        self.old_store_root(db, &mut hdr, &node);
                    }
                    Some(pos) => {
                        let old = pos.entry;
                        self.old_replace_entry(db, ctx, &pos.path, vec![old, entry]);
                    }
                }
            }

            fn old_store_root(&self, db: &mut Db, hdr: &mut RootHdr, node: &Node) {
                db.with_meta_page_mut(self.root_page, |p| node.write_root(p, hdr));
            }

            fn old_apply(
                &self,
                db: &mut Db,
                ctx: &mut OpCtx,
                path: &[PathStep],
                remove_len: usize,
                repl: Vec<Entry>,
            ) {
                let mut start = path.last().unwrap().idx;
                let mut remove_len = remove_len;
                let mut repl = repl;
                let mut d = path.len() - 1;
                loop {
                    let step = path[d];
                    if d == 0 {
                        self.old_apply_at_root(db, ctx, start, remove_len, repl);
                        return;
                    }
                    let target = ctx.shadow_page(db, step.page);
                    let mut node = self.load_node(db, target).unwrap();
                    node.entries.splice(start..start + remove_len, repl);
                    let cap = self.node_cap(db);
                    let min = self.node_min(db);
                    let parent_repl: Vec<Entry>;
                    let parent_start: usize;
                    let parent_remove: usize;
                    if node.entries.len() > cap {
                        let pieces = split_even(&node.entries, cap);
                        let mut out = Vec::with_capacity(pieces.len());
                        for (i, piece) in pieces.into_iter().enumerate() {
                            let n2 = Node {
                                level: node.level,
                                entries: piece,
                            };
                            let pg = if i == 0 { target } else { ctx.fresh_page(db) };
                            if i == 0 {
                                self.store_node(db, pg, &n2);
                            } else {
                                self.store_node_new(db, pg, &n2);
                            }
                            out.push(e(n2.total(), pg));
                        }
                        parent_repl = out;
                        parent_start = path[d - 1].idx;
                        parent_remove = 1;
                    } else if node.entries.len() < min {
                        let parent_node = if d - 1 == 0 {
                            self.load_root(db).unwrap().1
                        } else {
                            self.load_node(db, path[d - 1].page).unwrap()
                        };
                        let pidx = path[d - 1].idx;
                        if parent_node.entries.len() < 2 {
                            self.store_node(db, target, &node);
                            parent_repl = vec![e(node.total(), target)];
                            parent_start = pidx;
                            parent_remove = 1;
                        } else {
                            let (lo, hi) = if pidx > 0 {
                                (pidx - 1, pidx)
                            } else {
                                (pidx, pidx + 1)
                            };
                            let sib_is_left = pidx > 0;
                            let sib_old =
                                parent_node.entries[if sib_is_left { lo } else { hi }].ptr;
                            let sib_target = ctx.shadow_page(db, sib_old);
                            let sib = self.load_node(db, sib_target).unwrap();
                            let mut combined = Vec::new();
                            if sib_is_left {
                                combined.extend_from_slice(&sib.entries);
                                combined.extend_from_slice(&node.entries);
                            } else {
                                combined.extend_from_slice(&node.entries);
                                combined.extend_from_slice(&sib.entries);
                            }
                            if combined.len() <= cap {
                                let left_pg = if sib_is_left { sib_target } else { target };
                                let right_pg = if sib_is_left { target } else { sib_target };
                                let merged = Node {
                                    level: node.level,
                                    entries: combined,
                                };
                                self.store_node(db, left_pg, &merged);
                                ctx.free_page_later(right_pg);
                                parent_repl = vec![e(merged.total(), left_pg)];
                            } else {
                                let mid = combined.len() / 2;
                                let right_entries = combined.split_off(mid);
                                let (left_pg, right_pg) = if sib_is_left {
                                    (sib_target, target)
                                } else {
                                    (target, sib_target)
                                };
                                let left = Node {
                                    level: node.level,
                                    entries: combined,
                                };
                                let right = Node {
                                    level: node.level,
                                    entries: right_entries,
                                };
                                self.store_node(db, left_pg, &left);
                                self.store_node(db, right_pg, &right);
                                parent_repl =
                                    vec![e(left.total(), left_pg), e(right.total(), right_pg)];
                            }
                            parent_start = lo;
                            parent_remove = 2;
                        }
                    } else {
                        self.store_node(db, target, &node);
                        parent_repl = vec![e(node.total(), target)];
                        parent_start = path[d - 1].idx;
                        parent_remove = 1;
                    }
                    start = parent_start;
                    remove_len = parent_remove;
                    repl = parent_repl;
                    d -= 1;
                }
            }

            fn old_apply_at_root(
                &self,
                db: &mut Db,
                ctx: &mut OpCtx,
                start: usize,
                remove_len: usize,
                repl: Vec<Entry>,
            ) {
                let (mut hdr, mut node) = self.load_root(db).unwrap();
                node.entries.splice(start..start + remove_len, repl);
                let rcap = self.root_cap(db);
                if node.entries.len() > rcap {
                    let pieces = split_even(&node.entries, self.node_cap(db));
                    let mut out = Vec::with_capacity(pieces.len());
                    for piece in pieces {
                        let child = Node {
                            level: node.level,
                            entries: piece,
                        };
                        let pg = ctx.fresh_page(db);
                        self.store_node_new(db, pg, &child);
                        out.push(e(child.total(), pg));
                    }
                    node.entries = out;
                    node.level += 1;
                }
                while node.level > 0 && node.entries.len() == 1 {
                    let child_pg = node.entries[0].ptr;
                    let child = self.load_node(db, child_pg).unwrap();
                    if child.entries.len() > rcap {
                        break;
                    }
                    ctx.free_page_later(child_pg);
                    node = child;
                }
                self.old_store_root(db, &mut hdr, &node);
            }
        }
    }

    /// One update of the twin script, made on both trees.
    #[derive(Debug)]
    enum TwinOp {
        Append(Entry),
        /// Replace leaf `i` with these entries (1→1 or 1→k).
        Replace(usize, Vec<Entry>),
        Remove(usize),
        /// Add to leaf `i`'s count.
        AddCount(usize, i64),
    }

    /// Run `op` on `tree`, through the in-place write path or the oracle;
    /// returns the change in the object size.
    fn run_twin_op(db: &mut Db, tree: &PosTree, ctx: &mut OpCtx, op: &TwinOp, old: bool) -> i64 {
        let leaf = |db: &mut Db, i: usize| {
            let off: u64 = tree.collect_leaves(db).unwrap()[i].0;
            tree.descend(db, off).unwrap().unwrap()
        };
        match op {
            TwinOp::Append(x) => {
                if old {
                    tree.old_append_entry(db, ctx, *x);
                } else {
                    tree.append_entry(db, ctx, *x).unwrap();
                }
                x.count as i64
            }
            TwinOp::Replace(i, repl) => {
                let pos = leaf(db, *i);
                if old {
                    tree.old_replace_entry(db, ctx, &pos.path, repl.clone());
                } else {
                    tree.splice(db, ctx, &pos, &[pos.entry], repl.clone())
                        .unwrap();
                }
                repl.iter().map(|x| x.count as i64).sum::<i64>() - pos.entry.count as i64
            }
            TwinOp::Remove(i) => {
                let pos = leaf(db, *i);
                if old {
                    tree.old_remove_entry(db, ctx, &pos.path);
                } else {
                    tree.splice(db, ctx, &pos, &[pos.entry], Vec::new())
                        .unwrap();
                }
                -(pos.entry.count as i64)
            }
            TwinOp::AddCount(i, delta) => {
                let pos = leaf(db, *i);
                if old {
                    tree.old_add_count(db, ctx, &pos.path, *delta);
                } else {
                    tree.add_count(db, ctx, &pos.path, *delta).unwrap();
                }
                *delta
            }
        }
    }

    /// The in-place tree against the decoding one on twin databases, for
    /// one fan-out and shadowing setting: a seeded script of appends,
    /// 1→1 and 1→k replacements, removals and ± count adds, one to three
    /// in an operation, that grows the tree to `high` leaves, shrinks it
    /// to `low` and again. After every operation the two agree on every
    /// META page's bytes (the stale pairs past `n_entries` included),
    /// `IoStats`, `PoolStats` and the disk trace, and the in-place tree's
    /// leaves are the script's.
    fn twin_run(tree_cfg: TreeConfig, shadowing: bool, steps: usize, (low, high): (usize, usize)) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Four frames, so the index pages (the dirty root included) are
        // evicted and read back as the script runs.
        let cfg = DbConfig {
            tree: tree_cfg,
            shadowing,
            pool: PoolConfig {
                frames: 4,
                max_buffered_seg: 4,
            },
            ..DbConfig::default()
        };
        let (mut new_db, tree) = setup_with(cfg);
        let (mut old_db, old_tree) = setup_with(cfg);
        assert_eq!(tree.root_page, old_tree.root_page);
        for db in [&new_db, &old_db] {
            db.pool.disk().enable_trace(1 << 12);
        }
        let label = format!("{tree_cfg:?}, shadowing {shadowing}");
        let mut rng = StdRng::seed_from_u64(0x7EE_2026 ^ tree_cfg.node_entries as u64);
        let mut model: Vec<Entry> = Vec::new();
        let mut next_ptr = 1u32;
        let mut fresh = |rng: &mut StdRng| {
            next_ptr += 1;
            let count = if rng.gen_bool(0.02) {
                rng.gen_range(1..=1 << 20)
            } else {
                rng.gen_range(1..=5_000)
            };
            e(count, next_ptr)
        };
        let cap = tree_cfg.node_entries;
        let (mut growing, mut high_page, mut max_level, mut shrinks) = (true, 0u32, 0u8, 0);
        for step in 0..steps {
            if model.len() >= high {
                growing = false;
            } else if model.len() <= low {
                growing = true;
            }
            let mut ops = Vec::new();
            let mut leaves = model.clone();
            for _ in 0..[1, 1, 1, 2, 3][rng.gen_range(0..5)] {
                let roll = rng.gen_range(0..100);
                let (append, grow, remove) = if growing { (20, 45, 60) } else { (5, 10, 70) };
                let i = rng.gen_range(0..leaves.len().max(1));
                let op = if leaves.is_empty() || roll < append {
                    TwinOp::Append(fresh(&mut rng))
                } else if roll < grow {
                    // Now and then enough pairs to split a node in three.
                    let room = high.saturating_sub(leaves.len()).max(2);
                    let k_max = if rng.gen_bool(0.02) { 2 * cap + 2 } else { 5 };
                    let k = rng.gen_range(2..=k_max.min(room));
                    TwinOp::Replace(i, (0..k).map(|_| fresh(&mut rng)).collect())
                } else if roll < remove {
                    TwinOp::Remove(i)
                } else if roll < remove + (100 - remove) / 2 {
                    TwinOp::Replace(i, vec![fresh(&mut rng)])
                } else if rng.gen_bool(0.5) || leaves[i].count == 1 {
                    TwinOp::AddCount(i, rng.gen_range(1..=4_000))
                } else {
                    TwinOp::AddCount(i, -rng.gen_range(1..leaves[i].count as i64))
                };
                match &op {
                    TwinOp::Append(x) => leaves.push(*x),
                    TwinOp::Replace(i, repl) => {
                        leaves.splice(*i..*i + 1, repl.iter().copied());
                    }
                    TwinOp::Remove(i) => {
                        leaves.remove(*i);
                    }
                    TwinOp::AddCount(i, d) => leaves[*i].count = add_signed(leaves[*i].count, *d),
                }
                ops.push(op);
            }
            for (db, t, old) in [(&mut new_db, &tree, false), (&mut old_db, &old_tree, true)] {
                let mut ctx = OpCtx::new();
                let moved: i64 = ops
                    .iter()
                    .map(|op| run_twin_op(db, t, &mut ctx, op, old))
                    .sum();
                t.bump_size(db, moved).unwrap();
                ctx.finish(db);
            }
            model = leaves;

            let at = || format!("{label}: step {step} ({ops:?})");
            let pages = tree.index_page_numbers(&new_db).unwrap();
            high_page = high_page.max(pages.iter().copied().max().unwrap_or(0));
            for page in 0..=high_page + 8 {
                let (a, b) = (new_db.peek_meta(page), old_db.peek_meta(page));
                assert!(a == b, "{}: META page {page} differs", at());
            }
            assert_eq!(new_db.io_stats(), old_db.io_stats(), "{}", at());
            assert_eq!(
                new_db.pool.pool_stats(),
                old_db.pool.pool_stats(),
                "{}",
                at()
            );
            assert_eq!(new_db.pool.disk().trace_dropped(), 0, "{}", at());
            assert!(
                new_db.pool.disk().take_trace() == old_db.pool.disk().take_trace(),
                "{}: traces differ",
                at()
            );
            tree.check_invariants(&new_db)
                .unwrap_or_else(|err| panic!("{}: {err}", at()));
            old_tree
                .check_invariants(&old_db)
                .unwrap_or_else(|err| panic!("{}: oracle: {err}", at()));
            let got = tree
                .collect_leaves(&new_db)
                .unwrap()
                .into_iter()
                .map(|x| x.1);
            assert!(got.eq(model.iter().copied()), "{}: leaves differ", at());
            let level = new_db.peek_root(tree.root_page).unwrap().0.level;
            shrinks += usize::from(level < max_level);
            max_level = max_level.max(level);
        }
        // The script reached the structural paths, not only the plain one.
        let deep = if cap < 16 { 3 } else { 1 };
        assert!(
            max_level >= deep,
            "{label}: the tree only reached level {max_level}"
        );
        assert!(
            new_db.pool.pool_stats().eviction_writes > 0,
            "{label}: no dirty eviction"
        );
        if steps >= 24_000 {
            assert!(shrinks > 0, "{label}: the tree never shrank");
        }
    }

    #[test]
    fn in_place_tree_matches_the_decoding_one() {
        // ci.sh runs this module optimized too, at full length.
        let steps = if cfg!(debug_assertions) {
            2_000
        } else {
            24_000
        };
        for shadowing in [true, false] {
            twin_run(TreeConfig::tiny(4), shadowing, steps, (0, 120));
            twin_run(TreeConfig::tiny(6), shadowing, steps, (0, 200));
            twin_run(TreeConfig::default(), shadowing, steps, (100, 1_300));
        }
    }
}

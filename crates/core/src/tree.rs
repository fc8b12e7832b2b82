//! The positional "count tree" shared by ESM and EOS (§2.1, §2.3).
//!
//! A B+-tree-like structure whose separators are byte counts rather than
//! keys: each `(count, ptr)` pair says how many object bytes live behind
//! `ptr`. Locating byte *N* walks one root-to-leaf path; structural
//! changes (leaf splits/merges) are confined to that path, so the cost of
//! any update is independent of the object size — the property the paper
//! credits ESM/EOS with in §4.6.
//!
//! The tree manages **index** nodes only. What a level-0 entry points at —
//! a fixed-size ESM leaf or a variable-size EOS segment — is the storage
//! manager's business; managers feed the tree replacement entries and the
//! tree keeps counts, fan-out bounds, and balance.
//!
//! All index pages live in the META area. Every modified non-root node is
//! shadowed through the operation's [`OpCtx`] (§3.3); the root is updated
//! in place and left to the buffer pool.

use std::ops::Range;

use lobstore_buddy::Extent;
use lobstore_simdisk::{cast, AreaId};

use crate::db::Db;
use crate::error::{LobError, Result};
use crate::metrics;
use crate::node::{Entry, Node, NodeView, RootHdr, NODE_MAX_ENTRIES, ROOT_MAX_ENTRIES};
use crate::object::{check_range, SegSpan, SegmentInfo, Utilization};
use crate::segdata::{patch_in_place, peek_segs, read_seg_bytes};
use crate::shadow::OpCtx;

/// One step of a root-to-leaf search path: the node's page and the entry
/// index taken in it. `path[0]` is always the root.
#[derive(Copy, Clone, Debug)]
pub(crate) struct PathStep {
    pub page: u32,
    pub idx: usize,
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
    pub fn read_hdr(&self, db: &mut Db) -> RootHdr {
        db.with_meta_root(self.root_page, |hdr, _| *hdr)
    }

    /// Write the object header back to the root page.
    pub fn write_hdr(&self, db: &mut Db, hdr: &RootHdr) {
        db.with_meta_page_mut(self.root_page, |p| hdr.write(p));
    }

    /// Root header + entries by value, for the structural write paths.
    /// Read-only walks step through [`Db::with_meta_root`]'s view instead.
    fn load_root(&self, db: &mut Db) -> (RootHdr, Node) {
        db.with_meta_root(self.root_page, |hdr, node| (*hdr, node.to_node()))
    }

    fn store_root(&self, db: &mut Db, hdr: &mut RootHdr, node: &Node) {
        db.with_meta_page_mut(self.root_page, |p| node.write_root(p, hdr));
    }

    fn load_node(&self, db: &mut Db, page: u32) -> Node {
        db.with_meta_node(page, |node| node.to_node())
    }

    fn store_node(&self, db: &mut Db, page: u32, node: &Node) {
        db.with_meta_page_mut(page, |p| node.write_page(p));
    }

    fn store_node_new(&self, db: &mut Db, page: u32, node: &Node) {
        db.with_new_meta_page(page, |p| node.write_page(p));
    }

    // ----- search ---------------------------------------------------------

    /// Find the leaf containing byte `off` (`off == size` selects the
    /// rightmost leaf at its end). Returns `None` for an empty object.
    ///
    /// # Panics
    /// If `off` exceeds the stored object size.
    pub fn descend(&self, db: &mut Db, off: u64) -> Option<LeafPos> {
        // Each step searches the fixed page's pair array in place.
        let step_in = |node: NodeView<'_>, rem: u64| {
            let (idx, within, entry) = node.find_child(rem);
            (idx, within, entry, node.level)
        };
        let mut rem = off;
        let (mut idx, mut within, mut entry, mut level) = db
            .with_meta_root(self.root_page, |_, node| {
                (!node.is_empty()).then(|| step_in(node, rem))
            })?;
        let mut path = Vec::with_capacity(4);
        path.push(PathStep {
            page: self.root_page,
            idx,
        });
        while level > 0 {
            let page = entry.ptr;
            rem = within;
            (idx, within, entry, level) = db.with_meta_node(page, |node| step_in(node, rem));
            path.push(PathStep { page, idx });
        }
        metrics::TREE_DESCENTS.add(1);
        metrics::TREE_DESCEND_DEPTH.add(path.len() as u64);
        Some(LeafPos {
            path,
            entry,
            off_in_leaf: within,
            leaf_start: off - within,
        })
    }

    /// [`Self::descend`], required to succeed. Callers use it only after
    /// the offset has been range-checked, so an absent leaf means the
    /// tree and the stored object size disagree — an invariant violation,
    /// not a caller error.
    pub fn try_descend(&self, db: &mut Db, off: u64) -> Result<LeafPos> {
        self.descend(db, off).ok_or_else(|| {
            LobError::InvariantViolated(format!(
                "count tree at page {} has no leaf covering offset {off}",
                self.root_page
            ))
        })
    }

    /// The rightmost leaf, if any. Uses the tree's actual entry total (not
    /// the header size, which may lag behind within an operation).
    pub fn rightmost(&self, db: &mut Db) -> Option<LeafPos> {
        let total = self.total(db);
        self.descend(db, total)
    }

    /// Total bytes currently indexed (the root's entry-count sum, which
    /// may differ from the header size in the middle of an operation).
    pub fn total(&self, db: &mut Db) -> u64 {
        db.with_meta_root(self.root_page, |_, node| node.total())
    }

    // ----- localized updates ----------------------------------------------

    /// Add `delta` to the leaf count along `path` (and to every ancestor
    /// entry). Used for in-place appends that change no pointers.
    pub fn add_count(&self, db: &mut Db, ctx: &mut OpCtx, path: &[PathStep], delta: i64) {
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
                let (mut hdr, mut node) = self.load_root(db);
                adjust(&mut node.entries[step.idx], child_ptr_fix);
                self.store_root(db, &mut hdr, &node);
            } else {
                let target = ctx.shadow_page(db, step.page);
                let mut node = self.load_node(db, target);
                adjust(&mut node.entries[step.idx], child_ptr_fix);
                self.store_node(db, target, &node);
                child_ptr_fix = (target != step.page).then_some(target);
            }
        }
    }

    /// Replace the leaf entry at the end of `path` with `repl` (one or
    /// more entries), splitting ancestors as needed. Counts along the path
    /// are recomputed automatically.
    ///
    /// The path is stale afterwards; re-descend before the next tree call.
    pub fn replace_entry(&self, db: &mut Db, ctx: &mut OpCtx, path: &[PathStep], repl: Vec<Entry>) {
        assert!(!repl.is_empty(), "use remove_entry to delete");
        self.apply(db, ctx, path, 1, repl);
    }

    /// Remove the leaf entry at the end of `path`, rebalancing ancestors
    /// (borrow from or merge with siblings) to keep non-root nodes at
    /// least half full.
    ///
    /// The path is stale afterwards; re-descend before the next tree call.
    pub fn remove_entry(&self, db: &mut Db, ctx: &mut OpCtx, path: &[PathStep]) {
        self.apply(db, ctx, path, 1, Vec::new());
    }

    /// Append `entry` after the current rightmost leaf (or as the first
    /// leaf of an empty object).
    pub fn append_entry(&self, db: &mut Db, ctx: &mut OpCtx, entry: Entry) {
        match self.rightmost(db) {
            None => {
                let (mut hdr, mut node) = self.load_root(db);
                debug_assert_eq!(node.level, 0);
                node.entries.push(entry);
                self.store_root(db, &mut hdr, &node);
            }
            Some(pos) => {
                let old = pos.entry;
                self.replace_entry(db, ctx, &pos.path, vec![old, entry]);
            }
        }
    }

    // ----- structural engine ----------------------------------------------

    /// Bottom-up splice engine: at the node addressed by the last step of
    /// `path`, replace `remove_len` entries starting at that step's index
    /// with `repl`; then walk up fixing counts/pointers, splitting
    /// overfull nodes and rebalancing underfull ones.
    fn apply(
        &self,
        db: &mut Db,
        ctx: &mut OpCtx,
        path: &[PathStep],
        remove_len: usize,
        repl: Vec<Entry>,
    ) {
        let mut start = match path.last() {
            Some(step) => step.idx,
            None => unreachable!("search paths always contain at least the root"),
        };
        let mut remove_len = remove_len;
        let mut repl = repl;
        let mut d = path.len() - 1;
        loop {
            let step = path[d];
            if d == 0 {
                self.apply_at_root(db, ctx, start, remove_len, repl);
                return;
            }
            let target = ctx.shadow_page(db, step.page);
            let mut node = self.load_node(db, target);
            node.entries.splice(start..start + remove_len, repl);
            let cap = self.node_cap(db);
            let min = self.node_min(db);

            let parent_repl: Vec<Entry>;
            let parent_start: usize;
            let parent_remove: usize;

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
                parent_repl = out;
                parent_start = path[d - 1].idx;
                parent_remove = 1;
            } else if node.entries.len() < min {
                // Underflow: rebalance with a sibling, if one exists.
                let parent_node = if d - 1 == 0 {
                    self.load_root(db).1
                } else {
                    self.load_node(db, path[d - 1].page)
                };
                let pidx = path[d - 1].idx;
                if parent_node.entries.len() < 2 {
                    // No sibling (parent is a 1-entry root): tolerate the
                    // underflow; root collapse will absorb it eventually.
                    self.store_node(db, target, &node);
                    parent_repl = vec![Entry {
                        count: node.total(),
                        ptr: target,
                    }];
                    parent_start = pidx;
                    parent_remove = 1;
                } else {
                    let (lo, hi) = if pidx > 0 {
                        (pidx - 1, pidx)
                    } else {
                        (pidx, pidx + 1)
                    };
                    let sib_is_left = pidx > 0;
                    let sib_old = parent_node.entries[if sib_is_left { lo } else { hi }].ptr;
                    let sib_target = ctx.shadow_page(db, sib_old);
                    let sib = self.load_node(db, sib_target);
                    debug_assert_eq!(sib.level, node.level);
                    let mut combined = Vec::with_capacity(sib.entries.len() + node.entries.len());
                    if sib_is_left {
                        combined.extend_from_slice(&sib.entries);
                        combined.extend_from_slice(&node.entries);
                    } else {
                        combined.extend_from_slice(&node.entries);
                        combined.extend_from_slice(&sib.entries);
                    }
                    if combined.len() <= cap {
                        // Merge into the left page; free the right one.
                        let left_pg = if sib_is_left { sib_target } else { target };
                        let right_pg = if sib_is_left { target } else { sib_target };
                        let merged = Node {
                            level: node.level,
                            entries: combined,
                        };
                        self.store_node(db, left_pg, &merged);
                        ctx.free_page_later(right_pg);
                        parent_repl = vec![Entry {
                            count: merged.total(),
                            ptr: left_pg,
                        }];
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
                        parent_repl = vec![
                            Entry {
                                count: left.total(),
                                ptr: left_pg,
                            },
                            Entry {
                                count: right.total(),
                                ptr: right_pg,
                            },
                        ];
                    }
                    parent_start = lo;
                    parent_remove = 2;
                }
            } else {
                // Plain store; propagate count and (possibly new) pointer.
                self.store_node(db, target, &node);
                parent_repl = vec![Entry {
                    count: node.total(),
                    ptr: target,
                }];
                parent_start = path[d - 1].idx;
                parent_remove = 1;
            }
            start = parent_start;
            remove_len = parent_remove;
            repl = parent_repl;
            d -= 1;
        }
    }

    /// Terminal step of [`Self::apply`] at the root: splice, then grow the
    /// tree on overflow or shrink it while the root has a single child.
    fn apply_at_root(
        &self,
        db: &mut Db,
        ctx: &mut OpCtx,
        start: usize,
        remove_len: usize,
        repl: Vec<Entry>,
    ) {
        let (mut hdr, mut node) = self.load_root(db);
        node.entries.splice(start..start + remove_len, repl);
        let rcap = self.root_cap(db);
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
            let child = self.load_node(db, child_pg);
            if child.entries.len() > rcap {
                break;
            }
            ctx.free_page_later(child_pg);
            node = child;
        }
        self.store_root(db, &mut hdr, &node);
    }

    // ----- the object body ESM and EOS share -------------------------------
    //
    // What the two managers do identically over this tree lives here once;
    // what differs (how many pages a leaf entry owns, how a leaf is
    // shadowed) is passed in.

    /// Object size recorded in the root header.
    pub fn size(&self, db: &mut Db) -> u64 {
        self.read_hdr(db).size
    }

    /// Add `delta` to the object size recorded in the root header.
    pub fn bump_size(&self, db: &mut Db, delta: i64) {
        let mut hdr = self.read_hdr(db);
        hdr.size = (hdr.size as i64 + delta) as u64;
        self.write_hdr(db, &hdr);
    }

    /// Visit, left to right, every leaf overlapping object bytes
    /// `[off, off + len)` (range-checked by the caller): one descent per
    /// leaf, `visit` gets the leaf and the sub-range of the caller's
    /// `len`-byte buffer that falls in it. The tree may be restructured
    /// inside `visit`; the next leaf is found by a fresh descent.
    pub fn for_each_leaf(
        &self,
        db: &mut Db,
        off: u64,
        len: usize,
        mut visit: impl FnMut(&mut Db, &LeafPos, Range<usize>),
    ) -> Result<()> {
        let mut done = 0usize;
        while done < len {
            // `off + len` was range-checked against the object size.
            // loblint: allow(arith-overflow)
            let at = off + done as u64;
            let pos = self.try_descend(db, at)?;
            let take = cast::to_usize((pos.leaf_end() - at).min((len - done) as u64));
            visit(db, &pos, done..done + take);
            done += take;
        }
        Ok(())
    }

    /// Read `out.len()` bytes at `off` (range-checked by the caller): one
    /// descent plus one hybrid-policy segment read (§3.2) per leaf.
    pub fn read(&self, db: &mut Db, off: u64, out: &mut [u8]) -> Result<()> {
        self.for_each_leaf(db, off, out.len(), |db, pos, r| {
            // `for_each_leaf` hands out sub-ranges of `0..out.len()`.
            // loblint: allow(panic-path)
            let piece = &mut out[r];
            db.pool
                .read_segment(AreaId::LEAF, pos.entry.ptr, pos.off_in_leaf, piece);
        })
    }

    /// The stored segment holding byte `off` (`off < size`): one costed
    /// descent.
    pub fn locate(&self, db: &mut Db, off: u64) -> Result<SegSpan> {
        check_range(self.size(db), off, 1)?;
        let pos = self.try_descend(db, off)?;
        Ok(SegSpan {
            start: pos.leaf_start,
            bytes: pos.entry.count,
            page: pos.entry.ptr,
        })
    }

    /// Overwrite `[off, off + bytes.len())` (range-checked by the caller),
    /// leaf by leaf. Under shadowing each touched leaf is read whole,
    /// patched in memory and handed to `shadow_leaf`, which writes the new
    /// copy, queues the old one for release and returns the replacement
    /// entry; without shadowing the bytes are patched in place.
    pub fn replace_range(
        &self,
        db: &mut Db,
        ctx: &mut OpCtx,
        off: u64,
        bytes: &[u8],
        mut shadow_leaf: impl FnMut(&mut Db, &mut OpCtx, &LeafPos, &[u8]) -> Entry,
    ) -> Result<()> {
        self.for_each_leaf(db, off, bytes.len(), |db, pos, r| {
            // `for_each_leaf` hands out sub-ranges of `0..bytes.len()`.
            // loblint: allow(panic-path)
            let patch = &bytes[r];
            if db.config().shadowing {
                let s = cast::to_usize(pos.off_in_leaf);
                let mut content = read_seg_bytes(db, pos.entry.ptr, 0, pos.entry.count);
                // The patch lies inside this leaf: `s + patch.len()` is at
                // most the leaf's byte count, which is `content.len()`.
                // loblint: allow(panic-path)
                content[s..s + patch.len()].copy_from_slice(patch);
                let e = shadow_leaf(db, ctx, pos, &content);
                self.replace_entry(db, ctx, &pos.path, vec![e]);
            } else {
                patch_in_place(db, pos.entry.ptr, pos.off_in_leaf, patch);
            }
        })
    }

    /// Free every leaf segment (`leaf_pages` says how many pages an entry
    /// owns), every index page and the root. The index is read through
    /// the pool, so finding the segments is I/O-costed — `destroy` really
    /// does have to read it.
    pub fn destroy(&self, db: &mut Db, leaf_pages: impl Fn(&RootHdr, &Entry) -> u32) {
        let (hdr, root) = self.load_root(db);
        let mut leaves = Vec::new();
        walk_leaves(
            &root,
            &mut |page| self.load_node(db, page),
            &mut 0,
            &mut leaves,
        );
        for (_, e) in leaves {
            db.free_leaf(Extent::new(AreaId::LEAF, e.ptr, leaf_pages(&hdr, &e)));
        }
        for page in self.index_page_numbers(db).into_iter().skip(1) {
            db.free_meta_page(page);
        }
        db.free_meta_page(self.root_page);
    }

    // ----- whole-tree walks (cost-free, for metrics and verification) -----

    /// Every leaf entry with its object start offset, left to right.
    /// Cost-free (peeks pages).
    pub fn collect_leaves(&self, db: &Db) -> Vec<(u64, Entry)> {
        let mut out = Vec::new();
        let (_, root) = db.peek_root(self.root_page);
        walk_leaves(&root, &mut |page| db.peek_node(page), &mut 0, &mut out);
        out
    }

    /// The data segments, left to right; `leaf_pages` says how many pages
    /// an entry owns. Cost-free.
    pub fn segments(
        &self,
        db: &Db,
        leaf_pages: impl Fn(&RootHdr, &Entry) -> u32,
    ) -> Vec<SegmentInfo> {
        let (hdr, _) = db.peek_root(self.root_page);
        self.collect_leaves(db)
            .into_iter()
            .map(|(offset, e)| SegmentInfo {
                offset,
                start_page: e.ptr,
                bytes: e.count,
                pages: leaf_pages(&hdr, &e),
            })
            .collect()
    }

    /// Storage-utilization breakdown over [`Self::segments`]. Cost-free.
    pub fn utilization(
        &self,
        db: &Db,
        leaf_pages: impl Fn(&RootHdr, &Entry) -> u32,
    ) -> Utilization {
        let segs = self.segments(db, leaf_pages);
        Utilization {
            object_bytes: segs.iter().map(|s| s.bytes).sum(),
            data_pages: segs.iter().map(|s| u64::from(s.pages)).sum(),
            index_pages: self.index_page_numbers(db).len() as u64,
        }
    }

    /// Cost-free copy of the full object content (peeked pages).
    pub fn peek_content(&self, db: &Db) -> Vec<u8> {
        let leaves: Vec<Entry> = self
            .collect_leaves(db)
            .into_iter()
            .map(|(_, e)| e)
            .collect();
        peek_segs(db, &leaves)
    }

    /// Every index page of this tree, the root first. Cost-free.
    pub fn index_page_numbers(&self, db: &Db) -> Vec<u32> {
        let (_, root) = db.peek_root(self.root_page);
        let mut out = vec![self.root_page];
        self.collect_internal(db, &root, &mut out);
        out
    }

    fn collect_internal(&self, db: &Db, node: &Node, out: &mut Vec<u32>) {
        if node.level == 0 {
            return;
        }
        for e in &node.entries {
            out.push(e.ptr);
            self.collect_internal(db, &db.peek_node(e.ptr), out);
        }
    }

    /// Structural checks: count consistency, level monotonicity, fan-out
    /// bounds, half-full rule for non-root nodes.
    pub fn check_invariants(&self, db: &Db) -> Result<()> {
        let (hdr, root) = db.peek_root(self.root_page);
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
            let child = db.peek_node(root.entries[0].ptr);
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
                let child = db.peek_node(e.ptr);
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

/// Depth-first leaf walk under `node`, preserving left-to-right order;
/// `fetch` loads a child index page (costed through the pool for
/// `destroy`, peeked for the cost-free inspections).
fn walk_leaves(
    node: &Node,
    fetch: &mut impl FnMut(u32) -> Node,
    off: &mut u64,
    out: &mut Vec<(u64, Entry)>,
) {
    for e in &node.entries {
        if node.level == 0 {
            out.push((*off, *e));
            *off += e.count;
        } else {
            walk_leaves(&fetch(e.ptr), fetch, off, out);
        }
    }
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

    /// Build a db with tiny fan-out and an initialized empty root.
    fn setup(fanout: usize) -> (Db, PosTree) {
        let cfg = DbConfig {
            tree: TreeConfig::tiny(fanout),
            ..DbConfig::default()
        };
        let mut db = Db::new(cfg);
        let root = db.alloc_meta_page();
        let hdr = RootHdr {
            magic: 0x7E57,
            kind: 0,
            level: 0,
            n_entries: 0,
            size: 0,
            params: 0,
            last_seg_alloc: 0,
            last_seg_ptr: 0,
        };
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
            tree.append_entry(db, &mut ctx, e(sz, 1000 + i));
            let mut hdr = tree.read_hdr(db);
            hdr.size += sz;
            tree.write_hdr(db, &hdr);
            ctx.finish(db);
        }
    }

    #[test]
    fn empty_tree_descends_to_none() {
        let (mut db, tree) = setup(4);
        assert!(tree.descend(&mut db, 0).is_none());
        tree.check_invariants(&db).unwrap();
    }

    #[test]
    fn append_entries_until_the_tree_grows() {
        let (mut db, tree) = setup(4);
        build(&mut db, &tree, 20, 10);
        tree.check_invariants(&db).unwrap();
        let hdr = tree.read_hdr(&mut db);
        assert_eq!(hdr.size, 200);
        assert!(hdr.level >= 1, "fan-out 4 with 20 leaves must grow");
        let leaves = tree.collect_leaves(&db);
        assert_eq!(leaves.len(), 20);
        assert_eq!(leaves[7], (70, e(10, 1007)));
        assert!(tree.index_page_numbers(&db).len() > 1);
    }

    #[test]
    fn descend_finds_correct_leaf_and_offsets() {
        let (mut db, tree) = setup(4);
        build(&mut db, &tree, 20, 10);
        for off in [0u64, 9, 10, 55, 199] {
            let pos = tree.descend(&mut db, off).unwrap();
            assert_eq!(pos.leaf_start, (off / 10) * 10);
            assert_eq!(pos.off_in_leaf, off % 10);
            assert_eq!(pos.entry.ptr, 1000 + (off / 10) as u32);
        }
        // Append position.
        let pos = tree.descend(&mut db, 200).unwrap();
        assert_eq!(pos.off_in_leaf, 10);
        assert_eq!(pos.entry.ptr, 1019);
    }

    #[test]
    fn add_count_updates_every_level() {
        let (mut db, tree) = setup(4);
        build(&mut db, &tree, 20, 10);
        let pos = tree.descend(&mut db, 55).unwrap();
        let mut ctx = OpCtx::new();
        tree.add_count(&mut db, &mut ctx, &pos.path, 7);
        let mut hdr = tree.read_hdr(&mut db);
        hdr.size += 7;
        tree.write_hdr(&mut db, &hdr);
        ctx.finish(&mut db);
        tree.check_invariants(&db).unwrap();
        let leaves = tree.collect_leaves(&db);
        assert_eq!(leaves[5].1.count, 17);
    }

    #[test]
    fn add_count_shadows_non_root_path_pages() {
        let (mut db, tree) = setup(4);
        build(&mut db, &tree, 20, 10);
        let pos = tree.descend(&mut db, 0).unwrap();
        assert!(pos.path.len() >= 2);
        let old_pages: Vec<u32> = pos.path.iter().skip(1).map(|s| s.page).collect();
        let mut ctx = OpCtx::new();
        tree.add_count(&mut db, &mut ctx, &pos.path, 1);
        let mut hdr = tree.read_hdr(&mut db);
        hdr.size += 1;
        tree.write_hdr(&mut db, &hdr);
        ctx.finish(&mut db);
        tree.check_invariants(&db).unwrap();
        // The path below the root was relocated by shadowing.
        let pos2 = tree.descend(&mut db, 0).unwrap();
        let new_pages: Vec<u32> = pos2.path.iter().skip(1).map(|s| s.page).collect();
        assert_ne!(old_pages, new_pages);
    }

    #[test]
    fn replace_entry_with_many_splits_leaf_parent() {
        let (mut db, tree) = setup(4);
        build(&mut db, &tree, 4, 10);
        // Replace leaf 1 with five new leaves: forces a split at fan-out 4.
        let pos = tree.descend(&mut db, 10).unwrap();
        let mut ctx = OpCtx::new();
        let repl: Vec<Entry> = (0..5).map(|i| e(2, 2000 + i)).collect();
        tree.replace_entry(&mut db, &mut ctx, &pos.path, repl);
        let mut hdr = tree.read_hdr(&mut db);
        hdr.size = hdr.size - 10 + 10;
        tree.write_hdr(&mut db, &hdr);
        ctx.finish(&mut db);
        tree.check_invariants(&db).unwrap();
        let leaves = tree.collect_leaves(&db);
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
            let pos = tree.descend(&mut db, 0).unwrap();
            let mut ctx = OpCtx::new();
            tree.remove_entry(&mut db, &mut ctx, &pos.path);
            let mut hdr = tree.read_hdr(&mut db);
            hdr.size -= 10;
            tree.write_hdr(&mut db, &hdr);
            ctx.finish(&mut db);
            tree.check_invariants(&db)
                .unwrap_or_else(|e| panic!("at {remaining} leaves left: {e}"));
        }
        let hdr = tree.read_hdr(&mut db);
        assert_eq!(hdr.size, 0);
        assert_eq!(hdr.level, 0, "tree collapsed");
        assert!(tree.collect_leaves(&db).is_empty());
        assert_eq!(
            tree.index_page_numbers(&db),
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
                    tree.append_entry(&mut db, &mut ctx, e(count, ptr));
                    model.push((count, ptr));
                } else {
                    // Replace a random leaf with [old, new] (a split).
                    let i = rng.gen_range(0..model.len());
                    let off: u64 = model[..i].iter().map(|x| x.0).sum();
                    let pos = tree.descend(&mut db, off).unwrap();
                    assert_eq!(pos.entry.ptr, model[i].1, "model desync at step {step}");
                    let old = pos.entry;
                    tree.replace_entry(&mut db, &mut ctx, &pos.path, vec![old, e(count, ptr)]);
                    model.insert(i + 1, (count, ptr));
                }
                let mut hdr = tree.read_hdr(&mut db);
                hdr.size = total + count;
                tree.write_hdr(&mut db, &hdr);
            } else {
                let i = rng.gen_range(0..model.len());
                let off: u64 = model[..i].iter().map(|x| x.0).sum();
                let pos = tree.descend(&mut db, off).unwrap();
                assert_eq!(pos.entry.ptr, model[i].1);
                tree.remove_entry(&mut db, &mut ctx, &pos.path);
                let removed = model.remove(i).0;
                let mut hdr = tree.read_hdr(&mut db);
                hdr.size = total - removed;
                tree.write_hdr(&mut db, &hdr);
            }
            ctx.finish(&mut db);
            tree.check_invariants(&db)
                .unwrap_or_else(|err| panic!("step {step}: {err}"));
            let leaves = tree.collect_leaves(&db);
            let got: Vec<(u64, u32)> = leaves.iter().map(|(_, e)| (e.count, e.ptr)).collect();
            assert_eq!(got, model, "leaf sequence mismatch at step {step}");
        }
    }

    #[test]
    fn meta_pages_are_not_leaked() {
        let (mut db, tree) = setup(4);
        build(&mut db, &tree, 50, 10);
        for _ in 0..50 {
            let pos = tree.descend(&mut db, 0).unwrap();
            let mut ctx = OpCtx::new();
            tree.remove_entry(&mut db, &mut ctx, &pos.path);
            let mut hdr = tree.read_hdr(&mut db);
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
}

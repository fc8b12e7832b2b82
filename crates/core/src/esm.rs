//! The EXODUS Storage Manager (ESM) large-object structure (§2.1, §3.4).
//!
//! Fixed-size leaf segments (a per-object parameter, the paper uses 1, 4,
//! 16, and 64 pages) indexed by the positional count tree. The interesting
//! algorithms live at the leaf level:
//!
//! * **append** — fill the rightmost leaf in place; on overflow,
//!   redistribute the new bytes, the rightmost leaf, and its left
//!   neighbour (if it has free space) so that all but the two rightmost
//!   leaves are full and those two are each at least half full (§4.2).
//!   Output leaves whose content would be byte-identical to an existing
//!   leaf are left untouched, so exact-fit appends write only new leaves.
//! * **insert** — the *basic* algorithm splits the target leaf and the new
//!   bytes evenly over new leaves; the *improved* algorithm (the paper's
//!   default) first tries to redistribute with a neighbour to avoid
//!   creating a leaf \[Care86\].
//! * **delete** — whole leaves are freed without data I/O; boundary leaves
//!   are rewritten, then re-balanced with a neighbour if under half full.
//!
//! Updates that overwrite useful bytes shadow the whole leaf (allocate a
//! new segment, write it, free the old one); pure appends go in place
//! (§3.3). Only pages actually holding bytes are ever transferred.
//!
//! Each update descends the count tree once, from the offset it names
//! (a delete once more, to the leaf before its start, after the first
//! rebalance), and reaches neighbours and rewrites leaf runs along the
//! search path ([`PosTree::prev`], [`PosTree::next`],
//! [`PosTree::splice`]).

use lobstore_buddy::Extent;
use lobstore_simdisk::{cast, AreaId, PAGE_SIZE_U64};

use crate::db::Db;
use crate::error::{LobError, Result};
use crate::node::Entry;
use crate::object::{check_op_len, check_range};
use crate::segdata::{
    append_in_place, append_sizes, even_sizes, insert_bytes, read_seg_bytes, read_segs,
    write_new_seg, write_seg_pages,
};
use crate::shadow::OpCtx;
use crate::tree::{read_piece, LeafPos, PosTree};

/// Byte-insert algorithm variant \[Care86\].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum EsmInsertAlgo {
    /// On overflow, split the target leaf and new bytes evenly.
    Basic,
    /// First try redistributing with one neighbour to avoid a new leaf —
    /// "significant gains in storage utilization with minimal additional
    /// insert cost" (§3.4). The paper's experiments use this.
    #[default]
    Improved,
}

/// ESM's update policy over one object's tree ([`crate::Lob`] builds it
/// from its [`crate::ManagerSpec::Esm`] spec for each update).
#[derive(Copy, Clone, Debug)]
pub(crate) struct Esm {
    pub tree: PosTree,
    /// Leaf segment size in pages; fixed for the object's lifetime.
    pub leaf_pages: u32,
    pub insert_algo: EsmInsertAlgo,
}

impl Esm {
    /// Leaf capacity in bytes.
    fn cap(&self) -> u64 {
        u64::from(self.leaf_pages) * PAGE_SIZE_U64
    }

    fn leaf_extent(&self, ptr: u32) -> Extent {
        Extent::new(AreaId::LEAF, ptr, self.leaf_pages)
    }

    /// Write `bytes` into a freshly allocated leaf; returns its entry.
    fn new_leaf(&self, db: &mut Db, bytes: &[u8]) -> Entry {
        let ext = write_new_seg(db, self.leaf_pages, bytes);
        Entry {
            count: bytes.len() as u64,
            ptr: ext.start,
        }
    }

    /// Write `buf` into fresh leaves of `sizes` bytes each, left to right.
    fn new_leaves(&self, db: &mut Db, buf: &[u8], sizes: &[u64]) -> Vec<Entry> {
        let mut rest = buf;
        let mut out = Vec::with_capacity(sizes.len());
        for &s in sizes {
            let (piece, tail) = rest.split_at(cast::to_usize(s));
            out.push(self.new_leaf(db, piece));
            rest = tail;
        }
        debug_assert!(rest.is_empty());
        out
    }

    /// The bytes of the leaf at `pos` with `bytes` inserted at its offset.
    fn leaf_with(&self, db: &Db, pos: &LeafPos, bytes: &[u8]) -> Vec<u8> {
        let mut content = read_segs(db, &[pos.entry], bytes.len() as u64);
        insert_bytes(&mut content, cast::to_usize(pos.off_in_leaf), bytes);
        content
    }

    /// The append-overflow redistribution of §4.2. `pos` is the rightmost
    /// leaf; `bytes` did not fit in its free space.
    fn append_overflow(
        &self,
        db: &mut Db,
        ctx: &mut OpCtx,
        pos: LeafPos,
        bytes: &[u8],
    ) -> Result<()> {
        let cap = self.cap();
        // Participants, leftmost first: the left neighbour if it has free
        // space, then the rightmost leaf.
        let mut parts: Vec<LeafPos> = Vec::with_capacity(2);
        if let Some(ln) = self.tree.prev(db, &pos)? {
            if ln.entry.count < cap {
                parts.push(ln);
            }
        }
        parts.push(pos);
        let existing: u64 = parts.iter().map(|p| p.entry.count).sum();
        let sizes = append_sizes(existing + bytes.len() as u64, cap);

        // Skip leading output leaves that would be byte-identical to an
        // existing participant (same size at the same stream position).
        let mut skip = 0usize;
        while skip < parts.len() && sizes[skip] == parts[skip].entry.count {
            skip += 1;
        }

        // Materialize the rewritten byte stream.
        let rewritten: Vec<Entry> = parts[skip..].iter().map(|p| p.entry).collect();
        let mut buf = read_segs(db, &rewritten, bytes.len() as u64);
        buf.extend_from_slice(bytes);
        let new_entries = self.new_leaves(db, &buf, &sizes[skip..]);

        for p in &parts[skip..] {
            ctx.free_extent_later(self.leaf_extent(p.entry.ptr));
        }

        match parts.get(skip) {
            Some(first) => self.tree.splice(db, ctx, first, &rewritten, new_entries)?,
            None => {
                // Everything kept; the new leaves follow the rightmost one.
                let Some(last) = parts.last() else {
                    unreachable!("parts always includes the rightmost leaf");
                };
                let mut repl = Vec::with_capacity(1 + new_entries.len());
                repl.push(last.entry);
                repl.extend(new_entries);
                self.tree.splice(db, ctx, last, &[last.entry], repl)?
            }
        };
        Ok(())
    }

    /// Rewrite the leaf at `pos` with `content` (shadowed, or in place
    /// when shadowing is off and the change starts at `keep_prefix`
    /// unchanged bytes). Returns the replacement entry.
    fn rewrite_leaf(
        &self,
        db: &mut Db,
        ctx: &mut OpCtx,
        pos: &LeafPos,
        content: &[u8],
        keep_prefix: u64,
    ) -> Entry {
        if db.config().shadowing {
            let e = self.new_leaf(db, content);
            ctx.free_extent_later(self.leaf_extent(pos.entry.ptr));
            e
        } else {
            // In place: write only the pages from the first changed byte on.
            let first_page = keep_prefix / PAGE_SIZE_U64;
            let from = cast::to_usize(first_page * PAGE_SIZE_U64);
            let page = pos.entry.ptr + cast::to_u32(first_page);
            write_seg_pages(db, page, &content[from..]);
            Entry {
                count: content.len() as u64,
                ptr: pos.entry.ptr,
            }
        }
    }

    /// If the leaf at `pos` is under half full (and not alone), merge with
    /// or borrow from a neighbour.
    fn fix_underflow(&self, db: &mut Db, ctx: &mut OpCtx, pos: LeafPos) -> Result<()> {
        let cap = self.cap();
        if pos.entry.count * 2 >= cap {
            return Ok(());
        }
        // Prefer the left neighbour.
        let (left, right) = match self.tree.prev(db, &pos)? {
            Some(ln) => (ln, pos),
            None => match self.tree.next(db, &pos)? {
                Some(rn) => (pos, rn),
                None => return Ok(()), // only leaf in the object
            },
        };
        // Merged into one leaf, or split evenly over two.
        let buf = read_segs(db, &[left.entry, right.entry], 0);
        let new_entries = self.new_leaves(db, &buf, &even_sizes(buf.len() as u64, cap));
        ctx.free_extent_later(self.leaf_extent(left.entry.ptr));
        ctx.free_extent_later(self.leaf_extent(right.entry.ptr));
        let run = [left.entry, right.entry];
        self.tree.splice(db, ctx, &left, &run, new_entries)?;
        Ok(())
    }

    /// Insert `bytes` at `pos`, which is not the object's end.
    fn insert_inner(&self, db: &mut Db, ctx: &mut OpCtx, pos: LeafPos, bytes: &[u8]) -> Result<()> {
        let cap = self.cap();
        let len = bytes.len() as u64;
        let p = cast::to_usize(pos.off_in_leaf);

        if pos.entry.count + len <= cap {
            // Fits in the target leaf: rewrite it.
            let content = self.leaf_with(db, &pos, bytes);
            let e = self.rewrite_leaf(db, ctx, &pos, &content, pos.off_in_leaf);
            self.tree.splice(db, ctx, &pos, &[pos.entry], vec![e])?;
            return Ok(());
        }

        if self.insert_algo == EsmInsertAlgo::Improved {
            // Try to avoid a new leaf by redistributing with one neighbour.
            let left = self.tree.prev(db, &pos)?;
            let right = self.tree.next(db, &pos)?;
            let fits = |n: &LeafPos| n.entry.count + pos.entry.count + len <= 2 * cap;
            let neighbour = match (left, right) {
                (Some(l), _) if fits(&l) => Some((l, true)),
                (_, Some(r)) if fits(&r) => Some((r, false)),
                _ => None,
            };
            if let Some((n, n_is_left)) = neighbour {
                // Stream: neighbour/leaf in object order, with the insert.
                let (first, second, at) = if n_is_left {
                    (&n, &pos, cast::to_usize(n.entry.count) + p)
                } else {
                    (&pos, &n, p)
                };
                // Split evenly over two leaves (the stream outgrew one).
                let mut buf = read_segs(db, &[first.entry, second.entry], len);
                insert_bytes(&mut buf, at, bytes);
                let entries = self.new_leaves(db, &buf, &even_sizes(buf.len() as u64, cap));
                ctx.free_extent_later(self.leaf_extent(pos.entry.ptr));
                ctx.free_extent_later(self.leaf_extent(n.entry.ptr));
                let run = [first.entry, second.entry];
                self.tree.splice(db, ctx, first, &run, entries)?;
                return Ok(());
            }
        }

        // Split: distribute the leaf plus the new bytes evenly over
        // ceil(total/cap) leaves.
        let buf = self.leaf_with(db, &pos, bytes);
        let entries = self.new_leaves(db, &buf, &even_sizes(buf.len() as u64, cap));
        ctx.free_extent_later(self.leaf_extent(pos.entry.ptr));
        self.tree.splice(db, ctx, &pos, &[pos.entry], entries)?;
        Ok(())
    }

    /// Append `bytes`: fill the rightmost leaf in place, or redistribute
    /// on overflow (§4.2).
    pub(crate) fn append(&self, db: &mut Db, bytes: &[u8]) -> Result<()> {
        if bytes.is_empty() {
            return Ok(());
        }
        check_op_len(bytes.len() as u64)?;
        let mut ctx = OpCtx::new();
        match self.tree.rightmost(db)? {
            None => {
                // First bytes of the object: lay out leaves directly.
                let sizes = append_sizes(bytes.len() as u64, self.cap());
                let mut off = 0usize;
                for &s in &sizes {
                    let s = cast::to_usize(s);
                    let e = self.new_leaf(db, &bytes[off..off + s]);
                    self.tree.append_entry(db, &mut ctx, e)?;
                    off += s;
                }
            }
            Some(pos) => {
                let free = self.cap() - pos.entry.count;
                if bytes.len() as u64 <= free {
                    append_in_place(db, pos.entry.ptr, pos.entry.count, bytes);
                    self.tree
                        .add_count(db, &mut ctx, &pos.path, bytes.len() as i64)?;
                } else {
                    self.append_overflow(db, &mut ctx, pos, bytes)?;
                }
            }
        }
        self.tree.bump_size(db, bytes.len() as i64)?;
        ctx.finish(db);
        Ok(())
    }

    /// Insert `bytes` at `off`. One at the end is [`Self::append`] (this
    /// policy's, unobserved: the caller's `op.esm.insert` covers it).
    pub(crate) fn insert(&self, db: &mut Db, off: u64, bytes: &[u8]) -> Result<()> {
        if bytes.is_empty() {
            return check_range(self.tree.size(db)?, off, 0).map(drop);
        }
        let len = bytes.len() as u64;
        let Some(pos) = self
            .tree
            .descend_insert(db, off, || check_op_len(len).map(drop))?
        else {
            return self.append(db, bytes);
        };
        let mut ctx = OpCtx::new();
        self.insert_inner(db, &mut ctx, pos, bytes)?;
        self.tree.bump_size(db, len as i64)?;
        ctx.finish(db);
        Ok(())
    }

    /// Delete `len` bytes at `off`, then rebalance both boundaries.
    pub(crate) fn delete(&self, db: &mut Db, off: u64, len: u64) -> Result<()> {
        if len == 0 {
            return check_range(self.tree.size(db)?, off, 0).map(drop);
        }
        let mut pos = self.tree.descend_checked(db, off, len)?;
        let mut ctx = OpCtx::new();
        let mut remaining = len;
        let (last, keeps_tail) = loop {
            let del = (pos.leaf_end() - off).min(remaining);
            // `off_in_leaf + del` is at most the leaf's byte count.
            // loblint: allow(arith-overflow)
            let keeps_tail = pos.off_in_leaf + del < pos.entry.count;
            let spliced = if del == pos.entry.count {
                // The whole leaf goes: no data I/O at all.
                ctx.free_extent_later(self.leaf_extent(pos.entry.ptr));
                self.tree
                    .splice(db, &mut ctx, &pos, &[pos.entry], Vec::new())?
            } else {
                let mut content = read_seg_bytes(db, pos.entry.ptr, 0, pos.entry.count);
                let s = cast::to_usize(pos.off_in_leaf);
                content.drain(s..s + cast::to_usize(del));
                let e = self.rewrite_leaf(db, &mut ctx, &pos, &content, pos.off_in_leaf);
                self.tree
                    .splice(db, &mut ctx, &pos, &[pos.entry], vec![e])?
            };
            remaining -= del;
            if remaining == 0 {
                break (spliced, keeps_tail);
            }
            pos = self.tree.after(db, spliced)?.ok_or_else(|| {
                LobError::InvariantViolated(format!("delete at {off} ran off the end"))
            })?;
        };
        self.tree.bump_size(db, -(len as i64))?;
        // Both deletion boundaries may have left an under-half leaf: the
        // leaf now holding `off` (the last one when the tail went) and the
        // leaf before it.
        let at_off = if keeps_tail {
            Some(self.tree.first(db, &last)?)
        } else {
            match self.tree.after(db, last)? {
                None => self.tree.rightmost(db)?,
                found => found,
            }
        };
        if let Some(pos) = at_off {
            self.fix_underflow(db, &mut ctx, pos)?;
            if off > 0 {
                let pos = self.tree.try_descend(db, off - 1)?;
                self.fix_underflow(db, &mut ctx, pos)?;
            }
        }
        ctx.finish(db);
        Ok(())
    }

    /// Overwrite `bytes.len()` bytes at `off`, shadowing each leaf.
    pub(crate) fn replace(&self, db: &mut Db, off: u64, bytes: &[u8]) -> Result<()> {
        if bytes.is_empty() {
            return check_range(self.tree.size(db)?, off, 0).map(drop);
        }
        let mut ctx = OpCtx::new();
        self.tree
            .replace_range(db, &mut ctx, off, bytes, |db, ctx, pos, content| {
                Ok(self.rewrite_leaf(db, ctx, pos, content, pos.off_in_leaf))
            })?;
        ctx.finish(db);
        Ok(())
    }

    /// The tree's invariants, and every leaf within its capacity and at
    /// least half full unless alone.
    pub(crate) fn check_invariants(&self, db: &Db) -> Result<()> {
        self.tree.check_invariants(db)?;
        let cap = self.cap();
        let leaves = self.tree.collect_leaves(db)?;
        for (off, e) in &leaves {
            if e.count == 0 || e.count > cap {
                return Err(LobError::InvariantViolated(format!(
                    "leaf at {off} holds {} bytes, cap {cap}",
                    e.count
                )));
            }
            if leaves.len() > 1 && e.count * 2 < cap {
                return Err(LobError::InvariantViolated(format!(
                    "leaf at {off} under half full: {} of {cap}",
                    e.count
                )));
            }
        }
        Ok(())
    }
}

/// A bulk read's copy out of the leaf at `pos`: the hybrid segment read,
/// or under the §4.5 ablation (`whole_leaf_io`) the entire leaf, then the
/// piece copied. [`crate::Lob`]'s one leaf fetch, for every scheme.
pub(crate) fn fetch(whole_leaf_io: bool, db: &Db, pos: &LeafPos, piece: &mut [u8]) {
    if !whole_leaf_io {
        return read_piece(db, pos, piece);
    }
    let whole = read_seg_bytes(db, pos.entry.ptr, 0, pos.entry.count);
    let s = cast::to_usize(pos.off_in_leaf);
    piece.copy_from_slice(&whole[s..s + piece.len()]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LargeObject, Lob, ManagerSpec, StorageKind};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn db() -> Db {
        Db::paper_default()
    }

    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| ((i * 31 + seed as usize) % 251) as u8)
            .collect()
    }

    fn make(db: &mut Db, leaf_pages: u32) -> Lob {
        Lob::create(db, ManagerSpec::esm(leaf_pages)).unwrap()
    }

    #[test]
    fn create_open_roundtrip() {
        let mut db = db();
        let obj = make(&mut db, 16);
        let root = obj.root_page();
        let again = Lob::open(&mut db, StorageKind::Esm, root).unwrap();
        assert_eq!(again.spec(), ManagerSpec::esm(16));
        assert_eq!(again.kind(), StorageKind::Esm);
    }

    #[test]
    fn open_rejects_non_esm_pages() {
        let mut db = db();
        let page = db.alloc_meta_page();
        db.with_new_meta_page(page, |p| p[0] = 0xFF);
        assert!(matches!(
            Lob::open(&mut db, StorageKind::Esm, page),
            Err(LobError::Corrupt(_))
        ));
    }

    #[test]
    fn create_rejects_a_leaf_size_out_of_range() {
        let mut db = db();
        let too_big = db.max_segment_pages() + 1;
        for leaf_pages in [0, too_big] {
            let got = Lob::create(&mut db, ManagerSpec::esm(leaf_pages));
            assert!(
                matches!(got, Err(LobError::InvalidArgument(_))),
                "{leaf_pages}: {got:?}"
            );
        }
        assert_eq!(db.meta_pages_allocated(), 0, "no root was allocated");
    }

    #[test]
    fn small_append_and_read() {
        let mut db = db();
        let mut obj = make(&mut db, 1);
        obj.append(&mut db, b"hello world").unwrap();
        assert_eq!(obj.size(&mut db), 11);
        let mut out = vec![0u8; 5];
        obj.read(&mut db, 6, &mut out).unwrap();
        assert_eq!(&out, b"world");
        obj.check_invariants(&db).unwrap();
        assert_eq!(obj.snapshot(&db), b"hello world");
    }

    #[test]
    fn appends_build_correct_content() {
        let mut db = db();
        let mut obj = make(&mut db, 4);
        let mut model = Vec::new();
        for i in 0..40 {
            let chunk = pattern(3_000 + i * 137, i as u8);
            obj.append(&mut db, &chunk).unwrap();
            model.extend_from_slice(&chunk);
            obj.check_invariants(&db).unwrap();
        }
        assert_eq!(obj.size(&mut db), model.len() as u64);
        assert_eq!(obj.snapshot(&db), model);
    }

    #[test]
    fn exact_fit_appends_never_rewrite_existing_leaves() {
        let mut db = db();
        let mut obj = make(&mut db, 1);
        obj.append(&mut db, &pattern(4096, 1)).unwrap();
        db.reset_io_stats();
        obj.append(&mut db, &pattern(4096, 2)).unwrap();
        let s = db.io_stats();
        // Exactly one new leaf written; no leaf read back.
        assert_eq!(s.pages_read, 0, "no data pages re-read: {s}");
        obj.check_invariants(&db).unwrap();
        assert_eq!(obj.utilization(&db).object_bytes, 8192);
    }

    #[test]
    fn utilization_near_one_after_exact_build() {
        let mut db = db();
        let mut obj = make(&mut db, 4);
        for i in 0..64 {
            obj.append(&mut db, &pattern(16 * 1024, i)).unwrap();
        }
        let u = obj.utilization(&db);
        assert!(u.ratio() > 0.95, "utilization {} too low", u.ratio());
    }

    #[test]
    fn mismatched_appends_keep_leaves_at_least_half_full() {
        let mut db = db();
        let mut obj = make(&mut db, 1);
        for i in 0..200 {
            obj.append(&mut db, &pattern(3 * 1024, i as u8)).unwrap();
            obj.check_invariants(&db).unwrap();
        }
        let u = obj.utilization(&db);
        assert!(u.ratio() > 0.55, "utilization {}", u.ratio());
    }

    #[test]
    fn insert_within_a_leaf() {
        let mut db = db();
        let mut obj = make(&mut db, 4);
        obj.append(&mut db, b"aaaabbbb").unwrap();
        obj.insert(&mut db, 4, b"XY").unwrap();
        assert_eq!(obj.snapshot(&db), b"aaaaXYbbbb");
        obj.check_invariants(&db).unwrap();
    }

    #[test]
    fn insert_at_end_is_append() {
        let mut db = db();
        let mut obj = make(&mut db, 1);
        obj.append(&mut db, b"abc").unwrap();
        obj.insert(&mut db, 3, b"def").unwrap();
        assert_eq!(obj.snapshot(&db), b"abcdef");
    }

    #[test]
    fn insert_overflow_splits_evenly() {
        let mut db = db();
        let mut obj = make(&mut db, 1);
        obj.append(&mut db, &pattern(4096, 1)).unwrap(); // one full leaf
        let mut model = pattern(4096, 1);
        let ins = pattern(100_000, 2);
        obj.insert(&mut db, 2000, &ins).unwrap();
        model.splice(2000..2000, ins.iter().copied());
        assert_eq!(obj.snapshot(&db), model);
        obj.check_invariants(&db).unwrap();
        // ~26 leaves, each ≥ half full and ~96% utilization (§4.5).
        let u = obj.utilization(&db);
        assert!(u.ratio() > 0.9, "utilization {}", u.ratio());
    }

    #[test]
    fn improved_insert_uses_neighbour_to_avoid_new_leaf() {
        let mut db = db();
        let mut obj = make(&mut db, 1);
        // Two appends: the overflow redistribution leaves [3072, 3072].
        obj.append(&mut db, &pattern(4096, 1)).unwrap();
        obj.append(&mut db, &pattern(2048, 2)).unwrap();
        // Insert 2 KB into leaf 0 (3072 + 2048 > 4096): improved
        // redistributes with the right neighbour instead of splitting.
        obj.insert_algo = EsmInsertAlgo::Improved;
        obj.insert(&mut db, 100, &pattern(2048, 3)).unwrap();
        obj.check_invariants(&db).unwrap();
        let u = obj.utilization(&db);
        assert_eq!(
            u.data_pages, 2,
            "improved algorithm should stay at 2 leaves"
        );
    }

    #[test]
    fn basic_insert_creates_more_leaves_than_improved() {
        let run = |algo: EsmInsertAlgo| {
            let mut db = db();
            let mut obj = make(&mut db, 1);
            obj.insert_algo = algo;
            obj.append(&mut db, &pattern(4096, 1)).unwrap(); // → [4096]
            obj.append(&mut db, &pattern(2048, 2)).unwrap(); // → [3072, 3072]
            obj.insert(&mut db, 100, &pattern(2048, 3)).unwrap();
            obj.check_invariants(&db).unwrap();
            obj.utilization(&db).data_pages
        };
        assert!(run(EsmInsertAlgo::Basic) > run(EsmInsertAlgo::Improved));
    }

    #[test]
    fn delete_whole_leaves_costs_no_data_io() {
        let mut db = db();
        let mut obj = make(&mut db, 1);
        for i in 0..8 {
            obj.append(&mut db, &pattern(4096, i)).unwrap();
        }
        db.reset_io_stats();
        // Delete leaves 2..6 exactly (aligned to leaf boundaries).
        obj.delete(&mut db, 2 * 4096, 4 * 4096).unwrap();
        let s = db.io_stats();
        assert_eq!(s.pages_read, 0, "whole-leaf delete reads no data: {s}");
        obj.check_invariants(&db).unwrap();
        assert_eq!(obj.size(&mut db), 4 * 4096);
    }

    #[test]
    fn delete_within_one_leaf() {
        let mut db = db();
        let mut obj = make(&mut db, 4);
        let data = pattern(10_000, 7);
        obj.append(&mut db, &data).unwrap();
        obj.delete(&mut db, 1_000, 2_000).unwrap();
        let mut model = data.clone();
        model.drain(1_000..3_000);
        assert_eq!(obj.snapshot(&db), model);
        obj.check_invariants(&db).unwrap();
    }

    #[test]
    fn delete_spanning_many_leaves_rebalances() {
        let mut db = db();
        let mut obj = make(&mut db, 1);
        let mut model = Vec::new();
        for i in 0..20 {
            let c = pattern(4096, i);
            obj.append(&mut db, &c).unwrap();
            model.extend_from_slice(&c);
        }
        // Unaligned delete spanning several leaves.
        obj.delete(&mut db, 1_500, 30_000).unwrap();
        model.drain(1_500..31_500);
        assert_eq!(obj.snapshot(&db), model);
        obj.check_invariants(&db).unwrap();
    }

    #[test]
    fn delete_everything_leaves_empty_object() {
        let mut db = db();
        let mut obj = make(&mut db, 1);
        obj.append(&mut db, &pattern(20_000, 3)).unwrap();
        obj.delete(&mut db, 0, 20_000).unwrap();
        assert_eq!(obj.size(&mut db), 0);
        assert!(obj.snapshot(&db).is_empty());
        obj.check_invariants(&db).unwrap();
        assert_eq!(db.leaf_pages_allocated(), 0, "all leaves freed");
    }

    #[test]
    fn replace_overwrites_without_size_change() {
        let mut db = db();
        let mut obj = make(&mut db, 1);
        let data = pattern(12_000, 1);
        obj.append(&mut db, &data).unwrap();
        let patch = pattern(5_000, 9);
        obj.replace(&mut db, 3_000, &patch).unwrap();
        let mut model = data.clone();
        model[3_000..8_000].copy_from_slice(&patch);
        assert_eq!(obj.snapshot(&db), model);
        assert_eq!(obj.size(&mut db), 12_000);
        obj.check_invariants(&db).unwrap();
    }

    #[test]
    fn out_of_range_operations_error() {
        let mut db = db();
        let mut obj = make(&mut db, 1);
        obj.append(&mut db, b"12345").unwrap();
        let mut out = [0u8; 2];
        assert!(matches!(
            obj.read(&mut db, 4, &mut out),
            Err(LobError::OutOfRange { .. })
        ));
        assert!(obj.insert(&mut db, 6, b"x").is_err());
        assert!(obj.delete(&mut db, 3, 3).is_err());
        assert!(obj.replace(&mut db, 5, b"x").is_err());
    }

    #[test]
    fn destroy_returns_all_storage() {
        let mut db = db();
        let mut obj = make(&mut db, 4);
        for i in 0..30 {
            obj.append(&mut db, &pattern(50_000, i)).unwrap();
        }
        obj.delete(&mut db, 100, 200).unwrap();
        obj.destroy(&mut db).unwrap();
        assert_eq!(db.leaf_pages_allocated(), 0);
        assert_eq!(db.meta_pages_allocated(), 0);
    }

    #[test]
    fn random_ops_match_reference_model() {
        for leaf_pages in [1u32, 4] {
            let mut db = db();
            let mut obj = make(&mut db, leaf_pages);
            let mut model: Vec<u8> = Vec::new();
            let mut rng = StdRng::seed_from_u64(7 + u64::from(leaf_pages));
            for step in 0..120 {
                let choice = rng.gen_range(0..10);
                if model.is_empty() || choice < 4 {
                    let chunk = pattern(rng.gen_range(1..20_000), rng.gen());
                    let off = rng.gen_range(0..=model.len());
                    obj.insert(&mut db, off as u64, &chunk).unwrap();
                    model.splice(off..off, chunk.iter().copied());
                } else if choice < 7 {
                    let off = rng.gen_range(0..model.len());
                    let len = rng.gen_range(1..=(model.len() - off).min(15_000));
                    obj.delete(&mut db, off as u64, len as u64).unwrap();
                    model.drain(off..off + len);
                } else if choice < 9 {
                    let off = rng.gen_range(0..model.len());
                    let len = rng.gen_range(1..=(model.len() - off).min(8_000));
                    let mut out = vec![0u8; len];
                    obj.read(&mut db, off as u64, &mut out).unwrap();
                    assert_eq!(out[..], model[off..off + len], "read mismatch @{step}");
                } else {
                    let off = rng.gen_range(0..model.len());
                    let len = rng.gen_range(1..=(model.len() - off).min(8_000));
                    let patch = pattern(len, rng.gen());
                    obj.replace(&mut db, off as u64, &patch).unwrap();
                    model[off..off + len].copy_from_slice(&patch);
                }
                obj.check_invariants(&db)
                    .unwrap_or_else(|e| panic!("leaf_pages={leaf_pages} step={step}: {e}"));
                assert_eq!(
                    obj.snapshot(&db),
                    model,
                    "content mismatch at step {step} (leaf_pages {leaf_pages})"
                );
            }
        }
    }

    #[test]
    fn whole_leaf_io_costs_more_for_small_reads() {
        let mut db1 = db();
        let mut obj = make(&mut db1, 16);
        obj.append(&mut db1, &pattern(16 * 4096, 1)).unwrap();
        let mut out = vec![0u8; 100];
        db1.reset_io_stats();
        obj.read(&mut db1, 200, &mut out).unwrap();
        let partial = db1.io_stats();

        obj.whole_leaf_io = true;
        db1.reset_io_stats();
        obj.read(&mut db1, 40_000, &mut out).unwrap();
        let whole = db1.io_stats();
        assert!(whole.pages_read > partial.pages_read);
        assert_eq!(partial.pages_read, 1, "partial read fetches one page");
    }
}

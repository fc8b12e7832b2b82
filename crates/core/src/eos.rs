//! The EOS large-object structure (§2.3).
//!
//! EOS generalizes ESM and Starburst: large objects live in a sequence of
//! **variable-size** segments of physically contiguous pages, indexed by
//! the same positional count tree as ESM. Segments have no holes — every
//! page is full except possibly the last page of each segment.
//!
//! * **append** — same growth pattern as Starburst (§4.2): fill the
//!   allocated tail of the rightmost segment in place, then allocate
//!   segments that double in size up to the maximum.
//! * **insert** — the affected segment `S` is split at the insertion
//!   point: its prefix stays exactly where it is, the new bytes go to
//!   their own fresh segment, and the suffix is copied to another fresh
//!   segment (the paper: a 100 KB insert lands in a 25-page leaf even
//!   with a smaller threshold).
//! * **delete** — fully covered segments are freed without any data I/O;
//!   a trimmed suffix costs nothing but a tail free; only a surviving
//!   suffix is copied.
//! * **threshold `T`** — after an update splits segments, adjacent
//!   segments that could be stored together in at most `T` pages are
//!   merged ("it cannot be the case that a number of bytes are kept in
//!   two adjacent segments, one of which has less than T pages, if they
//!   can be stored in one"). Larger `T` ⇒ better utilization and reads,
//!   more reshuffling on updates — the §4.6 trade-off.
//!
//! An update descends the count tree from the offset it names, then
//! surveys segments and finds the window's neighbours along the search
//! path ([`PosTree::next`], [`PosTree::prev`]) and replaces the window
//! with one [`PosTree::splice`]. The region rebuild and the merge walk
//! each descend once more, from their own offset, and a delete finds its
//! rebuild window's two neighbours by descent: a delete's dropped run
//! (and, for the merge walk, the rebuild) has moved the paths it holds.

use lobstore_buddy::Extent;
use lobstore_simdisk::{cast, pages_for_bytes, AreaId, PAGE_SIZE_U64};

use crate::db::Db;
use crate::error::{LobError, Result};
use crate::node::{Entry, RootHdr};
use crate::object::{check_op_len, check_range};
use crate::segdata::{append_in_place, append_seg_bytes, read_segs, seg_buf, write_new_seg};
use crate::shadow::OpCtx;
use crate::tree::{LeafPos, PosTree};

/// EOS's update policy over one object's tree ([`crate::Lob`] builds it
/// from its [`crate::ManagerSpec::Eos`] spec for each update).
#[derive(Copy, Clone, Debug)]
pub(crate) struct Eos {
    pub tree: PosTree,
    /// Segment-size threshold `T` in pages (§2.3).
    pub threshold_pages: u32,
    /// Maximum segment size in pages.
    pub max_seg_pages: u32,
}

impl Eos {
    fn max_bytes(&self) -> u64 {
        u64::from(self.max_seg_pages) * PAGE_SIZE_U64
    }

    /// Queue the whole segment behind `entry` to be freed when the
    /// operation ends (the old pages must stay intact for recovery,
    /// §3.3), clearing the over-allocation flag if it pointed here.
    fn free_seg(&self, ctx: &mut OpCtx, hdr: &mut RootHdr, entry: &Entry) {
        self.free_seg_tail(ctx, hdr, entry, 0);
    }

    /// Queue the pages of `entry`'s segment beyond the first `keep_pages`
    /// for release at operation end, clearing the over-allocation flag if
    /// it pointed here.
    fn free_seg_tail(&self, ctx: &mut OpCtx, hdr: &mut RootHdr, entry: &Entry, keep_pages: u32) {
        let alloc = hdr.alloc_of(entry);
        if alloc > keep_pages {
            ctx.free_extent_later(Extent::new(
                AreaId::LEAF,
                entry.ptr + keep_pages,
                alloc - keep_pages,
            ));
        }
        if hdr.flags(entry) {
            hdr.last_seg_alloc = 0;
            hdr.last_seg_ptr = 0;
        }
    }

    /// Write `bytes` into an exactly sized fresh segment.
    fn new_exact_seg(&self, db: &mut Db, bytes: &[u8]) -> Entry {
        debug_assert!(bytes.len() as u64 <= self.max_bytes());
        let ext = write_new_seg(db, pages_for_bytes(bytes.len() as u64), bytes);
        Entry {
            count: bytes.len() as u64,
            ptr: ext.start,
        }
    }

    /// §2.3 merge rule: two adjacent segments must be merged if their
    /// bytes can be stored in one segment of at most `T` pages.
    fn must_merge(&self, a: u64, b: u64) -> bool {
        pages_for_bytes(a + b) <= self.threshold_pages
    }

    /// Enforce the threshold constraint around the update window
    /// `[lo, hi]` (object offsets): merge adjacent segments whose
    /// boundary falls in the window while the rule demands it, walking
    /// right from the segment before `lo`.
    fn merge_around(&self, db: &mut Db, ctx: &mut OpCtx, lo: u64, hi: u64) -> Result<()> {
        let Some(mut x) = self.tree.descend(db, lo.saturating_sub(1))? else {
            return Ok(());
        };
        loop {
            if x.leaf_end() > hi {
                return Ok(()); // past the update window
            }
            let Some(y) = self.tree.next(db, &x)? else {
                return Ok(()); // no right neighbour
            };
            if self.must_merge(x.entry.count, y.entry.count) {
                let mut hdr = self.tree.read_hdr(db)?;
                let buf = read_segs(db, &[x.entry, y.entry], 0);
                let merged = self.new_exact_seg(db, &buf);
                self.free_seg(ctx, &mut hdr, &x.entry);
                self.free_seg(ctx, &mut hdr, &y.entry);
                self.tree.write_hdr(db, &hdr);
                let run = [x.entry, y.entry];
                let spliced = self.tree.splice(db, ctx, &x, &run, vec![merged])?;
                // Stay here: the merged segment may merge again.
                x = self.tree.first(db, &spliced)?;
            } else {
                x = y;
            }
        }
    }

    /// Rebuild a contiguous region of the object: the leaf entries in
    /// `old` (left to right, starting at object offset `region_start`)
    /// are replaced by segments materialized from `sources`.
    ///
    /// Sources are first grouped by the threshold rule — adjacent pieces
    /// whose combined bytes fit in `T` pages are coalesced — **before**
    /// anything is written, so every output segment is written exactly
    /// once. A singleton [`Src::Seg`] group keeps its segment untouched; a
    /// singleton [`Src::Prefix`] group keeps the split segment's prefix in
    /// place and merely trims its tail. `parents` lists the segments that
    /// contributed `Prefix`/`Tail` pieces; their storage is released here
    /// (fully, or beyond the kept prefix).
    ///
    /// Returns the total byte length of the rebuilt region.
    fn rebuild_region(
        &self,
        db: &mut Db,
        ctx: &mut OpCtx,
        region_start: u64,
        old: &[Entry],
        sources: Vec<Src<'_>>,
        parents: &[Entry],
    ) -> Result<u64> {
        debug_assert!(!old.is_empty() && !sources.is_empty());
        let region_len: u64 = sources.iter().map(Src::len).sum();

        // Group adjacent sources while the threshold rule demands it. One
        // left-to-right pass suffices: a group its right neighbour did not
        // fit into stays apart from it as that neighbour grows.
        let mut groups: Vec<(u64, Vec<Src<'_>>)> = Vec::with_capacity(sources.len());
        for s in sources {
            match groups.last_mut() {
                Some((bytes, g)) if self.must_merge(*bytes, s.len()) => {
                    // A group is a part of the region, summed above.
                    // loblint: allow(arith-overflow)
                    *bytes += s.len();
                    g.push(s);
                }
                _ => groups.push((s.len(), vec![s])),
            }
        }

        // Materialize each group: untouched segments and in-place
        // prefixes stay put; everything else is read once and written
        // once into an exactly sized fresh segment.
        let mut hdr = self.tree.read_hdr(db)?;
        let mut new_entries = Vec::with_capacity(groups.len());
        let mut kept_prefix: Vec<(u32, u64)> = Vec::new(); // (ptr, kept len)
        let mut absorbed_segs: Vec<Entry> = Vec::new();
        for (total, g) in groups {
            match g.as_slice() {
                [Src::Seg(e)] => new_entries.push(*e),
                [Src::Prefix { ptr, len }] => {
                    kept_prefix.push((*ptr, *len));
                    new_entries.push(Entry {
                        count: *len,
                        ptr: *ptr,
                    });
                }
                _ => {
                    let mut buf = seg_buf(&[total]);
                    for s in &g {
                        match s {
                            Src::Seg(e) => {
                                append_seg_bytes(db, &mut buf, e.ptr, 0, e.count);
                                absorbed_segs.push(*e);
                            }
                            Src::Prefix { ptr, len } => {
                                append_seg_bytes(db, &mut buf, *ptr, 0, *len);
                            }
                            Src::Tail { ptr, from, len } => {
                                append_seg_bytes(db, &mut buf, *ptr, *from, *len);
                            }
                            Src::Mem(m) => buf.extend_from_slice(m),
                        }
                    }
                    new_entries.push(self.new_exact_seg(db, &buf));
                }
            }
        }

        // Release superseded storage (reads above are all done).
        for e in absorbed_segs {
            self.free_seg(ctx, &mut hdr, &e);
        }
        for parent in parents {
            match kept_prefix.iter().find(|(ptr, _)| *ptr == parent.ptr) {
                Some(&(_, kept)) => {
                    self.free_seg_tail(ctx, &mut hdr, parent, pages_for_bytes(kept));
                }
                None => self.free_seg(ctx, &mut hdr, parent),
            }
        }
        self.tree.write_hdr(db, &hdr);

        // Found afresh: in a delete, the dropped run has moved the window.
        let first = self.tree.try_descend(db, region_start)?;
        self.tree.splice(db, ctx, &first, old, new_entries)?;
        Ok(region_len)
    }

    /// Insert `bytes` at `pos`, which is not the object's end.
    fn insert_inner(&self, db: &mut Db, ctx: &mut OpCtx, pos: LeafPos, bytes: &[u8]) -> Result<()> {
        let p = pos.off_in_leaf;
        let s = pos.entry;
        // Pull both neighbours into the window so the threshold rule can
        // coalesce across the update site in one pass.
        let ln = self.tree.prev(db, &pos)?;
        let rn = self.tree.next(db, &pos)?;

        let mut old = Vec::with_capacity(3);
        let mut sources = Vec::with_capacity(5);
        let mut parents = Vec::with_capacity(1);
        if let Some(ln) = &ln {
            old.push(ln.entry);
            sources.push(Src::Seg(ln.entry));
        }
        old.push(s);
        if p == 0 {
            // Boundary insert: S itself is relocatable but untouched
            // unless the rule merges it with the new bytes.
            sources.push(Src::Mem(bytes));
            sources.push(Src::Seg(s));
        } else {
            sources.push(Src::Prefix { ptr: s.ptr, len: p });
            sources.push(Src::Mem(bytes));
            sources.push(Src::Tail {
                ptr: s.ptr,
                from: p,
                len: s.count - p,
            });
            parents.push(s);
        }
        if let Some(rn) = &rn {
            old.push(rn.entry);
            sources.push(Src::Seg(rn.entry));
        }

        let region_start = ln.as_ref().unwrap_or(&pos).leaf_start;
        let region_len = self.rebuild_region(db, ctx, region_start, &old, sources, &parents)?;
        self.tree.bump_size(db, bytes.len() as i64)?;
        // Cascade at the outer boundaries, in the rare case the edge
        // groups still violate the rule against segments outside the
        // window.
        self.merge_around(db, ctx, region_start, region_start + region_len)
    }

    /// Append `bytes`: fill the rightmost segment's allocated tail in
    /// place, then grow with doubling segments (§4.2).
    pub(crate) fn append(&self, db: &mut Db, bytes: &[u8]) -> Result<()> {
        if bytes.is_empty() {
            return Ok(());
        }
        check_op_len(bytes.len() as u64)?;
        let mut ctx = OpCtx::new();
        let mut rem = bytes;

        // Fill the allocated tail of the rightmost segment in place. A
        // tail delete keeps the prefix where it is (`delete_suffix_is_free`),
        // so past an unflagged segment's end may lie bytes a pinned
        // snapshot or an open transaction's rollback still reads; only a
        // flagged over-allocation, which no shrink survives, is then safe.
        let mut prev_alloc = 0u32;
        if let Some(pos) = self.tree.rightmost(db)? {
            let hdr = self.tree.read_hdr(db)?;
            let alloc = hdr.alloc_of(&pos.entry);
            prev_alloc = alloc;
            let flagged = hdr.flags(&pos.entry);
            let older_reader = db.txn_active() || db.pinned_snapshots() > 0;
            let space = if flagged || !older_reader {
                u64::from(alloc) * PAGE_SIZE_U64 - pos.entry.count
            } else {
                0
            };
            let take = cast::to_usize((rem.len() as u64).min(space));
            if take > 0 {
                append_in_place(db, pos.entry.ptr, pos.entry.count, &rem[..take]);
                self.tree.add_count(db, &mut ctx, &pos.path, take as i64)?;
                self.tree.bump_size(db, take as i64)?;
                rem = &rem[take..];
            }
        }

        // Grow with doubling segments, as Starburst does (§4.2).
        while !rem.is_empty() {
            let alloc = if prev_alloc == 0 {
                pages_for_bytes(rem.len() as u64).min(self.max_seg_pages)
            } else {
                (prev_alloc * 2).min(self.max_seg_pages)
            };
            let take = cast::to_usize((rem.len() as u64).min(u64::from(alloc) * PAGE_SIZE_U64));
            let ext = write_new_seg(db, alloc, &rem[..take]);
            self.tree.append_entry(
                db,
                &mut ctx,
                Entry {
                    count: take as u64,
                    ptr: ext.start,
                },
            )?;
            let mut hdr = self.tree.read_hdr(db)?;
            hdr.size += take as u64;
            if alloc > pages_for_bytes(take as u64) {
                hdr.last_seg_alloc = alloc;
                hdr.last_seg_ptr = ext.start;
            } else {
                hdr.last_seg_alloc = 0;
                hdr.last_seg_ptr = 0;
            }
            self.tree.write_hdr(db, &hdr);
            prev_alloc = alloc;
            rem = &rem[take..];
        }
        ctx.finish(db);
        Ok(())
    }

    /// Insert `bytes` at `off`. One at the end is [`Self::append`] (this
    /// policy's, unobserved: the caller's `op.eos.insert` covers it).
    pub(crate) fn insert(&self, db: &mut Db, off: u64, bytes: &[u8]) -> Result<()> {
        if bytes.is_empty() {
            return check_range(self.tree.size(db)?, off, 0).map(drop);
        }
        let len = bytes.len() as u64;
        let max = self.max_bytes();
        let check = || {
            check_op_len(len)?;
            if len > max {
                return Err(LobError::OperationTooLarge { len });
            }
            Ok(())
        };
        let Some(pos) = self.tree.descend_insert(db, off, check)? else {
            return self.append(db, bytes);
        };
        let mut ctx = OpCtx::new();
        self.insert_inner(db, &mut ctx, pos, bytes)?;
        ctx.finish(db);
        Ok(())
    }

    /// Delete `len` bytes at `off`: covered segments are freed, the
    /// boundary region rebuilt under the threshold rule.
    pub(crate) fn delete(&self, db: &mut Db, off: u64, len: u64) -> Result<()> {
        if len == 0 {
            return check_range(self.tree.size(db)?, off, 0).map(drop);
        }
        let mut pos = self.tree.descend_checked(db, off, len)?;
        let mut ctx = OpCtx::new();
        let del_end = off + len;
        let gone = || LobError::InvariantViolated(format!("delete at {off} lost a segment"));

        // Survey the affected segments, left to right: fully covered
        // segments are freed outright (no data I/O); at most two boundary
        // segments survive partially, each losing its bytes from its
        // `off_in_leaf` to `q`.
        let mut whole: Vec<LeafPos> = Vec::new();
        let mut partials: Vec<(LeafPos, u64)> = Vec::new();
        let to_the_end = loop {
            let seg_end = pos.leaf_end();
            let next = if seg_end < del_end {
                Some(self.tree.next(db, &pos)?.ok_or_else(gone)?)
            } else {
                None
            };
            let is_last = pos.is_last();
            if pos.off_in_leaf == 0 && del_end >= seg_end {
                whole.push(pos);
            } else {
                let q = (del_end - pos.leaf_start).min(pos.entry.count);
                partials.push((pos, q));
            }
            match next {
                Some(n) => pos = n,
                None => break is_last,
            }
        };

        // Phase 1: drop the fully covered segments, left to right.
        let mut dropped = None;
        for w in &whole {
            let pos = match dropped.take() {
                Some(prev) => self.tree.after(db, prev)?.ok_or_else(gone)?,
                None => w.clone(),
            };
            let mut hdr = self.tree.read_hdr(db)?;
            self.free_seg(&mut ctx, &mut hdr, &w.entry);
            self.tree.write_hdr(db, &hdr);
            dropped = Some(
                self.tree
                    .splice(db, &mut ctx, &pos, &[w.entry], Vec::new())?,
            );
        }

        if let Some((left, _)) = partials.first() {
            // Phase 2: rebuild the boundary region, letting the threshold
            // rule coalesce the surviving pieces with their neighbours. A
            // left partial (p > 0) keeps its start; a lone right partial has
            // moved to where the dropped run began.
            let anchor = if left.off_in_leaf > 0 {
                left.leaf_start
            } else {
                off
            };
            let mut old = Vec::with_capacity(4);
            let mut sources = Vec::with_capacity(6);
            let mut parents = Vec::with_capacity(2);
            let mut region_start = anchor;
            if anchor > 0 {
                let ln = self.tree.try_descend(db, anchor - 1)?;
                region_start = ln.leaf_start;
                old.push(ln.entry);
                sources.push(Src::Seg(ln.entry));
            }
            let mut kept_after = anchor;
            for &(ref pos, q) in &partials {
                let (e, p) = (pos.entry, pos.off_in_leaf);
                old.push(e);
                if p > 0 {
                    sources.push(Src::Prefix { ptr: e.ptr, len: p });
                }
                if q < e.count {
                    sources.push(Src::Tail {
                        ptr: e.ptr,
                        from: q,
                        len: e.count - q,
                    });
                }
                parents.push(e);
                kept_after += e.count; // counts not yet reduced in the tree
            }
            if !to_the_end {
                let rn = self.tree.try_descend(db, kept_after)?;
                old.push(rn.entry);
                sources.push(Src::Seg(rn.entry));
            }
            let region_len =
                self.rebuild_region(db, &mut ctx, region_start, &old, sources, &parents)?;
            self.tree.bump_size(db, -(len as i64))?;
            self.merge_around(db, &mut ctx, region_start, region_start + region_len)?;
        } else {
            // Pure whole-segment delete: the freed gap may have brought
            // two violating segments together.
            self.tree.bump_size(db, -(len as i64))?;
            self.merge_around(db, &mut ctx, off, off)?;
        }
        ctx.finish(db);
        Ok(())
    }

    /// Overwrite `bytes.len()` bytes at `off`, each touched segment
    /// shadowed into an exact one.
    pub(crate) fn replace(&self, db: &mut Db, off: u64, bytes: &[u8]) -> Result<()> {
        if bytes.is_empty() {
            return check_range(self.tree.size(db)?, off, 0).map(drop);
        }
        let mut ctx = OpCtx::new();
        self.tree
            .replace_range(db, &mut ctx, off, bytes, |db, ctx, pos, content| {
                let mut hdr = self.tree.read_hdr(db)?;
                let e = self.new_exact_seg(db, content);
                self.free_seg(ctx, &mut hdr, &pos.entry);
                self.tree.write_hdr(db, &hdr);
                Ok(e)
            })?;
        ctx.finish(db);
        Ok(())
    }

    /// Release the rightmost segment's over-allocation.
    pub(crate) fn trim(&self, db: &mut Db) -> Result<()> {
        let mut hdr = self.tree.read_hdr(db)?;
        if hdr.last_seg_alloc == 0 {
            return Ok(());
        }
        let Some(pos) = self.tree.rightmost(db)? else {
            hdr.last_seg_alloc = 0;
            hdr.last_seg_ptr = 0;
            self.tree.write_hdr(db, &hdr);
            return Ok(());
        };
        debug_assert_eq!(pos.entry.ptr, hdr.last_seg_ptr, "flag must track the tail");
        let used = pages_for_bytes(pos.entry.count);
        if hdr.last_seg_alloc > used {
            db.free_leaf(Extent::new(
                AreaId::LEAF,
                pos.entry.ptr + used,
                hdr.last_seg_alloc - used,
            ));
        }
        hdr.last_seg_alloc = 0;
        hdr.last_seg_ptr = 0;
        self.tree.write_hdr(db, &hdr);
        Ok(())
    }

    /// The tree's invariants, every segment within the maximum, and the
    /// over-allocation flag on the rightmost segment.
    pub(crate) fn check_invariants(&self, db: &Db) -> Result<()> {
        self.tree.check_invariants(db)?;
        let (hdr, _) = db.peek_root(self.tree.root_page)?;
        let leaves = self.tree.collect_leaves(db)?;
        for (off, e) in &leaves {
            if e.count == 0 {
                return Err(LobError::InvariantViolated(format!(
                    "empty segment at {off}"
                )));
            }
            if e.count > self.max_bytes() {
                return Err(LobError::InvariantViolated(format!(
                    "segment at {off} exceeds max size"
                )));
            }
        }
        if hdr.last_seg_alloc > 0 {
            let last = leaves.last().ok_or_else(|| {
                LobError::InvariantViolated("over-allocation flag on empty object".into())
            })?;
            if last.1.ptr != hdr.last_seg_ptr {
                return Err(LobError::InvariantViolated(
                    "over-allocation flag does not point at the rightmost segment".into(),
                ));
            }
            if pages_for_bytes(last.1.count) > hdr.last_seg_alloc {
                return Err(LobError::InvariantViolated(
                    "rightmost segment uses more pages than allocated".into(),
                ));
            }
        }
        Ok(())
    }
}

/// One content source for an EOS region rebuild (see
/// [`Eos::rebuild_region`]).
enum Src<'a> {
    /// An existing whole segment pulled into the window.
    Seg(Entry),
    /// The kept prefix of a split segment — stays physically in place if
    /// it ends up alone in its group.
    Prefix { ptr: u32, len: u64 },
    /// A kept part of a split segment that has to move.
    Tail { ptr: u32, from: u64, len: u64 },
    /// New bytes supplied by the caller.
    Mem(&'a [u8]),
}

impl Src<'_> {
    fn len(&self) -> u64 {
        match self {
            Src::Seg(e) => e.count,
            Src::Prefix { len, .. } | Src::Tail { len, .. } => *len,
            Src::Mem(m) => m.len() as u64,
        }
    }
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
            .map(|i| ((i * 41 + seed as usize) % 247) as u8)
            .collect()
    }

    fn make(db: &mut Db, t: u32) -> Lob {
        Lob::create(db, ManagerSpec::eos(t)).unwrap()
    }

    /// `obj`'s EOS policy.
    fn policy(obj: &Lob) -> Eos {
        let ManagerSpec::Eos {
            threshold_pages,
            max_seg_pages,
        } = obj.spec()
        else {
            panic!("not an EOS object: {:?}", obj.spec());
        };
        Eos {
            tree: obj.tree,
            threshold_pages,
            max_seg_pages,
        }
    }

    /// §2.3's threshold rule over the update window `[lo, hi]` (object
    /// offsets): no segment boundary inside it separates two adjacent
    /// segments whose bytes fit in `T` pages together. The window only:
    /// the rule is an update postcondition, and append growth leaves
    /// small doubling segments adjacent on purpose (§4.2).
    fn check_threshold_window(obj: &Lob, db: &Db, lo: u64, hi: u64) -> Result<()> {
        let eos = policy(obj);
        for w in obj.segments(db).windows(2) {
            let boundary = w[1].offset;
            if (lo..=hi).contains(&boundary) && eos.must_merge(w[0].bytes, w[1].bytes) {
                return Err(LobError::InvariantViolated(format!(
                    "threshold rule violated at offset {boundary}: adjacent segments of {} and \
                     {} bytes fit in {} pages",
                    w[0].bytes, w[1].bytes, eos.threshold_pages
                )));
            }
        }
        Ok(())
    }

    /// Seeded violation: raise the threshold on disk after segments were
    /// laid out for a smaller `T`, so pairs legal under the old `T` now
    /// break the merge rule.
    #[test]
    fn a_raised_threshold_breaks_the_window_rule() {
        let mut db = db();
        let spec = ManagerSpec::Eos {
            threshold_pages: 1,
            max_seg_pages: 64,
        };
        let mut obj = Lob::create(&mut db, spec).unwrap();
        // Two adjacent multi-page segments (T=1 never merges them).
        obj.append(&mut db, &pattern(3 * 4096, 5)).unwrap();
        obj.insert(&mut db, 4096, &pattern(2 * 4096, 6)).unwrap();
        let size = obj.size(&mut db);
        check_threshold_window(&obj, &db, 0, size).unwrap();
        // The params word (bytes 16..24: T | max << 32) now claims T=64.
        db.with_meta_page_mut(obj.root_page(), |p| {
            p[16..24].copy_from_slice(&(64u64 | (64u64 << 32)).to_le_bytes());
        });
        let obj = Lob::open(&mut db, StorageKind::Eos, obj.root_page()).unwrap();
        let err = check_threshold_window(&obj, &db, 0, size).unwrap_err();
        assert!(err.to_string().contains("threshold rule"), "{err}");
    }

    /// Segment page counts, left to right (allocation-aware).
    fn seg_pages(db: &Db, obj: &Lob) -> Vec<u32> {
        let (hdr, _) = db.peek_root(obj.tree.root_page).unwrap();
        obj.tree
            .collect_leaves(db)
            .unwrap()
            .iter()
            .map(|(_, e)| hdr.alloc_of(e))
            .collect()
    }

    #[test]
    fn create_open_roundtrip() {
        let mut db = db();
        let obj = make(&mut db, 16);
        let again = Lob::open(&mut db, StorageKind::Eos, obj.root_page()).unwrap();
        assert_eq!(again.spec(), ManagerSpec::eos(16));
    }

    #[test]
    fn create_rejects_parameters_out_of_range() {
        let mut db = db();
        let too_big = db.max_segment_pages() + 1;
        for (threshold_pages, max_seg_pages) in [(0, 64), (4, 0), (4, too_big)] {
            let params = ManagerSpec::Eos {
                threshold_pages,
                max_seg_pages,
            };
            let got = Lob::create(&mut db, params);
            assert!(
                matches!(got, Err(LobError::InvalidArgument(_))),
                "{params:?}: {got:?}"
            );
        }
        assert_eq!(db.meta_pages_allocated(), 0, "no root was allocated");
    }

    #[test]
    fn appends_double_like_starburst() {
        let mut db = db();
        let mut obj = make(&mut db, 4);
        let mut model = Vec::new();
        for i in 0..20 {
            let c = pattern(3 * 1024, i);
            obj.append(&mut db, &c).unwrap();
            model.extend_from_slice(&c);
            obj.check_invariants(&db).unwrap();
        }
        assert_eq!(obj.snapshot(&db), model);
        let pages = seg_pages(&db, &obj);
        assert_eq!(&pages[..4], &[1, 2, 4, 8], "doubling growth: {pages:?}");
    }

    #[test]
    fn paper_figure_3_shape() {
        // §2.3: a 1830-byte object in segments after updates; a 470-byte
        // range occupies ceil(470/100)=5 pages in the paper's 100-byte
        // pages. Here: build 1830*41 bytes and check counts stay exact.
        let mut db = db();
        let mut obj = make(&mut db, 1);
        obj.append(&mut db, &pattern(75_030, 1)).unwrap();
        obj.trim(&mut db).unwrap();
        let u = obj.utilization(&db);
        assert_eq!(u.object_bytes, 75_030);
        assert_eq!(u.data_pages, pages_for_bytes(75_030) as u64);
    }

    #[test]
    fn trim_releases_overallocation() {
        let mut db = db();
        let mut obj = make(&mut db, 4);
        obj.append(&mut db, &pattern(3 * 1024, 1)).unwrap();
        obj.append(&mut db, &pattern(3 * 1024, 2)).unwrap();
        assert!(db.leaf_pages_allocated() > 2);
        obj.trim(&mut db).unwrap();
        assert_eq!(db.leaf_pages_allocated(), 2);
        obj.check_invariants(&db).unwrap();
    }

    #[test]
    fn insert_at_boundary_keeps_segment_untouched() {
        let mut db = db();
        let mut obj = make(&mut db, 1); // T=1: no merging
        let a = pattern(8192, 1);
        obj.append(&mut db, &a).unwrap();
        obj.trim(&mut db).unwrap();
        db.reset_io_stats();
        let ins = pattern(20_000, 2);
        obj.insert(&mut db, 0, &ins).unwrap();
        // Only the new 5-page segment is written; nothing is read. The
        // root is updated in place and not flushed (§4.2).
        let s = db.io_stats();
        assert_eq!(s.pages_read, 0, "{s}");
        assert_eq!(s.pages_written, 5, "just the new segment's data pages: {s}");
        assert_eq!(s.write_calls, 1, "one sequential write: {s}");
        let mut model = a.clone();
        model.splice(0..0, ins.iter().copied());
        assert_eq!(obj.snapshot(&db), model);
    }

    #[test]
    fn insert_mid_segment_splits_it() {
        let mut db = db();
        let mut obj = make(&mut db, 1);
        let base = pattern(40_000, 1);
        obj.append(&mut db, &base).unwrap();
        obj.trim(&mut db).unwrap();
        let ins = pattern(100_000, 2);
        obj.insert(&mut db, 10_000, &ins).unwrap();
        let mut model = base.clone();
        model.splice(10_000..10_000, ins.iter().copied());
        assert_eq!(obj.snapshot(&db), model);
        obj.check_invariants(&db).unwrap();
        // §4.4.2: the 100K insert lives in its own 25-page segment even
        // though T=1.
        let pages = seg_pages(&db, &obj);
        assert!(pages.contains(&25), "expected a 25-page segment: {pages:?}");
    }

    #[test]
    fn threshold_merges_small_pieces() {
        let mut db = db();
        let mut obj = make(&mut db, 4); // merge up to 4 pages
        obj.append(&mut db, &pattern(16_384, 1)).unwrap(); // 4 pages
        obj.trim(&mut db).unwrap();
        // Tiny insert in the middle: A + N + B would be 3 pieces, but with
        // T=4 they must re-merge into one ≤4-page segment... total is
        // 16384+100 bytes → 5 pages > 4, so pieces merge pairwise only
        // while they fit.
        obj.insert(&mut db, 8_000, &pattern(100, 2)).unwrap();
        obj.check_invariants(&db).unwrap();
        let pages = seg_pages(&db, &obj);
        // No adjacent pair may fit in T pages.
        let leaves = obj.tree.collect_leaves(&db).unwrap();
        for w in leaves.windows(2) {
            assert!(
                !policy(&obj).must_merge(w[0].1.count, w[1].1.count),
                "unmerged pair: {pages:?}"
            );
        }
    }

    #[test]
    fn big_threshold_rebuilds_one_segment() {
        let mut db = db();
        let mut obj = make(&mut db, 64);
        obj.append(&mut db, &pattern(40_000, 1)).unwrap(); // 10 pages
        obj.trim(&mut db).unwrap();
        obj.insert(&mut db, 20_000, &pattern(100, 2)).unwrap();
        obj.check_invariants(&db).unwrap();
        let pages = seg_pages(&db, &obj);
        assert_eq!(pages.len(), 1, "T=64 re-merges everything: {pages:?}");
        // 40,100 bytes on 10 data pages + 1 root page.
        let u = obj.utilization(&db);
        assert_eq!(u.data_pages, 10);
        assert!(u.ratio() > 0.85, "ratio {}", u.ratio());
    }

    #[test]
    fn delete_suffix_is_free() {
        let mut db = db();
        let mut obj = make(&mut db, 1);
        let base = pattern(40_000, 3);
        obj.append(&mut db, &base).unwrap();
        obj.trim(&mut db).unwrap();
        db.reset_io_stats();
        obj.delete(&mut db, 20_000, 20_000).unwrap();
        let s = db.io_stats();
        assert_eq!(
            s.pages_read + s.pages_written,
            0,
            "suffix trim is free: {s}"
        );
        assert_eq!(obj.snapshot(&db), base[..20_000]);
        obj.check_invariants(&db).unwrap();
    }

    #[test]
    fn delete_whole_segments_is_free() {
        let mut db = db();
        let mut obj = make(&mut db, 1);
        // Three exact segments via boundary inserts.
        obj.append(&mut db, &pattern(8192, 1)).unwrap();
        obj.trim(&mut db).unwrap();
        obj.insert(&mut db, 0, &pattern(8192, 2)).unwrap();
        obj.insert(&mut db, 0, &pattern(8192, 3)).unwrap();
        db.reset_io_stats();
        obj.delete(&mut db, 8192, 8192).unwrap();
        let s = db.io_stats();
        assert_eq!(s.pages_read + s.pages_written, 0, "{s}");
        obj.check_invariants(&db).unwrap();
        assert_eq!(obj.size(&mut db), 2 * 8192);
    }

    #[test]
    fn boundary_aligned_delete_over_whole_segments() {
        // Regression: a delete that starts exactly at a segment boundary,
        // covers whole segments, and ends inside a later one. The right
        // partial shifts left as covered segments are dropped; the region
        // rebuild must anchor at its post-removal position.
        let mut db = db();
        let mut obj = make(&mut db, 1); // T=1: segments stay separate
                                        // Three exact 2-page segments via boundary inserts.
        let mut model = Vec::new();
        for i in 0..4u8 {
            let chunk = pattern(8192, i);
            obj.insert(&mut db, 0, &chunk).unwrap();
            model.splice(0..0, chunk.iter().copied());
        }
        obj.check_invariants(&db).unwrap();
        // Delete from the start of segment 1 through the middle of
        // segment 3: boundary-aligned start, one whole segment covered.
        obj.delete(&mut db, 8192, 8192 + 4000).unwrap();
        model.drain(8192..8192 + 8192 + 4000);
        assert_eq!(obj.snapshot(&db), model);
        obj.check_invariants(&db).unwrap();
        assert_eq!(obj.size(&mut db), model.len() as u64);
    }

    #[test]
    fn delete_across_segments_matches_model() {
        let mut db = db();
        let mut obj = make(&mut db, 4);
        let mut model = pattern(200_000, 7);
        obj.append(&mut db, &model).unwrap();
        obj.trim(&mut db).unwrap();
        obj.delete(&mut db, 30_000, 100_000).unwrap();
        model.drain(30_000..130_000);
        assert_eq!(obj.snapshot(&db), model);
        obj.check_invariants(&db).unwrap();
    }

    #[test]
    fn delete_everything_frees_all_pages() {
        let mut db = db();
        let mut obj = make(&mut db, 4);
        obj.append(&mut db, &pattern(100_000, 1)).unwrap();
        obj.delete(&mut db, 0, 100_000).unwrap();
        assert_eq!(obj.size(&mut db), 0);
        assert_eq!(db.leaf_pages_allocated(), 0);
        obj.check_invariants(&db).unwrap();
    }

    #[test]
    fn replace_matches_model() {
        let mut db = db();
        let mut obj = make(&mut db, 4);
        let mut model = pattern(60_000, 1);
        obj.append(&mut db, &model).unwrap();
        let patch = pattern(9_000, 8);
        obj.replace(&mut db, 30_000, &patch).unwrap();
        model[30_000..39_000].copy_from_slice(&patch);
        assert_eq!(obj.snapshot(&db), model);
        obj.check_invariants(&db).unwrap();
    }

    #[test]
    fn destroy_frees_everything() {
        let mut db = db();
        let mut obj = make(&mut db, 4);
        obj.append(&mut db, &pattern(500_000, 2)).unwrap();
        obj.insert(&mut db, 1000, &pattern(5_000, 3)).unwrap();
        obj.destroy(&mut db).unwrap();
        assert_eq!(db.leaf_pages_allocated(), 0);
        assert_eq!(db.meta_pages_allocated(), 0);
    }

    #[test]
    fn random_ops_match_reference_model() {
        for t in [1u32, 4, 16] {
            let mut db = db();
            let mut obj = make(&mut db, t);
            let mut model: Vec<u8> = Vec::new();
            let mut rng = StdRng::seed_from_u64(1234 + u64::from(t));
            for step in 0..120 {
                let c = rng.gen_range(0..10);
                // The update window the threshold rule holds over.
                let mut window = None;
                if model.is_empty() || c < 4 {
                    let chunk = pattern(rng.gen_range(1..25_000), rng.gen());
                    let off = rng.gen_range(0..=model.len());
                    obj.insert(&mut db, off as u64, &chunk).unwrap();
                    model.splice(off..off, chunk.iter().copied());
                    if off < model.len() - chunk.len() {
                        window = Some((off, off + chunk.len()));
                    }
                } else if c < 7 {
                    let off = rng.gen_range(0..model.len());
                    let len = rng.gen_range(1..=(model.len() - off).min(20_000));
                    obj.delete(&mut db, off as u64, len as u64).unwrap();
                    model.drain(off..off + len);
                    window = Some((off, off));
                } else if c < 9 {
                    let off = rng.gen_range(0..model.len());
                    let len = rng.gen_range(1..=(model.len() - off).min(10_000));
                    let mut out = vec![0u8; len];
                    obj.read(&mut db, off as u64, &mut out).unwrap();
                    assert_eq!(out[..], model[off..off + len], "read @{step} T={t}");
                } else {
                    let off = rng.gen_range(0..model.len());
                    let len = rng.gen_range(1..=(model.len() - off).min(8_000));
                    let patch = pattern(len, rng.gen());
                    obj.replace(&mut db, off as u64, &patch).unwrap();
                    model[off..off + len].copy_from_slice(&patch);
                }
                obj.check_invariants(&db)
                    .unwrap_or_else(|e| panic!("T={t} step={step}: {e}"));
                if let Some((lo, hi)) = window {
                    check_threshold_window(&obj, &db, lo as u64, hi as u64)
                        .unwrap_or_else(|e| panic!("T={t} step={step}: {e}"));
                }
                assert_eq!(obj.snapshot(&db), model, "content @{step} T={t}");
            }
        }
    }

    #[test]
    fn out_of_range_errors() {
        let mut db = db();
        let mut obj = make(&mut db, 4);
        obj.append(&mut db, b"hello").unwrap();
        let mut out = [0u8; 2];
        assert!(obj.read(&mut db, 5, &mut out).is_err());
        assert!(obj.insert(&mut db, 7, b"x").is_err());
        assert!(obj.delete(&mut db, 2, 9).is_err());
    }
}

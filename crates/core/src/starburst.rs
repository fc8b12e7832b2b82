//! The Starburst long-field manager (§2.2, §3.5).
//!
//! A long field is a sequence of extents whose sizes **double** until a
//! maximum segment size is reached (then max-size segments repeat); the
//! last segment is trimmed. The descriptor is flat: one page of segment
//! pointers, stored as a count-tree root ([`PosTree`]) that stays at
//! level 0 — it is never split, so reads and appends never touch an
//! index page below it. Reads, lookups, `destroy` and the inspections
//! are the tree's, as for ESM and EOS (§3.2's segment read); what is
//! Starburst's own is how it updates.
//!
//! The price is paid by length-changing updates: inserting (deleting)
//! bytes in the middle requires **copying every segment from the affected
//! one rightward** (including it, because of shadowing) into a new set of
//! segments with the calls of a 512 KB staging buffer (§3.5): ≤ 128-page
//! reads of the old segments alternate with ≤ 128-page writes of the new
//! ones. The calls are charged and move nothing; once a new segment's
//! last write is charged, one copy lands its bytes from the old segments
//! and the inserted bytes, disk to disk and cut across cores, so a byte
//! is copied once and the object is never in memory. Once an object has
//! been updated, its size is known, so the rewrite uses maximum-size
//! segments with the last one trimmed — which is why the steady-state
//! update cost equals a whole-object copy (Table 3).
//!
//! Departure from the paper, documented in DESIGN.md: the descriptor
//! stores an explicit `(bytes, pointer)` pair per segment (8 bytes)
//! instead of deriving intermediate sizes from the growth pattern; the
//! I/O behaviour is identical (the descriptor is still one page, up to
//! 507 segments ≈ 16 GB of max-size segments).

use lobstore_buddy::Extent;
use lobstore_simdisk::{cast, pages_for_bytes, AreaId, Piece, PAGE_SIZE, PAGE_SIZE_U64};

use crate::db::Db;
use crate::error::{LobError, Result};
use crate::node::{find_child, Entry, Node, RootHdr, ROOT_MAX_ENTRIES};
use crate::object::{check_op_len, check_range, StorageKind};
use crate::segdata::{append_in_place, land_seg, patch_in_place, write_new_seg};
use crate::tree::PosTree;

/// The 512 KB copy buffer of §3.5, in pages and in bytes (a widening
/// cast; `cast::u32_to_usize` is not `const`): the size of each call of
/// the tail copy.
const STAGING_PAGES: u32 = 128;
const CHUNK: usize = STAGING_PAGES as usize * PAGE_SIZE;

/// Starburst's update policy over one object's descriptor ([`crate::Lob`]
/// builds it from its [`crate::ManagerSpec::Starburst`] spec for each
/// update).
#[derive(Copy, Clone, Debug)]
pub(crate) struct Starburst {
    pub tree: PosTree,
    /// Maximum segment size in pages.
    pub max_seg_pages: u32,
    /// Whether maximum-size segments are used from the start (§2.2).
    pub known_size: bool,
}

impl Starburst {
    fn max_bytes(&self) -> u64 {
        u64::from(self.max_seg_pages) * PAGE_SIZE_U64
    }

    /// Store the descriptor. The root page is left dirty in the pool (no
    /// forced flush — §4.2: appends write no index pages).
    fn store(&self, db: &mut Db, hdr: &mut RootHdr, segs: &[Entry]) {
        debug_assert!(segs.len() <= ROOT_MAX_ENTRIES, "checked by `fits`");
        let node = Node {
            level: 0,
            entries: segs.to_vec(),
        };
        db.with_meta_page_mut(self.tree.root_page, |p| node.write_root(p, hdr));
    }

    /// Refuse an update of `len` bytes that would leave `segs` segments:
    /// the descriptor page holds 507. Checked before the update allocates
    /// or frees anything, so a refused update leaves no trace.
    fn fits(segs: usize, len: usize) -> Result<()> {
        if segs > ROOT_MAX_ENTRIES {
            return Err(LobError::OperationTooLarge { len: len as u64 });
        }
        Ok(())
    }

    /// The §3.5 copy: stream the bytes of segments `old` into fresh
    /// maximum-size segments (the last one exact, none smaller than
    /// `min_alloc` pages), with bytes `at..at + cut` of the stream
    /// replaced by `put`. The 512 KB staging buffer is the call pattern:
    /// each ≤ 128-page read of an old segment is charged where the buffer
    /// would take it in, and every chunk of the current new segment that
    /// the reads so far complete is then charged as one write call. When
    /// a segment's last call is charged, one land copies what its calls
    /// let land from the old segments and `put` ([`NewTail`]), so each
    /// byte is copied once. Nothing is freed here: the caller frees the
    /// old segments after the copy, so between a charge and its land
    /// nothing writes them, and nothing reads the new ones.
    fn copy_tail(
        &self,
        db: &mut Db,
        old: &[Entry],
        at: usize,
        cut: usize,
        put: &[u8],
        min_alloc: u32,
    ) -> Vec<Entry> {
        #[cfg(test)]
        if tests::MATERIALISE.get() {
            return self.copy_tail_oracle(db, old, at, cut, put, min_alloc);
        }
        let old_len: usize = old.iter().map(|e| cast::to_usize(e.count)).sum();
        let tail = NewTail { old, at, cut, put };
        let max_bytes = cast::to_usize(self.max_bytes());
        // `fill` bytes of the new tail are read but not yet written: less
        // than a chunk between reads; `done` are charged as written.
        let (mut fill, mut done, mut pos) = (0usize, 0usize, 0usize);
        // Bytes of the new tail no segment is open for yet; then the open
        // segment: bytes it still takes, and the page they go to. A segment
        // is opened, and allocated, as soon as the one before it is full.
        let mut unplaced = old_len - cut + put.len();
        let (mut seg_left, mut next_page) = (0usize, 0u32);
        // The open segment's first new-tail byte and page, and the prefix
        // of its charged bytes that lands.
        let (mut seg_from, mut seg_page, mut landed) = (0usize, 0u32, 0usize);
        let mut segs = Vec::new();
        let mut pieces = Vec::new();
        for e in old {
            let (mut left, mut page) = (cast::to_usize(e.count), e.ptr);
            while left > 0 {
                let n = pages_for_bytes(left as u64).min(STAGING_PAGES);
                let got = left.min(cast::u32_to_usize(n) * PAGE_SIZE);
                db.pool.charge_read(AreaId::LEAF, page, n);
                // The read adds its bytes outside the cut, and `put` where
                // the cut starts.
                let lo = at.clamp(pos, pos + got);
                let hi = (at + cut).clamp(pos, pos + got);
                fill += got - (hi - lo);
                if (pos..pos + got).contains(&at) {
                    fill += put.len();
                }
                (left, page, pos) = (left - got, page + n, pos + got);
                loop {
                    if seg_left == 0 {
                        seg_left = unplaced.min(max_bytes);
                        if seg_left == 0 {
                            break;
                        }
                        // `seg_left <= unplaced` by the `min` above.
                        // loblint: allow(arith-overflow)
                        unplaced -= seg_left;
                        let pages = pages_for_bytes(seg_left as u64).max(min_alloc);
                        next_page = db.alloc_leaf(pages).start;
                        segs.push(Entry {
                            count: seg_left as u64,
                            ptr: next_page,
                        });
                        (seg_from, seg_page, landed) = (done, next_page, 0);
                    }
                    let n = seg_left.min(CHUNK);
                    if fill < n {
                        break;
                    }
                    let got = db.pool.charge_write(AreaId::LEAF, next_page, n);
                    // A call lands only while every earlier call of the
                    // segment landed whole: past a short one, all are lost.
                    // `seg_from` is a past value of `done`, which only grows.
                    // loblint: allow(arith-overflow)
                    if landed == done - seg_from {
                        landed += got;
                    }
                    (seg_left, fill, done) = (seg_left - n, fill - n, done + n);
                    // Only a segment's last chunk is shorter than 128 pages,
                    // and `next_page` is not used again after that one.
                    // loblint: allow(arith-overflow)
                    next_page += STAGING_PAGES;
                    if seg_left == 0 {
                        // loblint: allow(arith-overflow)
                        tail.pieces(seg_from, done - seg_from, &mut pieces);
                        land_seg(db, seg_page, &pieces, landed);
                    }
                }
            }
        }
        debug_assert_eq!((fill, unplaced, seg_left), (0, 0, 0));
        segs
    }

    /// The §3.5 update path shared by insert and delete: rewrite the tail
    /// from the segment containing `off`, with `cut` bytes at `off`
    /// replaced by `put`.
    ///
    /// The new segments are written *before* the old ones are freed so
    /// that, per the shadowing discipline (§3.3), a crash mid-operation
    /// cannot have clobbered the pages the previous state references.
    fn rewrite_tail(&self, db: &mut Db, off: u64, cut: u64, put: &[u8]) -> Result<()> {
        let (mut hdr, root) = self.tree.load_root(db)?;
        let mut segs = root.entries;
        let (i, p, _) = find_child(segs.iter().copied(), off)?;
        let old = segs.split_off(i);
        let (at, cut) = (cast::to_usize(p), cast::to_usize(cut));
        // `copy_tail` cuts the new tail into maximum-size segments.
        let tail = old.iter().map(|e| cast::to_usize(e.count)).sum::<usize>() - cut + put.len();
        Self::fits(
            i + tail.div_ceil(cast::to_usize(self.max_bytes())),
            put.len(),
        )?;
        segs.extend(self.copy_tail(db, &old, at, cut, put, 0));
        // Writes done; now release the superseded tail.
        for e in &old {
            db.free_leaf(Extent::new(AreaId::LEAF, e.ptr, hdr.alloc_of(e)));
        }
        // The rewritten tail is exact.
        (hdr.last_seg_alloc, hdr.last_seg_ptr) = (0, 0);
        hdr.size = segs.iter().map(|e| e.count).sum();
        self.store(db, &mut hdr, &segs);
        Ok(())
    }

    /// Append `bytes`: fill the last segment's allocated tail in place,
    /// then add doubling segments (§2.2).
    pub(crate) fn append(&self, db: &mut Db, bytes: &[u8]) -> Result<()> {
        if bytes.is_empty() {
            return Ok(());
        }
        check_op_len(bytes.len() as u64)?;
        let (mut hdr, root) = self.tree.load_root(db)?;
        let mut segs = root.entries;

        // The last segment's allocation, and the bytes its allocated tail
        // takes in place.
        let (mut prev_alloc, space) = match segs.last() {
            Some(last) => {
                let alloc = hdr.alloc_of(last);
                (alloc, u64::from(alloc) * PAGE_SIZE_U64 - last.count)
            }
            None => (0, 0),
        };
        let fill = cast::to_usize((bytes.len() as u64).min(space));
        // Plan the new segments, doubling until the max (§2.2) — or
        // max-sized immediately when the size was declared known.
        let mut plan = Vec::new();
        let mut left = (bytes.len() - fill) as u64;
        while left > 0 {
            let alloc = if self.known_size {
                self.max_seg_pages
            } else if prev_alloc == 0 {
                pages_for_bytes(left).min(self.max_seg_pages)
            } else {
                (prev_alloc * 2).min(self.max_seg_pages)
            };
            let take = left.min(u64::from(alloc) * PAGE_SIZE_U64);
            plan.push((alloc, cast::to_usize(take)));
            (prev_alloc, left) = (alloc, left - take);
        }
        Self::fits(segs.len() + plan.len(), bytes.len())?;

        let (filled, mut rem) = bytes.split_at(fill);
        if let Some(last) = segs.last_mut().filter(|_| fill > 0) {
            append_in_place(db, last.ptr, last.count, filled);
            last.count += fill as u64;
        }
        for (alloc, take) in plan {
            let ext = write_new_seg(db, alloc, &rem[..take]);
            segs.push(Entry {
                count: take as u64,
                ptr: ext.start,
            });
            (hdr.last_seg_alloc, hdr.last_seg_ptr) = (alloc, ext.start);
            rem = &rem[take..];
        }
        hdr.size += bytes.len() as u64;
        self.store(db, &mut hdr, &segs);
        db.op_commit();
        Ok(())
    }

    /// Insert `bytes` at `off` by the §3.5 tail copy. One at the end is
    /// [`Self::append`] (this policy's, unobserved: the caller's
    /// `op.starburst.insert` covers it).
    pub(crate) fn insert(&self, db: &mut Db, off: u64, bytes: &[u8]) -> Result<()> {
        let size = check_range(self.tree.size(db)?, off, 0)?;
        if bytes.is_empty() {
            return Ok(());
        }
        check_op_len(bytes.len() as u64)?;
        if off == size {
            return self.append(db, bytes);
        }
        self.rewrite_tail(db, off, 0, bytes)?;
        db.op_commit();
        Ok(())
    }

    /// Delete `len` bytes at `off` by the §3.5 tail copy.
    pub(crate) fn delete(&self, db: &mut Db, off: u64, len: u64) -> Result<()> {
        check_range(self.tree.size(db)?, off, len)?;
        if len == 0 {
            return Ok(());
        }
        self.rewrite_tail(db, off, len, &[])?;
        db.op_commit();
        Ok(())
    }

    /// Overwrite `bytes.len()` bytes at `off`, each touched segment
    /// shadowed whole.
    pub(crate) fn replace(&self, db: &mut Db, off: u64, bytes: &[u8]) -> Result<()> {
        check_range(self.tree.size(db)?, off, bytes.len() as u64)?;
        if bytes.is_empty() {
            return Ok(());
        }
        let (mut hdr, root) = self.tree.load_root(db)?;
        let mut segs = root.entries;
        let (mut i, mut within, _) = find_child(segs.iter().copied(), off)?;
        let mut done = 0usize;
        // Superseded segments are released only after every new copy has
        // been written (§3.3 shadowing discipline).
        let mut free_later: Vec<Extent> = Vec::new();
        while done < bytes.len() {
            let e = segs[i];
            let take = cast::to_usize((e.count - within).min((bytes.len() - done) as u64));
            if db.config().shadowing {
                // Shadow the whole affected segment: copy it, patched, into
                // as many pages; the flag follows the flagged one.
                let alloc = hdr.alloc_of(&e);
                let (at, put) = (cast::to_usize(within), &bytes[done..done + take]);
                let new = self.copy_tail(db, &segs[i..=i], at, take, put, alloc);
                free_later.push(Extent::new(AreaId::LEAF, e.ptr, alloc));
                if hdr.flags(&e) {
                    hdr.last_seg_ptr = new[0].ptr;
                }
                segs[i].ptr = new[0].ptr;
            } else {
                patch_in_place(db, e.ptr, within, &bytes[done..done + take]);
            }
            done += take;
            within = 0;
            i += 1;
        }
        for ext in free_later {
            db.free_leaf(ext);
        }
        self.store(db, &mut hdr, &segs);
        db.op_commit();
        Ok(())
    }

    /// Release the last segment's over-allocation (§2.2).
    pub(crate) fn trim(&self, db: &mut Db) -> Result<()> {
        let (mut hdr, root) = self.tree.load_root(db)?;
        let segs = root.entries;
        let Some(last) = segs.last().filter(|_| hdr.last_seg_alloc > 0) else {
            return Ok(());
        };
        let used = pages_for_bytes(last.count);
        if hdr.last_seg_alloc > used {
            db.free_leaf(Extent::new(
                AreaId::LEAF,
                last.ptr + used,
                hdr.last_seg_alloc - used,
            ));
        }
        (hdr.last_seg_alloc, hdr.last_seg_ptr) = (0, 0);
        self.store(db, &mut hdr, &segs);
        db.op_commit();
        Ok(())
    }

    /// The descriptor's own rules, not `PosTree::check_invariants`: a
    /// descriptor holds up to 507 segments under any tree configuration.
    pub(crate) fn check_invariants(&self, db: &Db) -> Result<()> {
        let (hdr, node) = db.peek_root(self.tree.root_page)?;
        hdr.check_root(self.tree.root_page, Some(StorageKind::Starburst))?;
        let total: u64 = node.entries.iter().map(|e| e.count).sum();
        if total != hdr.size {
            return Err(LobError::InvariantViolated(format!(
                "descriptor total {total} != size {}",
                hdr.size
            )));
        }
        let last = node.entries.len().saturating_sub(1);
        for (i, e) in node.entries.iter().enumerate() {
            if e.count == 0 {
                return Err(LobError::InvariantViolated(format!("empty segment {i}")));
            }
            if e.count > self.max_bytes() {
                return Err(LobError::InvariantViolated(format!(
                    "segment {i} of {} bytes exceeds the {} byte max",
                    e.count,
                    self.max_bytes()
                )));
            }
            // §2.2: only the last extent may be trimmed. Monotone doubling
            // is not a rule: a §3.5 tail rewrite ends in an exact extent
            // that a later append freezes mid-descriptor.
            if i < last && e.count % PAGE_SIZE_U64 != 0 {
                return Err(LobError::InvariantViolated(format!(
                    "non-last segment {i} holds {} bytes: only the last extent may be trimmed",
                    e.count
                )));
            }
        }
        if hdr.last_seg_alloc > 0 {
            let last = node.entries.last().ok_or_else(|| {
                LobError::InvariantViolated("last_seg_alloc set on empty object".into())
            })?;
            if !hdr.flags(last) {
                return Err(LobError::InvariantViolated(
                    "over-allocation flag does not point at the rightmost segment".into(),
                ));
            }
            if pages_for_bytes(last.count) > hdr.last_seg_alloc {
                return Err(LobError::InvariantViolated(
                    "last segment uses more pages than allocated".into(),
                ));
            }
        }
        Ok(())
    }
}

/// The new tail of a §3.5 copy, mapped to where its bytes are: the old
/// segments' bytes `..at`, then `put`, then their bytes from `at + cut`.
struct NewTail<'a> {
    old: &'a [Entry],
    at: usize,
    cut: usize,
    put: &'a [u8],
}

impl<'a> NewTail<'a> {
    /// Set `out` to the pieces of new-tail bytes `from..from + len`: old
    /// bytes before the edit point, `put`, old bytes after the cut.
    fn pieces(&self, from: usize, len: usize, out: &mut Vec<Piece<'a>>) {
        out.clear();
        let (end, put_end) = (from + len, self.at + self.put.len());
        self.old_pieces(from, end.min(self.at), out);
        let (lo, hi) = (from.clamp(self.at, put_end), end.clamp(self.at, put_end));
        if lo < hi {
            out.push(Piece::Mem(&self.put[lo - self.at..hi - self.at]));
        }
        // New-tail byte `x` past `put` is old byte `x - put.len() + cut`.
        let shift = |x: usize| x - put_end + self.at + self.cut;
        self.old_pieces(shift(from.max(put_end)), shift(end.max(put_end)), out);
    }

    /// Push a disk piece for each old segment that bytes `lo..hi` of the
    /// old stream touch (none if the range is empty).
    fn old_pieces(&self, lo: usize, hi: usize, out: &mut Vec<Piece<'a>>) {
        let mut start = 0;
        for e in self.old {
            let end = start + cast::to_usize(e.count);
            let (a, b) = (lo.max(start), hi.min(end));
            if a < b {
                let byte = cast::u32_to_usize(e.ptr) * PAGE_SIZE + (a - start);
                out.push(Piece::Disk { byte, len: b - a });
            }
            start = end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LargeObject, Lob, ManagerSpec};
    use lobstore_simdisk::TraceKind;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cell::Cell;

    thread_local! {
        /// Routes `copy_tail` through `copy_tail_oracle` on this thread.
        pub(super) static MATERIALISE: Cell<bool> = const { Cell::new(false) };
    }

    impl Starburst {
        /// The copy `copy_tail` replaced, kept as its oracle: read every
        /// old segment into one `Vec` the size of the tail, edit the
        /// `Vec`, write it out as maximum-size segments. Same read calls
        /// and same write calls, all reads first.
        pub(super) fn copy_tail_oracle(
            &self,
            db: &mut Db,
            old: &[Entry],
            at: usize,
            cut: usize,
            put: &[u8],
            min_alloc: u32,
        ) -> Vec<Entry> {
            let total: u64 = old.iter().map(|e| e.count).sum();
            let mut tail = Vec::with_capacity(cast::to_usize(total));
            for e in old {
                let used_pages = pages_for_bytes(e.count);
                let mut scratch = vec![0u8; CHUNK];
                let mut page = 0u32;
                let mut remaining = cast::to_usize(e.count);
                while page < used_pages {
                    let n = (used_pages - page).min(STAGING_PAGES);
                    db.pool
                        .read_pages(AreaId::LEAF, e.ptr + page, n, &mut scratch);
                    let take = remaining.min(cast::u32_to_usize(n) * PAGE_SIZE);
                    tail.extend_from_slice(&scratch[..take]);
                    remaining -= take;
                    page += n;
                }
            }
            tail.splice(at..at + cut, put.iter().copied());
            let bytes = &tail[..];
            let mut out = Vec::new();
            let mut off = 0usize;
            while off < bytes.len() {
                let seg_bytes = cast::to_usize(((bytes.len() - off) as u64).min(self.max_bytes()));
                let pages = pages_for_bytes(seg_bytes as u64);
                let ext = db.alloc_leaf(pages.max(min_alloc));
                let mut page = 0u32;
                while page < pages {
                    let n = (pages - page).min(STAGING_PAGES);
                    let lo = off + cast::u32_to_usize(page) * PAGE_SIZE;
                    let hi = (lo + cast::u32_to_usize(n) * PAGE_SIZE).min(off + seg_bytes);
                    db.pool
                        .write_direct(AreaId::LEAF, ext.start + page, &bytes[lo..hi]);
                    page += n;
                }
                out.push(Entry {
                    count: seg_bytes as u64,
                    ptr: ext.start,
                });
                off += seg_bytes;
            }
            out
        }
    }

    /// One update of the twin runs below; offsets and lengths are clamped
    /// into the object as it is when the op runs.
    #[derive(Clone, Copy, Debug)]
    enum TwinOp {
        Insert { at: usize, len: usize },
        Delete { at: usize, len: usize },
        Replace { at: usize, len: usize },
    }

    /// Objects in the twin runs stay below this size: at 2-page segments
    /// the descriptor's 507 slots hold 4.15 MB.
    const TWIN_MAX: usize = 4_000_000;

    impl TwinOp {
        fn apply(self, obj: &mut Lob, db: &mut Db, step: usize) {
            let size = cast::to_usize(obj.size(db));
            let clamp = |at: usize, len: usize| {
                let at = at.min(size.saturating_sub(1));
                (at, len.min(size - at))
            };
            match self {
                TwinOp::Insert { at, len } => {
                    let bytes = pattern(len.min(TWIN_MAX - size), step as u8);
                    obj.insert(db, at.min(size) as u64, &bytes).unwrap();
                }
                TwinOp::Delete { at, len } => {
                    let (at, len) = clamp(at, len);
                    obj.delete(db, at as u64, len as u64).unwrap();
                }
                TwinOp::Replace { at, len } => {
                    let (at, len) = clamp(at, len);
                    let bytes = pattern(len, step as u8 ^ 0x55);
                    obj.replace(db, at as u64, &bytes).unwrap();
                }
            }
        }
    }

    /// A store of one `size`-byte object of `max_seg_pages`-page
    /// segments, appended 100 000 bytes at a time.
    fn twin_store(max_seg_pages: u32, size: usize) -> (Db, Lob) {
        let mut db = db();
        let params = ManagerSpec::Starburst {
            max_seg_pages,
            known_size: false,
        };
        let mut obj = Lob::create(&mut db, params).unwrap();
        for piece in pattern(size, 3).chunks(100_000) {
            obj.append(&mut db, piece).unwrap();
        }
        (db, obj)
    }

    /// Every materialized LEAF page of `db`, with its bytes.
    fn leaf_pages(db: &Db) -> Vec<(u32, Vec<u8>)> {
        let disk = db.pool.disk();
        let pages = disk.materialized_page_numbers(AreaId::LEAF);
        let peek = |p| {
            let mut bytes = vec![0u8; PAGE_SIZE];
            disk.peek(AreaId::LEAF, p, &mut bytes);
            (p, bytes)
        };
        pages.into_iter().map(peek).collect()
    }

    /// A fail-stop at each write call of a steady-state insert and a
    /// delete, torn at no page, one and all of the call's, leaves the
    /// LEAF pages, `IoStats` and read and write calls that the
    /// materialising oracle leaves, which lands each write as it is
    /// charged: the one land per segment keeps exactly the prefix its
    /// calls let land. A 64-page segment takes two calls and a 300-page
    /// one three, so a segment's lost tail is tested too.
    #[test]
    fn a_fail_stopped_copy_lands_what_the_per_call_oracle_lands() {
        let ops = [
            TwinOp::Insert {
                at: 250_000,
                len: 5_000,
            },
            TwinOp::Delete {
                at: 200_123,
                len: 40_000,
            },
        ];
        for (max_seg_pages, op) in [64, 300].into_iter().flat_map(|m| ops.map(|op| (m, op))) {
            // The store, steady: maximum-size segments from here on.
            let build = || {
                let (mut db, mut obj) = twin_store(max_seg_pages, 1_300_000);
                obj.insert(&mut db, 1_000, b"x").unwrap();
                (db, obj)
            };
            // The op's write calls, from a fault-free run.
            let (mut db, mut obj) = build();
            db.pool().disk().enable_trace(1 << 12);
            op.apply(&mut obj, &mut db, 1);
            let trace = db.pool().disk().take_trace();
            let writes: Vec<u32> = trace
                .iter()
                .filter(|e| e.kind == TraceKind::Write)
                .map(|e| e.pages)
                .collect();
            assert!(writes.len() > 1, "{op:?}");
            for (k, &pages) in (0u64..).zip(&writes) {
                for torn in [0, 1, pages] {
                    let mut seen = Vec::new();
                    for oracle in [false, true] {
                        let (mut db, mut obj) = build();
                        db.reset_io_stats();
                        let disk = db.pool().disk();
                        disk.fail_stop(Some((k, torn)));
                        disk.enable_trace(1 << 12);
                        MATERIALISE.set(oracle);
                        op.apply(&mut obj, &mut db, 1);
                        MATERIALISE.set(false);
                        let disk = db.pool().disk();
                        disk.fail_stop(None);
                        let trace = disk.take_trace();
                        let calls = |kind: TraceKind| -> Vec<_> {
                            let of_kind = trace.iter().filter(|e| e.kind == kind);
                            of_kind.map(|e| (e.start, e.pages)).collect()
                        };
                        let (reads, writes) = (calls(TraceKind::Read), calls(TraceKind::Write));
                        seen.push((leaf_pages(&db), db.io_stats(), reads, writes));
                    }
                    let ctx =
                        format!("{max_seg_pages}-page segments, {op:?}, write {k} torn {torn}");
                    assert!(seen[0].0 == seen[1].0, "LEAF pages, {ctx}");
                    assert_eq!(seen[0].1, seen[1].1, "IoStats, {ctx}");
                    assert_eq!(seen[0].2, seen[1].2, "read calls, {ctx}");
                    assert_eq!(seen[0].3, seen[1].3, "write calls, {ctx}");
                }
            }
        }
    }

    /// Run `ops` on two identical stores — one through the streaming
    /// copy, one through the materialising oracle — and after every op
    /// compare the read calls, the write calls (each as a sequence; only
    /// their interleaving may differ), `IoStats`, the descriptor, the
    /// allocation total and the object's bytes.
    fn run_twin(max_seg_pages: u32, size: usize, ops: &[TwinOp]) {
        let build = || twin_store(max_seg_pages, size);
        let mut twins = [build(), build()];
        for (step, op) in ops.iter().enumerate() {
            let mut seen = Vec::new();
            for (oracle, (db, obj)) in [false, true].into_iter().zip(&mut twins) {
                db.reset_io_stats();
                db.pool().disk().enable_trace(1 << 14);
                MATERIALISE.set(oracle);
                op.apply(obj, db, step);
                MATERIALISE.set(false);
                assert_eq!(db.pool().disk().trace_dropped(), 0);
                let trace = db.pool().disk().take_trace();
                let calls = |kind: TraceKind| -> Vec<_> {
                    let of_kind = trace.iter().filter(|e| e.kind == kind);
                    of_kind.map(|e| (e.area, e.start, e.pages)).collect()
                };
                let stats = db.io_stats();
                obj.check_invariants(db).unwrap();
                seen.push((
                    calls(TraceKind::Read),
                    calls(TraceKind::Write),
                    stats,
                    obj.tree.load_root(db),
                    db.leaf_pages_allocated(),
                    obj.snapshot(db),
                ));
            }
            let (new, old) = (&seen[0], &seen[1]);
            let ctx = format!("max_seg_pages {max_seg_pages}, step {step}: {op:?}");
            assert_eq!(new.0, old.0, "read calls, {ctx}");
            assert_eq!(new.1, old.1, "write calls, {ctx}");
            assert_eq!(new.2, old.2, "IoStats, {ctx}");
            assert_eq!(new.3, old.3, "descriptor, {ctx}");
            assert_eq!(new.4, old.4, "leaf pages allocated, {ctx}");
            assert!(new.5 == old.5, "object bytes, {ctx}");
        }
    }

    #[test]
    fn create_rejects_a_maximum_segment_out_of_range() {
        let mut db = Db::paper_default();
        let too_big = db.max_segment_pages() + 1;
        for max_seg_pages in [0, too_big] {
            let params = ManagerSpec::Starburst {
                max_seg_pages,
                known_size: false,
            };
            let got = Lob::create(&mut db, params);
            assert!(
                matches!(got, Err(LobError::InvalidArgument(_))),
                "{max_seg_pages}: {got:?}"
            );
        }
        assert_eq!(db.meta_pages_allocated(), 0, "no root was allocated");
    }

    #[test]
    fn streaming_copy_matches_the_materialising_oracle_on_the_hard_cases() {
        use TwinOp::*;
        const MB: usize = 1 << 20;
        for max_seg_pages in [2, 16, 8192] {
            let ops = [
                // First update: doubling segments, over-allocated last one.
                Replace {
                    at: 2 * MB - 5,
                    len: 3 * PAGE_SIZE,
                },
                Insert {
                    at: CHUNK - 1,
                    len: 3,
                },
                // Steady state from here on. A payload larger than the
                // whole staging buffer, landing mid-page.
                Insert {
                    at: CHUNK + 77,
                    len: 3 * CHUNK + 4097,
                },
                // A delete spanning several 512 KB chunks, ragged ends.
                Delete {
                    at: CHUNK - 3,
                    len: 3 * CHUNK + 11,
                },
                // Edit points exactly on chunk, page and stream ends.
                Insert {
                    at: CHUNK,
                    len: PAGE_SIZE,
                },
                Delete {
                    at: 2 * CHUNK,
                    len: CHUNK,
                },
                Delete { at: 0, len: 1 },
                Replace {
                    at: 0,
                    len: usize::MAX,
                },
                Insert { at: 0, len: 1 },
                Delete {
                    at: 5,
                    len: usize::MAX,
                },
                Insert { at: 5, len: 1 },
                Delete {
                    at: 0,
                    len: usize::MAX,
                }, // everything
                Insert {
                    at: 0,
                    len: 3 * CHUNK + 1,
                },
            ];
            run_twin(max_seg_pages, 3 * MB, &ops);
        }
    }

    /// An offset or length near a multiple of a page, of the small
    /// segment sizes or of the 512 KB chunk.
    fn near_a_boundary() -> impl Strategy<Value = usize> {
        let unit = prop_oneof![
            Just(1usize),
            Just(PAGE_SIZE),
            Just(2 * PAGE_SIZE),
            Just(16 * PAGE_SIZE),
            Just(CHUNK),
        ];
        (unit, 0usize..8, 0usize..5).prop_map(|(unit, k, d)| (unit * k + d).saturating_sub(2))
    }

    fn twin_op() -> impl Strategy<Value = TwinOp> {
        let len = || prop_oneof![4 => near_a_boundary(), 1 => Just(usize::MAX)];
        prop_oneof![
            (near_a_boundary(), near_a_boundary()).prop_map(|(at, len)| TwinOp::Insert { at, len }),
            (near_a_boundary(), len()).prop_map(|(at, len)| TwinOp::Delete { at, len }),
            (near_a_boundary(), len()).prop_map(|(at, len)| TwinOp::Replace { at, len }),
        ]
    }

    proptest! {
        // The 3 MB cases cost a few hundred 2-page segments per op at
        // the smallest segment size; `ci.sh` runs them optimised.
        #![proptest_config(ProptestConfig {
            cases: if cfg!(debug_assertions) { 8 } else { 256 },
            ..ProptestConfig::default()
        })]

        #[test]
        fn streaming_copy_matches_the_materialising_oracle(
            (max_seg_pages, size, ops) in (
                prop_oneof![Just(2u32), Just(16), Just(8192)],
                1usize..3 << 20,
                prop::collection::vec(twin_op(), 1..8),
            )
        ) {
            run_twin(max_seg_pages, size, &ops);
        }
    }

    fn db() -> Db {
        Db::paper_default()
    }

    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| ((i * 37 + seed as usize) % 249) as u8)
            .collect()
    }

    fn make(db: &mut Db) -> Lob {
        Lob::create(db, ManagerSpec::starburst()).unwrap()
    }

    #[test]
    fn create_open_roundtrip() {
        let mut db = db();
        let obj = make(&mut db);
        let again = Lob::open(&mut db, StorageKind::Starburst, obj.root_page()).unwrap();
        assert_eq!(again.spec(), ManagerSpec::starburst());
    }

    #[test]
    fn segments_double_until_max() {
        let mut db = db();
        let mut obj = Lob::create(
            &mut db,
            ManagerSpec::Starburst {
                max_seg_pages: 8,
                known_size: false,
            },
        )
        .unwrap();
        // 3 KB appends: first segment 1 page, then 2, 4, 8, 8, ...
        let mut model = Vec::new();
        for i in 0..40 {
            let c = pattern(3 * 1024, i);
            obj.append(&mut db, &c).unwrap();
            model.extend_from_slice(&c);
            obj.check_invariants(&db).unwrap();
        }
        assert_eq!(obj.size(&mut db), model.len() as u64);
        let page_sizes: Vec<u32> = obj.segments(&db).iter().map(|s| s.pages).collect();
        assert_eq!(&page_sizes[..4], &[1, 2, 4, 8]);
        assert!(page_sizes[4..].iter().all(|&p| p == 8), "{page_sizes:?}");
        assert_eq!(obj.snapshot(&db), model);
    }

    #[test]
    fn known_size_uses_max_segments_immediately() {
        let mut db = db();
        let mut obj = Lob::create(
            &mut db,
            ManagerSpec::Starburst {
                max_seg_pages: 8,
                known_size: true,
            },
        )
        .unwrap();
        obj.append(&mut db, &pattern(100_000, 1)).unwrap();
        assert_eq!(obj.segments(&db)[0].pages, 8);
        obj.check_invariants(&db).unwrap();
    }

    #[test]
    fn trim_frees_the_unused_tail() {
        let mut db = db();
        let mut obj = make(&mut db);
        // Build to where the last segment is over-allocated.
        obj.append(&mut db, &pattern(3 * 1024, 1)).unwrap();
        obj.append(&mut db, &pattern(3 * 1024, 2)).unwrap();
        let before = db.leaf_pages_allocated();
        obj.trim(&mut db).unwrap();
        assert!(db.leaf_pages_allocated() < before);
        let u = obj.utilization(&db);
        assert_eq!(u.data_pages, 2, "6 KB occupies exactly 2 pages after trim");
        obj.check_invariants(&db).unwrap();
        assert_eq!(obj.snapshot(&db).len(), 6 * 1024);
    }

    /// A tail rewrite (insert) ends with an exact-size extent that can be
    /// smaller than its predecessor, and a later append freezes it
    /// mid-descriptor: a legal shape, with every non-last extent whole.
    #[test]
    fn post_rewrite_append_shape_is_legal() {
        let mut db = db();
        let mut obj = make(&mut db);
        obj.append(&mut db, &pattern(56_000, 7)).unwrap();
        obj.insert(&mut db, 50_000, &pattern(9_000, 8)).unwrap();
        obj.append(&mut db, &pattern(120_000, 9)).unwrap();
        assert!(
            obj.segments(&db).len() >= 2,
            "the rewritten extent is frozen"
        );
        obj.check_invariants(&db).unwrap();
    }

    #[test]
    fn reads_across_segment_boundaries() {
        let mut db = db();
        let mut obj = Lob::create(
            &mut db,
            ManagerSpec::Starburst {
                max_seg_pages: 2,
                known_size: false,
            },
        )
        .unwrap();
        let data = pattern(50_000, 3);
        obj.append(&mut db, &data).unwrap();
        let mut out = vec![0u8; 20_000];
        obj.read(&mut db, 7_000, &mut out).unwrap();
        assert_eq!(out[..], data[7_000..27_000]);
    }

    #[test]
    fn insert_copies_the_tail_into_max_segments() {
        let mut db = db();
        let mut obj = Lob::create(
            &mut db,
            ManagerSpec::Starburst {
                max_seg_pages: 16,
                known_size: false,
            },
        )
        .unwrap();
        let mut model = pattern(200_000, 1);
        obj.append(&mut db, &model).unwrap();
        let ins = pattern(5_000, 2);
        obj.insert(&mut db, 100_000, &ins).unwrap();
        model.splice(100_000..100_000, ins.iter().copied());
        assert_eq!(obj.snapshot(&db), model);
        obj.check_invariants(&db).unwrap();
        // Tail now in max-size (16-page) segments, last trimmed.
        let (hdr, Node { entries: segs, .. }) = obj.tree.load_root(&mut db).unwrap();
        assert_eq!(hdr.last_seg_alloc, 0);
        for e in &segs[segs.len() - 2..segs.len() - 1] {
            assert_eq!(e.count, 16 * 4096);
        }
        // Utilization near-perfect: only the last page of each segment may
        // be partial, plus the one descriptor page.
        assert!(obj.utilization(&db).ratio() > 0.95);
    }

    #[test]
    fn update_cost_is_a_whole_object_copy_in_steady_state() {
        let mut db = db();
        let mut obj = make(&mut db); // 32 MB max segments
        let size = 1 << 20; // 1 MB object for test speed
        obj.append(&mut db, &pattern(size, 1)).unwrap();
        obj.insert(&mut db, 1000, b"x").unwrap(); // first update: rewrite
        db.reset_io_stats();
        obj.insert(&mut db, (size / 2) as u64, b"y").unwrap();
        let s = db.io_stats();
        let pages = pages_for_bytes(size as u64) as u64;
        // Whole object read + written once (±1 page of slack).
        assert!(s.pages_read >= pages && s.pages_read <= pages + 2, "{s}");
        assert!(
            s.pages_written >= pages && s.pages_written <= pages + 2,
            "{s}"
        );
        // Chunked through the 512 KB buffer: ~2 calls per 128 pages.
        let expected_calls = 2 * pages.div_ceil(128);
        assert!(
            s.calls() >= expected_calls && s.calls() <= expected_calls + 4,
            "calls {} vs expected ~{expected_calls}",
            s.calls()
        );
    }

    /// In the steady state an insert and a delete each copy the new
    /// tail once: `simdisk.leaf.bytes_copied` grows by exactly its
    /// length, as the reads move nothing and each write copies its bytes
    /// straight to their new segment.
    #[test]
    fn a_tail_copy_moves_each_byte_once() {
        let mut db = db();
        let params = ManagerSpec::Starburst {
            max_seg_pages: 64,
            known_size: false,
        };
        let mut obj = Lob::create(&mut db, params).unwrap();
        obj.append(&mut db, &pattern(1 << 20, 1)).unwrap();
        // The first update: maximum-size segments from here on.
        obj.insert(&mut db, 1_000, b"x").unwrap();
        let copied = || lobstore_obs::counter_value("simdisk.leaf.bytes_copied");
        for (off, put, cut) in [(300_000u64, 5_000usize, 0u64), (700_123, 0, 40_000)] {
            let size = obj.size(&mut db);
            let segs = obj.segments(&db);
            let seg = segs.iter().rfind(|s| s.offset <= off).unwrap();
            let new_tail = size - seg.offset + put as u64 - cut;
            let before = copied();
            if put > 0 {
                obj.insert(&mut db, off, &pattern(put, 2)).unwrap();
            } else {
                obj.delete(&mut db, off, cut).unwrap();
            }
            assert_eq!(copied() - before, new_tail, "at {off}");
        }
        obj.check_invariants(&db).unwrap();
    }

    /// A steady-state insert writes each new segment once: one land a
    /// segment, so `core.seg.writes` grows by the new-segment count.
    #[test]
    fn a_tail_copy_counts_one_write_a_new_segment() {
        let (mut db, mut obj) = twin_store(64, 1 << 20);
        obj.insert(&mut db, 1_000, b"x").unwrap();
        let off = 300_000;
        let edited = obj
            .segments(&db)
            .iter()
            .rposition(|s| s.offset <= off)
            .unwrap();
        let writes = || lobstore_obs::counter_value("core.seg.writes");
        let before = writes();
        obj.insert(&mut db, off, &pattern(5_000, 2)).unwrap();
        let new = obj.segments(&db).len() - edited;
        assert!(new > 1, "{new} new segments");
        assert_eq!(writes() - before, new as u64);
    }

    #[test]
    fn delete_matches_model() {
        let mut db = db();
        let mut obj = make(&mut db);
        let mut model = pattern(300_000, 5);
        obj.append(&mut db, &model).unwrap();
        obj.delete(&mut db, 50_000, 100_000).unwrap();
        model.drain(50_000..150_000);
        assert_eq!(obj.snapshot(&db), model);
        obj.check_invariants(&db).unwrap();
        assert_eq!(obj.size(&mut db), 200_000);
    }

    #[test]
    fn delete_everything() {
        let mut db = db();
        let mut obj = make(&mut db);
        obj.append(&mut db, &pattern(100_000, 5)).unwrap();
        obj.delete(&mut db, 0, 100_000).unwrap();
        assert_eq!(obj.size(&mut db), 0);
        assert!(obj.snapshot(&db).is_empty());
        assert_eq!(db.leaf_pages_allocated(), 0);
    }

    #[test]
    fn replace_shadowed_and_in_place() {
        for shadowing in [true, false] {
            let mut db = Db::new(crate::DbConfig {
                shadowing,
                ..crate::DbConfig::default()
            });
            let mut obj = make(&mut db);
            let mut model = pattern(60_000, 1);
            obj.append(&mut db, &model).unwrap();
            let patch = pattern(10_000, 9);
            obj.replace(&mut db, 20_000, &patch).unwrap();
            model[20_000..30_000].copy_from_slice(&patch);
            assert_eq!(obj.snapshot(&db), model, "shadowing={shadowing}");
            obj.check_invariants(&db).unwrap();
        }
    }

    #[test]
    fn out_of_range_errors() {
        let mut db = db();
        let mut obj = make(&mut db);
        obj.append(&mut db, b"hello").unwrap();
        let mut out = [0u8; 3];
        assert!(obj.read(&mut db, 4, &mut out).is_err());
        assert!(obj.insert(&mut db, 9, b"x").is_err());
        assert!(obj.delete(&mut db, 0, 6).is_err());
    }

    #[test]
    fn reads_and_locates_reach_the_end_and_no_further() {
        let mut db = db();
        let mut obj = make(&mut db);
        // Empty: nothing to plan over, and still no panic.
        obj.read(&mut db, 0, &mut []).unwrap();
        assert!(obj.locate(&mut db, 0).is_err());

        let data = pattern(50_000, 5);
        let size = data.len() as u64;
        obj.append(&mut db, &data).unwrap();
        obj.read(&mut db, size, &mut []).unwrap();
        let mut out = vec![0u8; 20_000];
        obj.read(&mut db, size - 20_000, &mut out).unwrap();
        assert_eq!(out[..], data[30_000..]);
        assert_eq!(
            obj.read(&mut db, size - 19_999, &mut out),
            Err(LobError::OutOfRange {
                off: size - 19_999,
                len: 20_000,
                size
            })
        );
        let last = obj.locate(&mut db, size - 1).unwrap();
        assert_eq!(last.start + last.bytes, size);
        assert_eq!(
            obj.locate(&mut db, size),
            Err(LobError::OutOfRange {
                off: size,
                len: 1,
                size
            })
        );
    }

    /// A full descriptor refuses an update that needs a 508th segment
    /// before it allocates or frees anything: the object reads back
    /// unchanged and the walk finds every page where it was.
    #[test]
    fn a_full_descriptor_refuses_a_508th_segment_untouched() {
        let mut db = db();
        let params = ManagerSpec::Starburst {
            max_seg_pages: 1,
            known_size: false,
        };
        let mut obj = Lob::create(&mut db, params).unwrap();
        let data = pattern(ROOT_MAX_ENTRIES * PAGE_SIZE, 4);
        obj.append(&mut db, &data).unwrap();
        assert_eq!(obj.segments(&db).len(), ROOT_MAX_ENTRIES);
        let too_large = Err(LobError::OperationTooLarge { len: 1 });
        assert_eq!(obj.insert(&mut db, 0, b"x"), too_large);
        assert_eq!(obj.append(&mut db, b"x"), too_large);
        assert!(obj.snapshot(&db) == data, "the object reads back unchanged");
        assert_eq!(db.verify(&[("sb", &obj)], &[]), []);
    }

    #[test]
    fn destroy_frees_everything() {
        let mut db = db();
        let mut obj = make(&mut db);
        obj.append(&mut db, &pattern(500_000, 2)).unwrap();
        obj.destroy(&mut db).unwrap();
        assert_eq!(db.leaf_pages_allocated(), 0);
        assert_eq!(db.meta_pages_allocated(), 0);
    }

    #[test]
    fn random_ops_match_reference_model() {
        let mut db = db();
        let mut obj = Lob::create(
            &mut db,
            ManagerSpec::Starburst {
                max_seg_pages: 32,
                known_size: false,
            },
        )
        .unwrap();
        let mut model: Vec<u8> = Vec::new();
        let mut rng = StdRng::seed_from_u64(99);
        for step in 0..100 {
            let c = rng.gen_range(0..10);
            if model.is_empty() || c < 4 {
                let chunk = pattern(rng.gen_range(1..30_000), rng.gen());
                let off = rng.gen_range(0..=model.len());
                obj.insert(&mut db, off as u64, &chunk).unwrap();
                model.splice(off..off, chunk.iter().copied());
            } else if c < 7 {
                let off = rng.gen_range(0..model.len());
                let len = rng.gen_range(1..=(model.len() - off).min(20_000));
                obj.delete(&mut db, off as u64, len as u64).unwrap();
                model.drain(off..off + len);
            } else {
                let off = rng.gen_range(0..model.len());
                let len = rng.gen_range(1..=(model.len() - off).min(10_000));
                let mut out = vec![0u8; len];
                obj.read(&mut db, off as u64, &mut out).unwrap();
                assert_eq!(out[..], model[off..off + len], "read @{step}");
            }
            obj.check_invariants(&db)
                .unwrap_or_else(|e| panic!("step {step}: {e}"));
            assert_eq!(obj.snapshot(&db), model, "content @{step}");
        }
    }
}

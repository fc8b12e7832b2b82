//! Byte-level helpers over leaf segments, shared by the three managers.
//!
//! These encapsulate the paper's write discipline (§3.3, §3.4):
//!
//! * reads for internal copies are page-grained, one I/O call per segment;
//! * a segment write moves only the pages that actually hold bytes
//!   ("only the blocks that are actually dirty are written, sequentially");
//! * an in-place append reads the rightmost partial page (if any), then
//!   writes the pages containing new bytes with a single sequential call.
//!
//! An update assembles the bytes of each segment it writes in one buffer,
//! reserved once ([`seg_buf`]): old segments are read straight onto its
//! end ([`append_seg_bytes`], [`read_segs`]) and the caller's bytes are
//! placed with two block moves ([`insert_bytes`]), so a byte is copied once per I/O call
//! it rides and once more only if it sits behind an insertion point.

use lobstore_buddy::Extent;
use lobstore_simdisk::{cast, pages_for_bytes, AreaId, PageId, Piece, PAGE_SIZE, PAGE_SIZE_U64};

use crate::db::Db;
use crate::metrics;
use crate::node::Entry;

/// Read bytes `[from, from + len)` of the segment at `ptr` (LEAF area):
/// the covering page run, with one page-grained I/O call, straight into
/// `buf[at..]`, which becomes exactly that long (`at` is 0 for a recycled
/// read buffer, `buf.len()` to append). Returns `skip` — the requested
/// bytes are `buf[at + skip..at + skip + len]`, the only copy they make
/// on the way out.
///
/// Takes `&Db`: segment reads only touch the pool's internally
/// synchronized read path, so snapshot scanners can run them while
/// holding just the shared side of [`crate::SharedDb`]'s lock.
pub(crate) fn read_seg_pages(
    db: &Db,
    ptr: u32,
    from: u64,
    len: u64,
    buf: &mut Vec<u8>,
    at: usize,
) -> usize {
    debug_assert!(len > 0 && at <= buf.len());
    metrics::SEG_READS.add(1);
    let (first_page, n_pages) = covering_pages(from, len);
    let need = at + cast::u32_to_usize(n_pages) * PAGE_SIZE;
    // Recycled buffers are usually already the right size; `resize`
    // only zero-fills growth.
    if buf.len() != need {
        buf.resize(need, 0);
    }
    let pages = buf.get_mut(at..).unwrap_or_default();
    db.pool
        .read_pages(AreaId::LEAF, ptr + first_page, n_pages, pages);
    cast::to_usize(from % PAGE_SIZE_U64)
}

/// [`read_seg_pages`]' page run, borrowed instead of copied: when the
/// pool lets the run be borrowed ([`BufferPool::charge_borrow`]), its one
/// call is charged and `Some((first page, page count, skip))` returned,
/// the requested bytes being `[skip, skip + len)` of those pages
/// ([`BufferPool::borrowed_pages`]); otherwise nothing is charged or
/// counted and the caller copies the run with `read_seg_pages`.
///
/// [`BufferPool::charge_borrow`]: lobstore_bufpool::BufferPool::charge_borrow
/// [`BufferPool::borrowed_pages`]: lobstore_bufpool::BufferPool::borrowed_pages
pub(crate) fn borrow_seg_pages(
    db: &mut Db,
    ptr: u32,
    from: u64,
    len: u64,
) -> Option<(u32, u32, usize)> {
    debug_assert!(len > 0);
    let (first_page, n_pages) = covering_pages(from, len);
    // The run lies inside the segment, in the 32-bit page space.
    // loblint: allow(arith-overflow)
    let first = ptr + first_page;
    if !db.pool.charge_borrow(AreaId::LEAF, first, n_pages) {
        return None;
    }
    metrics::SEG_READS.add(1);
    Some((first, n_pages, cast::to_usize(from % PAGE_SIZE_U64)))
}

/// The pages of a segment that bytes `[from, from + len)` cover: the
/// first, from the segment's start, and how many (`len > 0`).
fn covering_pages(from: u64, len: u64) -> (u32, u32) {
    let first_page = cast::to_u32(from / PAGE_SIZE_U64);
    // `from + len - 1` is the last requested byte; callers stay inside
    // the segment, far below `u64::MAX`.
    let last_page = cast::to_u32((from + len - 1) / PAGE_SIZE_U64);
    // `last_page >= first_page` (both derive from the same range) and
    // page counts are far below `u32::MAX`.
    // loblint: allow(arith-overflow)
    (first_page, last_page - first_page + 1)
}

/// An empty buffer in which pieces of these lengths can be assembled
/// without growing: the page slack of an [`append_seg_bytes`] read fits
/// behind them (under a page before the first requested byte, under a
/// page after the last).
pub(crate) fn seg_buf(pieces: &[u64]) -> Vec<u8> {
    let total: u64 = pieces.iter().sum();
    Vec::with_capacity(cast::to_usize(total) + 2 * PAGE_SIZE)
}

/// Append bytes `[from, from + len)` of the segment at `ptr` to `buf`:
/// [`read_seg_pages`]' one page-grained call lands behind what `buf`
/// holds, and the page slack around the requested bytes is moved over
/// (`from` is almost always 0, so nothing moves) and cut off.
pub(crate) fn append_seg_bytes(db: &Db, buf: &mut Vec<u8>, ptr: u32, from: u64, len: u64) {
    if len == 0 {
        return;
    }
    let at = buf.len();
    let skip = read_seg_pages(db, ptr, from, len, buf, at);
    let len = cast::to_usize(len);
    if skip > 0 {
        buf.copy_within(at + skip..at + skip + len, at);
    }
    buf.truncate(at + len);
}

/// The whole segments `segs`, read left to right into one buffer that
/// `room` more bytes fit in without growing.
pub(crate) fn read_segs(db: &Db, segs: &[Entry], room: u64) -> Vec<u8> {
    let stored: u64 = segs.iter().map(|e| e.count).sum();
    let mut buf = seg_buf(&[stored, room]);
    for e in segs {
        append_seg_bytes(db, &mut buf, e.ptr, 0, e.count);
    }
    buf
}

/// Exactly bytes `[from, from + len)` of the segment at `ptr`, for the
/// update paths that edit one segment's contents.
pub(crate) fn read_seg_bytes(db: &Db, ptr: u32, from: u64, len: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    append_seg_bytes(db, &mut buf, ptr, from, len);
    buf
}

/// Insert `bytes` into `buf` at `at`: grow once, move the tail once, copy
/// the payload once.
///
/// # Panics
/// If `at` is beyond the end of `buf`.
pub(crate) fn insert_bytes(buf: &mut Vec<u8>, at: usize, bytes: &[u8]) {
    let old_len = buf.len();
    buf.resize(old_len + bytes.len(), 0);
    buf.copy_within(at..old_len, at + bytes.len());
    let gap = buf.get_mut(at..at + bytes.len()).unwrap_or_default();
    gap.copy_from_slice(bytes);
}

/// Cost-free copy of the bytes stored in `segs`, left to right, from
/// peeked pages — the reference content behind
/// [`crate::LargeObject::snapshot`].
pub(crate) fn peek_segs(db: &Db, segs: &[Entry]) -> Vec<u8> {
    let total: u64 = segs.iter().map(|e| e.count).sum();
    let mut out = Vec::with_capacity(cast::to_usize(total));
    for e in segs {
        let mut rem = cast::to_usize(e.count);
        for i in 0..pages_for_bytes(e.count) {
            let page = db.peek_leaf_page(e.ptr + i);
            let take = rem.min(PAGE_SIZE);
            out.extend_from_slice(&page[..take]);
            rem -= take;
        }
    }
    out
}

/// Allocate a segment of `alloc_pages` pages and write `bytes` into its
/// head with one I/O call (only `ceil(bytes/page)` pages are transferred).
/// Returns the extent.
pub(crate) fn write_new_seg(db: &mut Db, alloc_pages: u32, bytes: &[u8]) -> Extent {
    debug_assert!(!bytes.is_empty());
    debug_assert!(pages_for_bytes(bytes.len() as u64) <= alloc_pages);
    let ext = db.alloc_leaf(alloc_pages);
    write_seg_pages(db, ext.start, bytes);
    ext
}

/// Write `bytes` to the LEAF pages from `page` with one I/O call: one
/// segment written, from its page `page` on.
pub(crate) fn write_seg_pages(db: &mut Db, page: u32, bytes: &[u8]) {
    metrics::SEG_WRITES.add(1);
    db.pool.write_direct(AreaId::LEAF, page, bytes);
}

/// Land the first `landed` bytes of `pieces` on the new segment at `ptr`,
/// whose write calls the caller charged one by one
/// ([`lobstore_bufpool::BufferPool::charge_write`]): one segment written.
pub(crate) fn land_seg(db: &Db, ptr: u32, pieces: &[Piece<'_>], landed: usize) {
    metrics::SEG_WRITES.add(1);
    db.pool.land(AreaId::LEAF, ptr, pieces, landed);
}

/// Append `new` after the first `old_len` bytes of the segment at `ptr`,
/// in place. Reads the partial boundary page if `old_len` is not
/// page-aligned, then writes all pages containing new bytes with one
/// sequential call — exactly the paper's append cost (§4.2).
pub(crate) fn append_in_place(db: &mut Db, ptr: u32, old_len: u64, new: &[u8]) {
    debug_assert!(!new.is_empty());
    metrics::SEG_WRITES.add(1);
    let first_page = cast::to_u32(old_len / PAGE_SIZE_U64);
    let in_page = cast::to_usize(old_len % PAGE_SIZE_U64);
    let mut buf = Vec::with_capacity(in_page + new.len());
    if in_page > 0 {
        let r = db.pool.fix(PageId::new(AreaId::LEAF, ptr + first_page));
        db.pool
            .with_page(r, |p| buf.extend_from_slice(&p[..in_page]));
        db.pool.unfix(r);
    }
    buf.extend_from_slice(new);
    db.pool.write_direct(AreaId::LEAF, ptr + first_page, &buf);
}

/// Overwrite bytes `[from, from + patch.len())` of the segment at `ptr`
/// in place, transferring only the affected pages: boundary pages are
/// read first (if partially covered) so their surrounding bytes survive.
pub(crate) fn patch_in_place(db: &mut Db, ptr: u32, from: u64, patch: &[u8]) {
    debug_assert!(!patch.is_empty());
    metrics::SEG_WRITES.add(1);
    let first_page = cast::to_u32(from / PAGE_SIZE_U64);
    let end = from + patch.len() as u64;
    let head_skip = cast::to_usize(from % PAGE_SIZE_U64);
    let tail_cut = cast::to_usize(end % PAGE_SIZE_U64);
    let mut buf = Vec::with_capacity(head_skip + patch.len());
    if head_skip > 0 {
        let r = db.pool.fix(PageId::new(AreaId::LEAF, ptr + first_page));
        db.pool
            .with_page(r, |p| buf.extend_from_slice(&p[..head_skip]));
        db.pool.unfix(r);
    }
    buf.extend_from_slice(patch);
    if tail_cut > 0 {
        let last_page = cast::to_u32((end - 1) / PAGE_SIZE_U64);
        let r = db.pool.fix(PageId::new(AreaId::LEAF, ptr + last_page));
        db.pool
            .with_page(r, |p| buf.extend_from_slice(&p[tail_cut..]));
        db.pool.unfix(r);
    }
    db.pool.write_direct(AreaId::LEAF, ptr + first_page, &buf);
}

/// Split `total` into even pieces of at most `cap` each (piece count
/// `ceil(total/cap)`, sizes differing by at most 1). Every piece is at
/// least `cap/2` when `total > cap` — the half-full leaf rule.
pub(crate) fn even_sizes(total: u64, cap: u64) -> Vec<u64> {
    assert!(total > 0);
    let k = total.div_ceil(cap);
    let base = total / k;
    let extra = total % k;
    (0..k).map(|i| base + u64::from(i < extra)).collect()
}

/// The ESM append redistribution rule (§4.2): all but the two rightmost
/// leaves are full; the remainder is split evenly over the last two
/// leaves (each ≥ half full), unless it fits in a single leaf.
pub(crate) fn append_sizes(total: u64, cap: u64) -> Vec<u64> {
    assert!(total > 0);
    let mut out = Vec::new();
    let mut t = total;
    while t > 2 * cap {
        out.push(cap);
        t -= cap;
    }
    if t > cap {
        out.push(t.div_ceil(2));
        out.push(t / 2);
    } else {
        out.push(t);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobstore_simdisk::IoStats;

    #[test]
    fn even_sizes_cover_and_balance() {
        assert_eq!(even_sizes(10, 4), vec![4, 3, 3]);
        assert_eq!(even_sizes(8, 4), vec![4, 4]);
        assert_eq!(even_sizes(3, 4), vec![3]);
        assert_eq!(even_sizes(9, 4), vec![3, 3, 3]);
        // half-full rule when total > cap
        for total in 5..100u64 {
            let v = even_sizes(total, 4);
            assert_eq!(v.iter().sum::<u64>(), total);
            assert!(v.iter().all(|&s| (2..=4).contains(&s)), "{total}: {v:?}");
        }
    }

    #[test]
    fn append_sizes_follow_the_paper_rule() {
        let cap = 100;
        assert_eq!(append_sizes(50, cap), vec![50]);
        assert_eq!(append_sizes(100, cap), vec![100]);
        assert_eq!(append_sizes(150, cap), vec![75, 75]);
        assert_eq!(append_sizes(250, cap), vec![100, 75, 75]);
        assert_eq!(append_sizes(460, cap), vec![100, 100, 100, 80, 80]);
        // exact multiples end with two full leaves
        assert_eq!(append_sizes(400, cap), vec![100, 100, 100, 100]);
        for total in 101..1000u64 {
            let v = append_sizes(total, cap);
            assert_eq!(v.iter().sum::<u64>(), total);
            assert!(v[..v.len() - 2].iter().all(|&s| s == cap));
            assert!(v[v.len() - 2..].iter().all(|&s| s >= cap / 2 && s <= cap));
        }
    }

    #[test]
    fn write_then_read_seg_roundtrip() {
        let mut db = Db::paper_default();
        let data: Vec<u8> = (0..10_000).map(|i| (i % 241) as u8).collect();
        let ext = write_new_seg(&mut db, 4, &data);
        assert_eq!(ext.pages, 4);
        // One write call, 3 pages (only pages holding bytes).
        let s = db.io_stats();
        assert_eq!(s.write_calls, 1);
        assert_eq!(s.pages_written, 3);
        let back = read_seg_bytes(&db, ext.start, 0, data.len() as u64);
        assert_eq!(back, data);
        let mid = read_seg_bytes(&db, ext.start, 5_000, 2_000);
        assert_eq!(mid[..], data[5_000..7_000]);
    }

    #[test]
    fn insert_bytes_matches_splice() {
        let base: Vec<u8> = (0..10_000).map(|i| (i % 239) as u8).collect();
        let payload: Vec<u8> = (0..3_000).map(|i| (i % 13) as u8 + 240).collect();
        for buf in [&base[..], &[]] {
            for put in [&payload[..], &payload[..1], &[]] {
                for at in [0, buf.len() / 2, buf.len().saturating_sub(1), buf.len()] {
                    let mut want = buf.to_vec();
                    want.splice(at..at, put.iter().copied());
                    let mut got = buf.to_vec();
                    insert_bytes(&mut got, at, put);
                    assert_eq!(got, want, "{} bytes into {} at {at}", put.len(), buf.len());
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn insert_bytes_beyond_the_end_panics() {
        insert_bytes(&mut vec![1, 2, 3], 4, &[9]);
    }

    /// A segment read as this module did it before reads could append: a
    /// zeroed page buffer of its own, one `read_pages`, the bytes copied
    /// out of the middle.
    fn read_seg_bytes_oracle(db: &Db, ptr: u32, from: u64, len: u64) -> Vec<u8> {
        let first = from / PAGE_SIZE_U64;
        let n_pages = (from + len - 1) / PAGE_SIZE_U64 - first + 1;
        let mut pages = vec![0u8; n_pages as usize * PAGE_SIZE];
        db.pool
            .read_pages(AreaId::LEAF, ptr + first as u32, n_pages as u32, &mut pages);
        let skip = (from % PAGE_SIZE_U64) as usize;
        pages[skip..skip + len as usize].to_vec()
    }

    #[test]
    fn append_seg_bytes_is_the_same_read_landing_in_place() {
        let data: Vec<u8> = (0..6 * PAGE_SIZE).map(|i| (i % 251) as u8).collect();
        let twin = || {
            let mut db = Db::paper_default();
            let ext = write_new_seg(&mut db, 8, &data);
            db.pool.disk().enable_trace(8);
            db.reset_io_stats();
            (db, ext.start)
        };
        let (new, ptr) = twin();
        let (old, old_ptr) = twin();
        assert_eq!(ptr, old_ptr);
        let page = PAGE_SIZE_U64;
        let head = b"bytes already in the buffer";
        for from in [0, 1, page - 1, page, 5000] {
            // Ends on a page edge, one byte past it, inside a page, and
            // (a buffered read) inside the page it starts in.
            for end in [4 * page, 4 * page + 1, 5 * page - 7, from + 100] {
                let len = end - from;
                let reads = lobstore_obs::counter_value("core.seg.reads");
                let mut buf = head.to_vec();
                append_seg_bytes(&new, &mut buf, ptr, from, len);
                assert_eq!(lobstore_obs::counter_value("core.seg.reads"), reads + 1);
                let want = read_seg_bytes_oracle(&old, ptr, from, len);
                assert_eq!(want[..], data[from as usize..end as usize]);
                assert_eq!(buf[..head.len()], head[..], "[{from}, {end})");
                assert_eq!(buf[head.len()..], want[..], "[{from}, {end})");
                // The fresh-buffer form is the same read once more.
                assert_eq!(read_seg_bytes(&new, ptr, from, len), want);
                assert_eq!(read_seg_bytes_oracle(&old, ptr, from, len), want);
                assert_eq!(new.io_stats(), old.io_stats(), "[{from}, {end})");
                let trace = new.pool.disk().take_trace();
                assert_eq!(trace, old.pool.disk().take_trace(), "[{from}, {end})");
                assert_eq!(trace.len(), 2, "one I/O call a segment read");
            }
        }
        // Nothing to read is no call at all, and a reserved buffer takes
        // page-slack reads at both ends without growing.
        let mut buf = seg_buf(&[3, 2 * page]);
        let (stats, cap) = (new.io_stats(), buf.capacity());
        append_seg_bytes(&new, &mut buf, ptr, 77, 0);
        assert_eq!((buf.len(), new.io_stats()), (0, stats));
        buf.extend_from_slice(b"abc");
        append_seg_bytes(&new, &mut buf, ptr, page - 1, 2 * page);
        assert_eq!(buf[3..], data[PAGE_SIZE - 1..3 * PAGE_SIZE - 1]);
        assert_eq!(buf.capacity(), cap);
    }

    /// Each segment write entry moves `core.seg.writes` by exactly one
    /// and `core.seg.reads` not at all, however many pages it moves.
    #[test]
    fn each_segment_write_counts_one_write() {
        let counts = || {
            let value = lobstore_obs::counter_value;
            (value("core.seg.writes"), value("core.seg.reads"))
        };
        let mut db = Db::paper_default();
        let (writes, reads) = counts();
        let ext = write_new_seg(&mut db, 4, &vec![7u8; 5_000]);
        assert_eq!(counts(), (writes + 1, reads), "write_new_seg");
        append_in_place(&mut db, ext.start, 5_000, &vec![9u8; 6_000]);
        assert_eq!(counts(), (writes + 2, reads), "append_in_place");
        patch_in_place(&mut db, ext.start, 100, &[0xEE; 5_000]);
        assert_eq!(counts(), (writes + 3, reads), "patch_in_place");
    }

    #[test]
    fn append_in_place_reads_partial_page_once() {
        let mut db = Db::paper_default();
        let ext = write_new_seg(&mut db, 4, &vec![7u8; 5_000]);
        db.reset_io_stats();
        append_in_place(&mut db, ext.start, 5_000, &vec![9u8; 6_000]);
        let s = db.io_stats();
        // Partial page 1 read (1 call), pages 1..3 written (1 call).
        assert_eq!(s.read_calls, 1);
        assert_eq!(s.pages_read, 1);
        assert_eq!(s.write_calls, 1);
        assert_eq!(s.pages_written, 2);
        let back = read_seg_bytes(&db, ext.start, 0, 11_000);
        assert!(back[..5_000].iter().all(|&b| b == 7));
        assert!(back[5_000..].iter().all(|&b| b == 9));
    }

    #[test]
    fn append_in_place_aligned_needs_no_read() {
        let mut db = Db::paper_default();
        let ext = write_new_seg(&mut db, 4, &[7u8; PAGE_SIZE]);
        db.reset_io_stats();
        append_in_place(&mut db, ext.start, PAGE_SIZE as u64, &[9u8; 100]);
        let s = db.io_stats();
        assert_eq!(s.read_calls, 0, "aligned append reads nothing");
        assert_eq!(
            s,
            IoStats {
                write_calls: 1,
                pages_written: 1,
                time_us: 37_000,
                ..s
            }
        );
    }

    #[test]
    fn patch_in_place_preserves_surrounding_bytes() {
        let mut db = Db::paper_default();
        let data: Vec<u8> = (0..3 * PAGE_SIZE).map(|i| (i % 251) as u8).collect();
        let ext = write_new_seg(&mut db, 4, &data);
        db.reset_io_stats();
        patch_in_place(&mut db, ext.start, 5_000, &vec![0xEEu8; 1_000]);
        let back = read_seg_bytes(&db, ext.start, 0, data.len() as u64);
        assert_eq!(back[..5_000], data[..5_000]);
        assert!(back[5_000..6_000].iter().all(|&b| b == 0xEE));
        assert_eq!(back[6_000..], data[6_000..]);
    }
}

//! `std::io` adapters over large objects: stream a BLOB like a file.
//!
//! Two cursors, because they differ by something the code observes —
//! whether the version being read can still change:
//!
//! * [`ObjectReader`] reads the **live** version. It borrows the database
//!   exclusively, finds segments through the manager (hybrid §3.2 pool
//!   policy) and costs exactly what one bulk [`LargeObject::read`] would.
//! * [`SnapshotReader`] reads a **pinned** version. Everything below its
//!   root is immutable while the pin is held, so `&Db` is enough for every
//!   call; it reads segments page-direct, so under the shared lock a
//!   concurrent scanner fixes only the index pages of its descents.
//!   [`crate::SharedSnapshotReader`] wraps it for [`crate::SharedDb`].
//!
//! Both buffer the same way: one [`Span`], the rest of the segment under
//! the cursor, refilled by one descent and one segment read into the
//! `Vec` it handed out last time (§3.2: one segment per I/O call, nothing
//! read ahead of the request). The live cursor makes both inside one
//! [`LargeObject::read_span`] call.
//!
//! [`ObjectWriter`] implements [`Write`] for streaming creation by
//! appends, buffering to a configurable chunk size so the append pattern
//! matches how clients would really feed a storage manager.

use std::io::{self, BufRead, Read, Seek, SeekFrom, Write};

use lobstore_simdisk::cast;

use crate::db::Db;
use crate::error::{LobError, Result};
use crate::node::{find_child, Node, RootHdr};
use crate::object::{LargeObject, StorageKind};
use crate::segdata::read_seg_pages;
use crate::version::Snapshot;

/// Upper bound on one scan-cursor refill, live or pinned. Large enough
/// that tree-scheme segments (≤ a few hundred KB) always refill in a
/// single span read; bounds the buffer for Starburst's up-to-32 MB
/// segments.
const READ_AHEAD_MAX: usize = 4 << 20;

/// Resolve a [`SeekFrom`] against a cursor at `pos` over `size` bytes,
/// with [`std::io::Cursor`]'s semantics: a target before byte 0 (or past
/// `u64::MAX`) is `InvalidInput`; a target past the end is allowed and
/// reads there return 0 bytes.
pub(crate) fn seek_target(from: SeekFrom, pos: u64, size: u64) -> io::Result<u64> {
    let target = match from {
        SeekFrom::Start(n) => i128::from(n),
        SeekFrom::End(d) => i128::from(size) + i128::from(d),
        SeekFrom::Current(d) => i128::from(pos) + i128::from(d),
    };
    u64::try_from(target).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            "seek to a negative or overflowing position",
        )
    })
}

/// [`Read::read`] for a cursor that is a [`BufRead`]: copy from the head
/// of `fill_buf`, then `consume`. Short reads happen at span boundaries.
pub(crate) fn read_buffered(r: &mut impl BufRead, out: &mut [u8]) -> io::Result<usize> {
    if out.is_empty() {
        return Ok(0);
    }
    let n = take_into(out, r.fill_buf()?);
    r.consume(n);
    Ok(n)
}

/// Copy as much of the head of `src` as fits into `out`; returns the
/// count.
fn take_into(out: &mut [u8], src: &[u8]) -> usize {
    let take = src.len().min(out.len());
    // `take` is clamped to both slice lengths.
    // loblint: allow(panic-path)
    out[..take].copy_from_slice(&src[..take]);
    take
}

/// What a scan cursor buffers: object bytes `[start, start + len)`, held
/// at `data[skip..skip + len]`. The segment read lands in `data`
/// directly — the only copy those bytes make before `fill_buf` hands
/// them out — and the next refill reuses the allocation.
#[derive(Default)]
struct Span {
    start: u64,
    skip: usize,
    len: usize,
    data: Vec<u8>,
}

impl Span {
    /// The buffered bytes from `pos` to the end of the span; empty when
    /// `pos` is outside it.
    fn slice_at(&self, pos: u64) -> &[u8] {
        let Some(d) = pos.checked_sub(self.start).map(cast::to_usize) else {
            return &[];
        };
        let end = self.skip.saturating_add(self.len);
        self.data
            .get(self.skip.saturating_add(d)..end)
            .unwrap_or(&[])
    }
}

/// Streaming reader over a large object.
///
/// A sequential-scan cursor: instead of descending the index for every
/// `read()` call (ruinous for small chunks — one full root-to-leaf walk
/// per 4 KB), the reader refills its buffer once per span with one
/// [`LargeObject::read_span`]: one descent to the segment holding the
/// current position, one byte-range read of the rest of that segment
/// (capped at `READ_AHEAD_MAX`, 4 MiB). Small sequential reads then cost
/// exactly the simulated I/O of one large read: the refills make the
/// descents and issue the per-segment `read_segment` calls a whole-range
/// [`LargeObject::read`] would, and nothing else but the one size lookup
/// of [`ObjectReader::new`].
///
/// Seeks don't discard the buffer — the object cannot change while the
/// reader holds the database borrow, so re-reads within the buffered
/// span (including backward seeks) are served from memory.
pub struct ObjectReader<'a> {
    db: &'a mut Db,
    obj: &'a dyn LargeObject,
    pos: u64,
    size: u64,
    /// The buffered span; `skip` stays 0, a byte-range read fills `data`
    /// from its first byte.
    span: Span,
}

impl<'a> ObjectReader<'a> {
    /// Start a sequential reader at offset 0 of `obj`.
    pub fn new(db: &'a mut Db, obj: &'a dyn LargeObject) -> Self {
        let size = obj.size(db);
        // Reserve the full read-ahead capacity up front: refills then
        // never reallocate (a reallocation would memcpy bytes that are
        // about to be overwritten by the next span read).
        let cap = cast::to_usize(size.min(READ_AHEAD_MAX as u64));
        ObjectReader {
            db,
            obj,
            pos: 0,
            size,
            span: Span {
                data: Vec::with_capacity(cap),
                ..Span::default()
            },
        }
    }

    /// Current read position.
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// Refill the span starting at the current position with the rest of
    /// the segment holding it: one observed read, one descent.
    fn refill(&mut self) -> Result<()> {
        let n = self
            .obj
            .read_span(self.db, self.pos, READ_AHEAD_MAX, &mut self.span.data)?;
        debug_assert!(n > 0, "refill inside the object read nothing");
        self.span.start = self.pos;
        self.span.len = n;
        Ok(())
    }
}

impl Read for ObjectReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        read_buffered(self, buf)
    }
}

impl BufRead for ObjectReader<'_> {
    /// Zero-copy access to the buffered span: the returned slice borrows
    /// the read-ahead buffer directly, so sequential consumers pay for
    /// each byte exactly once (the refill's copy out of the page store)
    /// instead of twice. Refills on demand like [`Read::read`] and
    /// charges identical simulated I/O.
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos < self.size && self.span.slice_at(self.pos).is_empty() {
            self.refill().map_err(|e| io::Error::other(e.to_string()))?;
        }
        Ok(self.span.slice_at(self.pos))
    }

    fn consume(&mut self, amt: usize) {
        // Contract (std::io::BufRead): `amt` never exceeds the slice
        // `fill_buf` returned, so this stays within the buffered span.
        debug_assert!(
            amt <= self.span.slice_at(self.pos).len(),
            "consume before fill_buf"
        );
        // loblint: allow(arith-overflow)
        self.pos += amt as u64;
    }
}

impl Seek for ObjectReader<'_> {
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        self.pos = seek_target(pos, self.pos, self.size)?;
        Ok(self.pos)
    }
}

/// A positional cursor reading one object *as of* a pinned snapshot.
///
/// The reader resolves the object's root through the version overlay
/// once, at construction — everything reachable from that root is
/// immutable while the snapshot stays pinned. That is also why a shared
/// `&Db` is enough for every read (`&mut Db` coerces to it): the cursor
/// does not borrow the database between calls, so readers on other
/// threads of a [`crate::SharedDb`] interleave with a writer's operations
/// and still observe stable bytes.
///
/// It buffers like [`ObjectReader`]: one span, the rest of the segment
/// under the cursor (capped at 4 MiB), refilled by one index descent plus
/// one page-run segment read. A whole-object scan therefore charges the
/// same simulated I/O calls in the same order as [`ObjectReader`], a
/// partial read pays for its own segment only, and a re-read inside the
/// buffered span touches no database at all.
pub struct SnapshotReader {
    version: u64,
    /// Parsed root: level and entries as of the snapshot.
    root: Node,
    size: u64,
    pos: u64,
    /// The buffered span; `data` holds the whole covering page run, so
    /// `skip` is the span's offset inside its first page.
    span: Span,
}

impl SnapshotReader {
    /// Open a snapshot cursor over the object rooted at `root_page`.
    /// Fails if the page does not hold a manager root at this version.
    pub fn new(db: &mut Db, snap: &Snapshot, root_page: u32) -> Result<SnapshotReader> {
        let v = snap.version();
        let (hdr, root) = db.versioned_meta_page(root_page, v, |p| {
            let hdr = RootHdr::read(p);
            let node = Node::read_root(p, &hdr);
            (hdr, node)
        });
        if StorageKind::from_u8(hdr.kind).is_none() {
            return Err(LobError::Corrupt(format!(
                "page {root_page} is not an object root at version {v} (kind {})",
                hdr.kind
            )));
        }
        Ok(SnapshotReader {
            version: v,
            root,
            size: hdr.size,
            pos: 0,
            span: Span::default(),
        })
    }

    /// Object size at the snapshot version.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Current read position.
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// Move the cursor. Past the end is allowed, like a file: reads
    /// there return 0 bytes.
    pub fn seek(&mut self, pos: u64) {
        self.pos = pos;
    }

    /// Read up to `out.len()` bytes at the cursor; returns the count
    /// (0 at end of object). Short reads happen at span boundaries,
    /// like [`std::io::Read`].
    pub fn read(&mut self, db: &Db, out: &mut [u8]) -> usize {
        if out.is_empty() {
            return 0;
        }
        let n = take_into(out, self.fill_buf(db));
        self.consume(n);
        n
    }

    /// Bytes buffered at the cursor, refilling the span if it does not
    /// cover the current position. Empty only at (or past) the end of
    /// the object.
    pub fn fill_buf(&mut self, db: &Db) -> &[u8] {
        if self.pos < self.size && self.buffered().is_empty() {
            self.refill(db);
        }
        self.buffered()
    }

    /// What [`Self::fill_buf`] last produced, as far as it is still
    /// unconsumed — without touching the database, so a caller can check
    /// it before taking any lock and hand it out after dropping one.
    pub fn buffered(&self) -> &[u8] {
        self.span.slice_at(self.pos)
    }

    /// Advance the cursor past `n` bytes returned by [`Self::fill_buf`].
    pub fn consume(&mut self, n: usize) {
        self.pos = self.pos.saturating_add(n as u64);
    }

    /// Read from the cursor to the end of the object.
    pub fn read_to_end(&mut self, db: &Db) -> Vec<u8> {
        let mut out = Vec::with_capacity(cast::to_usize(self.size.saturating_sub(self.pos)));
        loop {
            let chunk = self.fill_buf(db);
            if chunk.is_empty() {
                return out;
            }
            out.extend_from_slice(chunk);
            let n = chunk.len();
            self.consume(n);
        }
    }

    /// Locate the leaf segment holding object byte `off`: returns
    /// `(segment first page, offset of `off` in the segment, segment
    /// byte count)`.
    fn locate(&self, db: &Db, off: u64) -> (u32, u64, u64) {
        debug_assert!(off < self.size);
        let (_, mut within, mut e) = find_child(self.root.entries.iter().copied(), off);
        for _ in 0..self.root.level {
            // A pinned version's index pages cannot change, so the page
            // is searched in place through `&Db`, like the live descent.
            (_, within, e) = db.with_meta_node(e.ptr, |node| node.find_child(within));
        }
        (e.ptr, within, e.count)
    }

    /// Refill the span starting at the current position: one descent to
    /// find the segment, one page-run read for the remainder of that
    /// segment, landing in the span's buffer directly.
    fn refill(&mut self, db: &Db) {
        assert!(
            db.is_pinned(self.version),
            "snapshot at version {} was released while a reader was open",
            self.version
        );
        let (ptr, from, seg_len) = self.locate(db, self.pos);
        let left = seg_len
            .saturating_sub(from)
            .min(self.size.saturating_sub(self.pos));
        let want = cast::to_usize(left).min(READ_AHEAD_MAX);
        debug_assert!(want > 0, "refill past the located segment");
        let mut data = std::mem::take(&mut self.span.data);
        let skip = read_seg_pages(db, ptr, from, want as u64, &mut data, 0);
        self.span = Span {
            start: self.pos,
            skip,
            len: want,
            data,
        };
    }
}

/// Buffered appending writer over a large object.
///
/// Bytes are accumulated into `chunk`-sized appends — §1: "smaller (but
/// sizable) chunks of bytes will be successively appended at the end of
/// the object". Call [`ObjectWriter::finish`] (or let `flush` run) to
/// push out the final partial chunk; `finish` also trims build-time
/// over-allocation.
pub struct ObjectWriter<'a> {
    db: &'a mut Db,
    obj: &'a mut dyn LargeObject,
    buf: Vec<u8>,
    chunk: usize,
    written: u64,
}

impl<'a> ObjectWriter<'a> {
    /// Append-writer with the given chunk size (e.g. 64 KB).
    pub fn new(db: &'a mut Db, obj: &'a mut dyn LargeObject, chunk: usize) -> Self {
        assert!(chunk > 0, "zero chunk size");
        ObjectWriter {
            db,
            obj,
            buf: Vec::with_capacity(chunk),
            chunk,
            written: 0,
        }
    }

    /// Total bytes handed to the object so far (excluding buffered ones).
    pub fn appended(&self) -> u64 {
        self.written
    }

    fn push_chunk(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.obj
            .append(self.db, &self.buf)
            .map_err(|e| io::Error::other(e.to_string()))?;
        self.written += self.buf.len() as u64;
        self.buf.clear();
        Ok(())
    }

    /// Flush the last partial chunk and trim the object's tail.
    pub fn finish(mut self) -> io::Result<u64> {
        self.push_chunk()?;
        self.obj
            .trim(self.db)
            .map_err(|e| io::Error::other(e.to_string()))?;
        Ok(self.written)
    }
}

impl Write for ObjectWriter<'_> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        let mut rest = data;
        while !rest.is_empty() {
            let room = self.chunk - self.buf.len();
            let take = room.min(rest.len());
            self.buf.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if self.buf.len() == self.chunk {
                self.push_chunk()?;
            }
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.push_chunk()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EosObject, EosParams};

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn writer_then_reader_roundtrip() {
        let mut db = Db::paper_default();
        let mut obj = EosObject::create(&mut db, EosParams::default()).unwrap();
        let data = pattern(200_000);
        {
            let mut w = ObjectWriter::new(&mut db, &mut obj, 64 * 1024);
            // Write in awkward pieces to exercise the chunking.
            for piece in data.chunks(7_001) {
                w.write_all(piece).unwrap();
            }
            assert_eq!(w.finish().unwrap(), 200_000);
        }
        assert_eq!(obj.size(&mut db), 200_000);
        let mut r = ObjectReader::new(&mut db, &obj);
        let mut back = Vec::new();
        r.read_to_end(&mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn reader_seeks_like_a_file() {
        let mut db = Db::paper_default();
        let mut obj = EosObject::create(&mut db, EosParams::default()).unwrap();
        let data = pattern(50_000);
        obj.append(&mut db, &data).unwrap();
        let mut r = ObjectReader::new(&mut db, &obj);
        r.seek(SeekFrom::Start(10_000)).unwrap();
        let mut buf = [0u8; 16];
        r.read_exact(&mut buf).unwrap();
        assert_eq!(buf[..], data[10_000..10_016]);
        r.seek(SeekFrom::End(-100)).unwrap();
        let mut tail = Vec::new();
        r.read_to_end(&mut tail).unwrap();
        assert_eq!(tail[..], data[49_900..]);
        r.seek(SeekFrom::Current(-50)).unwrap();
        assert_eq!(r.position(), 49_950);
        // Past-EOF seek reads as EOF.
        r.seek(SeekFrom::Start(1 << 30)).unwrap();
        assert_eq!(r.read(&mut buf).unwrap(), 0);
        assert!(r.seek(SeekFrom::End(-1_000_000)).is_err());
        // The whole u64 range is addressable; targets outside it are
        // errors (not panics) and leave the cursor where it was.
        assert_eq!(r.seek(SeekFrom::Start(u64::MAX)).unwrap(), u64::MAX);
        assert_eq!(r.read(&mut buf).unwrap(), 0);
        r.seek(SeekFrom::Start(1_000)).unwrap();
        for bad in [SeekFrom::End(i64::MIN), SeekFrom::Current(i64::MIN)] {
            let err = r.seek(bad).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
            assert_eq!(r.position(), 1_000);
        }
        assert_eq!(
            r.seek(SeekFrom::Current(i64::MAX)).unwrap(),
            1_000 + i64::MAX as u64
        );
        assert_eq!(r.read(&mut buf).unwrap(), 0);
        assert!(
            r.seek(SeekFrom::Current(i64::MAX)).is_err(),
            "past u64::MAX"
        );
    }

    #[test]
    fn writer_flush_pushes_partial_chunk() {
        let mut db = Db::paper_default();
        let mut obj = EosObject::create(&mut db, EosParams::default()).unwrap();
        let mut w = ObjectWriter::new(&mut db, &mut obj, 4096);
        w.write_all(b"tiny").unwrap();
        assert_eq!(w.appended(), 0, "still buffered");
        w.flush().unwrap();
        assert_eq!(w.appended(), 4);
        drop(w);
        assert_eq!(obj.snapshot(&db), b"tiny");
    }

    #[test]
    fn streamed_small_reads_cost_like_one_big_read() {
        // The scan-cursor guarantee (and the regression this pins): N
        // small sequential reads through ObjectReader charge exactly the
        // simulated I/O of one whole-object `read`, for every scheme.
        // Before the cursor, each 1 KB read re-descended the index and
        // issued its own segment read.
        use crate::spec::ManagerSpec;
        let size = 600_000usize;
        for spec in [
            ManagerSpec::esm(16),
            ManagerSpec::eos(16),
            ManagerSpec::starburst(),
        ] {
            let build = |db: &mut Db| {
                let mut obj = spec.create(db).unwrap();
                obj.append(db, &pattern(size)).unwrap();
                obj
            };

            let mut db_bulk = Db::paper_default();
            let obj_bulk = build(&mut db_bulk);
            db_bulk.reset_io_stats();
            let mut bulk_out = vec![0u8; size];
            obj_bulk.read(&mut db_bulk, 0, &mut bulk_out).unwrap();
            let bulk = db_bulk.io_stats();

            let mut db_stream = Db::paper_default();
            let obj_stream = build(&mut db_stream);
            db_stream.reset_io_stats();
            let mut r = ObjectReader::new(&mut db_stream, obj_stream.as_ref());
            let mut got = Vec::with_capacity(size);
            let mut chunk = [0u8; 1024];
            loop {
                let n = r.read(&mut chunk).unwrap();
                if n == 0 {
                    break;
                }
                got.extend_from_slice(&chunk[..n]);
            }
            let streamed = db_stream.io_stats();

            assert_eq!(got, bulk_out, "{}: bytes differ", spec.label());
            assert_eq!(
                streamed,
                bulk,
                "{}: streamed 1 KB reads must cost the same simulated I/O \
                 as one large read",
                spec.label()
            );
        }
    }

    #[test]
    fn cursor_serves_backward_seeks_from_the_buffer() {
        let mut db = Db::paper_default();
        let mut obj = EosObject::create(&mut db, EosParams::default()).unwrap();
        let data = pattern(100_000);
        obj.append(&mut db, &data).unwrap();
        let mut r = ObjectReader::new(&mut db, &obj);
        let mut buf = [0u8; 4096];
        r.read_exact(&mut buf).unwrap();
        assert_eq!(buf[..], data[..4096]);
        // Jump back: the span is already buffered, so this must not
        // change the simulated I/O tally.
        let io_before = r.db.io_stats();
        r.seek(SeekFrom::Start(100)).unwrap();
        r.read_exact(&mut buf).unwrap();
        assert_eq!(buf[..], data[100..100 + 4096]);
        assert_eq!(r.db.io_stats(), io_before, "re-read served from buffer");
    }

    #[test]
    fn bufread_scan_matches_read_scan_bytes_and_io() {
        // The zero-copy surface is the copying surface minus one memcpy:
        // fill_buf/consume must yield the same bytes and charge the same
        // simulated I/O as Read::read over the same object.
        use crate::spec::ManagerSpec;
        for spec in [
            ManagerSpec::esm(16),
            ManagerSpec::eos(16),
            ManagerSpec::starburst(),
        ] {
            let size = 700_000usize;
            let build = |db: &mut Db| {
                let mut obj = spec.create(db).unwrap();
                obj.append(db, &pattern(size)).unwrap();
                obj
            };

            let mut db_read = Db::paper_default();
            let obj_read = build(&mut db_read);
            db_read.reset_io_stats();
            let mut copied = Vec::with_capacity(size);
            ObjectReader::new(&mut db_read, obj_read.as_ref())
                .read_to_end(&mut copied)
                .unwrap();
            let io_read = db_read.io_stats();

            let mut db_buf = Db::paper_default();
            let obj_buf = build(&mut db_buf);
            db_buf.reset_io_stats();
            let mut borrowed = Vec::with_capacity(size);
            let mut r = ObjectReader::new(&mut db_buf, obj_buf.as_ref());
            loop {
                let chunk = r.fill_buf().unwrap();
                if chunk.is_empty() {
                    break;
                }
                let n = chunk.len().min(4096);
                borrowed.extend_from_slice(&chunk[..n]);
                r.consume(n);
            }
            drop(r);
            let io_buf = db_buf.io_stats();

            assert_eq!(borrowed, copied, "{}: bytes differ", spec.label());
            assert_eq!(
                io_buf,
                io_read,
                "{}: fill_buf/consume must charge the same simulated I/O",
                spec.label()
            );
        }
    }

    #[test]
    fn bufread_copy_between_objects() {
        // Copy one object into another through std::io machinery only.
        let mut db = Db::paper_default();
        let mut src = EosObject::create(&mut db, EosParams::default()).unwrap();
        let data = pattern(123_456);
        src.append(&mut db, &data).unwrap();

        let mut dst = EosObject::create(&mut db, EosParams::default()).unwrap();
        // Two-phase copy (the borrow rules forbid reading and writing the
        // same Db simultaneously — single-client, like the paper).
        let mut tmp = Vec::new();
        ObjectReader::new(&mut db, &src)
            .read_to_end(&mut tmp)
            .unwrap();
        let mut w = ObjectWriter::new(&mut db, &mut dst, 32 * 1024);
        w.write_all(&tmp).unwrap();
        w.finish().unwrap();
        assert_eq!(dst.snapshot(&db), data);
    }
}

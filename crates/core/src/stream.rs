//! `std::io` adapters over large objects: stream a BLOB like a file.
//!
//! One cursor reads every version. [`SpanCursor`] holds the position, the
//! object size and one [`Span`]: the rest of the run under the cursor,
//! read into the `Vec` handed out last time. A run is the segment holding
//! the position and the segments that follow it on disk in the same
//! level-0 node, up to 256 KiB (`run_len`): one seek for pages that lie
//! together, as §4.3 costs a scan. Its [`Read`], [`BufRead`] and [`Seek`]
//! are written once, and so is a refill (`refill_below`): below the
//! version's root, parsed once at open, one in-place pair search a level,
//! then the page run covering the rest of the run, in one page-direct
//! call, into the span's own buffer (`read_seg_pages`), so a partial page
//! never takes §3.2's 3-step I/O.
//! Only a refill touches the database; a read inside the span, or at or
//! past the end, takes no lock. The two sources differ in where the root
//! comes from and in what brackets a refill:
//!
//! * [`Live`] ([`ObjectReader`]) reads the **live** version, borrowing
//!   the database exclusively, so nothing writes while it is open. It
//!   parses the root through the pool (one observed `op.<scheme>.size`),
//!   and each refill is one observed `op.<scheme>.read`, over any object.
//! * [`Pinned`] reads a **pinned** version, its root resolved through the
//!   version overlay. Everything below it is immutable while the pin is
//!   held, so a refill needs only `&Db`, reached through a [`ReadAccess`]:
//!   a borrowed `&Db`, [`crate::SharedDb`]'s read tier
//!   ([`crate::SharedSnapshotReader`] owns its pin as well), or a
//!   caller's wrapper. Each refill asserts the pin is still held.
//!
//! [`ObjectWriter`] implements [`Write`] for streaming creation by
//! appends, buffering to a configurable chunk size so the append pattern
//! matches how clients would really feed a storage manager.

use std::io::{self, BufRead, Read, Seek, SeekFrom, Write};

use lobstore_simdisk::{cast, PAGE_SIZE_U64};

use crate::db::Db;
use crate::error::Result;
use crate::node::{find_child, Entry, Node, RootHdr};
use crate::object::{LargeObject, StorageKind};
use crate::observe::{OpName, OpObserver};
use crate::segdata::read_seg_pages;
use crate::version::Snapshot;

/// Upper bound on one refill, live or pinned. Large enough that
/// tree-scheme segments (≤ a few hundred KB) always refill in a single
/// span read; bounds the buffer for Starburst's up-to-32 MB segments.
const READ_AHEAD_MAX: usize = 4 << 20;

/// How far a refill joins the segments that follow on disk: it takes the
/// next one while its run holds less than this past its position. Runs
/// of 1 or 4 MiB save few more seeks, and their copies leave the cache.
const RUN_MAX: u64 = 256 << 10;

/// What a cursor buffers: object bytes `[start, start + len)`, held at
/// `data[skip..skip + len]`. The run read lands in `data` directly —
/// the only copy those bytes make before `fill_buf` hands them out — and
/// the next refill reuses the allocation.
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

/// Where a [`SpanCursor`] gets its bytes.
pub(crate) trait Source {
    /// Read from object byte `pos` (below the object size) to the end of
    /// the run holding it, at most 4 MiB, into `buf`, reusing its
    /// allocation. Returns `(skip, len)`: the bytes are
    /// `buf[skip..skip + len]`, and `len > 0`.
    fn refill(&mut self, pos: u64, buf: &mut Vec<u8>) -> Result<(usize, usize)>;
}

/// A sequential-scan cursor over one version of a large object.
///
/// Instead of descending the index for every `read()` call (ruinous for
/// small chunks — one full root-to-leaf walk per 4 KB), the cursor refills
/// its one span per run of segments through its source, so small sequential
/// reads cost exactly the simulated I/O of one whole pass. Seeks keep the
/// span: the version cannot change under the cursor, so a re-read inside
/// it (a backward seek included) is served from memory. Seeking follows
/// [`std::io::Cursor`]: a target before byte 0 or past `u64::MAX` is
/// `InvalidInput`; past the end is allowed and reads 0 bytes.
pub struct SpanCursor<S> {
    src: S,
    pos: u64,
    size: u64,
    span: Span,
}

impl<S> SpanCursor<S> {
    fn over(src: S, size: u64) -> Self {
        // Reserve the full read-ahead capacity up front: refills then
        // never reallocate (a reallocation would memcpy bytes that are
        // about to be overwritten by the next span read).
        let cap = cast::to_usize(size.min(READ_AHEAD_MAX as u64));
        SpanCursor {
            src,
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

    /// Object size in the version the cursor reads.
    pub fn size(&self) -> u64 {
        self.size
    }
}

impl<S: Source> Read for SpanCursor<S> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        let n = self.fill_buf()?.read(out)?;
        self.consume(n);
        Ok(n)
    }
}

impl<S: Source> BufRead for SpanCursor<S> {
    /// Zero-copy access to the buffered span: the returned slice borrows
    /// the span directly, so sequential consumers pay for each byte
    /// exactly once (the refill's copy out of the page store). Empty only
    /// at or past the end of the object.
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos < self.size && self.span.slice_at(self.pos).is_empty() {
            self.span.len = 0;
            let (skip, len) = self
                .src
                .refill(self.pos, &mut self.span.data)
                .map_err(|e| io::Error::other(e.to_string()))?;
            debug_assert!(len > 0, "refill inside the object read nothing");
            self.span.start = self.pos;
            self.span.skip = skip;
            self.span.len = len.min(cast::to_usize(self.size.saturating_sub(self.pos)));
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
        self.pos = self.pos.saturating_add(amt as u64);
    }
}

impl<S> Seek for SpanCursor<S> {
    fn seek(&mut self, from: SeekFrom) -> io::Result<u64> {
        let target = match from {
            SeekFrom::Start(n) => i128::from(n),
            SeekFrom::End(d) => i128::from(self.size) + i128::from(d),
            SeekFrom::Current(d) => i128::from(self.pos) + i128::from(d),
        };
        self.pos = u64::try_from(target).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "seek to a negative or overflowing position",
            )
        })?;
        Ok(self.pos)
    }
}

/// The root page `page` holds, checked as an object root (of `kind` when
/// given, else of the kind its header names): its stored size and its
/// parsed node.
fn parse_root(p: &[u8], page: u32, kind: Option<StorageKind>) -> Result<(u64, Node)> {
    let hdr = RootHdr::read(p);
    hdr.check_root(page, kind)?;
    Ok((hdr.size, Node::read_root(p, &hdr)?))
}

/// The one refill, for both sources: from object byte `pos` (below the
/// size) to the end of its run (`run_len`), at most 4 MiB, into `buf`.
/// The pair search starts in the parsed `root`, then takes one
/// [`Db::with_meta_node`] step a level; the run is read from the pairs
/// after the found one in its level-0 node, and the leaf read is one page
/// run (`read_seg_pages`). Returns `(skip, len)` as [`Source::refill`].
fn refill_below(db: &Db, root: &Node, pos: u64, buf: &mut Vec<u8>) -> Result<(usize, usize)> {
    let (i, within, e) = find_child(root.entries.iter().copied(), pos)?;
    let (within, e, want) = if root.level == 0 {
        let next = root.entries.get(i.saturating_add(1)..).unwrap_or_default();
        (within, e, run_len(within, e, next.iter().copied()))
    } else {
        let (mut within, mut e) = (within, e);
        for _ in 1..root.level {
            (_, within, e) = db.with_meta_node(e.ptr, |node| node.find_child(within))??;
        }
        db.with_meta_node(e.ptr, |node| {
            let (i, within, e) = node.find_child(within)?;
            let next = node.iter_from(i.saturating_add(1));
            Result::Ok((within, e, run_len(within, e, next)))
        })??
    };
    let skip = read_seg_pages(db, e.ptr, within, want, buf, 0);
    Ok((skip, cast::to_usize(want)))
}

/// Bytes a refill reads from byte `within` of segment `e`: the rest of
/// the run that starts with `e` and takes each of `next` (the pairs after
/// `e` in its level-0 node) while the run ends on a page boundary, the
/// next segment starts on the page after it, and the run holds less than
/// [`RUN_MAX`] past `within`; at most [`READ_AHEAD_MAX`].
fn run_len(within: u64, e: Entry, next: impl Iterator<Item = Entry>) -> u64 {
    let mut run = e.count;
    for n in next {
        let joins = run.is_multiple_of(PAGE_SIZE_U64)
            && run.saturating_sub(within) < RUN_MAX
            && u64::from(n.ptr) == u64::from(e.ptr).saturating_add(run / PAGE_SIZE_U64);
        if !joins {
            break;
        }
        run = run.saturating_add(n.count);
    }
    run.saturating_sub(within).min(READ_AHEAD_MAX as u64)
}

/// The live source: the head version, its root parsed at open. It holds
/// the database exclusively, so nothing writes while it is open and the
/// root stays what it was. A root that failed to parse fails each refill.
pub struct Live<'a> {
    db: &'a mut Db,
    obj: &'a dyn LargeObject,
    root: Result<Node>,
}

impl Source for Live<'_> {
    /// One observed `op.<scheme>.read` around `refill_below`.
    fn refill(&mut self, pos: u64, buf: &mut Vec<u8>) -> Result<(usize, usize)> {
        let Live { db, obj, root } = self;
        let refill = |db: &mut Db| match root {
            Ok(root) => refill_below(db, root, pos, buf),
            Err(e) => Err(e.clone()),
        };
        // A failed refill reports no size: its root may not parse.
        let bytes = |db: &Db, r: &Result<_>| r.is_ok().then(|| obj.utilization(db).object_bytes);
        OpObserver::around(obj.kind(), OpName::Read, db, refill, bytes)
    }
}

/// The cursor over the live version. Opening it parses the root, its
/// size included, in one fix, observed as the `op.<scheme>.size` it
/// stands in for; a scan from offset `o` then makes one page-run read
/// per run of neighbouring segments (per 4 MiB piece of a longer one),
/// each below one fix of every index level under the root.
pub type ObjectReader<'a> = SpanCursor<Live<'a>>;

impl<'a> ObjectReader<'a> {
    /// Start a sequential reader at offset 0 of `obj`. A root that fails
    /// to parse leaves the size unknown (`u64::MAX`), so the first read
    /// reaches a refill and fails with the parse error.
    pub fn new(db: &'a mut Db, obj: &'a dyn LargeObject) -> Self {
        let (page, kind) = (obj.root_page(), obj.kind());
        let parse = |db: &mut Db| db.with_meta_page(page, |p| parse_root(p, page, Some(kind)));
        let size = |_: &Db, r: &Result<(u64, Node)>| r.as_ref().ok().map(|(size, _)| *size);
        let (size, root) = match OpObserver::around(kind, OpName::Size, db, parse, size) {
            Ok((size, root)) => (size, Ok(root)),
            Err(e) => (u64::MAX, Err(e)),
        };
        Self::over(Live { db, obj, root }, size)
    }
}

/// How a pinned cursor reaches the database for one refill.
pub trait ReadAccess {
    /// Run `f` with shared access to the database.
    fn with_db<R>(&mut self, f: impl FnOnce(&Db) -> R) -> R;
}

impl ReadAccess for &Db {
    fn with_db<R>(&mut self, f: impl FnOnce(&Db) -> R) -> R {
        f(self)
    }
}

/// The pinned source: one version of one object, its root parsed once.
pub struct Pinned<D> {
    db: D,
    version: u64,
    root: Node,
}

impl<D: ReadAccess> Source for Pinned<D> {
    /// `refill_below`, inside one [`ReadAccess::with_db`].
    fn refill(&mut self, pos: u64, buf: &mut Vec<u8>) -> Result<(usize, usize)> {
        let Pinned { db, version, root } = self;
        db.with_db(|db| {
            assert!(
                db.is_pinned(*version),
                "snapshot at version {version} was released while a reader was open"
            );
            refill_below(db, root, pos, buf)
        })
    }
}

impl<D: ReadAccess> SpanCursor<Pinned<D>> {
    /// Open a cursor over the object rooted at `root_page` as of `snap`,
    /// reaching the database through `db`: a borrowed `&Db`, a
    /// [`crate::SharedDb`]'s read tier, or a caller's own [`ReadAccess`].
    /// Fails, as the scheme's `open` would, unless the page holds an
    /// object root at that version.
    pub fn pinned(db: D, snap: &Snapshot, root_page: u32) -> Result<Self> {
        Self::open(db, snap.version(), root_page)
    }

    pub(crate) fn open(mut db: D, version: u64, root_page: u32) -> Result<Self> {
        let (size, root) = db.with_db(|db| {
            db.versioned_meta_page(root_page, version, |p| parse_root(p, root_page, None))
        })?;
        Ok(Self::over(Pinned { db, version, root }, size))
    }

    /// The pinned version this cursor reads.
    pub fn version(&self) -> u64 {
        self.src.version
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
    use crate::{Lob, ManagerSpec};

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn writer_then_reader_roundtrip() {
        let mut db = Db::paper_default();
        let mut obj = Lob::create(&mut db, ManagerSpec::eos(4)).unwrap();
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
        let mut obj = Lob::create(&mut db, ManagerSpec::eos(4)).unwrap();
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

    /// A live cursor over a root that no longer parses opens, and its
    /// first read fails: no panic, and not an empty object either. The
    /// root loses its magic, or claims more pairs than a root page holds.
    #[test]
    fn a_cursor_over_a_broken_root_fails_its_first_read() {
        use crate::spec::ManagerSpec;
        type Break = fn(&mut [u8]);
        let breaks: [(&str, Break); 2] = [
            ("magic", |p| p[0..4].copy_from_slice(b"XXXX")),
            ("pair count", |p| {
                p[6..8].copy_from_slice(&600u16.to_le_bytes())
            }),
        ];
        for spec in [
            ManagerSpec::esm(4),
            ManagerSpec::eos(16),
            ManagerSpec::starburst(),
        ] {
            for (what, corrupt) in breaks {
                let mut db = Db::paper_default();
                let mut obj = spec.create(&mut db).unwrap();
                obj.append(&mut db, &pattern(50_000)).unwrap();
                db.with_meta_page_mut(obj.root_page(), corrupt);
                let mut r = ObjectReader::new(&mut db, obj.as_ref());
                let got = r.read(&mut [0u8; 16]);
                assert!(got.is_err(), "{} {what}: {got:?}", spec.label());
            }
        }
    }

    #[test]
    fn writer_flush_pushes_partial_chunk() {
        let mut db = Db::paper_default();
        let mut obj = Lob::create(&mut db, ManagerSpec::eos(4)).unwrap();
        let mut w = ObjectWriter::new(&mut db, &mut obj, 4096);
        w.write_all(b"tiny").unwrap();
        assert_eq!(w.appended(), 0, "still buffered");
        w.flush().unwrap();
        assert_eq!(w.appended(), 4);
        drop(w);
        assert_eq!(obj.snapshot(&db), b"tiny");
    }

    #[test]
    fn streamed_small_reads_cost_like_one_pinned_pass() {
        // The scan-cursor guarantee: N small sequential reads through
        // ObjectReader charge exactly the simulated I/O of a pinned
        // cursor's pass over the same version, for every scheme: the two
        // sources read the leaves the same way, one page run a run.
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

            let mut db_pinned = Db::paper_default();
            let obj_pinned = build(&mut db_pinned);
            let snap = db_pinned.snapshot();
            db_pinned.reset_io_stats();
            let mut pinned_out = Vec::with_capacity(size);
            SpanCursor::pinned(&db_pinned, &snap, obj_pinned.root_page())
                .unwrap()
                .read_to_end(&mut pinned_out)
                .unwrap();
            let pinned = db_pinned.io_stats();
            db_pinned.release_snapshot(snap);

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

            assert_eq!(got, pattern(size), "{}: bytes differ", spec.label());
            assert_eq!(got, pinned_out, "{}: bytes differ", spec.label());
            assert_eq!(
                streamed,
                pinned,
                "{}: streamed 1 KB reads must cost the same simulated I/O \
                 as a pinned pass",
                spec.label()
            );
        }
    }

    #[test]
    fn cursor_serves_backward_seeks_from_the_buffer() {
        let mut db = Db::paper_default();
        let mut obj = Lob::create(&mut db, ManagerSpec::eos(4)).unwrap();
        let data = pattern(100_000);
        obj.append(&mut db, &data).unwrap();
        let mut r = ObjectReader::new(&mut db, &obj);
        let mut buf = [0u8; 4096];
        r.read_exact(&mut buf).unwrap();
        assert_eq!(buf[..], data[..4096]);
        // Jump back: the span is already buffered, so this must not
        // change the simulated I/O tally.
        let io_before = r.src.db.io_stats();
        r.seek(SeekFrom::Start(100)).unwrap();
        r.read_exact(&mut buf).unwrap();
        assert_eq!(buf[..], data[100..100 + 4096]);
        assert_eq!(r.src.db.io_stats(), io_before, "re-read served from buffer");
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
        let mut src = Lob::create(&mut db, ManagerSpec::eos(4)).unwrap();
        let data = pattern(123_456);
        src.append(&mut db, &data).unwrap();

        let mut dst = Lob::create(&mut db, ManagerSpec::eos(4)).unwrap();
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

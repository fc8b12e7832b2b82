//! `std::io` adapters over large objects: stream a BLOB like a file.
//!
//! One cursor reads every version. [`SpanCursor`] holds the position, the
//! object size and one [`Span`]: the rest of the run under the cursor. A
//! run is the segment holding the position and the segments that follow
//! it on disk in the same level-0 node, up to 256 KiB (`run_len`): one
//! seek for pages that lie together, as §4.3 costs a scan. Its [`Read`],
//! [`BufRead`] and [`Seek`] are written once, and so is a refill's search
//! (`locate_run`): below the version's root, parsed once at open, one
//! in-place pair search a level. The page run covering the rest of the
//! run is then one page-direct call, so a partial page never takes §3.2's
//! 3-step I/O.
//! Only a refill touches the database; a read inside the span, or at or
//! past the end, takes no lock. The two sources differ in where the root
//! comes from, in what brackets a refill and in where its bytes land:
//!
//! * [`Live`] ([`ObjectReader`]) reads the **live** version, borrowing
//!   the database exclusively, so nothing writes, flushes or evicts while
//!   it is open. It parses the root through the pool (one observed
//!   `op.<scheme>.size`), and each refill is one observed
//!   `op.<scheme>.read`, over any object. A refill charges its page run's
//!   call and copies nothing: `fill_buf` hands out the page store's own
//!   bytes (`borrow_seg_pages`). A run with a dirty resident page, or one
//!   reaching past the disk's arena, is copied as a pinned one is.
//! * [`Pinned`] reads a **pinned** version, its root resolved through the
//!   version overlay. Everything below it is immutable while the pin is
//!   held, so a refill needs only `&Db`, reached through a [`ReadAccess`]:
//!   a borrowed `&Db`, [`crate::SharedDb`]'s read tier
//!   ([`crate::SharedSnapshotReader`] owns its pin as well), or a
//!   caller's wrapper. Each refill asserts the pin is still held. It
//!   reaches the database only inside [`ReadAccess::with_db`], so it
//!   copies its run into the span's own buffer (`read_seg_pages`).
//!
//! [`ObjectWriter`] implements [`Write`] for streaming creation by
//! appends, buffering to a configurable chunk size so the append pattern
//! matches how clients would really feed a storage manager.

use std::io::{self, BufRead, Read, Seek, SeekFrom, Write};

use lobstore_simdisk::{cast, AreaId, PAGE_SIZE, PAGE_SIZE_U64};

use crate::db::Db;
use crate::error::Result;
use crate::node::{find_child, Entry, Node, RootHdr};
use crate::object::{LargeObject, StorageKind};
use crate::observe::{OpName, OpObserver};
use crate::segdata::{borrow_seg_pages, read_seg_pages};
use crate::version::Snapshot;

/// Upper bound on one refill, live or pinned. Large enough that
/// tree-scheme segments (≤ a few hundred KB) always refill in a single
/// span read; bounds the buffer for Starburst's up-to-32 MB segments.
const READ_AHEAD_MAX: usize = 4 << 20;

/// How far a refill joins the segments that follow on disk: it takes the
/// next one while its run holds less than this past its position. Runs
/// of 1 or 4 MiB save few more seeks, and their copies leave the cache.
const RUN_MAX: u64 = 256 << 10;

/// What one refill read: `len` object bytes from the position it started
/// at, held from byte `skip` on of the span's own buffer or, when `run`
/// names it (first page, page count), of a LEAF page run borrowed from
/// the page store.
#[derive(Clone, Copy, Default)]
pub(crate) struct Refill {
    skip: usize,
    len: usize,
    run: Option<(u32, u32)>,
}

/// The span's own buffer, for refills that copy. Nothing is allocated
/// until the first of them, which reserves `cap` bytes; every later one
/// reuses them.
pub(crate) struct SpanBuf {
    bytes: Vec<u8>,
    cap: usize,
}

impl SpanBuf {
    /// The buffer, its capacity reserved on first use.
    fn get(&mut self) -> &mut Vec<u8> {
        if self.bytes.capacity() == 0 {
            self.bytes.reserve_exact(self.cap);
        }
        &mut self.bytes
    }
}

/// What a cursor buffers: object bytes `[start, start + got.len)`, where
/// the last refill (`got`) left them. A copied run lands in `buf`
/// directly, the only copy those bytes make before `fill_buf` hands them
/// out; a borrowed one makes none.
struct Span {
    start: u64,
    got: Refill,
    buf: SpanBuf,
}

impl Span {
    /// Where the byte at `pos` sits in the held bytes, and how many follow
    /// it in the span; `None` when `pos` is outside it.
    fn at(&self, pos: u64) -> Option<(usize, usize)> {
        let d = cast::to_usize(pos.checked_sub(self.start)?);
        let rest = self.got.len.checked_sub(d).filter(|&n| n > 0)?;
        Some((self.got.skip.saturating_add(d), rest))
    }
}

/// Where a [`SpanCursor`] gets its bytes.
pub(crate) trait Source {
    /// Read from object byte `pos` (below the object size) to the end of
    /// the run holding it, at most 4 MiB: into `buf`, or by borrowing the
    /// run. The returned `len` is above 0.
    fn refill(&mut self, pos: u64, buf: &mut SpanBuf) -> Result<Refill>;

    /// The `pages` LEAF pages from `first` of a run that [`Self::refill`]
    /// returned borrowed; `None` for a source that never borrows.
    fn borrowed(&mut self, _first: u32, _pages: u32) -> Option<&[u8]> {
        None
    }
}

/// A sequential-scan cursor over one version of a large object.
///
/// Instead of descending the index for every `read()` call (ruinous for
/// small chunks — one full root-to-leaf walk per 4 KB), the cursor refills
/// its one span per run of segments through its source, so small sequential
/// reads cost exactly the simulated I/O of one whole pass. Seeks keep the
/// span: the version cannot change under the cursor, so a re-read inside
/// it (a backward seek included) is served from the same run, with no new
/// charge. Seeking follows [`std::io::Cursor`]: a target before byte 0 or
/// past `u64::MAX` is `InvalidInput`; past the end is allowed and reads 0
/// bytes.
pub struct SpanCursor<S> {
    src: S,
    pos: u64,
    size: u64,
    span: Span,
}

impl<S> SpanCursor<S> {
    fn over(src: S, size: u64) -> Self {
        // A copied refill reserves the full read-ahead capacity once, and
        // the page slack around it: later ones then never reallocate (a
        // reallocation would memcpy bytes that are about to be
        // overwritten by the next span read).
        let cap = cast::to_usize(size.min(READ_AHEAD_MAX as u64)).saturating_add(2 * PAGE_SIZE);
        SpanCursor {
            src,
            pos: 0,
            size,
            span: Span {
                start: 0,
                got: Refill::default(),
                buf: SpanBuf {
                    bytes: Vec::new(),
                    cap,
                },
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
    /// Zero-copy access to the span: the returned slice borrows the
    /// span's buffer or, for a borrowed run, the page store itself, so a
    /// sequential consumer of a live cursor copies no byte of a clean
    /// run, and of any other at most once (the refill's copy out of the
    /// page store). Empty only at or past the end of the object.
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos < self.size && self.span.at(self.pos).is_none() {
            self.span.got.len = 0;
            let got = self
                .src
                .refill(self.pos, &mut self.span.buf)
                .map_err(|e| io::Error::other(e.to_string()))?;
            debug_assert!(got.len > 0, "refill inside the object read nothing");
            self.span.start = self.pos;
            self.span.got = Refill {
                len: got
                    .len
                    .min(cast::to_usize(self.size.saturating_sub(self.pos))),
                ..got
            };
        }
        let Some((at, rest)) = self.span.at(self.pos) else {
            return Ok(&[]);
        };
        let held = match self.span.got.run {
            None => &self.span.buf.bytes[..],
            Some((first, pages)) => self
                .src
                .borrowed(first, pages)
                .ok_or_else(|| io::Error::other("a borrowed run left the page store"))?,
        };
        Ok(held.get(at..at.saturating_add(rest)).unwrap_or_default())
    }

    fn consume(&mut self, amt: usize) {
        // Contract (std::io::BufRead): `amt` never exceeds the slice
        // `fill_buf` returned, so this stays within the buffered span.
        debug_assert!(
            amt <= self.span.at(self.pos).map_or(0, |(_, rest)| rest),
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

/// The one refill search, for both sources: from object byte `pos`
/// (below the size) to the end of its run (`run_len`), at most 4 MiB.
/// The pair search starts in the parsed `root`, then takes one
/// [`Db::with_meta_node`] step a level; the run is read from the pairs
/// after the found one in its level-0 node. Returns the run's first
/// segment (`ptr`), the byte in it the run starts at, and its length.
fn locate_run(db: &Db, root: &Node, pos: u64) -> Result<(u32, u64, u64)> {
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
    Ok((e.ptr, within, want))
}

/// Copy `len` bytes of the run from byte `within` of the segment at
/// `ptr` into `buf`: one page run (`read_seg_pages`).
fn copy_run(db: &Db, (ptr, within, len): (u32, u64, u64), buf: &mut SpanBuf) -> Refill {
    let skip = read_seg_pages(db, ptr, within, len, buf.get(), 0);
    Refill {
        skip,
        len: cast::to_usize(len),
        run: None,
    }
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
    /// One observed `op.<scheme>.read` around `locate_run`, then the run
    /// borrowed (`borrow_seg_pages`), or copied when it cannot be.
    fn refill(&mut self, pos: u64, buf: &mut SpanBuf) -> Result<Refill> {
        let Live { db, obj, root } = self;
        let refill = |db: &mut Db| {
            let run = locate_run(db, root.as_ref().map_err(Clone::clone)?, pos)?;
            let (ptr, within, len) = run;
            Ok(match borrow_seg_pages(db, ptr, within, len) {
                Some((first, pages, skip)) => Refill {
                    skip,
                    len: cast::to_usize(len),
                    run: Some((first, pages)),
                },
                None => copy_run(db, run, buf),
            })
        };
        // A failed refill reports no size: its root may not parse.
        let bytes = |db: &Db, r: &Result<_>| r.is_ok().then(|| obj.utilization(db).object_bytes);
        OpObserver::around(obj.kind(), OpName::Read, db, refill, bytes)
    }

    fn borrowed(&mut self, first: u32, pages: u32) -> Option<&[u8]> {
        self.db.pool.borrowed_pages(AreaId::LEAF, first, pages)
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
    /// `locate_run` and the run's copy, inside one [`ReadAccess::with_db`].
    fn refill(&mut self, pos: u64, buf: &mut SpanBuf) -> Result<Refill> {
        let Pinned { db, version, root } = self;
        db.with_db(|db| {
            assert!(
                db.is_pinned(*version),
                "snapshot at version {version} was released while a reader was open"
            );
            Ok(copy_run(db, locate_run(db, root, pos)?, buf))
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

    /// LEAF bytes that read calls have copied on this thread.
    fn leaf_bytes_copied() -> u64 {
        lobstore_obs::counter_value("simdisk.leaf.bytes_copied")
    }

    /// A live pass from byte 0 to the end, by `fill_buf` and `consume`:
    /// the bytes, and the LEAF bytes its read calls copied.
    fn live_pass(db: &mut Db, obj: &dyn LargeObject) -> (Vec<u8>, u64) {
        let copied = leaf_bytes_copied();
        let mut got = Vec::new();
        let mut r = ObjectReader::new(db, obj);
        loop {
            let chunk = r.fill_buf().unwrap();
            if chunk.is_empty() {
                break;
            }
            let n = chunk.len().min(4096);
            got.extend_from_slice(&chunk[..n]);
            r.consume(n);
        }
        (got, leaf_bytes_copied() - copied)
    }

    /// A run holding a dirty resident page is copied, the frame's bytes
    /// overlaid: the disk's own bytes of that page are stale. An ESM/4
    /// leaf page is written through the pool and left unflushed; the
    /// pass reads it as `snapshot()` does, and borrows every other run.
    #[test]
    fn a_dirty_resident_page_sends_its_run_to_the_copy() {
        let mut db = Db::paper_default();
        let mut obj = ManagerSpec::esm(4).create(&mut db).unwrap();
        let size = 600_000;
        obj.append(&mut db, &pattern(size)).unwrap();
        db.pool.flush_all();
        let (clean, copied) = live_pass(&mut db, obj.as_ref());
        assert_eq!(clean, pattern(size));
        assert_eq!(copied, 0, "a clean pass borrows every run");

        let seg = obj.segments(&db)[20];
        let pid = lobstore_simdisk::PageId::new(AreaId::LEAF, seg.start_page + 1);
        db.pool.guard_mut(pid).fill(0xEE);
        let want = obj.snapshot(&db);
        assert_ne!(want, clean, "the frame is newer than the disk");
        let (got, copied) = live_pass(&mut db, obj.as_ref());
        assert!(got == want, "the pass must read the dirty frame's bytes");
        assert!(
            copied > 0 && copied < size as u64,
            "only the dirty page's run is copied: {copied} bytes"
        );
    }

    /// A run that reaches past the disk's arena is copied: an EOS/16
    /// object laid behind an 8 192-page hole lies in the sparse map, and
    /// re-writing pages with their own bytes, up to a few pages into the
    /// object, grows the arena over that prefix only. Each pass reads the
    /// `snapshot()` bytes and makes the LEAF reads a pinned pass makes.
    #[test]
    fn a_run_past_the_arena_is_copied() {
        let mut db = Db::paper_default();
        let _hole = db.alloc_leaf(8_192);
        let mut obj = ManagerSpec::eos(16).create(&mut db).unwrap();
        let size = 300_000;
        obj.append(&mut db, &pattern(size)).unwrap();
        db.pool.flush_all();
        let first = obj.segments(&db)[0].start_page;
        assert!(
            first > 8_192,
            "the object lies behind the hole: page {first}"
        );
        let leaf_reads = |db: &mut Db, pass: &dyn Fn(&mut Db) -> Vec<u8>| {
            db.pool.disk().enable_trace(64);
            let got = pass(db);
            let reads: Vec<(u32, u32)> = db
                .pool
                .disk()
                .take_trace()
                .iter()
                .filter(|e| e.area == AreaId::LEAF)
                .map(|e| (e.start, e.pages))
                .collect();
            (got, reads)
        };
        let pinned = |db: &mut Db| {
            let snap = db.snapshot();
            let mut got = Vec::new();
            SpanCursor::pinned(&*db, &snap, obj.root_page())
                .unwrap()
                .read_to_end(&mut got)
                .unwrap();
            db.release_snapshot(snap);
            got
        };
        for arena_end in [None, Some(first + 3)] {
            if let Some(end) = arena_end {
                let mut page = [0u8; lobstore_simdisk::PAGE_SIZE];
                for p in (0..end).step_by(4_096).skip(1).chain([end - 1]) {
                    db.pool.disk().peek(AreaId::LEAF, p, &mut page);
                    db.pool.disk().poke(AreaId::LEAF, p, &page);
                }
            }
            let copied = leaf_bytes_copied();
            let (live, live_reads) = leaf_reads(&mut db, &|db| live_pass(db, obj.as_ref()).0);
            let live_copied = leaf_bytes_copied() - copied;
            let (got, pinned_reads) = leaf_reads(&mut db, &pinned);
            assert!(live == pattern(size) && got == live, "{arena_end:?}");
            assert_eq!(live_reads, pinned_reads, "{arena_end:?}");
            assert!(
                live_copied >= size as u64,
                "{arena_end:?}: every run reaches past the arena, {live_copied} bytes copied"
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

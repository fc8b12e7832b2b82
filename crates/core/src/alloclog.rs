//! Compact allocation log: crash recovery to the last committed version
//! (DESIGN.md §16.3).
//!
//! With [`crate::DbConfig::alloc_log`] enabled, the database appends a
//! byte-stream journal to a chain of META pages:
//!
//! * `Alloc`/`Free` records at the moment an extent is (logically)
//!   allocated or freed — replay reconstructs both buddy allocators from
//!   scratch, so crash recovery never has to trust possibly-stale space
//!   directories on disk;
//! * `RootImage` records at each commit for every committed META page
//!   that was overwritten in place since the previous commit (object
//!   roots, catalog pages) — the shadowing discipline makes these the
//!   *only* pages whose on-disk bytes can disagree with the committed
//!   state, and replay rewrites them from the images;
//! * `UndoImage` records, written and flushed *before* the first in-place
//!   overwrite of a committed page in each commit interval — if the
//!   overwritten page reaches disk ahead of the commit marker (a catalog
//!   self-flush, a pool write-back), recovery still has its committed
//!   pre-image;
//! * a `Commit` marker closing each version. The marker is the single
//!   commit point: replay applies everything up to the last valid marker
//!   and, from the tail past it, only `UndoImage` records.
//!
//! ## Page format
//!
//! Each chain page is a META page:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "ALOG"
//! 4       4     generation (bumped by compaction; stale chains fail it)
//! 8       4     sequence number within the chain (head = 0)
//! 12      4     next chain page (0 = none)
//! 16      2     bytes of record data used in this page
//! 24      —     record bytes (records span page boundaries freely)
//! ```
//!
//! The headers make the chain self-describing, so a chain page carries
//! no record of its own: replay adopts every page of the chain it walks.
//!
//! Records, little-endian:
//!
//! ```text
//! 1  Alloc      area u8, start u32, pages u32
//! 2  Free       area u8, start u32, pages u32
//! 3  RootImage  page u32, len u16, content[len]   (trailing zeros trimmed)
//! 4  Commit     version u64
//! 5  UndoImage  page u32, len u16, content[len]
//! ```
//!
//! The log is bounded: [`crate::Db::checkpoint`] compacts it to a single
//! snapshot (one `Alloc` per live extent, one `Free` per deferred free,
//! one `Commit`) under a new generation. A crash in the middle of
//! compaction leaves no valid commit marker under the new generation, and
//! recovery falls back to re-opening the allocators from the
//! freshly-checkpointed space directories.

use std::collections::{BTreeMap, HashSet};

use lobstore_buddy::{BuddyConfig, BuddyManager, Extent};
use lobstore_simdisk::{cast, AreaId, PageId, PAGE_SIZE};

use crate::db::Db;
use crate::error::{LobError, Result};
use crate::metrics;

const LOG_MAGIC: &[u8; 4] = b"ALOG";
const GEN_OFF: usize = 4;
const SEQ_OFF: usize = 8;
const NEXT_OFF: usize = 12;
const USED_OFF: usize = 16;
const DATA_OFF: usize = 24;
/// Record bytes per chain page.
const PAGE_CAP: usize = PAGE_SIZE - DATA_OFF;

const TAG_ALLOC: u8 = 1;
const TAG_FREE: u8 = 2;
const TAG_ROOT_IMAGE: u8 = 3;
const TAG_COMMIT: u8 = 4;
const TAG_UNDO_IMAGE: u8 = 5;

/// In-memory state of the allocation log (the chain lives in META pages).
pub(crate) struct AllocLog {
    /// First chain page. Fixed for the life of the database.
    head: u32,
    /// Current generation; chain pages with another generation are stale.
    generation: u32,
    /// All chain pages in order (`chain[0] == head`).
    chain: Vec<u32>,
    /// Record bytes already written into the last chain page.
    tail_used: usize,
    /// Record bytes appended but not yet written into chain pages.
    pending: Vec<u8>,
    /// Committed META pages that already have an [`UndoImage`] in the
    /// current commit interval (re-imaging them would be redundant).
    imaged: HashSet<u32>,
}

/// One parsed log record. A `Commit`'s version stays on disk, but
/// replay needs only the marker's position.
enum Record {
    Alloc(Extent),
    Free(Extent),
    RootImage { page: u32, content: Vec<u8> },
    Commit,
    UndoImage { page: u32, content: Vec<u8> },
}

fn put_u32(buf: &mut [u8], at: usize, v: u32) {
    if let Some(s) = buf.get_mut(at..at + 4) {
        s.copy_from_slice(&v.to_le_bytes());
    }
}

fn get_u32(buf: &[u8], at: usize) -> u32 {
    let mut b = [0u8; 4];
    if let Some(s) = buf.get(at..at + 4) {
        b.copy_from_slice(s);
    }
    u32::from_le_bytes(b)
}

fn put_u16(buf: &mut [u8], at: usize, v: u16) {
    if let Some(s) = buf.get_mut(at..at + 2) {
        s.copy_from_slice(&v.to_le_bytes());
    }
}

fn get_u16(buf: &[u8], at: usize) -> u16 {
    let mut b = [0u8; 2];
    if let Some(s) = buf.get(at..at + 2) {
        b.copy_from_slice(s);
    }
    u16::from_le_bytes(b)
}

fn push_extent_record(out: &mut Vec<u8>, tag: u8, ext: Extent) {
    out.push(tag);
    out.push(ext.area.0);
    out.extend_from_slice(&ext.start.to_le_bytes());
    out.extend_from_slice(&ext.pages.to_le_bytes());
}

/// Serialize an image record with trailing zeros trimmed (replay
/// zero-fills the page before applying the content).
fn push_image_record(out: &mut Vec<u8>, tag: u8, page: u32, content: &[u8]) {
    let len = content.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
    out.push(tag);
    out.extend_from_slice(&page.to_le_bytes());
    out.extend_from_slice(&cast::usize_to_u16(len).to_le_bytes());
    out.extend_from_slice(content.get(..len).unwrap_or(&[]));
}

/// Parse one record at `stream[at..]`. Returns the record and the offset
/// just past it, or `None` if the bytes are truncated (the stream's tail
/// after a partial flush) or the tag is unknown.
fn parse_record(stream: &[u8], at: usize) -> Option<(Record, usize)> {
    let tag = *stream.get(at)?;
    match tag {
        TAG_ALLOC | TAG_FREE => {
            let body = stream.get(at + 1..at + 10)?;
            let area = *body.first()?;
            let ext = Extent::new(AreaId(area), get_u32(body, 1), get_u32(body, 5));
            let rec = if tag == TAG_ALLOC {
                Record::Alloc(ext)
            } else {
                Record::Free(ext)
            };
            Some((rec, at + 10))
        }
        TAG_ROOT_IMAGE | TAG_UNDO_IMAGE => {
            let hdr = stream.get(at + 1..at + 7)?;
            let page = get_u32(hdr, 0);
            let len = usize::from(get_u16(hdr, 4));
            let content = stream.get(at + 7..at + 7 + len)?.to_vec();
            let rec = if tag == TAG_ROOT_IMAGE {
                Record::RootImage { page, content }
            } else {
                Record::UndoImage { page, content }
            };
            Some((rec, at + 7 + len))
        }
        TAG_COMMIT => {
            stream.get(at + 1..at + 9)?;
            Some((Record::Commit, at + 9))
        }
        _ => None,
    }
}

/// An area-keyed interval set used by [`Db::check_alloc_log`] to replay
/// the log arithmetically, without touching any pages.
#[derive(Default)]
struct IntervalSet {
    /// `(area, start) → end` with no overlapping or adjacent entries.
    runs: BTreeMap<(u8, u32), u32>,
}

impl IntervalSet {
    fn insert(&mut self, ext: Extent) {
        if ext.pages == 0 {
            return;
        }
        let (mut start, mut end) = (ext.start, ext.end());
        let area = ext.area.0;
        // Absorb every run that overlaps or abuts [start, end).
        let keys: Vec<(u8, u32)> = self
            .runs
            .range((area, 0)..=(area, end))
            .map(|(&k, _)| k)
            .collect();
        for k in keys {
            let e = match self.runs.get(&k) {
                Some(&e) => e,
                None => continue,
            };
            if e < start {
                continue;
            }
            start = start.min(k.1);
            end = end.max(e);
            self.runs.remove(&k);
        }
        self.runs.insert((area, start), end);
    }

    fn remove(&mut self, ext: Extent) {
        if ext.pages == 0 {
            return;
        }
        let (start, end) = (ext.start, ext.end());
        let area = ext.area.0;
        let keys: Vec<(u8, u32)> = self
            .runs
            .range((area, 0)..=(area, end))
            .map(|(&k, _)| k)
            .collect();
        for k in keys {
            let e = match self.runs.get(&k) {
                Some(&e) => e,
                None => continue,
            };
            if e <= start || k.1 >= end {
                continue;
            }
            self.runs.remove(&k);
            if k.1 < start {
                self.runs.insert(k, start);
            }
            if e > end {
                self.runs.insert((area, end), e);
            }
        }
    }

    fn from_extents(exts: impl IntoIterator<Item = Extent>) -> IntervalSet {
        let mut s = IntervalSet::default();
        for e in exts {
            s.insert(e);
        }
        s
    }

    fn to_extents(&self) -> Vec<Extent> {
        self.runs
            .iter()
            .map(|(&(area, start), &end)| Extent::new(AreaId(area), start, end - start))
            .collect()
    }
}

impl Db {
    /// Bootstrap the allocation log on a fresh or newly-loaded database:
    /// allocate and format the head page (replay adopts it with the rest
    /// of the chain).
    pub(crate) fn init_alloc_log(&mut self) {
        assert!(self.log.is_none(), "allocation log already initialized");
        assert!(
            self.cfg.shadowing,
            "the allocation log requires the shadowing discipline"
        );
        let head = self.meta_alloc.allocate(&mut self.pool, 1).start;
        let generation = 1;
        self.format_log_page(head, generation, 0);
        self.pool.flush_page(PageId::new(AreaId::META, head));
        self.log = Some(AllocLog {
            head,
            generation,
            chain: vec![head],
            tail_used: 0,
            pending: Vec::new(),
            imaged: HashSet::new(),
        });
    }

    /// Chain pages currently owned by the allocation log (fsck treats
    /// them as reachable). Empty when the log is disabled.
    pub fn alloc_log_pages(&self) -> Vec<u32> {
        self.log.as_ref().map_or_else(Vec::new, |l| l.chain.clone())
    }

    /// Record an allocation in the log (no-op when the log is disabled).
    pub(crate) fn log_record_alloc(&mut self, ext: Extent) {
        if let Some(log) = &mut self.log {
            push_extent_record(&mut log.pending, TAG_ALLOC, ext);
            metrics::ALLOCLOG_RECORDS.add(1);
        }
    }

    /// Record a logical free in the log (no-op when the log is disabled).
    /// Called at logical-free time, even when the physical free is
    /// deferred for a pinned snapshot — replay reconstructs the
    /// *committed* state, in which the extent is free.
    pub(crate) fn log_record_free(&mut self, ext: Extent) {
        if let Some(log) = &mut self.log {
            push_extent_record(&mut log.pending, TAG_FREE, ext);
            metrics::ALLOCLOG_RECORDS.add(1);
        }
    }

    /// First in-place overwrite of committed META `page` in this commit
    /// interval: write its committed pre-image to the log — durably,
    /// before the overwrite can reach disk — and remember the page for a
    /// `RootImage` at the next commit.
    pub(crate) fn log_note_overwrite(&mut self, page: u32) {
        let Some(mut log) = self.log.take() else {
            return;
        };
        if !self.dirty_roots.contains(&page) {
            self.dirty_roots.push(page);
        }
        if log.imaged.insert(page) {
            let img = self.peek_meta(page);
            push_image_record(&mut log.pending, TAG_UNDO_IMAGE, page, &img[..]);
            metrics::ALLOCLOG_UNDO_IMAGES.add(1);
            self.write_log_pending(&mut log, true);
        }
        self.log = Some(log);
    }

    /// Close version `version` in the log: append a `RootImage` for every
    /// committed page overwritten in place since the previous commit,
    /// append the commit marker, write the stream out, and flush the
    /// touched chain pages in order (the marker lands in the last page —
    /// a crash anywhere in between degrades to the previous commit).
    pub(crate) fn log_commit(&mut self, version: u64) {
        let Some(mut log) = self.log.take() else {
            self.dirty_roots.clear();
            return;
        };
        let roots = std::mem::take(&mut self.dirty_roots);
        for page in roots {
            let img = self.peek_meta(page);
            push_image_record(&mut log.pending, TAG_ROOT_IMAGE, page, &img[..]);
            metrics::ALLOCLOG_ROOT_IMAGES.add(1);
        }
        log.pending.push(TAG_COMMIT);
        log.pending.extend_from_slice(&version.to_le_bytes());
        self.write_log_pending(&mut log, true);
        log.imaged.clear();
        metrics::ALLOCLOG_COMMITS.add(1);
        metrics::ALLOCLOG_CHAIN_PAGES.set(log.chain.len() as f64);
        self.log = Some(log);
    }

    /// Drain `log.pending` into the chain, growing it as needed. A new
    /// chain page allocates directly from the META allocator and is
    /// logged by no record: replay adopts the chain it walks. With
    /// `flush`, every touched page is flushed in chain order.
    fn write_log_pending(&mut self, log: &mut AllocLog, flush: bool) {
        if log.pending.is_empty() {
            return;
        }
        let buf = std::mem::take(&mut log.pending);
        let mut i = 0usize;
        let mut touched = vec![*log.chain.last().unwrap_or(&log.head)];
        while i < buf.len() {
            if log.tail_used >= PAGE_CAP {
                // Grow the chain. Allocation bypasses the Db hooks — the
                // chain itself is the bookkeeping.
                let np = self.meta_alloc.allocate(&mut self.pool, 1).start;
                let tail = *log.chain.last().unwrap_or(&log.head);
                self.with_log_page_mut(tail, |p| put_u32(p, NEXT_OFF, np));
                let seq = cast::usize_to_u32(log.chain.len());
                self.format_log_page(np, log.generation, seq);
                log.chain.push(np);
                log.tail_used = 0;
                touched.push(np);
                metrics::ALLOCLOG_CHAIN_GROWTH.add(1);
                continue;
            }
            let n = (PAGE_CAP - log.tail_used).min(buf.len() - i);
            let tail = *log.chain.last().unwrap_or(&log.head);
            let at = DATA_OFF + log.tail_used;
            let used = log.tail_used + n;
            self.with_log_page_mut(tail, |p| {
                if let (Some(dst), Some(src)) = (p.get_mut(at..at + n), buf.get(i..i + n)) {
                    dst.copy_from_slice(src);
                }
                put_u16(p, USED_OFF, cast::usize_to_u16(used));
            });
            log.tail_used = used;
            i += n;
        }
        if flush {
            for p in touched {
                self.pool.flush_page(PageId::new(AreaId::META, p));
            }
        }
    }

    /// Write a fresh chain-page header (fresh funnel: the frame is not
    /// read from disk).
    fn format_log_page(&mut self, page: u32, generation: u32, seq: u32) {
        let mut g = self.pool.guard_new(PageId::new(AreaId::META, page));
        let p = &mut g[..];
        if let Some(m) = p.get_mut(0..4) {
            m.copy_from_slice(LOG_MAGIC);
        }
        put_u32(p, GEN_OFF, generation);
        put_u32(p, SEQ_OFF, seq);
        put_u32(p, NEXT_OFF, 0);
        put_u16(p, USED_OFF, 0);
    }

    /// Raw write funnel for log chain pages and replay-applied images:
    /// runs none of the versioning/transaction/log hooks (logging the
    /// log's own writes would recurse).
    pub(crate) fn with_log_page_mut<R>(&mut self, page: u32, f: impl FnOnce(&mut [u8]) -> R) -> R {
        let mut g = self.pool.guard_mut(PageId::new(AreaId::META, page));
        f(&mut g[..])
    }

    /// Read the on-disk chain under the log's current generation:
    /// concatenated record bytes plus the pages that produced them. The
    /// walk stops at the first page that fails validation (stale
    /// generation, bad magic, out-of-order sequence) — exactly the pages
    /// an interrupted flush left behind.
    fn read_log_stream(&self, log: &AllocLog) -> (Vec<u8>, Vec<u32>) {
        let mut stream = Vec::new();
        let mut pages = Vec::new();
        let mut next = log.head;
        let mut seq = 0u32;
        loop {
            let p = self.peek_meta(next);
            let valid = p.get(0..4).is_some_and(|m| m == LOG_MAGIC)
                && get_u32(&p[..], GEN_OFF) == log.generation
                && get_u32(&p[..], SEQ_OFF) == seq;
            if !valid {
                break;
            }
            let used_raw = usize::from(get_u16(&p[..], USED_OFF));
            let used = if used_raw > PAGE_CAP {
                PAGE_CAP
            } else {
                used_raw
            };
            stream.extend_from_slice(p.get(DATA_OFF..DATA_OFF + used).unwrap_or(&[]));
            pages.push(next);
            let nx = get_u32(&p[..], NEXT_OFF);
            // A page with spare capacity is the last page of the stream;
            // its next pointer (if any) is leftover from a truncated
            // write.
            if used < PAGE_CAP || nx == 0 {
                break;
            }
            next = nx;
            seq = seq.saturating_add(1);
        }
        (stream, pages)
    }

    /// Crash recovery with the allocation log: rebuild both allocators
    /// from scratch by replaying `Alloc`/`Free` records up to the last
    /// commit marker and adopting the committed chain's own pages,
    /// rewrite in-place-written pages from their last committed
    /// `RootImage`, and restore pages the crashed tail had
    /// overwritten from their `UndoImage`s. Falls back to re-opening the
    /// allocators from the space directories when the chain holds no
    /// commit marker under the current generation (bootstrap, or a crash
    /// mid-compaction — compaction checkpoints everything first, so the
    /// directories are authoritative there).
    pub(crate) fn replay_alloc_log(&mut self) {
        let Some(log) = self.log.take() else { return };
        let (stream, _) = self.read_log_stream(&log);

        // Locate the last commit marker.
        let mut at = 0usize;
        let mut committed_end = None;
        while let Some((rec, next)) = parse_record(&stream, at) {
            if matches!(rec, Record::Commit) {
                committed_end = Some(next);
            }
            at = next;
        }

        let Some(committed_end) = committed_end else {
            // No committed state under this generation: trust the space
            // directories (see the method docs) and restart the log from
            // the live state.
            self.meta_alloc = BuddyManager::open(
                BuddyConfig::new(AreaId::META, self.cfg.meta_space_pages),
                &mut self.pool,
            );
            self.leaf_alloc = BuddyManager::open(
                BuddyConfig::new(AreaId::LEAF, self.cfg.leaf_space_pages),
                &mut self.pool,
            );
            metrics::ALLOCLOG_REPLAY_FALLBACKS.add(1);
            self.restart_log_from_live_state(log.head, log.generation.saturating_add(1), 0);
            return;
        };

        // Replay the committed prefix into fresh allocators.
        self.meta_alloc =
            BuddyManager::new(BuddyConfig::new(AreaId::META, self.cfg.meta_space_pages));
        self.leaf_alloc =
            BuddyManager::new(BuddyConfig::new(AreaId::LEAF, self.cfg.leaf_space_pages));
        let mut redo: BTreeMap<u32, Vec<u8>> = BTreeMap::new();
        let mut at = 0usize;
        while at < committed_end {
            let Some((rec, next)) = parse_record(&stream, at) else {
                break;
            };
            match rec {
                Record::Alloc(ext) => {
                    let alloc = if ext.area == AreaId::META {
                        &mut self.meta_alloc
                    } else {
                        &mut self.leaf_alloc
                    };
                    alloc.adopt(&mut self.pool, ext);
                }
                Record::Free(ext) => {
                    let alloc = if ext.area == AreaId::META {
                        &mut self.meta_alloc
                    } else {
                        &mut self.leaf_alloc
                    };
                    alloc.free(&mut self.pool, ext);
                }
                Record::RootImage { page, content } => {
                    redo.insert(page, content);
                }
                Record::Commit | Record::UndoImage { .. } => {}
            }
            at = next;
        }
        // Records past the last marker belong to the crashed tail: only
        // their undo images apply (first per page — the content as of the
        // last commit).
        let mut undone: HashSet<u32> = HashSet::new();
        while let Some((rec, next)) = parse_record(&stream, at) {
            if let Record::UndoImage { page, content } = rec {
                if undone.insert(page) {
                    redo.insert(page, content);
                }
            }
            at = next;
        }
        for (page, content) in redo {
            self.with_log_page_mut(page, |p| {
                p.fill(0);
                if let Some(dst) = p.get_mut(..content.len()) {
                    dst.copy_from_slice(&content);
                }
            });
            self.pool.flush_page(PageId::new(AreaId::META, page));
        }

        // Truncate the in-memory chain to the committed prefix, adopt its
        // pages (no record names them), and seal the tail page so a
        // second crash replays identically.
        let page_idx = committed_end / PAGE_CAP;
        let within = committed_end % PAGE_CAP;
        let (keep, tail_used) = if within == 0 {
            (page_idx, PAGE_CAP)
        } else {
            // `page_idx < chain.len()` (committed_end is inside the
            // stream the chain produced), so no overflow.
            // loblint: allow(arith-overflow)
            (page_idx + 1, within)
        };
        let mut chain = log.chain.clone();
        chain.truncate(keep.max(1));
        for &p in &chain {
            self.meta_alloc
                .adopt(&mut self.pool, Extent::new(AreaId::META, p, 1));
        }
        if let Some(&tail) = chain.last() {
            self.with_log_page_mut(tail, |p| {
                put_u16(p, USED_OFF, cast::usize_to_u16(tail_used));
                put_u32(p, NEXT_OFF, 0);
            });
            self.pool.flush_page(PageId::new(AreaId::META, tail));
        }
        self.log = Some(AllocLog {
            head: log.head,
            generation: log.generation,
            chain,
            tail_used,
            pending: Vec::new(),
            imaged: HashSet::new(),
        });
        metrics::ALLOCLOG_REPLAYS.add(1);
        // Make the recovered state durable (directories and rewritten
        // pages are only pool-dirty until now).
        self.pool.flush_all();
    }

    /// Rebuild the log as a snapshot of the *live* allocator state under
    /// generation `generation`: one `Alloc` per allocated extent (the
    /// head included), one `Free` per deferred free (the committed state
    /// has them free), and a commit marker at `version`.
    fn restart_log_from_live_state(&mut self, head: u32, generation: u32, version: u64) {
        // The head page may not be allocated in the live state (crash
        // before the first commit): claim it back.
        self.meta_alloc
            .adopt(&mut self.pool, Extent::new(AreaId::META, head, 1));
        let mut pending = Vec::new();
        for ext in self.meta_allocated_ranges() {
            push_extent_record(&mut pending, TAG_ALLOC, ext);
        }
        for ext in self.leaf_allocated_ranges() {
            push_extent_record(&mut pending, TAG_ALLOC, ext);
        }
        for ext in self.deferred_extents() {
            push_extent_record(&mut pending, TAG_FREE, ext);
        }
        self.format_log_page(head, generation, 0);
        self.log = Some(AllocLog {
            head,
            generation,
            chain: vec![head],
            tail_used: 0,
            pending,
            imaged: HashSet::new(),
        });
        self.dirty_roots.clear();
        self.log_commit(version);
    }

    /// Compact the allocation log (called by [`Db::checkpoint`] after
    /// `flush_all`): free the old chain beyond the head, bump the
    /// generation, and rewrite the log as a snapshot of the live state.
    /// Bounds the chain regardless of how many operations have run.
    pub(crate) fn compact_alloc_log(&mut self) {
        let Some(log) = self.log.take() else { return };
        for &p in log.chain.iter().skip(1) {
            self.meta_alloc
                .free(&mut self.pool, Extent::new(AreaId::META, p, 1));
        }
        metrics::ALLOCLOG_COMPACTIONS.add(1);
        self.restart_log_from_live_state(
            log.head,
            log.generation.saturating_add(1),
            self.current_version(),
        );
    }

    /// Retire the log entirely: free every chain page (head included).
    /// Used by [`Db::save_image`] so images never carry log pages; the
    /// caller re-initializes afterwards.
    pub(crate) fn retire_alloc_log(&mut self) {
        let Some(log) = self.log.take() else { return };
        for &p in &log.chain {
            self.meta_alloc
                .free(&mut self.pool, Extent::new(AreaId::META, p, 1));
        }
    }

    /// The allocation log against `live`, both allocators' maps, checked
    /// by [`Db::verify`]: replaying every record (committed and pending),
    /// plus the chain's own pages, must yield exactly the live allocated
    /// set minus the extents whose free is deferred for pinned snapshots.
    /// Pure arithmetic over peeked pages. `Ok` when the log is disabled.
    pub(crate) fn check_alloc_log(&self, live: impl IntoIterator<Item = Extent>) -> Result<()> {
        let Some(log) = &self.log else {
            return Ok(());
        };
        let (stream, _) = self.read_log_stream(log);
        let mut replayed = IntervalSet::default();
        let apply = |bytes: &[u8], set: &mut IntervalSet| -> usize {
            let mut at = 0usize;
            while let Some((rec, next)) = parse_record(bytes, at) {
                match rec {
                    Record::Alloc(ext) => set.insert(ext),
                    Record::Free(ext) => set.remove(ext),
                    _ => {}
                }
                at = next;
            }
            at
        };
        // The stream must parse exactly to its end: partial records only
        // ever exist after a crash, and replay truncates them.
        if apply(&stream, &mut replayed) != stream.len() {
            return Err(LobError::Corrupt(
                "allocation log: record stream ends mid-record".into(),
            ));
        }
        apply(&log.pending, &mut replayed);
        for &p in &log.chain {
            replayed.insert(Extent::new(AreaId::META, p, 1));
        }

        let mut live = IntervalSet::from_extents(live);
        for ext in self.deferred_extents() {
            live.remove(ext);
        }
        let (a, b) = (replayed.to_extents(), live.to_extents());
        if a != b {
            return Err(LobError::InvariantViolated(format!(
                "allocation log diverges from live allocators: replayed {} extents, live (minus \
                 deferred) {} extents",
                a.len(),
                b.len()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_roundtrip_through_the_parser() {
        let mut buf = Vec::new();
        push_extent_record(&mut buf, TAG_ALLOC, Extent::new(AreaId::META, 7, 1));
        push_extent_record(&mut buf, TAG_FREE, Extent::new(AreaId::LEAF, 128, 64));
        push_image_record(&mut buf, TAG_ROOT_IMAGE, 3, &[1, 2, 3, 0, 0]);
        push_image_record(&mut buf, TAG_UNDO_IMAGE, 4, &[0, 0, 9]);
        buf.push(TAG_COMMIT);
        buf.extend_from_slice(&42u64.to_le_bytes());

        let mut at = 0;
        let mut seen = Vec::new();
        while let Some((rec, next)) = parse_record(&buf, at) {
            seen.push(match rec {
                Record::Alloc(e) => format!("A{e}"),
                Record::Free(e) => format!("F{e}"),
                Record::RootImage { page, content } => format!("R{page}:{}", content.len()),
                Record::UndoImage { page, content } => format!("U{page}:{}", content.len()),
                Record::Commit => "C".to_string(),
            });
            at = next;
        }
        assert_eq!(at, buf.len(), "stream parses to the end");
        assert_eq!(seen.len(), 5);
        assert!(
            seen[2].starts_with("R3:3"),
            "trailing zeros trimmed: {}",
            seen[2]
        );
        assert!(
            seen[3].starts_with("U4:3"),
            "leading zeros kept: {}",
            seen[3]
        );
        assert_eq!(seen[4], "C");
    }

    #[test]
    fn truncated_records_parse_as_none() {
        let mut buf = Vec::new();
        push_extent_record(&mut buf, TAG_ALLOC, Extent::new(AreaId::META, 7, 1));
        for cut in 1..buf.len() {
            assert!(
                parse_record(&buf[..cut], 0).is_none(),
                "cut at {cut} must not parse"
            );
        }
        assert!(parse_record(&buf, 0).is_some());
    }

    /// A chain grown by commits whose `RootImage`s run a few hundred
    /// bytes grows inside a record. The chain pages carry no record of
    /// their own, so the stream still parses to its end, the log agrees
    /// with the allocators, and replay owns every chain page once.
    #[test]
    fn chain_growth_inside_a_record_keeps_the_stream_whole() {
        let mut db = Db::new(crate::DbConfig {
            alloc_log: true,
            ..crate::DbConfig::default()
        });
        let page = db.alloc_meta_page();
        db.with_new_meta_page(page, |p| p[..300].fill(1));
        db.commit_version();
        let mut round = 1u8;
        while db.alloc_log_pages().len() < 3 {
            round += 1;
            db.with_meta_page_mut(page, |p| p[..300].fill(round));
            db.commit_version();
        }

        let log = db.log.as_ref().unwrap();
        let (stream, pages) = db.read_log_stream(log);
        assert_eq!(pages, log.chain, "the walk reads the whole chain");
        let mut at = 0;
        while let Some((_, next)) = parse_record(&stream, at) {
            at = next;
        }
        assert_eq!(at, stream.len(), "the stream parses exactly to its end");
        assert_eq!(db.verify(&[], &[page]), Vec::<crate::Finding>::new());

        db.crash_and_reboot();
        assert_eq!(db.verify(&[], &[page]), Vec::<crate::Finding>::new());
        assert_eq!(
            db.peek_meta(page)[..300],
            [round; 300],
            "last commit replayed"
        );
        let chain = db.alloc_log_pages();
        assert!(chain.len() >= 3);
        let ranges = db.meta_allocated_ranges();
        for &p in &chain {
            let owners = ranges
                .iter()
                .filter(|e| e.start <= p && p < e.end())
                .count();
            assert_eq!(owners, 1, "chain page {p} is allocated after replay");
        }
        for _ in 0..chain.len() {
            let p = db.alloc_meta_page();
            assert!(!chain.contains(&p), "chain page {p} handed out again");
        }
    }

    #[test]
    fn interval_set_merges_and_splits() {
        let mut s = IntervalSet::default();
        s.insert(Extent::new(AreaId::LEAF, 0, 4));
        s.insert(Extent::new(AreaId::LEAF, 4, 4));
        s.insert(Extent::new(AreaId::META, 0, 2));
        assert_eq!(
            s.to_extents(),
            vec![
                Extent::new(AreaId::META, 0, 2),
                Extent::new(AreaId::LEAF, 0, 8)
            ]
        );
        s.remove(Extent::new(AreaId::LEAF, 2, 3));
        assert_eq!(
            s.to_extents(),
            vec![
                Extent::new(AreaId::META, 0, 2),
                Extent::new(AreaId::LEAF, 0, 2),
                Extent::new(AreaId::LEAF, 5, 3)
            ]
        );
    }
}

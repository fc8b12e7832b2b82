//! Allocation log: crash recovery to the last committed version
//! (DESIGN.md §16.3).
//!
//! With [`crate::DbConfig::alloc_log`] enabled, the database appends a
//! byte-stream journal to a chain of META pages:
//!
//! * `Root`/`Unroot` records at each commit for every root registered or
//!   dropped since the previous commit ([`crate::Db::alloc_root`]: object
//!   roots with their kind, catalog and record-store pages as plain
//!   pages) — the log's root set is the database's durable root set;
//! * `RootImage` records at each commit for every committed META page
//!   the commit interval overwrote in place (object roots, catalog
//!   pages), in the order the write funnel captured them (`version.rs`)
//!   — the shadowing discipline makes these the *only* pages whose
//!   on-disk bytes can disagree with the committed state, and replay
//!   rewrites them from the images;
//! * `UndoImage` records: the funnel's one pre-image of each such page,
//!   written and flushed when it is captured, *before* the overwrite —
//!   if the overwritten page reaches disk ahead of the commit marker (a
//!   catalog self-flush, a pool write-back), recovery still has its
//!   committed pre-image;
//! * a `Commit` marker closing each version. The marker is the single
//!   commit point: replay applies everything up to the last valid marker
//!   and, from the tail past it, only `UndoImage` records.
//!
//! The log records no allocation. §3.3's shadowing makes the committed
//! allocated pages exactly the pages the committed roots reach, so replay
//! rebuilds both buddy allocators from reachability: fresh managers adopt
//! the chain and every page the committed roots claim
//! ([`crate::object::claims`], the walk [`crate::Db::verify`] holds the
//! live allocators against). Pins die with the crash, so the frees
//! deferred for them are unreachable pages and come back free.
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
//! 1  Root       page u32, kind u8   (0 = plain page, else the StorageKind tag)
//! 2  Unroot     page u32
//! 3  RootImage  page u32, len u16, content[len]   (trailing zeros trimmed)
//! 4  Commit     version u64
//! 5  UndoImage  page u32, len u16, content[len]
//! ```
//!
//! The log is bounded: [`crate::Db::checkpoint`] compacts it to one
//! `Root` per live root and one `Commit` under a new generation. A chain
//! that holds no commit marker under its generation recovers the empty
//! state.

use std::collections::{BTreeMap, HashSet};

use lobstore_buddy::{BuddyConfig, BuddyManager, Extent};
use lobstore_simdisk::{cast, AreaId, PageId, PAGE_SIZE};

use crate::db::Db;
use crate::metrics;
use crate::object::{claims, StorageKind};
use crate::spec::open_raw;

const LOG_MAGIC: &[u8; 4] = b"ALOG";
const GEN_OFF: usize = 4;
const SEQ_OFF: usize = 8;
const NEXT_OFF: usize = 12;
const USED_OFF: usize = 16;
const DATA_OFF: usize = 24;
/// Record bytes per chain page.
const PAGE_CAP: usize = PAGE_SIZE - DATA_OFF;

const TAG_ROOT: u8 = 1;
const TAG_UNROOT: u8 = 2;
const TAG_ROOT_IMAGE: u8 = 3;
const TAG_COMMIT: u8 = 4;
const TAG_UNDO_IMAGE: u8 = 5;

/// A root set: META page → the kind of the object rooted there, `None`
/// for a plain page.
pub(crate) type Roots = BTreeMap<u32, Option<StorageKind>>;

/// In-memory state of the allocation log (the chain lives in META pages).
pub(crate) struct AllocLog {
    /// First chain page.
    head: u32,
    /// Current generation; chain pages with another generation are stale.
    generation: u32,
    /// All chain pages in order (`chain[0] == head`).
    chain: Vec<u32>,
    /// Record bytes already written into the last chain page.
    tail_used: usize,
    /// The registered roots.
    roots: Roots,
    /// The root set as of the last commit: the next commit logs the
    /// difference.
    committed: Roots,
}

/// One parsed log record. A `Commit`'s version stays on disk, but
/// replay needs only the marker's position.
enum Record {
    Root {
        page: u32,
        kind: Option<StorageKind>,
    },
    Unroot(u32),
    RootImage {
        page: u32,
        content: Vec<u8>,
    },
    Commit,
    UndoImage {
        page: u32,
        content: Vec<u8>,
    },
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
/// after a partial flush) or the tag or a root's kind is unknown.
fn parse_record(stream: &[u8], at: usize) -> Option<(Record, usize)> {
    let tag = *stream.get(at)?;
    match tag {
        TAG_ROOT => {
            let body = stream.get(at + 1..at + 6)?;
            let kind = match *body.get(4)? {
                0 => None,
                k => Some(StorageKind::from_u8(k)?),
            };
            let page = get_u32(body, 0);
            Some((Record::Root { page, kind }, at + 6))
        }
        TAG_UNROOT => {
            let body = stream.get(at + 1..at + 5)?;
            Some((Record::Unroot(get_u32(body, 0)), at + 5))
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

impl Db {
    /// Bootstrap the allocation log: allocate its head page and start it
    /// from `roots` (the empty set on a fresh database) at the current
    /// version.
    pub(crate) fn init_alloc_log(&mut self, roots: Roots) {
        assert!(self.log.is_none(), "allocation log already initialized");
        assert!(
            self.cfg.shadowing,
            "the allocation log requires the shadowing discipline"
        );
        let head = self.meta_alloc.allocate(&mut self.pool, 1).start;
        self.restart_log(head, 1, roots, self.current_version());
    }

    /// Chain pages currently owned by the allocation log (fsck treats
    /// them as reachable). Empty when the log is disabled.
    pub fn alloc_log_pages(&self) -> Vec<u32> {
        self.log.as_ref().map_or_else(Vec::new, |l| l.chain.clone())
    }

    /// Register `page` as a root of `kind` (no-op when the log is
    /// disabled); the next commit logs it.
    pub(crate) fn log_root(&mut self, page: u32, kind: Option<StorageKind>) {
        if let Some(log) = &mut self.log {
            log.roots.insert(page, kind);
        }
    }

    /// Drop `page` from the root set, if it is there (no-op when the log
    /// is disabled); the next commit logs it.
    pub(crate) fn log_unroot(&mut self, page: u32) {
        if let Some(log) = &mut self.log {
            log.roots.remove(&page);
        }
    }

    /// Write the pre-image the write funnel captured for `page` as an
    /// `UndoImage` — durably, before the overwrite can reach disk.
    pub(crate) fn log_undo_image(&mut self, page: u32, img: &[u8]) {
        let Some(mut log) = self.log.take() else {
            return;
        };
        let mut rec = Vec::new();
        push_image_record(&mut rec, TAG_UNDO_IMAGE, page, img);
        metrics::ALLOCLOG_UNDO_IMAGES.add(1);
        self.write_log(&mut log, &rec);
        self.log = Some(log);
    }

    /// Close version `version` in the log: append a `Root`/`Unroot` for
    /// every root registered or dropped since the previous commit and a
    /// `RootImage` of every page the interval captured, in capture
    /// order, append the commit marker, write the records out, and flush
    /// the touched chain pages in order (the marker lands in the last
    /// page — a crash anywhere in between degrades to the previous
    /// commit).
    pub(crate) fn log_commit(&mut self, version: u64) {
        let Some(mut log) = self.log.take() else {
            return;
        };
        let mut recs = Vec::new();
        for (&page, &kind) in &log.roots {
            if log.committed.get(&page) != Some(&kind) {
                recs.push(TAG_ROOT);
                recs.extend_from_slice(&page.to_le_bytes());
                recs.push(kind.map_or(0, StorageKind::as_u8));
                metrics::ALLOCLOG_RECORDS.add(1);
            }
        }
        for &page in log.committed.keys() {
            if !log.roots.contains_key(&page) {
                recs.push(TAG_UNROOT);
                recs.extend_from_slice(&page.to_le_bytes());
                metrics::ALLOCLOG_RECORDS.add(1);
            }
        }
        if !recs.is_empty() {
            log.committed.clone_from(&log.roots);
        }
        for &(page, _) in &self.interval.images {
            let img = self.peek_meta(page);
            push_image_record(&mut recs, TAG_ROOT_IMAGE, page, &img[..]);
            metrics::ALLOCLOG_ROOT_IMAGES.add(1);
        }
        recs.push(TAG_COMMIT);
        recs.extend_from_slice(&version.to_le_bytes());
        self.write_log(&mut log, &recs);
        metrics::ALLOCLOG_COMMITS.add(1);
        metrics::ALLOCLOG_CHAIN_PAGES.set(log.chain.len() as f64);
        self.log = Some(log);
    }

    /// Write `recs` into the chain, growing it as needed, then flush
    /// every touched page in chain order. A new chain page allocates
    /// directly from the META allocator and is logged by no record:
    /// replay adopts the chain it walks.
    fn write_log(&mut self, log: &mut AllocLog, recs: &[u8]) {
        let mut i = 0usize;
        let mut touched = vec![*log.chain.last().unwrap_or(&log.head)];
        while i < recs.len() {
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
            let n = (PAGE_CAP - log.tail_used).min(recs.len() - i);
            let tail = *log.chain.last().unwrap_or(&log.head);
            let at = DATA_OFF + log.tail_used;
            let used = log.tail_used + n;
            self.with_log_page_mut(tail, |p| {
                if let (Some(dst), Some(src)) = (p.get_mut(at..at + n), recs.get(i..i + n)) {
                    dst.copy_from_slice(src);
                }
                put_u16(p, USED_OFF, cast::usize_to_u16(used));
            });
            log.tail_used = used;
            i += n;
        }
        for p in touched {
            self.pool.flush_page(PageId::new(AreaId::META, p));
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

    /// Read the chain from `head` under `generation`: concatenated
    /// record bytes plus the pages that produced them. The walk stops at
    /// the first page that fails validation (stale generation, bad magic,
    /// out-of-order sequence) — exactly the pages an interrupted flush
    /// left behind.
    fn read_log_stream(&self, head: u32, generation: u32) -> (Vec<u8>, Vec<u32>) {
        let mut stream = Vec::new();
        let mut pages = Vec::new();
        let mut next = head;
        let mut seq = 0u32;
        loop {
            let p = self.peek_meta(next);
            let valid = p.get(0..4).is_some_and(|m| m == LOG_MAGIC)
                && get_u32(&p[..], GEN_OFF) == generation
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

    /// Crash recovery with the allocation log: rewrite in-place-written
    /// pages from their last committed `RootImage`, restore pages the
    /// crashed tail had overwritten from their `UndoImage`s, then rebuild
    /// both allocators from scratch: fresh managers adopt the committed
    /// chain and every page the roots committed by the last marker claim.
    /// Everything comes from the disk but the head's page number: the
    /// generation from the head page, the chain from the walk. A chain
    /// with no commit marker under its generation (its head unreadable)
    /// recovers the empty state.
    pub(crate) fn replay_alloc_log(&mut self) {
        let Some(AllocLog { head, .. }) = self.log.take() else {
            return;
        };
        let generation = get_u32(&self.peek_meta(head)[..], GEN_OFF);
        let (stream, mut chain) = self.read_log_stream(head, generation);

        // Locate the last commit marker.
        let mut at = 0usize;
        let mut committed_end = None;
        while let Some((rec, next)) = parse_record(&stream, at) {
            if matches!(rec, Record::Commit) {
                committed_end = Some(next);
            }
            at = next;
        }

        self.meta_alloc =
            BuddyManager::new(BuddyConfig::new(AreaId::META, self.cfg.meta_space_pages));
        self.leaf_alloc =
            BuddyManager::new(BuddyConfig::new(AreaId::LEAF, self.cfg.leaf_space_pages));
        let Some(committed_end) = committed_end else {
            self.adopt(Extent::new(AreaId::META, head, 1));
            metrics::ALLOCLOG_REPLAY_FALLBACKS.add(1);
            self.restart_log(head, generation.saturating_add(1), Roots::new(), 0);
            return;
        };

        // The committed prefix: its images and its root set.
        let mut redo: BTreeMap<u32, Vec<u8>> = BTreeMap::new();
        let mut roots = Roots::new();
        let mut at = 0usize;
        while at < committed_end {
            let Some((rec, next)) = parse_record(&stream, at) else {
                break;
            };
            match rec {
                Record::Root { page, kind } => {
                    roots.insert(page, kind);
                }
                Record::Unroot(page) => {
                    roots.remove(&page);
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

        // Truncate the walked chain to the committed prefix, adopt its
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
        chain.truncate(keep.max(1));
        for &p in &chain {
            self.adopt(Extent::new(AreaId::META, p, 1));
        }
        if let Some(&tail) = chain.last() {
            self.with_log_page_mut(tail, |p| {
                put_u16(p, USED_OFF, cast::usize_to_u16(tail_used));
                put_u32(p, NEXT_OFF, 0);
            });
            self.pool.flush_page(PageId::new(AreaId::META, tail));
        }

        // Allocated = reachable: every committed root's claims. A root
        // whose object no longer opens claims its own page.
        for (&page, &kind) in &roots {
            let opened = kind.map(|kind| open_raw(self, kind, page));
            let owned = match opened {
                Some(Ok(obj)) => claims(obj.as_ref(), self),
                _ => vec![Extent::new(AreaId::META, page, 1)],
            };
            for ext in owned {
                self.adopt(ext);
            }
        }
        self.log = Some(AllocLog {
            head,
            generation,
            chain,
            tail_used,
            roots: roots.clone(),
            committed: roots,
        });
        metrics::ALLOCLOG_REPLAYS.add(1);
        // Make the recovered state durable (directories and rewritten
        // pages are only pool-dirty until now).
        self.pool.flush_all();
    }

    /// Start the log over at `head` under `generation`: one `Root` per
    /// entry of `roots` and a commit marker at `version`.
    fn restart_log(&mut self, head: u32, generation: u32, roots: Roots, version: u64) {
        self.format_log_page(head, generation, 0);
        self.log = Some(AllocLog {
            head,
            generation,
            chain: vec![head],
            tail_used: 0,
            roots,
            committed: Roots::new(),
        });
        self.log_commit(version);
    }

    /// Compact the allocation log (called by [`Db::checkpoint`] after
    /// `flush_all`): free the old chain beyond the head, bump the
    /// generation, and rewrite the log as the live root set. Bounds the
    /// chain regardless of how many operations have run.
    pub(crate) fn compact_alloc_log(&mut self) {
        let Some(log) = self.log.take() else { return };
        for &p in log.chain.iter().skip(1) {
            self.meta_alloc
                .free(&mut self.pool, Extent::new(AreaId::META, p, 1));
        }
        metrics::ALLOCLOG_COMPACTIONS.add(1);
        self.restart_log(
            log.head,
            log.generation.saturating_add(1),
            log.roots,
            self.current_version(),
        );
    }

    /// Retire the log entirely: free every chain page (head included)
    /// and hand back the root set. Used by [`Db::save_image`] so images
    /// never carry log pages; the caller re-initializes afterwards.
    pub(crate) fn retire_alloc_log(&mut self) -> Option<Roots> {
        let log = self.log.take()?;
        for &p in &log.chain {
            self.meta_alloc
                .free(&mut self.pool, Extent::new(AreaId::META, p, 1));
        }
        Some(log.roots)
    }

    /// The allocation log's part of [`Db::verify`]: the chain under the
    /// current generation reads back as the in-memory chain and parses
    /// exactly to its end, and the root set is `walked`, the roots the
    /// caller walked from. Pure reads of peeked pages. `Ok` when the log
    /// is disabled.
    pub(crate) fn check_log(&self, walked: &Roots) -> Result<(), String> {
        let Some(log) = &self.log else {
            return Ok(());
        };
        let (stream, pages) = self.read_log_stream(log.head, log.generation);
        if pages != log.chain {
            return Err(format!(
                "the chain reads back as pages {pages:?}, not {:?}",
                log.chain
            ));
        }
        let mut at = 0usize;
        while let Some((_, next)) = parse_record(&stream, at) {
            at = next;
        }
        // Partial records only ever exist after a crash, and replay
        // truncates them.
        if at != stream.len() {
            return Err(format!(
                "the record stream stops parsing at byte {at} of {}",
                stream.len()
            ));
        }
        if log.roots != *walked {
            return Err(format!(
                "the root set is {:?}, the walk started from {walked:?}",
                log.roots
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_roundtrip_through_the_parser() {
        let mut buf = vec![TAG_ROOT, 7, 0, 0, 0, StorageKind::Eos.as_u8()];
        buf.extend([TAG_ROOT, 8, 0, 0, 0, 0]);
        buf.extend([TAG_UNROOT, 9, 0, 0, 0]);
        push_image_record(&mut buf, TAG_ROOT_IMAGE, 3, &[1, 2, 3, 0, 0]);
        push_image_record(&mut buf, TAG_UNDO_IMAGE, 4, &[0, 0, 9]);
        buf.push(TAG_COMMIT);
        buf.extend_from_slice(&42u64.to_le_bytes());

        let mut at = 0;
        let mut seen = Vec::new();
        while let Some((rec, next)) = parse_record(&buf, at) {
            seen.push(match rec {
                Record::Root { page, kind } => format!("R{page}:{kind:?}"),
                Record::Unroot(page) => format!("X{page}"),
                Record::RootImage { page, content } => format!("I{page}:{}", content.len()),
                Record::UndoImage { page, content } => format!("U{page}:{}", content.len()),
                Record::Commit => "C".to_string(),
            });
            at = next;
        }
        assert_eq!(at, buf.len(), "stream parses to the end");
        assert_eq!(
            seen,
            ["R7:Some(Eos)", "R8:None", "X9", "I3:3", "U4:3", "C"],
            "trailing zeros trimmed, leading zeros kept"
        );
    }

    #[test]
    fn truncated_records_parse_as_none() {
        let root = [TAG_ROOT, 7, 0, 0, 0, StorageKind::Esm.as_u8()];
        let unroot = [TAG_UNROOT, 7, 0, 0, 0];
        for rec in [&root[..], &unroot[..]] {
            for cut in 1..rec.len() {
                assert!(
                    parse_record(&rec[..cut], 0).is_none(),
                    "{rec:?} cut at {cut} must not parse"
                );
            }
            assert!(parse_record(rec, 0).is_some());
        }
        let unknown_kind = [TAG_ROOT, 7, 0, 0, 0, 0xEE];
        assert!(parse_record(&unknown_kind, 0).is_none());
    }

    /// A chain grown by commits whose `RootImage`s run a few hundred
    /// bytes grows inside a record. The chain pages carry no record of
    /// their own, so the stream still parses to its end, the walk finds
    /// the log whole, and replay owns every chain page once and keeps
    /// the registered root.
    #[test]
    fn chain_growth_inside_a_record_keeps_the_stream_whole() {
        let mut db = Db::new(crate::DbConfig {
            alloc_log: true,
            ..crate::DbConfig::default()
        });
        let page = db.alloc_root(None);
        db.with_new_meta_page(page, |p| p[..300].fill(1));
        db.commit_version();
        let mut round = 1u8;
        while db.alloc_log_pages().len() < 3 {
            round += 1;
            db.with_meta_page_mut(page, |p| p[..300].fill(round));
            db.commit_version();
        }

        let log = db.log.as_ref().unwrap();
        let (stream, pages) = db.read_log_stream(log.head, log.generation);
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
        for &p in chain.iter().chain([&page]) {
            let owners = ranges
                .iter()
                .filter(|e| e.start <= p && p < e.end())
                .count();
            assert_eq!(owners, 1, "page {p} is allocated after replay");
        }
        for _ in 0..chain.len() {
            let p = db.alloc_meta_page();
            assert!(!chain.contains(&p), "chain page {p} handed out again");
            assert_ne!(p, page, "the root handed out again");
        }
    }

    /// A META page no root reaches is free after a crash: the log
    /// records roots, not allocations.
    #[test]
    fn an_unrooted_page_is_free_after_a_crash() {
        let mut db = Db::new(crate::DbConfig {
            alloc_log: true,
            ..crate::DbConfig::default()
        });
        let stray = db.alloc_meta_page();
        db.commit_version();
        db.crash_and_reboot();
        assert_eq!(db.verify(&[], &[]), Vec::<crate::Finding>::new());
        assert_eq!(db.alloc_meta_page(), stray, "the stray page is free again");
    }
}

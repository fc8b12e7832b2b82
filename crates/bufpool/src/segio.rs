//! Multi-page segment I/O: the hybrid buffering policy of §3.2.
//!
//! * Requests touching at most [`PoolConfig::max_buffered_seg`] pages are
//!   buffered: each maximal run of non-resident pages is fetched with one
//!   I/O call into pool frames, and the bytes are copied to the caller.
//! * Larger requests bypass the pool: interior pages go directly into the
//!   caller's buffer in one I/O call, and — when the requested byte range
//!   does not match page boundaries (Figure 4) — the partial first/last
//!   pages are staged through the pool, giving the paper's 3-step I/O.
//!
//! Everything here takes `&self`: the direct paths (`read_pages`,
//! `read_direct`'s interior step) only consult the pool for dirty
//! overlays, so version-pinned snapshot readers can stream segments
//! concurrently under the shared side of the database lock.

use lobstore_simdisk::{cast, AreaId, PageId, PAGE_SIZE, PAGE_SIZE_U64};

use crate::metrics;
use crate::pool::{BufferPool, FrameRef, MAX_BUFFERED_SEG};

impl BufferPool {
    /// Read `out.len()` bytes starting at byte `byte_off` of the segment
    /// that begins at `start_page` in `area`, applying the hybrid policy.
    pub fn read_segment(&self, area: AreaId, start_page: u32, byte_off: u64, out: &mut [u8]) {
        if out.is_empty() {
            return;
        }
        let len = out.len() as u64;
        let first = start_page + cast::to_u32(byte_off / PAGE_SIZE_U64);
        let last = start_page + cast::to_u32((byte_off + len - 1) / PAGE_SIZE_U64);
        let n_pages = last - first + 1;
        // Offset of the requested range within the first page.
        let head_skip = cast::to_usize(byte_off % PAGE_SIZE_U64);

        if n_pages <= self.cfg.max_buffered_seg
            && self.read_buffered(area, first, n_pages, head_skip, out)
        {
            return;
        }
        self.read_direct(area, first, last, head_skip, out);
    }

    /// Buffered path, one pass under one `ctl` acquisition: pin the
    /// resident pages, fetch each maximal missing run with one call,
    /// install its pages, copy the byte range out, release every pin.
    /// Returns `false`, having touched nothing, if fewer frames are
    /// unpinned than the request has pages.
    ///
    /// A missing run of *whole* pages that lands entirely inside `out` is
    /// scatter-read straight into the caller's buffer and the frames are
    /// filled from it. A single page of which `out` wants only a part is
    /// read into the frame it will live in ([`BufferPool::read_clipped`]).
    /// Only a longer run clipped by a partial first or last page is
    /// staged through a temporary buffer. The I/O calls issued (and
    /// therefore the simulated cost) are identical every way.
    fn read_buffered(
        &self,
        area: AreaId,
        first: u32,
        n_pages: u32,
        head_skip: usize,
        out: &mut [u8],
    ) -> bool {
        // The request's pages and, once known, the frames they are in.
        let mut slots = [(PageId::new(area, first), None); MAX_BUFFERED_SEG];
        let at = &mut slots[..cast::u32_to_usize(n_pages)];
        let mut g = self.lock_ctl();
        if g.available() < at.len() {
            return false;
        }
        // Pin what is already resident so eviction can't steal it.
        for ((pid, slot), page) in at.iter_mut().zip(first..) {
            *pid = PageId::new(area, page);
            *slot = g.resident(*pid);
            if let Some(idx) = *slot {
                Self::note_fix(true, g.repin_hit(idx));
            }
        }
        // A resident page, or a maximal run of missing ones, at a time:
        // `rest` is still to fill, the next page supplies its bytes from
        // `from` on.
        let (mut rest, mut from) = (out, head_skip);
        for run in at.chunk_by_mut(|a, b| a.1.is_none() && b.1.is_none()) {
            let run_bytes = run.len() * PAGE_SIZE;
            // `from < PAGE_SIZE <= run_bytes`.
            // loblint: allow(arith-overflow)
            let (dst, tail) = rest.split_at_mut((run_bytes - from).min(rest.len()));
            match run {
                [(_, Some(idx))] => {
                    self.with_page(FrameRef(*idx), |page| copy_part(page, from, dst))
                }
                [(pid, slot)] if dst.len() < PAGE_SIZE => {
                    *slot =
                        Some(self.read_clipped(&mut g, *pid, |page| copy_part(page, from, dst)));
                }
                [(start, _), ..] => {
                    let mut staged = Vec::new();
                    let src: &[u8] = if dst.len() == run_bytes {
                        #[allow(clippy::disallowed_methods)]
                        self.disk.read(area, start.page, dst);
                        dst
                    } else {
                        staged.resize(run_bytes, 0);
                        #[allow(clippy::disallowed_methods)]
                        self.disk.read(area, start.page, &mut staged);
                        copy_part(&staged, from, dst);
                        &staged
                    };
                    for ((pid, slot), bytes) in run.iter_mut().zip(src.chunks(PAGE_SIZE)) {
                        *slot = Some(self.install_page(&mut g, *pid, bytes));
                    }
                }
                [] => {}
            }
            (rest, from) = (tail, 0);
        }
        debug_assert!(rest.is_empty());
        for idx in at.iter().filter_map(|&(_, slot)| slot) {
            g.unpin(idx, false);
        }
        true
    }

    /// Direct path with 3-step I/O on boundary mismatch.
    fn read_direct(&self, area: AreaId, first: u32, last: u32, head_skip: usize, out: &mut [u8]) {
        let len = out.len();
        let tail_end = (head_skip + len) % PAGE_SIZE; // 0 == aligned
        let head_partial = head_skip != 0;
        let tail_partial =
            tail_end != 0 && last > first || (last == first && (head_partial || tail_end != 0));

        // Single-page direct request (only possible when the pool had no
        // room): stage through one frame.
        if last == first {
            let r = self.fix(PageId::new(area, first));
            self.with_page(r, |page| {
                out.copy_from_slice(&page[head_skip..head_skip + len]);
            });
            self.unfix(r);
            return;
        }

        let mut pos = 0usize;
        let mut mid_first = first;
        let mut mid_last = last;

        // Step 1: partial first page through the pool.
        if head_partial {
            let r = self.fix(PageId::new(area, first));
            let take = PAGE_SIZE - head_skip;
            self.with_page(r, |page| {
                out[..take].copy_from_slice(&page[head_skip..]);
            });
            self.unfix(r);
            pos = take;
            mid_first = first + 1;
        }
        // Step 3 bookkeeping: partial last page via the pool.
        let tail_take = if tail_partial { tail_end } else { 0 };
        if tail_partial {
            mid_last = last - 1;
        }
        // Step 2: interior pages straight into the caller's buffer.
        if mid_first <= mid_last {
            let mid_pages = cast::u32_to_usize(mid_last - mid_first + 1);
            let mid_len = mid_pages * PAGE_SIZE;
            #[allow(clippy::disallowed_methods)]
            self.disk
                .read(area, mid_first, &mut out[pos..pos + mid_len]);
            // Overlay any resident *dirty* pages: the pool copy is newer
            // than the disk copy we just read.
            self.overlay_dirty(area, mid_first, &mut out[pos..pos + mid_len]);
            pos += mid_len;
        }
        if tail_partial {
            let r = self.fix(PageId::new(area, last));
            self.with_page(r, |page| {
                out[pos..pos + tail_take].copy_from_slice(&page[..tail_take]);
            });
            self.unfix(r);
            pos += tail_take;
        }
        debug_assert_eq!(pos, len);
    }

    /// Overlay the resident **dirty** pages of a whole-page run onto the
    /// bytes just read from disk (the frame copy is newer). One `ctl`
    /// acquisition covers the whole run — dirty residents are rare on
    /// the scan path, and per-page locking would put every concurrent
    /// scanner through the control latch once per page.
    fn overlay_dirty(&self, area: AreaId, first: u32, out: &mut [u8]) {
        debug_assert!(out.len().is_multiple_of(PAGE_SIZE));
        let g = self.lock_ctl();
        let n_pages = cast::usize_to_u32(out.len() / PAGE_SIZE);
        for (page, idx) in g.dirty_in(area, first, n_pages) {
            // Holding `ctl` keeps the page in its frame; copy under the
            // frame latch. `dirty_in` only returns pages of the run.
            let at = cast::u32_to_usize(page.saturating_sub(first)) * PAGE_SIZE;
            if let Some(dst) = out.get_mut(at..at + PAGE_SIZE) {
                self.copy_frame_into(idx, dst);
            }
        }
    }

    /// Read `n_pages` whole pages directly into `out` with one I/O call —
    /// for internal staging buffers (e.g. Starburst's 512 KB copy buffer)
    /// where page-grained reads need no boundary staging, and for the
    /// `&self` snapshot-scan path, which must not fix frames.
    pub fn read_pages(&self, area: AreaId, start_page: u32, n_pages: u32, out: &mut [u8]) {
        assert!(n_pages > 0);
        assert!(out.len() >= cast::u32_to_usize(n_pages) * PAGE_SIZE);
        let out = &mut out[..cast::u32_to_usize(n_pages) * PAGE_SIZE];
        #[allow(clippy::disallowed_methods)]
        self.disk.read(area, start_page, out);
        self.overlay_dirty(area, start_page, out);
    }

    /// Write `data` to contiguous pages starting at `start_page` with one
    /// I/O call, bypassing the pool. Resident copies of fully-overwritten
    /// pages are dropped; a dirty resident copy of a *partially* covered
    /// trailing page is flushed first so its unwritten bytes survive the
    /// disk-side read-modify-write.
    pub fn write_direct(&self, area: AreaId, start_page: u32, data: &[u8]) {
        assert!(!data.is_empty(), "zero-length direct write");
        let n_pages = cast::usize_to_u32(data.len().div_ceil(PAGE_SIZE));
        let partial_tail = !data.len().is_multiple_of(PAGE_SIZE);
        if partial_tail {
            // `n_pages >= 1` (data is non-empty) and the write below
            // targets exactly this page range.
            // loblint: allow(arith-overflow)
            let tail_pid = PageId::new(area, start_page + n_pages - 1);
            // Only a *dirty* resident tail needs the pre-flush, and
            // `flush_page` checks exactly that.
            self.flush_page(tail_pid);
        }
        #[allow(clippy::disallowed_methods)]
        self.disk.write(area, start_page, data);
        self.discard_range(area, start_page, n_pages);
    }

    /// Flush the dirty resident pages of the page range `[start,
    /// start+n_pages)`, writing each maximal contiguous dirty run with a
    /// single sequential I/O call (§3.3: "the dirty pages of the segment
    /// are simply flushed to disk at the end of the operation").
    pub fn flush_range(&self, area: AreaId, start: u32, n_pages: u32) {
        let mut g = self.lock_ctl();
        let dirty = g.dirty_in(area, start, n_pages);
        // Consecutive page numbers form one run.
        for run in dirty.chunk_by(|a, b| a.0 + 1 == b.0) {
            let Some(&(run_start, _)) = run.first() else {
                continue;
            };
            // Stage the run's frame bytes into one contiguous buffer and
            // write it with a single sequential call — one call charged
            // for the whole run.
            let staged = self.gather_run(run);
            #[allow(clippy::disallowed_methods)]
            self.disk.write(area, run_start, &staged);
            for &(_, idx) in run {
                g.set_clean(idx);
            }
            metrics::DIRTY_WRITEBACKS.add(run.len() as u64);
        }
    }

    /// Copy the frames of a dirty run into one contiguous staging buffer,
    /// page by page under the frame latches. The caller holds `ctl`, so
    /// no frame changes pages mid-copy.
    fn gather_run(&self, run: &[(u32, usize)]) -> Vec<u8> {
        let mut buf = vec![0u8; run.len() * PAGE_SIZE];
        for (chunk, &(_, idx)) in buf.chunks_mut(PAGE_SIZE).zip(run) {
            self.copy_frame_into(idx, chunk);
        }
        buf
    }
}

/// Copy the `dst.len()` bytes of `page` that start at `from`.
fn copy_part(page: &[u8], from: usize, dst: &mut [u8]) {
    dst.copy_from_slice(&page[from..from + dst.len()]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolConfig;
    use lobstore_simdisk::{CostModel, SimDisk, TraceKind};
    use proptest::prelude::*;

    const A: AreaId = AreaId::LEAF;

    fn pool() -> BufferPool {
        BufferPool::new(SimDisk::new(2, CostModel::default()), PoolConfig::default())
    }

    /// Write a recognizable pattern of `n` pages at `start` directly to disk.
    fn seed(pool: &BufferPool, start: u32, n_pages: usize) -> Vec<u8> {
        let data: Vec<u8> = (0..n_pages * PAGE_SIZE)
            .map(|i| ((i * 31 + 7) % 253) as u8)
            .collect();
        pool.disk().poke(A, start, &data);
        data
    }

    #[test]
    fn small_read_is_buffered_in_one_call() {
        let p = pool();
        let data = seed(&p, 0, 3);
        let mut out = vec![0u8; 3 * PAGE_SIZE];
        p.read_segment(A, 0, 0, &mut out);
        assert_eq!(out, data);
        let s = p.io_stats();
        assert_eq!(s.read_calls, 1, "3-page segment read in one call");
        assert_eq!(s.pages_read, 3);
        // Pages now resident: a re-read is free.
        p.read_segment(A, 0, 0, &mut out);
        assert_eq!(p.io_stats().read_calls, 1);
    }

    #[test]
    fn small_unaligned_read_copies_correct_bytes() {
        let p = pool();
        let data = seed(&p, 4, 2);
        let mut out = vec![0u8; 1000];
        p.read_segment(A, 4, 3700, &mut out);
        assert_eq!(out[..], data[3700..4700]);
        assert_eq!(p.io_stats().read_calls, 1);
        assert_eq!(p.io_stats().pages_read, 2);
    }

    #[test]
    fn large_aligned_read_is_one_direct_call() {
        let p = pool();
        let data = seed(&p, 0, 8);
        let mut out = vec![0u8; 8 * PAGE_SIZE];
        p.disk().enable_trace(8);
        p.read_segment(A, 0, 0, &mut out);
        assert_eq!(out, data);
        let t = p.disk().take_trace();
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].pages, 8);
        // Nothing was buffered.
        assert!(!p.contains(PageId::new(A, 0)));
        assert!(!p.contains(PageId::new(A, 7)));
    }

    #[test]
    fn large_mismatched_read_is_three_step() {
        let p = pool();
        let data = seed(&p, 0, 8);
        // Bytes 100 .. 8*4096-100: both boundaries are mid-page.
        let len = 8 * PAGE_SIZE - 200;
        let mut out = vec![0u8; len];
        p.disk().enable_trace(8);
        p.read_segment(A, 0, 100, &mut out);
        assert_eq!(out[..], data[100..100 + len]);
        let t = p.disk().take_trace();
        // §3.2 / Figure 4: read L (1 page), read the 6 interior pages
        // directly, read R (1 page) = 3 calls, 8 pages.
        assert_eq!(t.len(), 3, "expected 3-step I/O, got {t:?}");
        assert_eq!(t.iter().map(|e| e.pages).collect::<Vec<_>>(), vec![1, 6, 1]);
        assert_eq!(t.iter().map(|e| u64::from(e.pages)).sum::<u64>(), 8);
        // Cost check from §4.4.2 analysis: 3 seeks + 8 pages.
        assert_eq!(p.io_stats().time_us, 3 * 33_000 + 8 * 4_000);
        // Boundary pages were staged through the pool.
        assert!(p.contains(PageId::new(A, 0)));
        assert!(p.contains(PageId::new(A, 7)));
        assert!(!p.contains(PageId::new(A, 3)));
    }

    #[test]
    fn large_read_with_aligned_head_is_two_step() {
        let p = pool();
        let data = seed(&p, 0, 6);
        let len = 5 * PAGE_SIZE + 10; // starts aligned, ends mid-page
        let mut out = vec![0u8; len];
        p.disk().enable_trace(8);
        p.read_segment(A, 0, 0, &mut out);
        assert_eq!(out[..], data[..len]);
        let t = p.disk().take_trace();
        assert_eq!(t.len(), 2);
        assert_eq!(t.iter().map(|e| e.pages).collect::<Vec<_>>(), vec![5, 1]);
    }

    #[test]
    fn buffered_read_reuses_resident_pages() {
        let p = pool();
        seed(&p, 0, 4);
        // Make page 1 resident.
        let r = p.fix(PageId::new(A, 1));
        p.unfix(r);
        p.disk().reset_stats();
        let mut out = vec![0u8; 4 * PAGE_SIZE];
        p.read_segment(A, 0, 0, &mut out);
        // Missing runs: [0] and [2,3] → 2 calls, 3 pages.
        assert_eq!(p.io_stats().read_calls, 2);
        assert_eq!(p.io_stats().pages_read, 3);
    }

    #[test]
    fn direct_read_overlays_dirty_resident_pages() {
        let p = pool();
        seed(&p, 0, 8);
        // Dirty page 3 in the pool: newer than disk.
        let r = p.fix(PageId::new(A, 3));
        p.with_page_mut(r, |page| page.fill(0xEE));
        p.unfix(r);
        let mut out = vec![0u8; 8 * PAGE_SIZE];
        p.read_segment(A, 0, 0, &mut out);
        assert!(out[3 * PAGE_SIZE..4 * PAGE_SIZE].iter().all(|&b| b == 0xEE));
    }

    #[test]
    fn write_direct_is_one_call_and_invalidates() {
        let p = pool();
        seed(&p, 0, 4);
        let r = p.fix(PageId::new(A, 2));
        p.unfix(r);
        let new = vec![0x55u8; 4 * PAGE_SIZE];
        p.disk().reset_stats();
        p.write_direct(A, 0, &new);
        assert_eq!(p.io_stats().write_calls, 1);
        assert_eq!(p.io_stats().pages_written, 4);
        assert!(!p.contains(PageId::new(A, 2)), "stale copy dropped");
        let mut out = vec![0u8; 4 * PAGE_SIZE];
        p.disk().peek(A, 0, &mut out);
        assert_eq!(out, new);
    }

    #[test]
    fn write_direct_partial_tail_preserves_dirty_resident_rest() {
        let p = pool();
        // Page 1 resident and dirty with 0xAA everywhere.
        let r = p.fix(PageId::new(A, 1));
        p.with_page_mut(r, |page| page.fill(0xAA));
        p.unfix(r);
        // Direct write covering page 0 fully and the first 100 bytes of page 1.
        let data = vec![0x11u8; PAGE_SIZE + 100];
        p.write_direct(A, 0, &data);
        let mut out = vec![0u8; 2 * PAGE_SIZE];
        p.disk().peek(A, 0, &mut out);
        assert!(out[..PAGE_SIZE + 100].iter().all(|&b| b == 0x11));
        assert!(
            out[PAGE_SIZE + 100..].iter().all(|&b| b == 0xAA),
            "dirty resident tail bytes must survive"
        );
    }

    #[test]
    fn flush_range_groups_contiguous_dirty_pages() {
        let p = pool();
        // Dirty pages 0,1,2 and 5 (3 is clean-resident, 4 absent).
        for q in [0u32, 1, 2, 5] {
            let r = p.fix_new(PageId::new(A, q));
            p.with_page_mut(r, |page| page[0] = q as u8 + 1);
            p.unfix(r);
        }
        let r = p.fix(PageId::new(A, 3));
        p.unfix(r);
        p.disk().reset_stats();
        p.disk().enable_trace(8);
        p.flush_range(A, 0, 6);
        let t = p.disk().take_trace();
        let writes: Vec<_> = t.iter().filter(|e| e.kind == TraceKind::Write).collect();
        assert_eq!(writes.len(), 2, "runs [0..3] and [5] → 2 calls");
        assert_eq!(writes[0].pages, 3);
        assert_eq!(writes[1].pages, 1);
        // Everything clean now; flushing again is free.
        p.disk().reset_stats();
        p.flush_range(A, 0, 6);
        assert_eq!(p.io_stats().write_calls, 0);
    }

    #[test]
    fn flush_range_gather_writes_frame_content() {
        let p = pool();
        for q in 0..3u32 {
            let r = p.fix_new(PageId::new(A, q));
            p.with_page_mut(r, |page| page.fill(0x10 + q as u8));
            p.unfix(r);
        }
        p.flush_range(A, 0, 3);
        let mut out = vec![0u8; 3 * PAGE_SIZE];
        p.disk().peek(A, 0, &mut out);
        for q in 0..3usize {
            assert!(
                out[q * PAGE_SIZE..(q + 1) * PAGE_SIZE]
                    .iter()
                    .all(|&b| b == 0x10 + q as u8),
                "page {q} content must reach disk via the gather write"
            );
        }
        assert_eq!(p.io_stats().write_calls, 1);
        assert_eq!(p.io_stats().pages_written, 3);
    }

    #[test]
    fn buffered_read_mixing_scatter_and_boundary_runs() {
        // 4-page span read at byte offset 100: the first missing run
        // starts on the partial head page (staged), while a later run of
        // whole pages goes through the scatter path. Content and call
        // counts must match the pre-scatter behavior exactly.
        let p = pool();
        let data = seed(&p, 0, 4);
        // Page 1 resident so the misses split into runs [0] and [2,3].
        let r = p.fix(PageId::new(A, 1));
        p.unfix(r);
        p.disk().reset_stats();
        // Ends exactly at the page-3 boundary, so run [2,3] is whole
        // pages (scatter) while run [0] is clipped by the head (staged).
        let len = 4 * PAGE_SIZE - 100;
        let mut out = vec![0u8; len];
        p.read_segment(A, 0, 100, &mut out);
        assert_eq!(out[..], data[100..100 + len]);
        assert_eq!(p.io_stats().read_calls, 2, "runs [0] and [2,3]");
        assert_eq!(p.io_stats().pages_read, 3);
        // All four pages were installed and a re-read is free.
        p.disk().reset_stats();
        p.read_segment(A, 0, 100, &mut out);
        assert_eq!(p.io_stats().read_calls, 0);
        assert_eq!(out[..], data[100..100 + len]);
    }

    #[test]
    fn read_pages_overlays_dirty_and_charges_one_call() {
        let p = pool();
        seed(&p, 0, 4);
        let r = p.fix(PageId::new(A, 1));
        p.with_page_mut(r, |page| page.fill(0x77));
        p.unfix(r);
        let mut out = vec![0u8; 4 * PAGE_SIZE];
        p.disk().reset_stats();
        p.read_pages(A, 0, 4, &mut out);
        assert_eq!(p.io_stats().read_calls, 1);
        assert!(out[PAGE_SIZE..2 * PAGE_SIZE].iter().all(|&b| b == 0x77));
    }

    /// Make `page` resident and dirty, filled with `fill`.
    fn dirty(p: &BufferPool, page: u32, fill: u8) {
        let r = p.fix_new(PageId::new(A, page));
        p.with_page_mut(r, |bytes| bytes.fill(fill));
        p.unfix(r);
    }

    #[test]
    fn long_read_pages_overlays_a_dirty_resident_page() {
        // 10 000 pages against 12 frames: the overlay walks the frame
        // table, not the page range, and must still find page 7 777.
        let p = pool();
        dirty(&p, 7_777, 0x77);
        dirty(&p, 10_000, 0x11); // just past the end: not part of the run
        let mut out = vec![0xFFu8; 10_000 * PAGE_SIZE];
        p.read_pages(A, 0, 10_000, &mut out);
        assert_eq!(p.io_stats().read_calls, 1);
        let at = 7_777 * PAGE_SIZE;
        assert!(out[at..at + PAGE_SIZE].iter().all(|&b| b == 0x77));
        assert!(out[..at].iter().all(|&b| b == 0), "disk bytes elsewhere");
        assert!(out[at + PAGE_SIZE..].iter().all(|&b| b == 0));
    }

    #[test]
    fn long_discard_range_drops_exactly_the_residents_inside() {
        let p = pool();
        for q in [99u32, 100, 5_000, 10_099, 10_100] {
            dirty(&p, q, 1);
        }
        // The same page numbers in the other area stay out of it.
        let r = p.fix(PageId::new(AreaId::META, 5_000));
        p.unfix(r);
        p.discard_range(A, 100, 10_000);
        for (q, kept) in [
            (99u32, true),
            (100, false),
            (5_000, false),
            (10_099, false),
            (10_100, true),
        ] {
            assert_eq!(p.contains(PageId::new(A, q)), kept, "page {q}");
        }
        assert!(p.contains(PageId::new(AreaId::META, 5_000)));
        assert_eq!(p.io_stats().write_calls, 0, "discarded, not flushed");
    }

    #[test]
    #[should_panic(expected = "discard of a fixed page")]
    fn long_discard_range_panics_on_a_fixed_page() {
        let p = pool();
        let _held = p.fix(PageId::new(A, 5_000));
        p.discard_range(A, 100, 10_000);
    }

    #[test]
    fn long_flush_range_writes_the_same_runs_in_page_order() {
        // Dirtied out of page order, so the frame table is not sorted by
        // page: runs [40,41,42], [9_000] and [9_002,9_003] must still go
        // out lowest page first, one call each, exactly as the per-page
        // walk over a short range does.
        let p = pool();
        for q in [9_003u32, 41, 9_000, 40, 9_002, 42] {
            dirty(&p, q, q as u8);
        }
        let r = p.fix(PageId::new(A, 9_001)); // clean resident: splits a run
        p.unfix(r);
        dirty(&p, 20_000, 9); // outside the range: stays dirty
        p.disk().reset_stats();
        p.disk().enable_trace(8);
        p.flush_range(A, 0, 10_000);
        let writes: Vec<_> = p
            .disk()
            .take_trace()
            .into_iter()
            .map(|e| (e.kind, e.start, e.pages))
            .collect();
        assert_eq!(
            writes,
            vec![
                (TraceKind::Write, 40, 3),
                (TraceKind::Write, 9_000, 1),
                (TraceKind::Write, 9_002, 2),
            ]
        );
        let mut out = vec![0u8; 2 * PAGE_SIZE];
        p.disk().peek(A, 9_002, &mut out);
        assert!(out[..PAGE_SIZE].iter().all(|&b| b == 9_002u32 as u8));
        assert!(out[PAGE_SIZE..].iter().all(|&b| b == 9_003u32 as u8));
        // Everything in range is clean now; page 20 000 is not.
        p.disk().reset_stats();
        p.flush_range(A, 0, 10_000);
        assert_eq!(p.io_stats().write_calls, 0);
        p.flush_page(PageId::new(A, 20_000));
        assert_eq!(p.io_stats().write_calls, 1);
    }

    #[test]
    fn single_page_fallback_when_pool_unavailable() {
        // A 3-frame pool where 2 frames are pinned: a 2-page buffered read
        // cannot be accommodated and falls to the direct path.
        let p = BufferPool::new(
            SimDisk::new(2, CostModel::default()),
            PoolConfig {
                frames: 3,
                max_buffered_seg: 4,
            },
        );
        let data = seed(&p, 0, 2);
        let _pin1 = p.fix(PageId::new(AreaId::META, 100));
        let _pin2 = p.fix(PageId::new(AreaId::META, 101));
        p.disk().reset_stats();
        let mut out = vec![0u8; PAGE_SIZE + 200];
        p.read_segment(A, 0, 50, &mut out);
        assert_eq!(out[..], data[50..50 + PAGE_SIZE + 200]);
    }

    #[test]
    fn concurrent_read_pages_sees_stable_bytes() {
        // The `&self` direct path is the snapshot-scan workhorse: several
        // threads reading disjoint and overlapping ranges must all see the
        // seeded bytes with no pool mutation at all.
        let p = pool();
        let data = seed(&p, 0, 8);
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let (p, data) = (&p, &data);
                s.spawn(move || {
                    let start = t % 4;
                    let mut out = vec![0u8; 4 * PAGE_SIZE];
                    for _ in 0..25 {
                        p.read_pages(A, start, 4, &mut out);
                        let lo = cast::u32_to_usize(start) * PAGE_SIZE;
                        assert_eq!(out[..], data[lo..lo + 4 * PAGE_SIZE]);
                    }
                });
            }
        });
    }

    // ---- the multi-pass buffered read, kept as `read_buffered`'s oracle ----

    impl BufferPool {
        /// `read_segment` as it was before the single pass: the frame
        /// count, each residency probe, each install and each unfix take
        /// `ctl` on their own, through the public calls.
        fn oracle_read_segment(
            &self,
            area: AreaId,
            start_page: u32,
            byte_off: u64,
            out: &mut [u8],
        ) {
            if out.is_empty() {
                return;
            }
            let len = out.len() as u64;
            let first = start_page + cast::to_u32(byte_off / PAGE_SIZE_U64);
            let last = start_page + cast::to_u32((byte_off + len - 1) / PAGE_SIZE_U64);
            let n_pages = last - first + 1;
            let head_skip = cast::to_usize(byte_off % PAGE_SIZE_U64);
            if n_pages <= self.cfg.max_buffered_seg
                && self.available_frames() >= cast::u32_to_usize(n_pages)
            {
                self.oracle_read_buffered(area, first, n_pages, head_skip, out);
            } else {
                self.read_direct(area, first, last, head_skip, out);
            }
        }

        fn oracle_read_buffered(
            &self,
            area: AreaId,
            first: u32,
            n_pages: u32,
            head_skip: usize,
            out: &mut [u8],
        ) {
            let n = cast::u32_to_usize(n_pages);
            let mut refs: Vec<Option<FrameRef>> = Vec::with_capacity(n);
            // Pass 1: pin what is already resident so eviction can't steal it.
            for i in 0..n_pages {
                let pid = PageId::new(area, first + i);
                if self.contains(pid) {
                    refs.push(Some(self.fix(pid)));
                } else {
                    refs.push(None);
                }
            }
            // Pass 2: fetch each maximal missing run with a single I/O call.
            let mut in_place = vec![false; n];
            let mut i = 0usize;
            while i < refs.len() {
                if refs[i].is_some() {
                    i += 1;
                    continue;
                }
                let run_start = i;
                while i < refs.len() && refs[i].is_none() {
                    i += 1;
                }
                let run_len = i - run_start;
                let start_page = first + cast::usize_to_u32(run_start);
                let (out_off, from, _) = page_span(run_start, head_skip, out.len());
                let (_, _, last_take) = page_span(run_start + run_len - 1, head_skip, out.len());
                if from == 0 && last_take == PAGE_SIZE {
                    // Whole pages, fully inside `out`: scatter read.
                    let dst = &mut out[out_off..out_off + run_len * PAGE_SIZE];
                    let installed = self.oracle_read_scatter(area, start_page, dst);
                    for (j, r) in installed.into_iter().enumerate() {
                        refs[run_start + j] = Some(r);
                        in_place[run_start + j] = true;
                    }
                } else {
                    // Boundary run: stage through a buffer sized to the run.
                    let mut tmp = vec![0u8; run_len * PAGE_SIZE];
                    #[allow(clippy::disallowed_methods)]
                    self.disk.read(area, start_page, &mut tmp);
                    for (j, chunk) in tmp.chunks(PAGE_SIZE).enumerate() {
                        let pid = PageId::new(area, start_page + cast::usize_to_u32(j));
                        refs[run_start + j] = Some(self.install_clean(pid, chunk));
                    }
                }
            }
            // Pass 3: copy from frames for pages not already filled in
            // place, and release every pin.
            let mut copied = 0usize;
            for (i, r) in refs.iter().enumerate() {
                let r = r.expect("pass 2 installed a frame for every missing page");
                let (out_off, from, take) = page_span(i, head_skip, out.len());
                assert_eq!(out_off, copied);
                if !in_place[i] {
                    self.with_page(r, |page| {
                        out[copied..copied + take].copy_from_slice(&page[from..from + take]);
                    });
                }
                copied += take;
            }
            assert_eq!(copied, out.len());
            for r in refs.into_iter().flatten() {
                self.unfix(r);
            }
        }

        fn oracle_read_scatter(
            &self,
            area: AreaId,
            start_page: u32,
            dst: &mut [u8],
        ) -> Vec<FrameRef> {
            #[allow(clippy::disallowed_methods)]
            self.disk.read(area, start_page, dst);
            dst.chunks(PAGE_SIZE)
                .enumerate()
                .map(|(j, page)| {
                    self.install_clean(PageId::new(area, start_page + cast::usize_to_u32(j)), page)
                })
                .collect()
        }
    }

    /// Where page `i` of a buffered request lands: byte offset in `out`,
    /// offset of the first requested byte within the page, and how many
    /// bytes of the page are requested.
    fn page_span(i: usize, head_skip: usize, out_len: usize) -> (usize, usize, usize) {
        let (out_off, from) = if i == 0 {
            (0, head_skip)
        } else {
            (PAGE_SIZE - head_skip + (i - 1) * PAGE_SIZE, 0)
        };
        (out_off, from, (PAGE_SIZE - from).min(out_len - out_off))
    }

    /// The twin-run region: 24 seeded pages; `Probe` fixes pages past it.
    const REGION_PAGES: u32 = 24;
    const REGION: usize = REGION_PAGES as usize * PAGE_SIZE;

    #[derive(Clone, Debug)]
    enum Op {
        /// Fix a page and keep it fixed.
        Fix(u32),
        /// Write one byte through the `n`th held fix (modulo how many).
        Poke(usize, usize, u8),
        /// Release the `n`th held fix.
        Unfix(usize),
        /// Byte-range read at (offset, length) within the region.
        Read(usize, usize),
        /// Direct write of whole pages (skipped over a fixed page).
        WriteDirect(u32, u32, u8),
        FlushRange(u32, u32),
        /// Fix a page neither pool has seen, and release it: which page
        /// left is the next victim.
        Probe,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            2 => (0..REGION_PAGES).prop_map(Op::Fix),
            2 => (0usize..8, 0..PAGE_SIZE, any::<u8>()).prop_map(|(n, at, v)| Op::Poke(n, at, v)),
            2 => (0usize..8).prop_map(Op::Unfix),
            // Probes clipped inside a page or straddling two, then every
            // alignment of 1–6 pages (5 and 6 take the direct path).
            4 => (0..REGION - 1, 1usize..300).prop_map(|(off, len)| Op::Read(off, len)),
            4 => (0..REGION_PAGES as usize, 0usize..3, 1usize..7, 0usize..3).prop_map(
                |(page, head, pages, tail)| {
                    let off = page * PAGE_SIZE + [0, 1, 4_000][head];
                    Op::Read(off, pages * PAGE_SIZE - [0, 1, 4_000][tail])
                }
            ),
            1 => (0..REGION_PAGES, 1u32..6, any::<u8>())
                .prop_map(|(page, pages, fill)| Op::WriteDirect(page, pages, fill)),
            1 => (0..REGION_PAGES, 1u32..6).prop_map(|(page, pages)| Op::FlushRange(page, pages)),
            1 => Just(Op::Probe),
        ]
    }

    /// Two pools over equal disks, `new` read through `read_segment` and
    /// `old` through the oracle, with the fixes held in both.
    struct Twins {
        new: BufferPool,
        old: BufferPool,
        held: Vec<(u32, FrameRef)>,
        probes: u32,
    }

    impl Twins {
        fn new(frames: usize, max_buffered_seg: u32) -> Twins {
            let cfg = PoolConfig {
                frames,
                max_buffered_seg,
            };
            let pool = || {
                let p = BufferPool::new(SimDisk::new(2, CostModel::default()), cfg);
                seed(&p, 0, REGION_PAGES as usize);
                p.disk().enable_trace(64);
                p
            };
            Twins {
                new: pool(),
                old: pool(),
                held: Vec::new(),
                probes: 0,
            }
        }

        fn both(&self) -> [&BufferPool; 2] {
            [&self.new, &self.old]
        }

        /// Apply `op` to both pools, then require that nothing tells
        /// them apart.
        fn step(&mut self, op: &Op) {
            match *op {
                // One frame stays unpinned: `fix` panics on a full pool.
                Op::Fix(page) if self.held.len() + 1 < self.new.config().frames => {
                    let [a, b] = self.both().map(|p| p.fix(PageId::new(A, page)));
                    assert_eq!(a, b, "fix({page}) chose different frames");
                    self.held.push((page, a));
                }
                Op::Poke(n, at, val) if !self.held.is_empty() => {
                    let (_, r) = self.held[n % self.held.len()];
                    for p in self.both() {
                        p.with_page_mut(r, |page| page[at] = val);
                    }
                }
                Op::Unfix(n) if !self.held.is_empty() => {
                    let (_, r) = self.held.swap_remove(n % self.held.len());
                    for p in self.both() {
                        p.unfix(r);
                    }
                }
                Op::Read(off, len) => {
                    let len = len.min(REGION - off);
                    let (mut a, mut b) = (vec![0u8; len], vec![0u8; len]);
                    self.new.read_segment(A, 0, off as u64, &mut a);
                    self.old.oracle_read_segment(A, 0, off as u64, &mut b);
                    assert_eq!(a, b, "read {off}+{len} returned different bytes");
                }
                Op::WriteDirect(page, pages, fill) => {
                    let pages = pages.min(REGION_PAGES - page);
                    // `write_direct` panics over a fixed page.
                    if !self
                        .held
                        .iter()
                        .any(|&(q, _)| (page..page + pages).contains(&q))
                    {
                        let data = vec![fill; pages as usize * PAGE_SIZE - 7];
                        for p in self.both() {
                            p.write_direct(A, page, &data);
                        }
                    }
                }
                Op::FlushRange(page, pages) => {
                    for p in self.both() {
                        p.flush_range(A, page, pages.min(REGION_PAGES - page));
                    }
                }
                Op::Probe if self.held.len() < self.new.config().frames => {
                    let fresh = PageId::new(A, REGION_PAGES + self.probes);
                    self.probes += 1;
                    let before = self.both().map(|p| p.frame_table());
                    let [a, b] = self.both().map(|p| p.fix(fresh));
                    assert_eq!((before[0][a.0].0, a), (before[1][b.0].0, b), "next victim");
                    for p in self.both() {
                        p.unfix(a);
                    }
                }
                _ => {}
            }
            let [new, old] = self.both();
            assert_eq!(new.disk().take_trace(), old.disk().take_trace(), "{op:?}");
            assert_eq!(new.disk().trace_dropped() + old.disk().trace_dropped(), 0);
            assert_eq!(new.io_stats(), old.io_stats(), "{op:?}");
            assert_eq!(new.pool_stats(), old.pool_stats(), "{op:?}");
            // Residency, dirty bits, pins and LRU stamps, frame by frame.
            assert_eq!(new.frame_table(), old.frame_table(), "{op:?}");
        }

        /// Unfix everything, flush, and compare the disks.
        fn finish(mut self) {
            while !self.held.is_empty() {
                self.step(&Op::Unfix(0));
            }
            self.step(&Op::Probe);
            let disks = self.both().map(|p| {
                p.flush_all();
                let mut bytes = vec![0u8; REGION];
                p.disk().peek(A, 0, &mut bytes);
                bytes
            });
            assert!(disks[0] == disks[1], "disk images differ");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

        #[test]
        fn single_pass_matches_the_multi_pass_oracle(
            input in (2usize..=12, 1u32..=4, prop::collection::vec(op_strategy(), 1..80))
        ) {
            let (frames, max_buffered_seg, ops) = input;
            let mut twins = Twins::new(frames, max_buffered_seg);
            for op in &ops {
                twins.step(op);
            }
            twins.finish();
        }
    }

    /// A pool of `frames` frames, every one holding an unpinned dirty
    /// page (100, 101, ... of the META area, oldest first), tracing.
    fn all_dirty(frames: usize) -> BufferPool {
        let p = BufferPool::new(
            SimDisk::new(2, CostModel::default()),
            PoolConfig {
                frames,
                max_buffered_seg: 4,
            },
        );
        for q in 0..cast::usize_to_u32(frames) {
            let r = p.fix_new(PageId::new(AreaId::META, 100 + q));
            p.with_page_mut(r, |page| page.fill(0xD0 + q as u8));
            p.unfix(r);
        }
        p.disk().enable_trace(8);
        p
    }

    fn calls(p: &BufferPool) -> Vec<(TraceKind, AreaId, u32, u32)> {
        let trace = p.disk().take_trace();
        trace
            .iter()
            .map(|e| (e.kind, e.area, e.start, e.pages))
            .collect()
    }

    #[test]
    fn clipped_read_over_a_dirty_victim_reads_before_it_writes_back() {
        for frames in [2, 3] {
            let p = all_dirty(frames);
            let data = seed(&p, 0, 8);
            let mut out = [0u8; 100];
            p.read_segment(A, 5, 1_000, &mut out);
            assert_eq!(out[..], data[5 * PAGE_SIZE + 1_000..][..100]);
            // The staged order: the page is read, then the LRU dirty
            // page makes room for it.
            assert_eq!(
                calls(&p),
                [
                    (TraceKind::Read, A, 5, 1),
                    (TraceKind::Write, AreaId::META, 100, 1)
                ]
            );
            assert_eq!(p.pool_stats().eviction_writes, 1);
            assert!(p.contains(PageId::new(A, 5)));
            assert!(!p.contains(PageId::new(AreaId::META, 100)));
            let mut back = [0u8; PAGE_SIZE];
            p.disk().peek(AreaId::META, 100, &mut back);
            assert!(
                back.iter().all(|&b| b == 0xD0),
                "the victim's bytes reached disk"
            );
            // The frame holds the whole page, not just the 100 bytes.
            let mut again = vec![0u8; PAGE_SIZE];
            p.read_segment(A, 5, 0, &mut again);
            assert_eq!(again[..], data[5 * PAGE_SIZE..6 * PAGE_SIZE]);
            assert!(calls(&p).is_empty(), "a re-read is a hit");
        }
    }

    #[test]
    fn lone_missing_page_between_two_resident_ones_over_a_dirty_victim() {
        // Runs [hit][miss][hit] in a 3-frame pool: pages 4 and 6 resident
        // and dirty, the third frame dirty too. Pinning the two hits
        // leaves that frame as the only victim; page 5 is read (whole,
        // into `out`) before the victim is written back.
        let p = BufferPool::new(
            SimDisk::new(2, CostModel::default()),
            PoolConfig {
                frames: 3,
                max_buffered_seg: 4,
            },
        );
        let data = seed(&p, 0, 8);
        for q in [4usize, 6] {
            let r = p.fix(PageId::new(A, q as u32));
            p.with_page_mut(r, |page| page[0] = data[q * PAGE_SIZE]);
            p.unfix(r);
        }
        dirty(&p, 50, 0xEE);
        p.disk().enable_trace(8);
        // Bytes 4 000 of page 4 .. 100 of page 6.
        let mut out = vec![0u8; 96 + PAGE_SIZE + 100];
        p.read_segment(A, 4, 4_000, &mut out);
        assert_eq!(out[..], data[4 * PAGE_SIZE + 4_000..][..out.len()]);
        assert_eq!(
            calls(&p),
            [(TraceKind::Read, A, 5, 1), (TraceKind::Write, A, 50, 1)]
        );
        assert_eq!(p.pool_stats().eviction_writes, 1);
        assert_eq!(p.pool_stats().hits, 2, "pages 4 and 6 were pinned as hits");
        assert_eq!(p.available_frames(), 3, "every pin released");
        assert!(p.contains(PageId::new(A, 5)) && !p.contains(PageId::new(A, 50)));
    }
}

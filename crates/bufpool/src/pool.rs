//! The page-level buffer pool: fix/unfix, LRU replacement, flushing.
//!
//! # Concurrency structure
//!
//! The pool is shared (`&self` everywhere) and splits its state two ways:
//!
//! * **Control block** (`ctl: Mutex<PoolInner>`): the frame table, LRU
//!   clock and hit/miss counters. Which frame holds a page is a scan of
//!   the table's 2–12 `pid`s; there is no second index to keep in step.
//!   Every replacement decision runs under this one mutex, which keeps
//!   the victim choice — and therefore the simulated I/O stream and
//!   golden traces — exactly as deterministic as a `&mut self` pool.
//! * **Page bytes** (`frames: Vec<Frame>`, one per configured frame):
//!   each frame owns its 4 KiB box behind its own `RwLock` latch. The
//!   box never moves; eviction writes the old page back and reads the
//!   new one into it in place.
//!
//! A pinned frame is never a victim, so a [`FrameRef`] reaches its bytes
//! with the frame latch alone — no control mutex, no lookup. Code that
//! holds `ctl` instead of a pin reaches bytes by the frame index the
//! control block just gave it.
//!
//! Lock order ([`lobstore_obs::sync::Rank`]): `BufferPool.ctl` →
//! `Frame.bytes` → the disk's own locks. [`PageGuard`]/[`PageGuardMut`]
//! hold the frame latch for their lifetime and release it *before*
//! re-taking `ctl` to drop the pin; a thread that holds one makes no other
//! pool call until it drops it.

use std::sync::{Mutex, MutexGuard, RwLockReadGuard, RwLockWriteGuard};

use lobstore_obs::sync::{self, Guard, Rank};

use lobstore_simdisk::{cast, IoStats, PageId, SimDisk, PAGE_SIZE};

use crate::frame::{Frame, FrameMeta, PageBox};
use crate::metrics;

/// Pool sizing parameters. The study fixes these to 12 frames with a
/// 4-page segment-buffering limit (§4.1, Table 1).
#[derive(Copy, Clone, Debug)]
pub struct PoolConfig {
    /// Number of page frames in the pool.
    pub frames: usize,
    /// Largest segment (in pages) that is buffered whole in one I/O call;
    /// larger segments bypass the pool (§3.2).
    pub max_buffered_seg: u32,
}

/// The largest `max_buffered_seg` a pool takes: a buffered read keeps its
/// frame indices in an array of this many.
pub(crate) const MAX_BUFFERED_SEG: usize = 8;

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            frames: 12,
            max_buffered_seg: 4,
        }
    }
}

/// Hit/miss and write-back counters of the pool itself (the disk keeps the
/// authoritative time/cost counters).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Pages found resident: by `fix`, or by a buffered segment read
    /// (one per resident page of the request).
    pub hits: u64,
    /// `fix` calls that had to read the page. A buffered segment read's
    /// missing pages are fetched a run at a time and were never counted
    /// here, so `hits / (hits + misses)` is a ratio over fixes.
    pub misses: u64,
    /// Dirty pages written back by eviction.
    pub eviction_writes: u64,
}

/// Handle to a fixed frame. Obtained from [`BufferPool::fix`] /
/// [`BufferPool::fix_new`]; must be released with [`BufferPool::unfix`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FrameRef(pub(crate) usize);

/// Replacement metadata: everything a single-borrow pool would keep in
/// `&mut self`, behind `BufferPool.ctl`. All methods are lock-free
/// helpers — the caller holds the control mutex.
pub(crate) struct PoolInner {
    frames: Vec<FrameMeta>,
    clock: u64,
    stats: PoolStats,
}

impl PoolInner {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// The frame holding `pid`: a scan of the frame table, which
    /// `pick_victim` and `available` walk on every miss anyway.
    pub(crate) fn resident(&self, pid: PageId) -> Option<usize> {
        self.frames.iter().position(|f| f.pid == Some(pid))
    }

    fn is_dirty(&self, idx: usize) -> bool {
        self.frames.get(idx).is_some_and(|f| f.dirty)
    }

    /// The frame holding `pid`, if it is resident and dirty.
    fn resident_dirty(&self, pid: PageId) -> Option<usize> {
        self.resident(pid).filter(|&idx| self.is_dirty(idx))
    }

    /// Count a hit, re-pin the frame, refresh LRU. Returns the stats
    /// snapshot for the obs mirror.
    pub(crate) fn repin_hit(&mut self, idx: usize) -> PoolStats {
        self.stats.hits += 1;
        let t = self.tick();
        let f = &mut self.frames[idx];
        f.pins += 1;
        f.last_used = t;
        self.stats
    }

    fn count_miss(&mut self) -> PoolStats {
        self.stats.misses += 1;
        self.stats
    }

    /// Re-pin an already-resident frame, forcing its dirty bit — the
    /// resident side of [`BufferPool::claim`].
    fn repin(&mut self, idx: usize, dirty: bool) {
        let t = self.tick();
        let f = &mut self.frames[idx];
        f.dirty = dirty;
        f.pins += 1;
        f.last_used = t;
    }

    /// Pick a victim frame: a free frame if any, otherwise the LRU unpinned
    /// **clean** frame, otherwise the LRU unpinned dirty frame (§3.2: "we
    /// start first by freeing the least recently used clean pages followed
    /// by dirty pages"). Panics if every frame is pinned — a configuration
    /// error for this single-writer simulation.
    fn pick_victim(&self) -> usize {
        if let Some(i) = self.frames.iter().position(FrameMeta::is_free) {
            return i;
        }
        let lru_of = |frames: &[FrameMeta], want_dirty: bool| {
            frames
                .iter()
                .enumerate()
                .filter(|(_, f)| f.pins == 0 && f.dirty == want_dirty)
                .min_by_key(|(_, f)| f.last_used)
                .map(|(i, _)| i)
        };
        match lru_of(&self.frames, false).or_else(|| lru_of(&self.frames, true)) {
            Some(i) => i,
            None => panic!("buffer pool exhausted: every frame is pinned"),
        }
    }

    /// Forget the page held by frame `idx`, returning its id and whether
    /// it was dirty. `None` if the frame was already free.
    fn detach(&mut self, idx: usize) -> Option<(PageId, bool)> {
        let f = &mut self.frames[idx];
        let pid = f.pid.take()?;
        let dirty = f.dirty;
        f.dirty = false;
        Some((pid, dirty))
    }

    fn install(&mut self, idx: usize, pid: PageId, dirty: bool) {
        let t = self.tick();
        let f = &mut self.frames[idx];
        f.pid = Some(pid);
        f.dirty = dirty;
        f.pins = 1;
        f.last_used = t;
    }

    /// One more pin on the frame holding `pid`, if it is resident, with
    /// no hit counted and no LRU refresh.
    fn pin(&mut self, pid: PageId) -> Option<usize> {
        let mut frames = self.frames.iter_mut().enumerate();
        let (idx, f) = frames.find(|(_, f)| f.pid == Some(pid))?;
        f.pins += 1;
        Some(idx)
    }

    pub(crate) fn unpin(&mut self, idx: usize, dirtied: bool) {
        let f = &mut self.frames[idx];
        if dirtied {
            f.dirty = true;
        }
        assert!(f.pins > 0, "unfix of unpinned frame");
        f.pins -= 1;
    }

    /// Mark a fixed frame dirty — at access time, not at unfix.
    fn dirty_pinned(&mut self, idx: usize) {
        let f = &mut self.frames[idx];
        debug_assert!(f.pins > 0, "access to unfixed frame");
        f.dirty = true;
    }

    pub(crate) fn set_clean(&mut self, idx: usize) {
        self.frames[idx].dirty = false;
    }

    /// Free frame `idx`; its bytes are simply left behind for the next
    /// install to overwrite. Panics if the frame is fixed.
    fn drop_frame(&mut self, idx: usize) {
        let f = &mut self.frames[idx];
        let Some(pid) = f.pid else {
            return;
        };
        assert_eq!(f.pins, 0, "discard of a fixed page {pid}");
        f.pid = None;
        f.dirty = false;
    }

    /// Free every frame without write-back; panics on a surviving pin.
    fn crash_detach_all(&mut self) {
        for f in &mut self.frames {
            assert_eq!(f.pins, 0, "crash with a fixed frame");
            *f = FrameMeta::empty();
        }
    }

    pub(crate) fn available(&self) -> usize {
        self.frames.iter().filter(|f| f.pins == 0).count()
    }

    /// Every dirty frame and the page it holds, in frame-index order (the
    /// order the pool has always flushed them, which golden traces depend
    /// on).
    fn dirty_frames(&self) -> Vec<(usize, PageId)> {
        self.frames
            .iter()
            .enumerate()
            .filter(|(_, f)| f.dirty)
            .filter_map(|(idx, f)| Some((idx, f.pid?)))
            .collect()
    }

    /// The resident pages of `[start, start + pages)` with the frames
    /// holding them, in page order: one walk of the frame table, whatever
    /// the caller's segment size.
    fn resident_in(
        &self,
        area: lobstore_simdisk::AreaId,
        start: u32,
        pages: u32,
    ) -> Vec<(u32, usize)> {
        let range = start..start.saturating_add(pages);
        let mut found: Vec<(u32, usize)> = self
            .frames
            .iter()
            .enumerate()
            .filter_map(|(idx, f)| {
                let pid = f.pid.filter(|pid| pid.area == area)?;
                range.contains(&pid.page).then_some((pid.page, idx))
            })
            .collect();
        found.sort_unstable();
        found
    }

    /// [`Self::resident_in`] restricted to dirty frames.
    pub(crate) fn dirty_in(
        &self,
        area: lobstore_simdisk::AreaId,
        start: u32,
        pages: u32,
    ) -> Vec<(u32, usize)> {
        let mut found = self.resident_in(area, start, pages);
        found.retain(|&(_, idx)| self.is_dirty(idx));
        found
    }
}

/// The buffer manager. Owns the simulated disk; all I/O above the disk
/// goes through here. Shared: every operation takes `&self` (see the
/// module docs for the locking structure).
pub struct BufferPool {
    pub(crate) disk: SimDisk,
    pub(crate) cfg: PoolConfig,
    /// Control block: frame table, LRU state, counters.
    pub(crate) ctl: Mutex<PoolInner>,
    /// The latched page bytes, one per frame, indexed like the control
    /// block's frame table.
    frames: Vec<Frame>,
}

impl BufferPool {
    /// A pool of `cfg.frames` empty frames over `disk`.
    ///
    /// # Panics
    /// If `cfg.frames < 2` or `cfg.max_buffered_seg > 8`.
    pub fn new(disk: SimDisk, cfg: PoolConfig) -> Self {
        assert!(cfg.frames >= 2, "pool needs at least 2 frames");
        assert!(
            cast::u32_to_usize(cfg.max_buffered_seg) <= MAX_BUFFERED_SEG,
            "pool buffers segments of at most {MAX_BUFFERED_SEG} pages"
        );
        BufferPool {
            disk,
            cfg,
            ctl: Mutex::new(PoolInner {
                frames: (0..cfg.frames).map(|_| FrameMeta::empty()).collect(),
                clock: 0,
                stats: PoolStats::default(),
            }),
            frames: (0..cfg.frames).map(|_| Frame::zeroed()).collect(),
        }
    }

    /// The paper's configuration: two areas, default cost model, 12 frames,
    /// 4-page buffering limit.
    pub fn paper_default() -> Self {
        BufferPool::new(SimDisk::paper_default(), PoolConfig::default())
    }

    /// The control block.
    pub(crate) fn lock_ctl(&self) -> Guard<MutexGuard<'_, PoolInner>> {
        sync::lock(&self.ctl, Rank::PoolCtl)
    }

    /// The sizing parameters this pool was built with.
    pub fn config(&self) -> PoolConfig {
        self.cfg
    }

    /// Cumulative I/O statistics of the underlying disk.
    pub fn io_stats(&self) -> IoStats {
        self.disk.stats()
    }

    /// Pool-level hit/miss counters.
    pub fn pool_stats(&self) -> PoolStats {
        let g = self.lock_ctl();
        g.stats
    }

    /// Direct access to the disk (for tracing and verification).
    pub fn disk(&self) -> &SimDisk {
        &self.disk
    }

    /// Number of frames that are currently unpinned (evictable or free).
    pub fn available_frames(&self) -> usize {
        let g = self.lock_ctl();
        g.available()
    }

    /// Whether `pid` is resident.
    pub fn contains(&self, pid: PageId) -> bool {
        let g = self.lock_ctl();
        g.resident(pid).is_some()
    }

    /// The bytes of frame `idx`. Callers hold either a pin on the frame
    /// or the control mutex, so the frame cannot change pages under them.
    fn frame(&self, idx: usize) -> &Frame {
        &self.frames[idx]
    }

    /// Copy one whole page out of frame `idx` under its read latch.
    pub(crate) fn copy_frame_into(&self, idx: usize, out: &mut [u8]) {
        let bytes = self.frame(idx).read();
        out.copy_from_slice(bytes.as_slice());
    }

    /// Choose and clear a victim frame; the caller holds the control
    /// mutex and overwrites the frame's bytes next.
    fn victim(&self, inner: &mut PoolInner) -> usize {
        let idx = inner.pick_victim();
        self.evict(inner, idx);
        idx
    }

    /// Write back (if dirty) and forget the page in frame `idx`.
    fn evict(&self, inner: &mut PoolInner, idx: usize) {
        let Some((pid, true)) = inner.detach(idx) else {
            return;
        };
        {
            let bytes = self.frame(idx).read();
            #[allow(clippy::disallowed_methods)]
            self.disk.write(pid.area, pid.page, bytes.as_slice());
        }
        inner.stats.eviction_writes += 1;
        metrics::EVICTION_WRITES.add(1);
        metrics::DIRTY_WRITEBACKS.add(1);
    }

    /// Pin a frame for `pid` whose bytes the caller overwrites entirely:
    /// a cleared victim, or — when the page is already resident (a
    /// recycled page number, a caller racing itself) — its own frame with
    /// one more pin. Either way the dirty bit becomes `dirty`.
    fn claim(&self, inner: &mut PoolInner, pid: PageId, dirty: bool) -> usize {
        if let Some(idx) = inner.resident(pid) {
            inner.repin(idx, dirty);
            return idx;
        }
        let idx = self.victim(inner);
        inner.install(idx, pid, dirty);
        idx
    }

    /// Record one fix outcome in the observability registry and refresh
    /// the derived hit-ratio gauge.
    pub(crate) fn note_fix(hit: bool, stats: PoolStats) {
        if hit {
            metrics::HITS.add(1);
        } else {
            metrics::MISSES.add(1);
        }
        let total = stats.hits + stats.misses;
        if total > 0 {
            metrics::HIT_RATIO.set(stats.hits as f64 / total as f64);
        }
    }

    /// Fix `pid` in the pool, reading it from disk on a miss (one 1-page
    /// I/O call). Returns a handle for [`Self::with_page`] /
    /// [`Self::with_page_mut`].
    pub fn fix(&self, pid: PageId) -> FrameRef {
        let mut g = self.lock_ctl();
        if let Some(idx) = g.resident(pid) {
            let stats = g.repin_hit(idx);
            drop(g);
            Self::note_fix(true, stats);
            return FrameRef(idx);
        }
        let stats = g.count_miss();
        Self::note_fix(false, stats);
        let idx = self.victim(&mut g);
        {
            let mut bytes = self.frame(idx).write();
            #[allow(clippy::disallowed_methods)]
            self.disk.read(pid.area, pid.page, bytes.as_mut_slice());
        }
        g.install(idx, pid, false);
        FrameRef(idx)
    }

    /// Fix `pid` **without** reading it from disk — for pages the caller is
    /// about to initialize completely (freshly allocated index pages,
    /// shadow copies). The frame starts zeroed and dirty.
    pub fn fix_new(&self, pid: PageId) -> FrameRef {
        let mut g = self.lock_ctl();
        let idx = self.claim(&mut g, pid, true);
        let mut bytes = self.frame(idx).write();
        bytes.fill(0);
        FrameRef(idx)
    }

    /// Install a full page of `content` (just read from disk) for the
    /// non-resident `pid` in a victim frame, pinned once and clean; the
    /// caller holds the control mutex. Unlike [`Self::fix_new`] + copy,
    /// the frame is never zero-filled first — the copy overwrites every
    /// byte.
    pub(crate) fn install_page(&self, inner: &mut PoolInner, pid: PageId, content: &[u8]) -> usize {
        let idx = self.victim(inner);
        inner.install(idx, pid, false);
        self.frame(idx).write().copy_from_slice(content);
        idx
    }

    /// Read the non-resident `pid` into a victim frame with one 1-page
    /// call, pinned once and clean, and show `body` the page — the
    /// one-page missing run of a buffered read that wants only part of
    /// the page. The read is issued *before* the victim's write-back, as
    /// for every buffered run, so a clean or free victim takes the read
    /// in place, as in [`Self::fix`], and only a dirty victim's successor
    /// is staged through a stack page.
    pub(crate) fn read_clipped(
        &self,
        inner: &mut PoolInner,
        pid: PageId,
        body: impl FnOnce(&[u8]),
    ) -> usize {
        let idx = inner.pick_victim();
        if inner.is_dirty(idx) {
            let mut page = [0u8; PAGE_SIZE];
            #[allow(clippy::disallowed_methods)]
            self.disk.read(pid.area, pid.page, &mut page);
            body(&page);
            return self.install_page(inner, pid, &page);
        }
        inner.detach(idx);
        {
            let mut bytes = self.frame(idx).write();
            #[allow(clippy::disallowed_methods)]
            self.disk.read(pid.area, pid.page, bytes.as_mut_slice());
            body(bytes.as_slice());
        }
        inner.install(idx, pid, false);
        idx
    }

    /// Run `body` with read access to a fixed frame's bytes, under the
    /// frame's read latch. `body` must not call back into the pool.
    pub fn with_page<R>(&self, r: FrameRef, body: impl FnOnce(&[u8; PAGE_SIZE]) -> R) -> R {
        let bytes = self.frame(r.0).read();
        body(&bytes)
    }

    /// Run `body` with write access to a fixed frame's bytes, under the
    /// frame's exclusive latch; marks the page dirty. `body` must not
    /// call back into the pool.
    pub fn with_page_mut<R>(&self, r: FrameRef, body: impl FnOnce(&mut [u8; PAGE_SIZE]) -> R) -> R {
        self.lock_ctl().dirty_pinned(r.0);
        let mut bytes = self.frame(r.0).write();
        body(&mut bytes)
    }

    /// Add a pin to `pid`'s frame if it is resident and at least `spare`
    /// frames stay unpinned beside it, so it is no victim until
    /// [`Self::unfix`] releases it; `None`, reading nothing, otherwise.
    /// Unlike [`Self::fix`] it counts no hit and leaves the LRU stamp
    /// alone: a holder that fixes the page again afterwards leaves the
    /// pool's counters and replacement order as a caller that had not
    /// held it, unless the page would have been a victim in between.
    pub fn hold(&self, pid: PageId, spare: usize) -> Option<FrameRef> {
        let mut g = self.lock_ctl();
        let idx = g.pin(pid)?;
        if g.available() < spare {
            g.unpin(idx, false);
            return None;
        }
        Some(FrameRef(idx))
    }

    /// Release one fix on the frame.
    pub fn unfix(&self, r: FrameRef) {
        let mut g = self.lock_ctl();
        g.unpin(r.0, false);
    }

    /// If `pid` is resident and dirty, write it to disk (one 1-page call).
    pub fn flush_page(&self, pid: PageId) {
        let mut g = self.lock_ctl();
        let Some(idx) = g.resident_dirty(pid) else {
            return;
        };
        {
            let bytes = self.frame(idx).read();
            #[allow(clippy::disallowed_methods)]
            self.disk.write(pid.area, pid.page, bytes.as_slice());
        }
        g.set_clean(idx);
        metrics::DIRTY_WRITEBACKS.add(1);
    }

    /// Write back every dirty frame (one call per page).
    pub fn flush_all(&self) {
        let mut g = self.lock_ctl();
        for (idx, pid) in g.dirty_frames() {
            {
                let bytes = self.frame(idx).read();
                #[allow(clippy::disallowed_methods)]
                self.disk.write(pid.area, pid.page, bytes.as_slice());
            }
            g.set_clean(idx);
            metrics::DIRTY_WRITEBACKS.add(1);
        }
    }

    /// Drop `pid` from the pool without writing it back — used when the
    /// page has been freed or superseded by a shadow copy.
    ///
    /// # Panics
    /// If the page is currently fixed.
    pub fn discard(&self, pid: PageId) {
        let mut g = self.lock_ctl();
        if let Some(idx) = g.resident(pid) {
            g.drop_frame(idx);
        }
    }

    /// Simulate a crash: every frame is discarded **without** write-back,
    /// as if the machine lost power. Dirty, unflushed state is gone; only
    /// what reached the disk survives. Used by recovery tests to verify
    /// the shadowing discipline of the storage managers (§3.3).
    ///
    /// # Panics
    /// If any frame is still fixed (a fixed frame mid-crash would be a
    /// harness bug, not a simulated condition).
    pub fn crash(&self) {
        let mut g = self.lock_ctl();
        g.crash_detach_all();
    }

    /// Cost-free inspection of a page's *current* content: the resident
    /// frame if any (even dirty), else the disk copy. For verification and
    /// metrics code only — never part of the simulated I/O stream.
    pub fn peek_page(&self, pid: PageId, out: &mut [u8; PAGE_SIZE]) {
        if self.peek_resident(pid, out) {
            return;
        }
        self.disk.peek(pid.area, pid.page, out);
    }

    fn peek_resident(&self, pid: PageId, out: &mut [u8; PAGE_SIZE]) -> bool {
        let g = self.lock_ctl();
        let Some(idx) = g.resident(pid) else {
            return false;
        };
        self.copy_frame_into(idx, out.as_mut_slice());
        true
    }

    /// Discard every resident page of an extent (used when a whole segment
    /// is freed or overwritten by a direct write), under one `ctl`
    /// acquisition.
    ///
    /// # Panics
    /// If a page of the range is currently fixed.
    pub fn discard_range(&self, area: lobstore_simdisk::AreaId, start: u32, pages: u32) {
        let mut g = self.lock_ctl();
        for (_, idx) in g.resident_in(area, start, pages) {
            g.drop_frame(idx);
        }
    }

    /// Fix `pid` and return a read guard: derefs to the page bytes and
    /// releases the fix when dropped. The guard latches only its own
    /// frame, shared, for its whole lifetime: guards on other pages —
    /// and a `fix` that has to evict — never wait for it.
    ///
    /// A thread holding a page guard makes no other pool call until it
    /// drops the guard: every call takes `ctl`, which ranks before the
    /// frame latch, and a reader holding `ctl` may wait for this frame.
    /// Under `debug_assertions` such a call panics with an order
    /// violation. Copy the bytes out first.
    pub fn guard(&self, pid: PageId) -> PageGuard<'_> {
        let pin = HeldPin::new(self, self.fix(pid));
        PageGuard {
            latch: pin.frame().read(),
            _pin: pin,
        }
    }

    /// Fix `pid` and return a write guard; mutable access marks the page
    /// dirty, exactly as [`Self::with_page_mut`] does. As for
    /// [`Self::guard`], the thread makes no other pool call while it
    /// holds the guard.
    pub fn guard_mut(&self, pid: PageId) -> PageGuardMut<'_> {
        PageGuardMut::over(HeldPin::new(self, self.fix(pid)))
    }

    /// Like [`Self::guard_mut`] but over [`Self::fix_new`]: no disk read,
    /// the frame starts zeroed and dirty. No other pool call while it is
    /// held, as for [`Self::guard`].
    pub fn guard_new(&self, pid: PageId) -> PageGuardMut<'_> {
        PageGuardMut::over(HeldPin::new(self, self.fix_new(pid)))
    }
}

/// The pin half of a page guard: releases one fix when dropped, marking
/// the frame dirty first if the guard was written through.
struct HeldPin<'a> {
    pool: &'a BufferPool,
    r: FrameRef,
    dirtied: bool,
}

impl<'a> HeldPin<'a> {
    fn new(pool: &'a BufferPool, r: FrameRef) -> Self {
        HeldPin {
            pool,
            r,
            dirtied: false,
        }
    }

    fn frame(&self) -> &'a Frame {
        self.pool.frame(self.r.0)
    }
}

impl Drop for HeldPin<'_> {
    fn drop(&mut self) {
        let mut g = self.pool.lock_ctl();
        g.unpin(self.r.0, self.dirtied);
    }
}

/// RAII read access to one fixed page. Created by [`BufferPool::guard`];
/// holds the frame's **read latch** (shared — concurrent readers of the
/// page proceed in parallel) plus one fix. Fields drop in declaration
/// order, so the latch is released before the pin re-enters `ctl` and
/// the lock hierarchy is never inverted.
pub struct PageGuard<'a> {
    latch: Guard<RwLockReadGuard<'a, PageBox>>,
    _pin: HeldPin<'a>,
}

impl std::ops::Deref for PageGuard<'_> {
    type Target = [u8; PAGE_SIZE];
    fn deref(&self) -> &Self::Target {
        &self.latch
    }
}

/// RAII write access to one fixed page (see [`BufferPool::guard_mut`]).
/// Holds the frame's **write latch**; shared derefs do not dirty the
/// page, mutable derefs do (recorded when the pin is released). Drop
/// order as for [`PageGuard`]: latch first, then the pin.
pub struct PageGuardMut<'a> {
    latch: Guard<RwLockWriteGuard<'a, PageBox>>,
    pin: HeldPin<'a>,
}

impl<'a> PageGuardMut<'a> {
    fn over(pin: HeldPin<'a>) -> Self {
        PageGuardMut {
            latch: pin.frame().write(),
            pin,
        }
    }
}

impl std::ops::Deref for PageGuardMut<'_> {
    type Target = [u8; PAGE_SIZE];
    fn deref(&self) -> &Self::Target {
        &self.latch
    }
}

impl std::ops::DerefMut for PageGuardMut<'_> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        self.pin.dirtied = true;
        &mut self.latch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobstore_simdisk::{AreaId, CostModel, SimDisk};

    fn pool_with_frames(n: usize) -> BufferPool {
        BufferPool::new(
            SimDisk::new(2, CostModel::default()),
            PoolConfig {
                frames: n,
                max_buffered_seg: 4,
            },
        )
    }

    fn pid(p: u32) -> PageId {
        PageId::new(AreaId::META, p)
    }

    impl BufferPool {
        /// What `install_page` replaced, kept for the oracle in `segio`'s
        /// tests: the same install under a `ctl` acquisition of its own.
        pub(crate) fn install_clean(&self, pid: PageId, content: &[u8]) -> FrameRef {
            assert_eq!(content.len(), PAGE_SIZE, "install_clean needs a full page");
            let mut g = self.lock_ctl();
            let idx = self.claim(&mut g, pid, false);
            let mut bytes = self.frame(idx).write();
            bytes.copy_from_slice(content);
            FrameRef(idx)
        }

        /// Every frame's page, dirty bit, pin count and LRU stamp, in frame
        /// order — what the twin-pool tests in `segio` compare.
        pub(crate) fn frame_table(&self) -> Vec<(Option<PageId>, bool, u32, u64)> {
            let g = self.lock_ctl();
            g.frames
                .iter()
                .map(|f| (f.pid, f.dirty, f.pins, f.last_used))
                .collect()
        }
    }

    #[test]
    fn fix_miss_reads_one_page() {
        let pool = pool_with_frames(4);
        let r = pool.fix(pid(3));
        pool.unfix(r);
        assert_eq!(pool.io_stats().read_calls, 1);
        assert_eq!(pool.io_stats().pages_read, 1);
        assert_eq!(pool.pool_stats().misses, 1);
    }

    #[test]
    fn fix_hit_costs_nothing() {
        let pool = pool_with_frames(4);
        let r = pool.fix(pid(3));
        pool.unfix(r);
        let before = pool.io_stats();
        let r = pool.fix(pid(3));
        pool.unfix(r);
        assert_eq!(pool.io_stats(), before);
        assert_eq!(pool.pool_stats().hits, 1);
    }

    #[test]
    fn dirty_page_written_back_on_eviction() {
        let pool = pool_with_frames(2);
        // Dirty both frames so eviction has no clean victim.
        for p in 0..2 {
            let r = pool.fix(pid(p));
            pool.with_page_mut(r, |page| page[0] = 0xAB);
            pool.unfix(r);
        }
        let r = pool.fix(pid(2));
        pool.unfix(r);
        assert!(!pool.contains(pid(0)), "LRU dirty page evicted");
        assert_eq!(pool.pool_stats().eviction_writes, 1);
        let mut out = [0u8; 1];
        pool.disk().peek(AreaId::META, 0, &mut out);
        assert_eq!(out[0], 0xAB);
    }

    #[test]
    fn clean_pages_evicted_before_dirty() {
        let pool = pool_with_frames(2);
        // Frame A: dirty, older.
        let ra = pool.fix(pid(0));
        pool.with_page_mut(ra, |page| page[0] = 1);
        pool.unfix(ra);
        // Frame B: clean, newer.
        let rb = pool.fix(pid(1));
        pool.unfix(rb);
        // Need a victim: the clean page 1 must go even though page 0 is LRU.
        let rc = pool.fix(pid(2));
        pool.unfix(rc);
        assert!(pool.contains(pid(0)), "dirty page should survive");
        assert!(!pool.contains(pid(1)), "clean page should be evicted first");
        assert_eq!(pool.pool_stats().eviction_writes, 0);
    }

    #[test]
    fn pinned_pages_are_never_evicted() {
        let pool = pool_with_frames(2);
        let ra = pool.fix(pid(0)); // keep pinned
        let rb = pool.fix(pid(1));
        pool.unfix(rb);
        let rc = pool.fix(pid(2));
        pool.unfix(rc);
        assert!(pool.contains(pid(0)));
        pool.unfix(ra);
    }

    #[test]
    #[should_panic(expected = "every frame is pinned")]
    fn exhausted_pool_panics() {
        let pool = pool_with_frames(2);
        let _a = pool.fix(pid(0));
        let _b = pool.fix(pid(1));
        let _c = pool.fix(pid(2));
    }

    #[test]
    fn fix_new_skips_disk_read_and_is_dirty() {
        let pool = pool_with_frames(4);
        let r = pool.fix_new(pid(9));
        pool.with_page_mut(r, |page| page[0] = 7);
        pool.unfix(r);
        assert_eq!(pool.io_stats().read_calls, 0);
        pool.flush_page(pid(9));
        assert_eq!(pool.io_stats().write_calls, 1);
        // Second flush is a no-op: the page is now clean.
        pool.flush_page(pid(9));
        assert_eq!(pool.io_stats().write_calls, 1);
    }

    #[test]
    fn discard_drops_without_writeback() {
        let pool = pool_with_frames(4);
        let r = pool.fix_new(pid(5));
        pool.with_page_mut(r, |page| page[0] = 9);
        pool.unfix(r);
        pool.discard(pid(5));
        assert!(!pool.contains(pid(5)));
        assert_eq!(pool.io_stats().write_calls, 0);
        let mut out = [0u8; 1];
        pool.disk().peek(AreaId::META, 5, &mut out);
        assert_eq!(out[0], 0, "discarded content must not reach disk");
    }

    #[test]
    fn flush_all_writes_every_dirty_frame() {
        let pool = pool_with_frames(4);
        for p in 0..3 {
            let r = pool.fix_new(pid(p));
            pool.with_page_mut(r, |page| page[0] = p as u8 + 1);
            pool.unfix(r);
        }
        pool.flush_all();
        assert_eq!(pool.io_stats().write_calls, 3);
        pool.flush_all(); // everything clean now
        assert_eq!(pool.io_stats().write_calls, 3);
    }

    #[test]
    fn scripted_pattern_pins_hit_miss_eviction_counts() {
        // 3-frame pool, scripted page sequence. Every outcome is forced
        // by LRU, so the exact hit/miss/eviction counts are pinned here
        // and in the obs registry.
        lobstore_obs::reset();
        let pool = pool_with_frames(3);
        // Phase 1 — cold: fix 0,1,2 → 3 misses, pool now [0,1,2].
        for p in 0..3 {
            let r = pool.fix(pid(p));
            pool.unfix(r);
        }
        // Phase 2 — warm: fix 0,1,2 again, dirtying each → 3 hits, no
        // clean frame left.
        for p in 0..3 {
            let r = pool.fix(pid(p));
            pool.with_page_mut(r, |page| page[0] = 0xE0 | p as u8);
            pool.unfix(r);
        }
        // Phase 3 — fix 3: miss, and with every frame dirty the LRU dirty
        // page 0 is evicted with a writeback. Pool: [3,1,2].
        let r = pool.fix(pid(3));
        pool.unfix(r);
        // Phase 4 — fix 1: hit. Fix 0: miss; page 3 is the only clean
        // frame, so it is evicted without a writeback, and the re-read
        // page 0 comes back with the content written in phase 2.
        let r = pool.fix(pid(1));
        pool.unfix(r);
        let r = pool.fix(pid(0));
        let byte = pool.with_page(r, |page| page[0]);
        assert_eq!(byte, 0xE0, "writeback survived the round trip");
        pool.unfix(r);
        assert!(!pool.contains(pid(3)), "clean page 3 was the victim");
        let s = pool.pool_stats();
        assert_eq!(s.hits, 4);
        assert_eq!(s.misses, 5);
        assert_eq!(s.eviction_writes, 1, "only the dirty page 0 wrote back");
        // The obs registry mirrors PoolStats and derives the hit ratio.
        assert_eq!(lobstore_obs::counter_value("bufpool.hits"), 4);
        assert_eq!(lobstore_obs::counter_value("bufpool.misses"), 5);
        assert_eq!(lobstore_obs::counter_value("bufpool.eviction_writes"), 1);
        assert_eq!(lobstore_obs::counter_value("bufpool.dirty_writebacks"), 1);
        let ratio = lobstore_obs::gauge_value("bufpool.hit_ratio").unwrap();
        assert!(
            (ratio - 4.0 / 9.0).abs() < 1e-12,
            "4 hits / 9 fixes, got {ratio}"
        );
    }

    #[test]
    fn explicit_flushes_count_dirty_writebacks() {
        lobstore_obs::reset();
        let pool = pool_with_frames(4);
        for p in 0..2 {
            let r = pool.fix_new(pid(p));
            pool.with_page_mut(r, |page| page[0] = 1);
            pool.unfix(r);
        }
        pool.flush_page(pid(0));
        assert_eq!(lobstore_obs::counter_value("bufpool.dirty_writebacks"), 1);
        pool.flush_page(pid(0)); // clean now: no-op
        assert_eq!(lobstore_obs::counter_value("bufpool.dirty_writebacks"), 1);
        pool.flush_all(); // page 1 still dirty
        assert_eq!(lobstore_obs::counter_value("bufpool.dirty_writebacks"), 2);
        assert_eq!(lobstore_obs::counter_value("bufpool.eviction_writes"), 0);
    }

    #[test]
    fn guards_release_their_fix_on_drop() {
        let pool = pool_with_frames(2);
        {
            let mut g = pool.guard_new(pid(7));
            g[0] = 0x42;
            assert_eq!(g[0], 0x42);
        } // drop releases the pin
        assert_eq!(pool.available_frames(), 2, "no pin left behind");
        let g = pool.guard(pid(7));
        assert_eq!(g[0], 0x42);
        drop(g);
        // The dirty bit set through the write guard reaches disk.
        pool.flush_page(pid(7));
        let mut out = [0u8; PAGE_SIZE];
        pool.disk()
            .peek(lobstore_simdisk::AreaId::META, 7, &mut out);
        assert_eq!(out[0], 0x42);
    }

    #[test]
    fn read_guard_does_not_dirty_the_page() {
        let pool = pool_with_frames(2);
        let g = pool.guard(pid(1));
        assert_eq!(g[0], 0);
        drop(g);
        pool.flush_page(pid(1));
        assert_eq!(pool.io_stats().write_calls, 0, "clean page never written");
    }

    #[test]
    fn install_clean_is_pinned_resident_and_clean() {
        let pool = pool_with_frames(2);
        let content = [0x5Au8; PAGE_SIZE];
        let r = pool.install_clean(pid(3), &content);
        assert_eq!(pool.with_page(r, |page| page[100]), 0x5A);
        assert!(pool.contains(pid(3)));
        pool.unfix(r);
        pool.flush_page(pid(3));
        assert_eq!(pool.io_stats().write_calls, 0, "installed page is clean");
        // No read was charged either: content came from the caller.
        assert_eq!(pool.io_stats().read_calls, 0);
    }

    #[test]
    fn lru_order_updated_on_hit() {
        let pool = pool_with_frames(2);
        let ra = pool.fix(pid(0));
        pool.unfix(ra);
        let rb = pool.fix(pid(1));
        pool.unfix(rb);
        // Touch page 0 so page 1 becomes LRU.
        let ra = pool.fix(pid(0));
        pool.unfix(ra);
        let rc = pool.fix(pid(2));
        pool.unfix(rc);
        assert!(pool.contains(pid(0)));
        assert!(!pool.contains(pid(1)));
    }

    #[test]
    fn a_held_frame_counts_nothing_and_is_never_a_victim() {
        let pool = pool_with_frames(3);
        for p in 0..3 {
            let r = pool.fix(pid(p));
            pool.unfix(r);
        }
        // Page 0 is the least recently used clean frame.
        let (table, stats, io) = (pool.frame_table(), pool.pool_stats(), pool.io_stats());
        assert_eq!(pool.hold(pid(0), 3), None, "a hold leaves two frames");
        assert_eq!(pool.frame_table(), table, "a refused hold leaves no pin");
        let held = pool.hold(pid(0), 2).expect("page 0 is resident");
        assert_eq!(pool.pool_stats(), stats, "holding counts no hit");
        assert_eq!(pool.io_stats(), io);
        let mut pinned = table.clone();
        pinned[held.0].2 += 1;
        assert_eq!(pool.frame_table(), pinned, "only the pin count moves");
        assert_eq!(pool.available_frames(), 2);

        let r = pool.fix(pid(3));
        pool.unfix(r);
        assert!(pool.contains(pid(0)), "the held frame is no victim");
        assert!(!pool.contains(pid(1)), "the next LRU clean frame goes");

        assert_eq!(pool.hold(pid(1), 0), None, "a missing page is not held");
        assert_eq!(
            pool.io_stats().read_calls,
            io.read_calls + 1,
            "hold reads nothing"
        );

        pool.unfix(held);
        assert_eq!(pool.available_frames(), 3, "unfix releases the hold");
        let r = pool.fix(pid(4));
        pool.unfix(r);
        assert!(
            !pool.contains(pid(0)),
            "released, page 0 is the LRU victim again"
        );
    }

    #[test]
    fn shared_read_guards_coexist() {
        // One thread takes a read guard on a page another holds one on.
        let pool = pool_with_frames(4);
        for seed in 0..8 {
            let hold = || pool.guard(pid(1));
            let body = || assert_eq!(pool.guard(pid(1))[0], 0);
            assert_eq!(sync::while_held(seed, hold, body), Ok(()));
        }
        assert_eq!(pool.available_frames(), 4, "every pin released");
    }

    #[test]
    fn concurrent_guards_on_distinct_pages() {
        let pool = pool_with_frames(8);
        for p in 0..4u32 {
            let r = pool.fix_new(pid(p));
            pool.with_page_mut(r, |page| page[0] = p as u8 + 1);
            pool.unfix(r);
        }
        std::thread::scope(|s| {
            for p in 0..4u32 {
                let pool = &pool;
                s.spawn(move || {
                    for _ in 0..100 {
                        let g = pool.guard(pid(p));
                        assert_eq!(g[0], p as u8 + 1);
                    }
                });
            }
        });
        assert_eq!(pool.available_frames(), 8);
        assert_eq!(
            pool.pool_stats().misses,
            0,
            "all pages resident: guard fixes must all hit"
        );
    }

    /// `body`'s panic message.
    fn panic_of(body: impl FnOnce()) -> String {
        let payload =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)).expect_err("body panics");
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(payload) => payload.downcast_ref::<&str>().unwrap_or(&"").to_string(),
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    fn a_second_guard_under_a_write_guard_is_an_order_violation() {
        // A guard holds its frame latch, and every pool call takes `ctl`,
        // an earlier rank: a thread that holds a guard makes no other pool
        // call, so it cannot wait for a frame that waits for `ctl`.
        let pool = pool_with_frames(4);
        let err = panic_of(|| {
            let mut a = pool.guard_mut(pid(0));
            a[0] = 1;
            drop(pool.guard_mut(pid(16)));
        });
        assert!(
            err.starts_with("lock order violation: holds [FrameBytes")
                && err.contains("wants PoolCtl"),
            "{err}"
        );
        assert_eq!(
            pool.available_frames(),
            4,
            "the unwound guard released its pin"
        );
    }

    #[test]
    fn fix_under_a_write_guard_is_reported_and_under_a_pin_evicts() {
        let pool = pool_with_frames(2);
        let r = pool.fix(pid(16));
        pool.unfix(r); // resident, unpinned: the only possible victim
        #[cfg(debug_assertions)]
        {
            let err = panic_of(|| {
                let _g = pool.guard_mut(pid(0));
                pool.fix(pid(5));
            });
            assert!(err.starts_with("lock order violation"), "{err}");
        }
        // Pinned by a `FrameRef`, which holds no latch, page 0 stays put
        // while a fix evicts the other frame.
        let pinned = pool.fix(pid(0));
        pool.with_page_mut(pinned, |page| page[0] = 9);
        let r = pool.fix(pid(5));
        assert!(!pool.contains(pid(16)), "page 16 was evicted");
        pool.unfix(r);
        assert_eq!(
            pool.with_page(pinned, |page| page[0]),
            9,
            "the pinned frame was left alone"
        );
        pool.unfix(pinned);
    }

    #[test]
    fn frame_reuse_under_concurrent_access() {
        // 64 pages through 8 frames from 4 threads: frames change pages
        // constantly while other threads read and write. If the pin
        // protocol broke, an in-place refill would hand a reader another
        // page's bytes. Byte 0 names the page, the last byte is its
        // complement, byte 1 counts the writes.
        const PAGES: u32 = 64;
        const THREADS: u64 = 4;
        const ACCESSES: u64 = 20_000;
        let pool = pool_with_frames(8);
        for p in 0..PAGES {
            let mut page = [0u8; PAGE_SIZE];
            page[0] = p as u8;
            page[PAGE_SIZE - 1] = !(p as u8);
            pool.disk().poke(AreaId::META, p, &page);
        }
        let own = |page: &[u8; PAGE_SIZE], p: u32| {
            assert_eq!((page[0], page[PAGE_SIZE - 1]), (p as u8, !(p as u8)));
        };
        let mut bumps = [0u32; PAGES as usize];
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let pool = &pool;
                    s.spawn(move || {
                        let mut mine = [0u32; PAGES as usize];
                        let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ t;
                        for _ in 0..ACCESSES {
                            // xorshift64
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                            let p = (x >> 8) as u32 % PAGES;
                            match x % 3 {
                                0 => {
                                    let r = pool.fix(pid(p));
                                    pool.with_page(r, |page| own(page, p));
                                    pool.unfix(r);
                                }
                                1 => own(&pool.guard(pid(p)), p),
                                _ => {
                                    let mut g = pool.guard_mut(pid(p));
                                    own(&g, p);
                                    g[1] = g[1].wrapping_add(1);
                                    mine[p as usize] += 1;
                                }
                            }
                        }
                        mine
                    })
                })
                .collect();
            for w in workers {
                for (sum, n) in bumps.iter_mut().zip(w.join().unwrap()) {
                    *sum += n;
                }
            }
        });
        let stats = pool.pool_stats();
        assert_eq!(stats.hits + stats.misses, THREADS * ACCESSES);
        assert_eq!(pool.available_frames(), 8);
        pool.flush_all();
        for p in 0..PAGES {
            let mut page = [0u8; PAGE_SIZE];
            pool.disk().peek(AreaId::META, p, &mut page);
            own(&page, p);
            assert_eq!(page[1], bumps[p as usize] as u8, "page {p} lost a write");
        }
    }

    #[test]
    fn buffered_reads_under_concurrent_access() {
        // The sibling of `frame_reuse_under_concurrent_access` for the
        // buffered segment read, which holds `ctl` across its disk reads
        // and frame latches as `fix` does: under seeded schedules, two
        // threads read 1–4 pages, aligned and clipped, while two fix and
        // write through guards. Every byte of page `p` is `p`, except the
        // last (`!p`) and byte 1, which counts the writes.
        const PAGES: u32 = 64;
        const ACCESSES: u64 = 150;
        let own = |at: usize, byte: u8| {
            let p = (at / PAGE_SIZE) as u8;
            match at % PAGE_SIZE {
                1 => {}
                o if o == PAGE_SIZE - 1 => assert_eq!(byte, !p, "byte {at}"),
                _ => assert_eq!(byte, p, "byte {at}"),
            }
        };
        for seed in 0..4 {
            let pool = pool_with_frames(8);
            for p in 0..PAGES {
                let mut page = [p as u8; PAGE_SIZE];
                (page[1], page[PAGE_SIZE - 1]) = (0, !(p as u8));
                pool.disk().poke(AreaId::META, p, &page);
            }
            let bumps: Vec<_> = (0..PAGES)
                .map(|_| std::sync::atomic::AtomicU8::new(0))
                .collect();
            let worker = |t: u64| {
                let (pool, bumps) = (&pool, &bumps);
                Box::new(move || {
                    let mut out = vec![0u8; 4 * PAGE_SIZE];
                    let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ t ^ (seed << 8);
                    for _ in 0..ACCESSES {
                        // xorshift64
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let p = (x >> 8) as u32 % PAGES;
                        if t < 2 {
                            // Aligned whole pages, or a clipped range.
                            let pages = 1 + (x >> 20) as usize % 4;
                            let (skip, len) = match (x >> 24) % 3 {
                                0 => (0, pages * PAGE_SIZE),
                                1 => (0, 100),
                                _ => ((x >> 28) as usize % PAGE_SIZE, pages * PAGE_SIZE),
                            };
                            let off = p as usize * PAGE_SIZE + skip;
                            let len = len.min(PAGES as usize * PAGE_SIZE - off);
                            pool.read_segment(AreaId::META, 0, off as u64, &mut out[..len]);
                            for (i, &b) in out[..len].iter().enumerate() {
                                own(off + i, b);
                            }
                        } else if x.is_multiple_of(2) {
                            let r = pool.fix(pid(p));
                            pool.with_page(r, |page| own(p as usize * PAGE_SIZE, page[0]));
                            pool.unfix(r);
                        } else {
                            let mut g = pool.guard_mut(pid(p));
                            g[1] = g[1].wrapping_add(1);
                            bumps[p as usize].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    }
                }) as sync::Thread
            };
            let out = sync::schedule(seed, (0..4).map(worker).collect());
            assert!(out.iter().all(Result::is_ok), "seed {seed}: {out:?}");
            assert_eq!(pool.available_frames(), 8);
            pool.flush_all();
            for p in 0..PAGES {
                let mut page = [0u8; PAGE_SIZE];
                pool.disk().peek(AreaId::META, p, &mut page);
                let want = bumps[p as usize].load(std::sync::atomic::Ordering::Relaxed);
                assert_eq!(page[1], want, "seed {seed}: page {p} lost a write");
            }
        }
    }
}

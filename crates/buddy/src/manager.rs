//! The buddy-space manager: spaces, directory pages, superdirectory.

use lobstore_bufpool::BufferPool;
use lobstore_simdisk::{bytes, cast, AreaId, PageId};

use crate::bitmap::{Bitmap, BuddyBitmap};
use crate::Extent;

/// Magic number identifying an initialized buddy-space directory page.
const DIR_MAGIC: u32 = 0xB0DD_11E5;
/// Byte offset of the free bitmap within the directory page.
const BITMAP_OFF: usize = 64;

/// Configuration of a [`BuddyManager`].
#[derive(Copy, Clone, Debug)]
pub struct BuddyConfig {
    /// The database area this manager owns.
    pub area: AreaId,
    /// Data pages per buddy space (a power of two ≥ 64). With 4 KB pages
    /// the default of 16384 gives 64 MB spaces, matching the paper's scale
    /// (§3.1: ≈ 63.5 MB spaces supporting segments up to 32 MB).
    pub space_pages: u32,
}

impl BuddyConfig {
    /// Validate and build a configuration.
    ///
    /// # Panics
    /// If `space_pages` is not a power of two ≥ 64.
    pub fn new(area: AreaId, space_pages: u32) -> Self {
        assert!(
            space_pages.is_power_of_two() && space_pages >= 64,
            "space_pages must be a power of two ≥ 64"
        );
        BuddyConfig { area, space_pages }
    }
}

impl Default for BuddyConfig {
    fn default() -> Self {
        BuddyConfig::new(AreaId::LEAF, 16 * 1024)
    }
}

/// Fragmentation summary of one area's buddy spaces, computed by
/// [`BuddyManager::frag_stats`] from *peeked* (cost-free) directory
/// pages — health sampling must not perturb the simulated I/O record.
///
/// Runs are maximal runs of free pages within one space, irrespective of
/// buddy alignment: they measure what a future contiguous allocation
/// could physically get, which is what fragmentation degrades. Runs never
/// cross a space boundary (the next space's directory page sits between).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FragStats {
    /// Buddy spaces that exist.
    pub spaces: u32,
    /// Data pages per space.
    pub space_pages: u32,
    /// Pages currently allocated, recounted from the directory bitmaps.
    pub allocated_pages: u64,
    /// Pages currently free, recounted from the directory bitmaps.
    pub free_pages: u64,
    /// Length of the longest free run (0 when no space has free pages).
    pub largest_free_run: u32,
    /// Length of every maximal free run, in on-disk order.
    pub free_runs: Vec<u32>,
}

impl FragStats {
    /// Total data pages across all spaces.
    pub fn total_pages(&self) -> u64 {
        u64::from(self.spaces) * u64::from(self.space_pages)
    }

    /// Fraction of data pages allocated (0 when no spaces exist).
    pub fn utilization(&self) -> f64 {
        if self.total_pages() == 0 {
            0.0
        } else {
            // f64 division behind a zero guard; cannot panic.
            // loblint: allow(panic-path)
            self.allocated_pages as f64 / self.total_pages() as f64
        }
    }

    /// External fragmentation in `[0, 1]`: `1 − largest_free_run /
    /// free_pages`. 0 means all free storage is one contiguous run (or
    /// there is none); values near 1 mean free storage is shattered into
    /// runs far smaller than their total.
    pub fn frag_ratio(&self) -> f64 {
        if self.free_pages == 0 {
            0.0
        } else {
            // f64 division behind a zero guard; cannot panic.
            // loblint: allow(panic-path)
            1.0 - f64::from(self.largest_free_run) / self.free_pages as f64
        }
    }
}

/// Disk-space manager for one database area.
///
/// All page numbers handed out are absolute page numbers in the area; the
/// manager interleaves a one-page directory before each space:
///
/// ```text
/// page 0: dir of space 0 | pages 1..=S: data | page S+1: dir of space 1 | ...
/// ```
pub struct BuddyManager {
    cfg: BuddyConfig,
    /// Number of spaces created so far. Spaces are created on demand.
    n_spaces: u32,
    /// Superdirectory (§3.1): per space, an *upper bound* on the largest
    /// free buddy order, or `None` if the space is known to be full.
    /// Corrected lazily when a guess proves wrong.
    superdir: Vec<Option<u32>>,
    /// Pages currently allocated (for utilization accounting).
    allocated: u64,
}

impl BuddyManager {
    /// A manager over a fresh area with no spaces yet.
    pub fn new(cfg: BuddyConfig) -> Self {
        BuddyManager {
            cfg,
            n_spaces: 0,
            superdir: Vec::new(),
            allocated: 0,
        }
    }

    /// Attach to an area that already contains buddy spaces (restart /
    /// recovery path). Directory pages are discovered by their magic at
    /// the fixed space positions and read once to recompute the allocated
    /// page count; the superdirectory starts out *optimistic* — §3.1:
    /// "Initially, it indicates that each buddy space contains a free
    /// segment of the maximum size possible. This information may be
    /// erroneous" — and corrects itself on first use.
    pub fn open(cfg: BuddyConfig, pool: &mut BufferPool) -> Self {
        let mut mgr = BuddyManager::new(cfg);
        loop {
            let dir = PageId::new(cfg.area, mgr.dir_page(mgr.n_spaces));
            // Probe cost-free first: a missing space reads as zeroes. A
            // directory whose magic or size field does not match is
            // treated as "no more spaces" rather than a panic, so opening
            // a damaged image stays total — the consistency checker then
            // reports every page beyond the truncation point as dangling.
            let mut probe = [0u8; lobstore_simdisk::PAGE_SIZE];
            pool.peek_page(dir, &mut probe);
            if mgr.parse_dir(&probe).is_err() {
                break;
            }
            // Real (costed) read of the directory, as a restart would do.
            let r = pool.fix(dir);
            let parsed = pool.with_page(r, |page| {
                let bm = mgr.parse_dir(page)?;
                Ok::<_, Corrupt>((bm.free_pages(), bm.max_order()))
            });
            pool.unfix(r);
            let Ok((free, max_order)) = parsed else {
                break;
            };
            mgr.allocated += u64::from(cfg.space_pages.saturating_sub(free));
            mgr.superdir.push(Some(max_order));
            mgr.n_spaces += 1;
        }
        mgr
    }

    /// The configuration this manager was built with.
    pub fn config(&self) -> BuddyConfig {
        self.cfg
    }

    /// Total pages currently allocated through this manager.
    pub fn allocated_pages(&self) -> u64 {
        self.allocated
    }

    /// Number of buddy spaces created so far.
    pub fn n_spaces(&self) -> u32 {
        self.n_spaces
    }

    /// The superdirectory's current hint for `space` (testing aid).
    /// Spaces that were never created read as `None` (no free block).
    pub fn superdir_hint(&self, space: u32) -> Option<u32> {
        self.superdir.get(space as usize).copied().flatten()
    }

    fn dir_page(&self, space: u32) -> u32 {
        // Space count x (space size + 1 directory page) fits the 32-bit
        // page-number space by construction (`BuddyConfig` validates).
        // loblint: allow(arith-overflow)
        space * (self.cfg.space_pages + 1)
    }

    fn data_base(&self, space: u32) -> u32 {
        self.dir_page(space) + 1
    }

    /// Which space an absolute page number belongs to.
    fn space_of(&self, abs_page: u32) -> u32 {
        // The stride `space_pages + 1` is at least 1, so the division
        // cannot trap; the sum fits u32 (config-validated).
        // loblint: allow(arith-overflow, panic-path)
        abs_page / (self.cfg.space_pages + 1)
    }

    /// Allocate `n_pages` physically contiguous pages.
    ///
    /// The covering power-of-two buddy block is located; only the first
    /// `n_pages` of it are marked used (the unused tail is trimmed back to
    /// free, "down to the precision of one block").
    ///
    /// # Panics
    /// If `n_pages` is 0 or exceeds the space size, or a directory page
    /// it visits is corrupt.
    pub fn allocate(&mut self, pool: &mut BufferPool, n_pages: u32) -> Extent {
        assert!(n_pages > 0, "zero-page allocation");
        assert!(
            n_pages <= self.cfg.space_pages,
            "segment of {n_pages} pages exceeds buddy space size {}",
            self.cfg.space_pages
        );
        let order = ceil_log2(n_pages);
        // Probe existing spaces whose superdirectory hint is promising.
        for s in 0..self.n_spaces {
            let Some(hint) = self.superdir.get(s as usize).copied().flatten() else {
                continue;
            };
            if hint < order {
                continue;
            }
            if let Some(ext) = self.try_alloc_in_space(pool, s, order, n_pages) {
                self.allocated += u64::from(n_pages);
                return ext;
            }
            // The hint was wrong; try_alloc_in_space corrected it (§3.1:
            // "the first wrong guess ... will correct the superdirectory").
        }
        // No existing space can satisfy the request: open a new one.
        let s = self.create_space(pool);
        let ext = match self.try_alloc_in_space(pool, s, order, n_pages) {
            Some(ext) => ext,
            None => unreachable!("fresh space must satisfy any in-range allocation"),
        };
        self.allocated += u64::from(n_pages);
        ext
    }

    /// Visit one space's directory and try to carve out the request, in
    /// place on the fixed page; a probe that finds no block only reads it.
    /// Updates the superdirectory with the space's true state either way.
    fn try_alloc_in_space(
        &mut self,
        pool: &mut BufferPool,
        space: u32,
        order: u32,
        n_pages: u32,
    ) -> Option<Extent> {
        let dir = PageId::new(self.cfg.area, self.dir_page(space));
        let r = pool.fix(dir);
        let probe = pool.with_page(r, |page| {
            let bm = or_panic(self.parse_dir(page));
            bm.find_block(order).ok_or_else(|| bm.max_free_order())
        });
        let (result, hint) = match probe {
            Ok(block) => {
                let hint = pool.with_page_mut(r, |page| {
                    let mut bm = or_panic(self.parse_dir_mut(page));
                    bm.mark_used(block, n_pages);
                    bm.max_free_order()
                });
                let start = self.data_base(space) + block;
                (Some(Extent::new(self.cfg.area, start, n_pages)), hint)
            }
            Err(hint) => (None, hint),
        };
        pool.unfix(r);
        if let Some(slot) = self.superdir.get_mut(space as usize) {
            *slot = hint;
        }
        result
    }

    /// Edit one space's directory bitmap in place on its fixed page, then
    /// set the superdirectory to the space's true state.
    fn edit_dir<R>(
        &mut self,
        pool: &mut BufferPool,
        space: u32,
        edit: impl FnOnce(&mut Bitmap<&mut [u8]>) -> R,
    ) -> R {
        let dir = PageId::new(self.cfg.area, self.dir_page(space));
        let r = pool.fix(dir);
        let (out, hint) = pool.with_page_mut(r, |page| {
            let mut bm = or_panic(self.parse_dir_mut(page));
            (edit(&mut bm), bm.max_free_order())
        });
        pool.unfix(r);
        if let Some(slot) = self.superdir.get_mut(space as usize) {
            *slot = hint;
        }
        out
    }

    /// Free every page of `ext`. Partial frees of a previous allocation
    /// are allowed; the extent must not cross a space boundary.
    ///
    /// # Panics
    /// If the extent spans spaces, covers a directory page, its space's
    /// directory page is corrupt, or (in debug builds) it frees a page
    /// that is not allocated.
    pub fn free(&mut self, pool: &mut BufferPool, ext: Extent) {
        assert_eq!(ext.area, self.cfg.area, "extent from a different area");
        if ext.pages == 0 {
            return;
        }
        let space = self.space_of(ext.start);
        assert_eq!(
            space,
            self.space_of(ext.end() - 1),
            "extent crosses a buddy-space boundary"
        );
        assert!(space < self.n_spaces, "extent beyond allocated spaces");
        let base = self.data_base(space);
        assert!(ext.start >= base, "extent covers a directory page");
        let rel = ext.start - base;

        self.edit_dir(pool, space, |bm| bm.mark_free(rel, ext.pages));
        // Drop stale buffered copies of freed pages.
        pool.discard_range(self.cfg.area, ext.start, ext.pages);
        self.allocated -= u64::from(ext.pages);
    }

    /// Adopt `ext` as allocated at exactly its given position — the
    /// allocation-log **replay** path (core DESIGN.md §16). Recovery
    /// rebuilds a fresh manager purely from the pages the committed roots
    /// reach, so placement is dictated, not searched for: spaces up to
    /// the extent's space are created on demand (their directories are
    /// re-initialized, overwriting whatever a crash left on disk), and
    /// the extent's pages are marked used. Pages already marked used stay
    /// used, which makes replay idempotent per page; only pages actually
    /// flipped free → used are added to the allocated counter.
    ///
    /// # Panics
    /// If the extent is from another area, spans spaces, or covers a
    /// directory page.
    pub fn adopt(&mut self, pool: &mut BufferPool, ext: Extent) {
        assert_eq!(ext.area, self.cfg.area, "extent from a different area");
        if ext.pages == 0 {
            return;
        }
        let space = self.space_of(ext.start);
        assert_eq!(
            space,
            self.space_of(ext.end() - 1),
            "extent crosses a buddy-space boundary"
        );
        while self.n_spaces <= space {
            self.create_space(pool);
        }
        let base = self.data_base(space);
        assert!(ext.start >= base, "extent covers a directory page");
        let rel = ext.start - base;

        let flipped = self.edit_dir(pool, space, |bm| bm.claim(rel, ext.pages));
        self.allocated += u64::from(flipped);
    }

    /// Free whichever pages of `ext` are allocated: [`Self::adopt`]'s
    /// counterpart for recovery, which knows a free is durable but not
    /// whether the directory reached disk before or after it. Pages
    /// already free stay free, and a space never created holds nothing.
    ///
    /// # Panics
    /// If the extent is from another area, spans spaces, or covers a
    /// directory page.
    pub fn release(&mut self, pool: &mut BufferPool, ext: Extent) {
        assert_eq!(ext.area, self.cfg.area, "extent from a different area");
        if ext.pages == 0 {
            return;
        }
        let space = self.space_of(ext.start);
        assert_eq!(
            space,
            self.space_of(ext.end() - 1),
            "extent crosses a buddy-space boundary"
        );
        if space >= self.n_spaces {
            return;
        }
        let base = self.data_base(space);
        assert!(ext.start >= base, "extent covers a directory page");
        let rel = ext.start - base;

        let flipped = self.edit_dir(pool, space, |bm| bm.unclaim(rel, ext.pages));
        pool.discard_range(self.cfg.area, ext.start, ext.pages);
        self.allocated -= u64::from(flipped);
    }

    /// Every currently allocated page range, as maximal extents in
    /// ascending order — the allocator's view for consistency checking.
    /// Reads each space's directory through the pool (costed, like any
    /// directory access).
    pub fn allocated_ranges(&self, pool: &mut BufferPool) -> Vec<Extent> {
        let mut out = Vec::new();
        for s in 0..self.n_spaces {
            let dir = PageId::new(self.cfg.area, self.dir_page(s));
            let r = pool.fix(dir);
            pool.with_page(r, |page| {
                out.extend(self.used_extents(s, &or_panic(self.parse_dir(page))))
            });
            pool.unfix(r);
        }
        out
    }

    /// The allocated runs of space `s`'s bitmap `bm`, as absolute extents.
    fn used_extents<'a>(
        &'a self,
        s: u32,
        bm: &'a Bitmap<&[u8]>,
    ) -> impl Iterator<Item = Extent> + 'a {
        let base = self.data_base(s);
        bm.runs(false)
            .map(move |(start, n)| Extent::new(self.cfg.area, base + start, n))
    }

    /// Self-check, read cost-free through [`BufferPool::peek_page`] like
    /// [`Self::frag_stats`]: every space directory carries this manager's
    /// magic and space size, the allocated-page counter equals the
    /// directories' used pages, and no superdirectory hint *under*-reports
    /// a space (hints may be optimistic, §3.1, but one below the true
    /// maximum free order would hide free storage forever). On success,
    /// the allocation map [`Self::allocated_ranges`] reads at a cost.
    pub fn verify(&self, pool: &BufferPool) -> Result<Vec<Extent>, String> {
        let mut out = Vec::new();
        let mut used_total = 0u64;
        for s in 0..self.n_spaces {
            let mut page = [0u8; lobstore_simdisk::PAGE_SIZE];
            pool.peek_page(PageId::new(self.cfg.area, self.dir_page(s)), &mut page);
            let bm = self
                .parse_dir(&page)
                .map_err(|Corrupt(what)| format!("space {s}: {what}"))?;
            let used = self.cfg.space_pages.saturating_sub(bm.free_pages());
            used_total = used_total.saturating_add(u64::from(used));
            out.extend(self.used_extents(s, &bm));
            match (self.superdir_hint(s), bm.max_free_order()) {
                (None, Some(order)) => {
                    return Err(format!(
                        "space {s}: superdirectory says full but an order-{order} block is free"
                    ));
                }
                (Some(hint), Some(order)) if hint < order => {
                    return Err(format!(
                        "space {s}: superdirectory hint {hint} below actual max free order {order}"
                    ));
                }
                _ => {}
            }
        }
        if used_total != self.allocated {
            return Err(format!(
                "allocated counter {} disagrees with directory bitmaps ({used_total} pages used)",
                self.allocated
            ));
        }
        Ok(out)
    }

    /// Fragmentation summary of every space, read *cost-free* through
    /// [`BufferPool::peek_page`] (newest resident copy, else disk). This
    /// is the health sampler's data source: calling it must leave
    /// `IoStats` untouched, so degradation can be measured without the
    /// measurement itself showing up in the cost model. Core's
    /// `verify::tests::the_walk_is_clean_and_costs_nothing` holds
    /// `Db::sample_health`, which calls this, to no `IoStats`,
    /// `PoolStats` or trace event.
    pub fn frag_stats(&self, pool: &BufferPool) -> FragStats {
        let mut st = FragStats {
            spaces: self.n_spaces,
            space_pages: self.cfg.space_pages,
            ..FragStats::default()
        };
        for s in 0..self.n_spaces {
            let dir = PageId::new(self.cfg.area, self.dir_page(s));
            let mut probe = [0u8; lobstore_simdisk::PAGE_SIZE];
            pool.peek_page(dir, &mut probe);
            let bm = or_panic(self.parse_dir(&probe));
            st.free_pages = st.free_pages.saturating_add(u64::from(bm.free_pages()));
            st.free_runs.extend(bm.runs(true).map(|(_, n)| n));
        }
        st.allocated_pages = st.total_pages().saturating_sub(st.free_pages);
        st.largest_free_run = st.free_runs.iter().copied().max().unwrap_or(0);
        st
    }

    fn create_space(&mut self, pool: &mut BufferPool) -> u32 {
        let s = self.n_spaces;
        self.n_spaces += 1;
        let dir = PageId::new(self.cfg.area, self.dir_page(s));
        let r = pool.fix_new(dir);
        let bm = BuddyBitmap::all_free(self.cfg.space_pages);
        pool.with_page_mut(r, |page| {
            put_u32(page, 0, DIR_MAGIC);
            put_u32(page, 4, self.cfg.space_pages);
            bm.write_bytes(page.get_mut(BITMAP_OFF..).unwrap_or_default());
        });
        pool.unfix(r);
        self.superdir.push(Some(bm.max_order()));
        s
    }

    /// The bitmap of a directory page, where it lies: [`Corrupt`] unless
    /// the page carries this manager's magic and space size and is long
    /// enough to hold that bitmap. Every bit pattern past that is a
    /// directory.
    fn parse_dir<'a>(&self, page: &'a [u8]) -> Result<Bitmap<&'a [u8]>, Corrupt> {
        let pages = self.check_dir(page)?;
        Ok(Bitmap::over(
            page.get(BITMAP_OFF..).unwrap_or_default(),
            pages,
        ))
    }

    /// [`Self::parse_dir`] for editing the page in place.
    fn parse_dir_mut<'a>(&self, page: &'a mut [u8]) -> Result<Bitmap<&'a mut [u8]>, Corrupt> {
        let pages = self.check_dir(page)?;
        Ok(Bitmap::over(
            page.get_mut(BITMAP_OFF..).unwrap_or_default(),
            pages,
        ))
    }

    fn check_dir(&self, page: &[u8]) -> Result<u32, Corrupt> {
        if dir_u32(page, 0) != DIR_MAGIC {
            return Err(Corrupt("directory magic corrupted"));
        }
        let pages = self.cfg.space_pages;
        if dir_u32(page, 4) != pages {
            return Err(Corrupt("directory space-size field mismatch"));
        }
        let bitmap_end = BITMAP_OFF.saturating_add(cast::u32_to_usize(pages / 8));
        if page.len() < bitmap_end {
            return Err(Corrupt("directory page too short for its bitmap"));
        }
        Ok(pages)
    }
}

/// What is wrong with a page that does not hold this manager's directory.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct Corrupt(&'static str);

/// The bitmap of a directory page on a path that cannot return an error
/// yet (`allocate`, `free` and the cost-free recounts): a corrupt page
/// panics there, naming what is wrong with it.
fn or_panic<B>(dir: Result<Bitmap<B>, Corrupt>) -> Bitmap<B> {
    match dir {
        Ok(bm) => bm,
        Err(Corrupt(what)) => panic!("corrupt buddy directory page: {what}"),
    }
}

/// Smallest `k` with `2^k ≥ n` (n ≥ 1).
fn ceil_log2(n: u32) -> u32 {
    32 - (n - 1).leading_zeros()
}

/// Read the little-endian `u32` at byte `at`; a truncated page reads
/// as 0, which callers reject as a bad magic / size field.
fn dir_u32(page: &[u8], at: usize) -> u32 {
    bytes::le_u32(page.get(at..at + 4).unwrap_or(&[0u8; 4]))
}

/// Write `v` little-endian at byte `at`. Pages are always `PAGE_SIZE`,
/// so the write never truncates in practice.
fn put_u32(page: &mut [u8], at: usize, v: u32) {
    for (dst, src) in page.iter_mut().skip(at).zip(v.to_le_bytes()) {
        *dst = src;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobstore_bufpool::PoolConfig;
    use lobstore_simdisk::{CostModel, SimDisk, PAGE_SIZE as PAGE};

    fn setup(space_pages: u32) -> (BuddyManager, BufferPool) {
        let pool = BufferPool::new(SimDisk::new(2, CostModel::default()), PoolConfig::default());
        let mgr = BuddyManager::new(BuddyConfig::new(AreaId::LEAF, space_pages));
        (mgr, pool)
    }

    /// Decode `page` as `mgr`'s directory: `Corrupt` unless its header is
    /// `mgr`'s, and an `Ok` bitmap agrees with the page's bytes — it
    /// re-encodes to them, counts their set bits as free, and every block
    /// its search finds is free — in place and for editing alike.
    fn check_dir_decode(mgr: &BuddyManager, page: &[u8]) {
        let pages = mgr.cfg.space_pages;
        let header_ok = dir_u32(page, 0) == DIR_MAGIC && dir_u32(page, 4) == pages;
        let bm = match mgr.parse_dir(page) {
            Err(Corrupt(what)) => {
                assert!(!header_ok, "a directory header refused: {what}");
                assert!(mgr.parse_dir_mut(&mut page.to_vec()).is_err());
                return;
            }
            Ok(bm) => bm,
        };
        assert!(header_ok);
        let stored = &page[BITMAP_OFF..BITMAP_OFF + bm.byte_len()];
        let mut again = vec![0u8; bm.byte_len()];
        bm.write_bytes(&mut again);
        assert_eq!(again, stored);
        let set: u32 = stored.iter().map(|b| b.count_ones()).sum();
        assert_eq!(bm.free_pages(), set);
        for order in 0..=bm.max_order() {
            if let Some(block) = bm.find_block(order) {
                assert!(bm.run_free(block, 1 << order), "order {order} at {block}");
            }
        }
        let free_order = bm.max_free_order();
        let mut copy = page.to_vec();
        let mut edit = mgr.parse_dir_mut(&mut copy).unwrap();
        assert_eq!(edit.max_free_order(), free_order);
        if let Some(block) = edit.find_block(0) {
            edit.mark_used(block, 1);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: if cfg!(debug_assertions) { 64 } else { 256 },
            ..proptest::prelude::ProptestConfig::default()
        })]
        /// The directory decoder is total over arbitrary pages, pages with
        /// a valid header and arbitrary bitmap bytes, valid directories and
        /// valid directories with bits flipped: a consistent `Ok` or
        /// `Corrupt`, never a panic.
        #[test]
        fn directories_decode_totally(
            (noise, used, flips) in (
                proptest::collection::vec(proptest::prelude::any::<u8>(), PAGE..PAGE + 1),
                proptest::collection::vec((proptest::prelude::any::<u32>(), 1u32..64), 0..8),
                proptest::collection::vec(proptest::prelude::any::<u32>(), 1..8),
            )
        ) {
            for space_pages in [64, 16 * 1024] {
                let mgr = BuddyManager::new(BuddyConfig::new(AreaId::LEAF, space_pages));
                check_dir_decode(&mgr, &noise);
                let mut page = noise.clone();
                put_u32(&mut page, 0, DIR_MAGIC);
                put_u32(&mut page, 4, space_pages);
                check_dir_decode(&mgr, &page);
                let mut bm = BuddyBitmap::all_free(space_pages);
                for &(start, n) in &used {
                    let start = start % (space_pages - n);
                    bm.claim(start, n);
                }
                page.fill(0);
                put_u32(&mut page, 0, DIR_MAGIC);
                put_u32(&mut page, 4, space_pages);
                bm.write_bytes(&mut page[BITMAP_OFF..]);
                check_dir_decode(&mgr, &page);
                for bit in &flips {
                    let bit = *bit as usize % (PAGE * 8);
                    page[bit / 8] ^= 1 << (bit % 8);
                }
                check_dir_decode(&mgr, &page);
            }
        }
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(8192), 13);
    }

    #[test]
    fn first_allocation_creates_space_and_skips_directory() {
        let (mut m, mut pool) = setup(256);
        let e = m.allocate(&mut pool, 10);
        assert_eq!(e.start, 1, "page 0 is the directory");
        assert_eq!(e.pages, 10);
        assert_eq!(m.n_spaces(), 1);
        assert_eq!(m.allocated_pages(), 10);
    }

    #[test]
    fn trimmed_allocation_leaves_tail_allocable() {
        let (mut m, mut pool) = setup(256);
        let a = m.allocate(&mut pool, 3); // covering block is 4 pages
        let b = m.allocate(&mut pool, 1); // should reuse the trimmed page
        assert_eq!(a.start, 1);
        assert_eq!(b.start, 4, "trim remainder handed out");
    }

    #[test]
    fn free_and_reallocate() {
        let (mut m, mut pool) = setup(256);
        let a = m.allocate(&mut pool, 16);
        m.free(&mut pool, a);
        assert_eq!(m.allocated_pages(), 0);
        let b = m.allocate(&mut pool, 16);
        assert_eq!(b, a, "freed block is reused");
    }

    #[test]
    fn partial_free_of_a_segment() {
        let (mut m, mut pool) = setup(256);
        let a = m.allocate(&mut pool, 16);
        // Trim the last 5 pages, as Starburst does with its final segment.
        m.free(&mut pool, a.suffix(11));
        assert_eq!(m.allocated_pages(), 11);
        let b = m.allocate(&mut pool, 4);
        // The freed tail [12..16] contains an aligned 4-run at 13? No:
        // relative pages 11..16 are free; aligned 4-run at rel 12.
        assert_eq!(b.start, a.start + 11 + 1); // rel 12 → abs 13
    }

    #[test]
    fn second_space_created_when_first_full() {
        let (mut m, mut pool) = setup(64);
        let a = m.allocate(&mut pool, 64);
        let b = m.allocate(&mut pool, 64);
        assert_eq!(m.n_spaces(), 2);
        assert_eq!(a.start, 1);
        assert_eq!(b.start, 66, "dir(0)=0, data 1..=64, dir(1)=65");
    }

    #[test]
    fn superdirectory_avoids_probing_full_spaces() {
        let (mut m, mut pool) = setup(64);
        let _a = m.allocate(&mut pool, 64);
        assert_eq!(m.superdir_hint(0), None, "space 0 known full");
        let _b = m.allocate(&mut pool, 32);
        // Allocating again must not touch space 0's directory: its hint
        // is None so we go straight to space 1.
        let hits_before = pool.pool_stats().hits + pool.pool_stats().misses;
        let _c = m.allocate(&mut pool, 16);
        let probes = (pool.pool_stats().hits + pool.pool_stats().misses) - hits_before;
        assert_eq!(probes, 1, "exactly one directory fixed");
    }

    #[test]
    fn wrong_hint_corrected_on_first_miss() {
        let (mut m, mut pool) = setup(64);
        // Fill space 0 with 33 pages: max free order is 4 (16-page block),
        // but carve it so the largest aligned free block is smaller.
        let _a = m.allocate(&mut pool, 33);
        let hint = m.superdir_hint(0).unwrap();
        assert_eq!(hint, 4, "pages 33..64 contain an aligned 16-run");
        // Request 32 pages: hint (4) < order (5) so space 0 is skipped
        // without I/O and a new space is created.
        let b = m.allocate(&mut pool, 32);
        assert_eq!(m.space_of(b.start), 1);
    }

    #[test]
    fn steady_state_allocation_is_at_most_one_disk_access() {
        let (mut m, mut pool) = setup(256);
        let _ = m.allocate(&mut pool, 4); // warm: creates space, dir in pool
        let io_before = pool.io_stats();
        for _ in 0..10 {
            let e = m.allocate(&mut pool, 4);
            m.free(&mut pool, e);
        }
        let delta = pool.io_stats() - io_before;
        assert_eq!(
            delta.calls(),
            0,
            "hot directory page: allocation costs no I/O at all"
        );
    }

    #[test]
    #[should_panic(expected = "exceeds buddy space size")]
    fn oversized_request_panics() {
        let (mut m, mut pool) = setup(64);
        m.allocate(&mut pool, 65);
    }

    #[test]
    fn directory_survives_eviction() {
        // A tiny pool forces the directory page out and back in.
        let pool = BufferPool::new(
            SimDisk::new(2, CostModel::default()),
            PoolConfig {
                frames: 2,
                max_buffered_seg: 4,
            },
        );
        let mut pool = pool;
        let mut m = BuddyManager::new(BuddyConfig::new(AreaId::LEAF, 64));
        let a = m.allocate(&mut pool, 7);
        // Thrash the pool so the directory page is evicted (it is dirty).
        for p in 1000..1004 {
            let r = pool.fix(PageId::new(AreaId::META, p));
            pool.unfix(r);
        }
        let b = m.allocate(&mut pool, 7);
        assert_ne!(a.start, b.start);
        m.free(&mut pool, a);
        m.free(&mut pool, b);
        assert_eq!(m.allocated_pages(), 0);
    }

    #[test]
    fn release_frees_only_what_is_allocated() {
        let (mut m, mut pool) = setup(256);
        let a = m.allocate(&mut pool, 8);
        m.free(&mut pool, a.prefix(3));
        // Pages 0..3 of `a` are free already, 3..8 are not.
        m.release(&mut pool, a);
        assert_eq!(m.allocated_pages(), 0);
        assert_eq!(m.verify(&pool), Ok(Vec::new()));
        // Beyond the spaces the directory knows: nothing to free.
        m.release(&mut pool, Extent::new(AreaId::LEAF, 300, 4));
        assert_eq!(m.n_spaces(), 1);
    }

    #[test]
    fn allocated_ranges_reflect_state() {
        let (mut m, mut pool) = setup(256);
        assert!(m.allocated_ranges(&mut pool).is_empty());
        let a = m.allocate(&mut pool, 5);
        let b = m.allocate(&mut pool, 8);
        let ranges = m.allocated_ranges(&mut pool);
        let total: u32 = ranges.iter().map(|e| e.pages).sum();
        assert_eq!(total, 13);
        // Every held extent is covered by some range.
        for held in [a, b] {
            assert!(
                ranges
                    .iter()
                    .any(|r| r.start <= held.start && held.end() <= r.end()),
                "{held} not covered by {ranges:?}"
            );
        }
        m.free(&mut pool, a);
        let total: u32 = m.allocated_ranges(&mut pool).iter().map(|e| e.pages).sum();
        assert_eq!(total, 8);
    }

    mod verify {
        use super::*;

        /// A manager holding 8 + 3 pages of which 8 were freed again.
        fn used() -> (BuddyManager, BufferPool) {
            let (mut m, mut pool) = setup(256);
            assert_eq!(m.verify(&pool), Ok(Vec::new()), "no spaces yet");
            let a = m.allocate(&mut pool, 8);
            let _b = m.allocate(&mut pool, 3);
            m.free(&mut pool, a);
            (m, pool)
        }

        /// Run `tamper` on space 0's directory page.
        fn tamper(pool: &mut BufferPool, tamper: impl FnOnce(&mut [u8])) {
            let r = pool.fix(PageId::new(AreaId::LEAF, 0));
            pool.with_page_mut(r, |page| tamper(page));
            pool.unfix(r);
        }

        #[test]
        fn healthy_manager_verifies_cost_free() {
            let (m, mut pool) = used();
            pool.flush_all();
            let (io, fixes) = (pool.io_stats(), pool.pool_stats());
            let ranges = m.verify(&pool).unwrap();
            assert_eq!((pool.io_stats(), pool.pool_stats()), (io, fixes));
            assert_eq!(ranges, m.allocated_ranges(&mut pool));
        }

        #[test]
        fn bitmap_tampering_is_detected() {
            let (m, mut pool) = used();
            // Flip an allocated page back to free behind the manager's
            // back, as a lost directory write would.
            tamper(&mut pool, |page| {
                let mut bm = BuddyBitmap::from_bytes(&page[BITMAP_OFF..], 256);
                bm.mark_free(8, 1);
                bm.write_bytes(&mut page[BITMAP_OFF..]);
            });
            let err = m.verify(&pool).unwrap_err();
            assert!(err.contains("allocated counter"), "{err}");
        }

        #[test]
        fn corrupt_directory_magic_is_detected() {
            let (m, mut pool) = used();
            tamper(&mut pool, |page| page[0..4].copy_from_slice(b"XXXX"));
            let err = m.verify(&pool).unwrap_err();
            assert!(err.contains("magic"), "{err}");
        }

        #[test]
        fn corrupt_space_size_field_is_detected() {
            let (m, mut pool) = used();
            tamper(&mut pool, |page| put_u32(page, 4, 128));
            let err = m.verify(&pool).unwrap_err();
            assert!(err.contains("space-size"), "{err}");
        }

        #[test]
        fn under_reporting_superdirectory_is_detected() {
            let (mut m, pool) = used();
            m.superdir[0] = Some(0);
            let err = m.verify(&pool).unwrap_err();
            assert!(err.contains("below actual max free order"), "{err}");
            m.superdir[0] = None;
            let err = m.verify(&pool).unwrap_err();
            assert!(err.contains("says full"), "{err}");
        }
    }

    #[test]
    fn frag_stats_empty_manager() {
        let (m, pool) = setup(256);
        let st = m.frag_stats(&pool);
        assert_eq!(
            st,
            FragStats {
                space_pages: 256,
                ..FragStats::default()
            }
        );
        assert_eq!(st.utilization(), 0.0);
        assert_eq!(st.frag_ratio(), 0.0);
    }

    #[test]
    fn frag_stats_tracks_runs_and_ratio() {
        let (mut m, mut pool) = setup(256);
        // Allocate three 8-page blocks, free the middle one: free space
        // is the 8-page hole plus the 232-page tail.
        let a = m.allocate(&mut pool, 8);
        let b = m.allocate(&mut pool, 8);
        let c = m.allocate(&mut pool, 8);
        assert_eq!((a.start, b.start, c.start), (1, 9, 17));
        m.free(&mut pool, b);
        let st = m.frag_stats(&pool);
        assert_eq!(st.spaces, 1);
        assert_eq!(st.allocated_pages, 16);
        assert_eq!(st.free_pages, 256 - 16);
        assert_eq!(st.free_runs, vec![8, 256 - 24]);
        assert_eq!(st.largest_free_run, 232);
        let want = 1.0 - 232.0 / 240.0;
        assert!((st.frag_ratio() - want).abs() < 1e-12);
        assert!((st.utilization() - 16.0 / 256.0).abs() < 1e-12);
        // Bitmap recount agrees with the manager's own counter.
        assert_eq!(st.allocated_pages, m.allocated_pages());
    }

    #[test]
    fn frag_stats_spans_spaces_without_joining_runs() {
        let (mut m, mut pool) = setup(64);
        let a = m.allocate(&mut pool, 64); // fills space 0
        let _b = m.allocate(&mut pool, 8); // opens space 1
        m.free(&mut pool, a.prefix(4)); // free run at the start of space 0
        let st = m.frag_stats(&pool);
        assert_eq!(st.spaces, 2);
        // Space 0: one 4-page run. Space 1: one 56-page tail. The runs
        // are separated by space 1's directory page, never merged.
        assert_eq!(st.free_runs, vec![4, 56]);
        assert_eq!(st.largest_free_run, 56);
        assert_eq!(st.free_pages, 60);
        assert_eq!(st.allocated_pages, 68);
    }

    #[test]
    fn frag_stats_is_simulated_io_free() {
        let (mut m, mut pool) = setup(256);
        let a = m.allocate(&mut pool, 16);
        m.free(&mut pool, a.suffix(9));
        pool.flush_all();
        let before = pool.io_stats();
        let st = m.frag_stats(&pool);
        assert_eq!(
            pool.io_stats() - before,
            Default::default(),
            "health inspection must not perturb the cost record"
        );
        assert_eq!(st.allocated_pages, 9);
    }

    #[test]
    fn frag_stats_sees_unflushed_directory_state() {
        // The directory page is dirty in the pool; peek must read the
        // resident copy, not the stale on-disk one.
        let (mut m, mut pool) = setup(256);
        let _a = m.allocate(&mut pool, 32);
        let st = m.frag_stats(&pool);
        assert_eq!(st.allocated_pages, 32);
        assert_eq!(st.free_pages, 224);
    }

    /// First-fit placement and the §3.1 superdirectory, pinned: a seeded
    /// script at paper scale folds everything the manager decides into one
    /// digest. The constant was recorded with the bit-at-a-time buddy
    /// fold; any bitmap search that places a block elsewhere, or leaves a
    /// different hint behind, changes it.
    #[test]
    fn placement_is_pinned() {
        const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
        let (mut m, mut pool) = setup(16 * 1024);
        let mut rng = crate::tests::SplitMix(0x5EED_B0DD);
        let mut digest = 0xCBF2_9CE4_8422_2325_u64;
        let mut fold = |v: u64| digest = (digest ^ v).wrapping_mul(FNV_PRIME);
        let mut held: Vec<Extent> = Vec::new();
        for _ in 0..20_000 {
            // Grow to ~1.5 spaces of live pages, then hover there.
            let grow = if m.allocated_pages() < 24_000 { 60 } else { 40 };
            if held.is_empty() || rng.below(100) < grow {
                let n = if rng.below(200) == 0 {
                    1000 + rng.below(2001) // a Starburst-like segment
                } else {
                    1 + rng.below(64)
                };
                let e = m.allocate(&mut pool, n);
                fold(u64::from(e.start) << 32 | u64::from(e.pages));
                held.push(e);
            } else {
                let i = rng.below(u32::try_from(held.len()).unwrap()) as usize;
                let e = held.swap_remove(i);
                let cut = rng.below(e.pages);
                match rng.below(4) {
                    0 if cut > 0 => {
                        m.free(&mut pool, e.suffix(cut));
                        held.push(e.prefix(cut));
                    }
                    1 if cut > 0 => {
                        m.free(&mut pool, e.prefix(cut));
                        held.push(e.suffix(cut));
                    }
                    _ => m.free(&mut pool, e),
                }
            }
            fold(u64::from(m.n_spaces()));
            fold(m.allocated_pages());
            for s in 0..m.n_spaces() {
                fold(m.superdir_hint(s).map_or(u64::MAX, u64::from));
            }
        }
        assert!(m.n_spaces() >= 2, "the script must open a second space");
        let live: u32 = held.iter().map(|e| e.pages).sum();
        assert_eq!(m.allocated_pages(), u64::from(live));
        m.verify(&pool).unwrap();
        assert_eq!(
            digest, 0x4AFB_4969_076C_A3C8,
            "placement or superdirectory hints moved"
        );
    }

    /// The manager this crate shipped before the in-place one, kept as its
    /// oracle: every visit decodes the directory bitmap into a `Vec<u64>`,
    /// works on that, writes all of it back, and refolds the whole of it
    /// for the hint.
    mod oracle {
        use super::*;

        const FOLDS: [(u32, u64); 7] = [
            (0, u64::MAX),
            (1, 0x5555_5555_5555_5555),
            (2, 0x1111_1111_1111_1111),
            (4, 0x0101_0101_0101_0101),
            (8, 0x0001_0001_0001_0001),
            (16, 0x0000_0001_0000_0001),
            (32, 1),
        ];

        struct WordBitmap {
            words: Vec<u64>,
            pages: u32,
        }

        impl WordBitmap {
            fn from_bytes(bytes: &[u8], pages: u32) -> Self {
                let n_words = (pages / 64) as usize;
                assert!(bytes.len() >= n_words * 8, "directory bytes too short");
                let words = bytes.chunks_exact(8).take(n_words).map(bytes::le_u64);
                WordBitmap {
                    words: words.collect(),
                    pages,
                }
            }

            fn write_bytes(&self, out: &mut [u8]) {
                assert!(out.len() >= self.words.len() * 8);
                for (chunk, w) in out.chunks_exact_mut(8).zip(&self.words) {
                    chunk.copy_from_slice(&w.to_le_bytes());
                }
            }

            fn max_order(&self) -> u32 {
                self.pages.trailing_zeros()
            }

            fn range_masks(&self, start: u32, n: u32) -> impl Iterator<Item = (usize, u64)> {
                let end = start + n;
                assert!(end <= self.pages, "range out of space");
                let low_bits = |k: u32| u64::MAX.checked_shr(64 - k).unwrap_or(0);
                (start / 64..end.div_ceil(64)).map(move |wi| {
                    let base = wi * 64;
                    let lo = start.max(base) - base;
                    let hi = end.min(base + 64) - base;
                    (wi as usize, low_bits(hi) & !low_bits(lo))
                })
            }

            fn claim(&mut self, start: u32, n: u32) -> u32 {
                let mut flipped = 0;
                for (wi, mask) in self.range_masks(start, n) {
                    flipped += (self.words[wi] & mask).count_ones();
                    self.words[wi] &= !mask;
                }
                flipped
            }

            fn mark_free(&mut self, start: u32, n: u32) {
                for (wi, mask) in self.range_masks(start, n) {
                    assert_eq!(self.words[wi] & mask, 0, "double free");
                    self.words[wi] |= mask;
                }
            }

            fn find_block(&self, order: u32) -> Option<u32> {
                if let Some(folds) = FOLDS.get(..=order as usize) {
                    let mut words = self.words.iter().zip((0u32..).step_by(64));
                    return words.find_map(|(&w, base)| {
                        let t = folds.iter().fold(w, |t, &(s, m)| t & (t >> s) & m);
                        (t != 0).then(|| base + t.trailing_zeros())
                    });
                }
                let chunk = self.words.len() >> (self.max_order() - order);
                let mut chunks = (self.words.chunks_exact(chunk)).zip((0u32..).step_by(chunk * 64));
                chunks.find_map(|(c, base)| c.iter().all(|&w| w == u64::MAX).then_some(base))
            }

            fn max_free_order(&self) -> Option<u32> {
                let mut levels = [0u64; FOLDS.len()];
                for &w in &self.words {
                    let mut t = w;
                    for (level, &(s, m)) in levels.iter_mut().zip(&FOLDS) {
                        t &= (t >> s) & m;
                        *level |= t;
                    }
                }
                let in_word = levels.iter().rposition(|&l| l != 0)? as u32;
                let above = (7..=self.max_order()).take_while(|&o| self.find_block(o).is_some());
                Some(above.last().unwrap_or(in_word))
            }
        }

        impl BuddyManager {
            fn old_parse_dir(&self, page: &[u8]) -> WordBitmap {
                assert_eq!(dir_u32(page, 0), DIR_MAGIC, "corrupt buddy directory page");
                assert_eq!(dir_u32(page, 4), self.cfg.space_pages);
                WordBitmap::from_bytes(&page[BITMAP_OFF..], self.cfg.space_pages)
            }

            pub(super) fn old_allocate(&mut self, pool: &mut BufferPool, n_pages: u32) -> Extent {
                assert!(n_pages > 0 && n_pages <= self.cfg.space_pages);
                let order = ceil_log2(n_pages);
                for s in 0..self.n_spaces {
                    if self.superdir[s as usize].is_none_or(|hint| hint < order) {
                        continue;
                    }
                    if let Some(ext) = self.old_try_alloc_in_space(pool, s, order, n_pages) {
                        self.allocated += u64::from(n_pages);
                        return ext;
                    }
                }
                let s = self.create_space(pool);
                let ext = self.old_try_alloc_in_space(pool, s, order, n_pages);
                self.allocated += u64::from(n_pages);
                ext.expect("fresh space must satisfy any in-range allocation")
            }

            fn old_try_alloc_in_space(
                &mut self,
                pool: &mut BufferPool,
                space: u32,
                order: u32,
                n_pages: u32,
            ) -> Option<Extent> {
                let dir = PageId::new(self.cfg.area, self.dir_page(space));
                let r = pool.fix(dir);
                let mut bm = pool.with_page(r, |page| self.old_parse_dir(page));
                let result = bm.find_block(order).map(|block| {
                    assert_eq!(bm.claim(block, n_pages), n_pages, "double allocation");
                    pool.with_page_mut(r, |page| bm.write_bytes(&mut page[BITMAP_OFF..]));
                    Extent::new(self.cfg.area, self.data_base(space) + block, n_pages)
                });
                self.superdir[space as usize] = bm.max_free_order();
                pool.unfix(r);
                result
            }

            pub(super) fn old_free(&mut self, pool: &mut BufferPool, ext: Extent) {
                let space = self.space_of(ext.start);
                assert_eq!(space, self.space_of(ext.end() - 1));
                assert!(space < self.n_spaces && ext.start >= self.data_base(space));
                let rel = ext.start - self.data_base(space);
                let dir = PageId::new(self.cfg.area, self.dir_page(space));
                let r = pool.fix(dir);
                let mut bm = pool.with_page(r, |page| self.old_parse_dir(page));
                bm.mark_free(rel, ext.pages);
                pool.with_page_mut(r, |page| bm.write_bytes(&mut page[BITMAP_OFF..]));
                self.superdir[space as usize] = bm.max_free_order();
                pool.unfix(r);
                pool.discard_range(self.cfg.area, ext.start, ext.pages);
                self.allocated -= u64::from(ext.pages);
            }

            pub(super) fn old_adopt(&mut self, pool: &mut BufferPool, ext: Extent) {
                let space = self.space_of(ext.start);
                assert_eq!(space, self.space_of(ext.end() - 1));
                while self.n_spaces <= space {
                    self.create_space(pool);
                }
                assert!(ext.start >= self.data_base(space));
                let rel = ext.start - self.data_base(space);
                let dir = PageId::new(self.cfg.area, self.dir_page(space));
                let r = pool.fix(dir);
                let mut bm = pool.with_page(r, |page| self.old_parse_dir(page));
                let flipped = bm.claim(rel, ext.pages);
                pool.with_page_mut(r, |page| bm.write_bytes(&mut page[BITMAP_OFF..]));
                self.superdir[space as usize] = bm.max_free_order();
                pool.unfix(r);
                self.allocated += u64::from(flipped);
            }
        }
    }

    /// The in-place manager against the decode-and-write-back one, on twin
    /// pools small enough that directory pages are evicted while dirty:
    /// after every step of a seeded allocate/free/adopt script the two
    /// agree on everything either can be observed by.
    #[test]
    fn in_place_manager_matches_the_decoding_one() {
        const SPACE: u32 = 4096;
        const STRIDE: u32 = SPACE + 1;
        let twin = || {
            let cfg = PoolConfig {
                frames: 2,
                max_buffered_seg: 4,
            };
            let pool = BufferPool::new(SimDisk::new(2, CostModel::default()), cfg);
            pool.disk().enable_trace(64);
            (
                BuddyManager::new(BuddyConfig::new(AreaId::LEAF, SPACE)),
                pool,
            )
        };
        let (mut new, mut new_pool) = twin();
        let (mut old, mut old_pool) = twin();
        let mut rng = crate::tests::SplitMix(0x7417_B0DD);
        // Page model over three spaces' worth of area: which pages the
        // script holds, so that frees are legal and adoptions are tracked.
        let mut used = vec![false; 3 * STRIDE as usize];
        let mut held: Vec<Extent> = Vec::new();
        let mut model_live = 0u64;
        let size = |rng: &mut crate::tests::SplitMix| match rng.below(16) {
            0..=5 => 1,
            6..=10 => 2 + rng.below(15),
            11..=13 => 40 + rng.below(91),
            14 => 1000 + rng.below(2001),
            _ if rng.below(4) == 0 => SPACE,
            _ => 64 << rng.below(3),
        };
        for step in 0..24_000 {
            // Hover around 5 000 live pages and never hold two spaces' worth:
            // three spaces do the work, a whole-space request opens more.
            let live = new.allocated_pages();
            let roll = if live >= 7000 { 100 } else { rng.below(100) };
            if roll < 8 {
                // Adopt a run at a dictated place, whatever it overlaps.
                let n = size(&mut rng).min(SPACE);
                let space = rng.below(3);
                let start = space * STRIDE + 1 + rng.below(SPACE - n + 1);
                let ext = Extent::new(AreaId::LEAF, start, n);
                new.adopt(&mut new_pool, ext);
                old.old_adopt(&mut old_pool, ext);
                let mut p = start;
                while p < start + n {
                    let run = |u: bool| {
                        let rest = &used[p as usize..(start + n) as usize];
                        rest.iter().take_while(|&&x| x == u).count() as u32
                    };
                    let fresh = run(false);
                    if fresh > 0 {
                        held.push(Extent::new(AreaId::LEAF, p, fresh));
                        model_live += u64::from(fresh);
                    }
                    p += fresh + run(true);
                }
                used[start as usize..(start + n) as usize].fill(true);
            } else if held.is_empty() || roll < if live < 5000 { 60 } else { 40 } {
                let n = size(&mut rng);
                let got = new.allocate(&mut new_pool, n);
                assert_eq!(got, old.old_allocate(&mut old_pool, n), "step {step}");
                if got.end() as usize > used.len() {
                    used.resize(got.end() as usize + STRIDE as usize, false);
                }
                let pages = &mut used[got.start as usize..got.end() as usize];
                assert!(
                    pages.iter().all(|&u| !u),
                    "step {step}: {got} handed out twice"
                );
                pages.fill(true);
                model_live += u64::from(n);
                held.push(got);
            } else {
                let e = held.swap_remove(rng.below(held.len() as u32) as usize);
                let cut = rng.below(e.pages);
                let gone = match rng.below(4) {
                    0 if cut > 0 => {
                        held.push(e.prefix(cut));
                        e.suffix(cut)
                    }
                    1 if cut > 0 => {
                        held.push(e.suffix(cut));
                        e.prefix(cut)
                    }
                    _ => e,
                };
                new.free(&mut new_pool, gone);
                old.old_free(&mut old_pool, gone);
                used[gone.start as usize..gone.end() as usize].fill(false);
                model_live -= u64::from(gone.pages);
            }

            assert_eq!(new.n_spaces(), old.n_spaces(), "step {step}");
            assert_eq!(new.allocated_pages(), old.allocated_pages(), "step {step}");
            assert_eq!(new.allocated_pages(), model_live, "step {step}");
            for s in 0..new.n_spaces() {
                assert_eq!(new.superdir_hint(s), old.superdir_hint(s), "step {step}");
                let dir = PageId::new(AreaId::LEAF, new.dir_page(s));
                let (mut a, mut b) = ([0u8; 4096], [0u8; 4096]);
                new_pool.peek_page(dir, &mut a);
                old_pool.peek_page(dir, &mut b);
                assert!(a == b, "step {step}: directory page of space {s} differs");
            }
            assert_eq!(new_pool.io_stats(), old_pool.io_stats(), "step {step}");
            assert_eq!(new_pool.pool_stats(), old_pool.pool_stats(), "step {step}");
            assert_eq!(new_pool.disk().trace_dropped(), 0);
            assert_eq!(
                new_pool.disk().take_trace(),
                old_pool.disk().take_trace(),
                "step {step}"
            );
        }
        assert!(new.n_spaces() >= 3, "the script must work three spaces");
        assert!(new_pool.io_stats().write_calls > 1000, "dirty evictions");
        new.verify(&new_pool).unwrap();
    }

    /// §3.1's wrong guess: a probe that finds no block corrects the hint
    /// and only *reads* the directory page — nothing to write back.
    #[test]
    fn failed_probe_leaves_the_page_clean_and_corrects_the_hint() {
        let (mut m, mut pool) = setup(64);
        let _a = m.allocate(&mut pool, 33);
        pool.flush_all();
        // A restart forgets the hints: every space looks empty again.
        let mut m = BuddyManager::open(m.config(), &mut pool);
        assert_eq!(m.superdir_hint(0), Some(6), "optimistic after open");
        let io = pool.io_stats();
        let written = lobstore_obs::counter_value("bufpool.dirty_writebacks");
        assert_eq!(m.try_alloc_in_space(&mut pool, 0, 5, 32), None);
        assert_eq!(m.superdir_hint(0), Some(4), "the exact order, not a guess");
        pool.flush_all();
        assert_eq!(pool.io_stats(), io, "no dirty page to flush");
        assert_eq!(
            lobstore_obs::counter_value("bufpool.dirty_writebacks"),
            written
        );
        // The next request for 32 pages goes past space 0 without a probe.
        let b = m.allocate(&mut pool, 32);
        assert_eq!(m.space_of(b.start), 1);
    }

    #[test]
    fn many_allocations_never_overlap() {
        let (mut m, mut pool) = setup(256);
        let mut held: Vec<Extent> = Vec::new();
        for n in [1u32, 3, 8, 5, 2, 17, 64, 1, 9, 30] {
            let e = m.allocate(&mut pool, n);
            for h in &held {
                assert!(
                    e.end() <= h.start || h.end() <= e.start,
                    "overlap: {e} vs {h}"
                );
            }
            held.push(e);
        }
        let total: u32 = held.iter().map(|e| e.pages).sum();
        assert_eq!(m.allocated_pages(), u64::from(total));
    }
}

//! The database context shared by all large-object managers: buffer pool
//! (owning the simulated disk) plus one buddy-space allocator per area.

use lobstore_buddy::{BuddyConfig, BuddyManager, Extent, FragStats};
use lobstore_bufpool::{BufferPool, PoolConfig};
use lobstore_simdisk::{AreaId, CostModel, IoStats, PageId, SimDisk, PAGE_SIZE};

use crate::alloclog::{AllocLog, Roots};
use crate::health::{self, HealthSample};
use crate::node::{Node, NodeView, RootHdr};
use crate::object::StorageKind;
use crate::txn::TxnState;
use crate::version::{Interval, VersionState};

/// Positional-tree fan-out limits. With the paper's 4 KB pages and 4-byte
/// counts and pointers, the root holds up to 507 pairs and interior index
/// pages 511 pairs (§4.1). Tests shrink these to exercise deep trees with
/// small objects.
#[derive(Copy, Clone, Debug)]
pub struct TreeConfig {
    /// Maximum `(count, ptr)` pairs in the root page.
    pub root_entries: usize,
    /// Maximum pairs in a non-root index page.
    pub node_entries: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            root_entries: 507,
            node_entries: 511,
        }
    }
}

impl TreeConfig {
    /// A tiny fan-out for tests that need multi-level trees cheaply.
    pub fn tiny(fanout: usize) -> Self {
        assert!(fanout >= 4, "fan-out below 4 breaks split invariants");
        TreeConfig {
            root_entries: fanout,
            node_entries: fanout,
        }
    }
}

/// Everything configurable about a database instance.
#[derive(Copy, Clone, Debug)]
pub struct DbConfig {
    /// Simulated disk timing (seek and per-page transfer).
    pub cost: CostModel,
    /// Buffer-pool sizing (frames, segment-buffering limit).
    pub pool: PoolConfig,
    /// Positional-tree fan-out limits.
    pub tree: TreeConfig,
    /// Data pages per buddy space in the META area.
    pub meta_space_pages: u32,
    /// Data pages per buddy space in the LEAF area. Also the upper bound
    /// on any single segment (the paper's 32 MB max segment lives inside
    /// ≈64 MB spaces, §3.1).
    pub leaf_space_pages: u32,
    /// Whether updates are shadowed (§3.3). On by default; the
    /// `ablation_shadowing` bench turns it off.
    pub shadowing: bool,
    /// Keep a crash-recovery allocation log (DESIGN.md §16.3). Off by
    /// default — the paper's single-version path is bit-identical with
    /// the log disabled. Requires `shadowing`.
    pub alloc_log: bool,
}

impl Default for DbConfig {
    /// The paper's configuration (Table 1 + §3.1).
    fn default() -> Self {
        DbConfig {
            cost: CostModel::default(),
            pool: PoolConfig::default(),
            tree: TreeConfig::default(),
            meta_space_pages: 16 * 1024,
            leaf_space_pages: 16 * 1024,
            shadowing: true,
            alloc_log: false,
        }
    }
}

/// The database: two areas on one simulated disk, one buffer pool, and a
/// buddy allocator per area. All manager operations borrow this mutably —
/// the study is single-client (§3).
pub struct Db {
    pub(crate) pool: BufferPool,
    pub(crate) meta_alloc: BuddyManager,
    pub(crate) leaf_alloc: BuddyManager,
    pub(crate) cfg: DbConfig,
    /// Operations completed through observed objects — the tick of a
    /// health sample (see DESIGN.md §14).
    ops_total: u64,
    /// MVCC version state: current version, snapshot pins, archived root
    /// pre-images, deferred frees (see `version.rs`).
    pub(crate) versions: VersionState,
    /// Open transaction, if any (see `txn.rs`).
    pub(crate) txn: Option<TxnState>,
    /// Allocation log, when [`DbConfig::alloc_log`] is enabled (see
    /// `alloclog.rs`).
    pub(crate) log: Option<AllocLog>,
    /// The commit interval in flight: the pages the operation in flight
    /// allocated and the pre-images of the committed pages overwritten
    /// in place (see `version.rs`).
    pub(crate) interval: Interval,
    /// Frees deferred at the last checkpoint: free in the checkpointed
    /// state, written to disk as allocated for the pins of the time. A
    /// reboot without the log releases them (replay has them free).
    durable_frees: Vec<Extent>,
}

impl Db {
    /// Build a database over a fresh two-area simulated disk.
    pub fn new(cfg: DbConfig) -> Self {
        let pool = BufferPool::new(SimDisk::new(2, cfg.cost), cfg.pool);
        let fresh = |area, pages| BuddyManager::new(BuddyConfig::new(area, pages));
        let allocs = (
            fresh(AreaId::META, cfg.meta_space_pages),
            fresh(AreaId::LEAF, cfg.leaf_space_pages),
        );
        let mut db = Db::assemble(pool, allocs, cfg);
        if cfg.alloc_log {
            db.init_alloc_log(Roots::new());
        }
        db
    }

    /// A database with the paper's exact parameters.
    pub fn paper_default() -> Self {
        Db::new(DbConfig::default())
    }

    /// The configuration this database was built with.
    pub fn config(&self) -> &DbConfig {
        &self.cfg
    }

    /// The buffer pool (and through it, the disk).
    pub fn pool(&mut self) -> &mut BufferPool {
        &mut self.pool
    }

    /// Cumulative I/O statistics of the underlying disk.
    pub fn io_stats(&self) -> IoStats {
        self.pool.io_stats()
    }

    /// Zero the disk's I/O counters (page contents are untouched).
    pub fn reset_io_stats(&mut self) {
        self.pool.disk().reset_stats();
    }

    /// Allocate one page in the META area (index pages, roots, shadows).
    pub fn alloc_meta_page(&mut self) -> u32 {
        let page = self.meta_alloc.allocate(&mut self.pool, 1).start;
        self.txn_note_alloc(Extent::new(AreaId::META, page, 1));
        page
    }

    /// Allocate one META page and register it as a root: `Some(kind)` for
    /// the root of an object of that kind, `None` for a plain page (a
    /// catalog or record-store page). With the allocation log on, crash
    /// recovery rebuilds the allocators from what the committed roots
    /// reach, so a page from [`Self::alloc_meta_page`] that no root
    /// reaches is free after a crash. [`Self::free_meta_page`]
    /// unregisters the page.
    pub fn alloc_root(&mut self, kind: Option<StorageKind>) -> u32 {
        let page = self.alloc_meta_page();
        self.log_root(page, kind);
        page
    }

    /// Free one META page. Inside a transaction the free queues until
    /// commit; while a snapshot pins the current state it defers until
    /// the pin is released (see `version.rs`).
    pub fn free_meta_page(&mut self, page: u32) {
        let ext = Extent::new(AreaId::META, page, 1);
        if self.txn_queue_free(ext) {
            return;
        }
        self.release_extent(ext);
    }

    /// Allocate a contiguous leaf segment of `pages` pages.
    pub fn alloc_leaf(&mut self, pages: u32) -> Extent {
        let ext = self.leaf_alloc.allocate(&mut self.pool, pages);
        self.txn_note_alloc(ext);
        ext
    }

    /// Free a leaf extent (whole segments or trimmed portions). Queues
    /// or defers like [`Self::free_meta_page`].
    pub fn free_leaf(&mut self, ext: Extent) {
        if self.txn_queue_free(ext) {
            return;
        }
        self.release_extent(ext);
    }

    /// Logical free of `ext`: a freed root leaves the root set now (the
    /// committed state has it free), and the pages are physically
    /// released now unless a pinned snapshot may still read them — then
    /// the release defers until the last such pin is gone.
    pub(crate) fn release_extent(&mut self, ext: Extent) {
        if ext.area == AreaId::META {
            self.log_unroot(ext.start);
        }
        if self.versions.pinned() {
            self.defer_free(ext);
        } else {
            self.free_now(ext);
        }
    }

    /// Physically return `ext` to its allocator.
    pub(crate) fn free_now(&mut self, ext: Extent) {
        if ext.area == AreaId::META {
            self.meta_alloc.free(&mut self.pool, ext);
        } else {
            self.leaf_alloc.free(&mut self.pool, ext);
        }
    }

    /// Mark `ext` allocated in its allocator at exactly its place (log
    /// replay, image cutting).
    pub(crate) fn adopt(&mut self, ext: Extent) {
        if ext.area == AreaId::META {
            self.meta_alloc.adopt(&mut self.pool, ext);
        } else {
            self.leaf_alloc.adopt(&mut self.pool, ext);
        }
    }

    /// Pages currently allocated in the LEAF area.
    pub fn leaf_pages_allocated(&self) -> u64 {
        self.leaf_alloc.allocated_pages()
    }

    /// Pages currently allocated in the META area.
    pub fn meta_pages_allocated(&self) -> u64 {
        self.meta_alloc.allocated_pages()
    }

    /// Largest single segment this database can allocate, in pages.
    pub fn max_segment_pages(&self) -> u32 {
        self.cfg.leaf_space_pages
    }

    /// The LEAF allocator's current allocation map (for consistency
    /// checking).
    pub fn leaf_allocated_ranges(&mut self) -> Vec<Extent> {
        let Db {
            pool, leaf_alloc, ..
        } = self;
        leaf_alloc.allocated_ranges(pool)
    }

    /// The META allocator's current allocation map.
    pub fn meta_allocated_ranges(&mut self) -> Vec<Extent> {
        let Db {
            pool, meta_alloc, ..
        } = self;
        meta_alloc.allocated_ranges(pool)
    }

    /// Convenience: fix-read a META page, run `f` on its bytes, unfix.
    /// (Low-level page access for layers that keep their own structures
    /// in META pages, such as the record store.)
    pub fn with_meta_page<R>(&mut self, page: u32, f: impl FnOnce(&[u8]) -> R) -> R {
        let g = self.pool.guard(PageId::new(AreaId::META, page));
        f(&g[..])
    }

    /// Convenience: fix a META page for update, run `f`, unfix. The page
    /// is marked dirty; flushing is the caller's (shadow context's) job.
    /// The funnel first captures the page's pre-image for the commit
    /// interval (see `version.rs`).
    pub fn with_meta_page_mut<R>(&mut self, page: u32, f: impl FnOnce(&mut [u8]) -> R) -> R {
        self.capture_preimage(page);
        let mut g = self.pool.guard_mut(PageId::new(AreaId::META, page));
        f(&mut g[..])
    }

    /// Like [`Self::with_meta_page_mut`] but for a freshly allocated page
    /// that need not be read from disk.
    pub fn with_new_meta_page<R>(&mut self, page: u32, f: impl FnOnce(&mut [u8]) -> R) -> R {
        let mut g = self.pool.guard_new(PageId::new(AreaId::META, page));
        f(&mut g[..])
    }

    /// Fix-read a META page as a non-root index node, run `f` on the view
    /// of its pair array, unfix. `&self`, like the pool's `guard`: the
    /// descent of a pinned-version scan has only a shared reference.
    pub(crate) fn with_meta_node<R>(&self, page: u32, f: impl FnOnce(NodeView<'_>) -> R) -> R {
        let g = self.pool.guard(PageId::new(AreaId::META, page));
        f(NodeView::of_page(&g[..]))
    }

    /// Like [`Self::with_meta_node`] for a root/descriptor page: `f` gets
    /// the parsed header and the view of the entry array (the Starburst
    /// descriptor shares the root-page layout).
    pub(crate) fn with_meta_root<R>(
        &self,
        page: u32,
        f: impl FnOnce(&RootHdr, NodeView<'_>) -> R,
    ) -> R {
        let g = self.pool.guard(PageId::new(AreaId::META, page));
        let hdr = RootHdr::read(&g[..]);
        f(&hdr, NodeView::of_root(&g[..], &hdr))
    }

    /// Simulate a crash and restart: the buffer pool loses every unflushed
    /// page (no write-back) and the space managers re-attach to whatever
    /// the disk holds, with the paper's optimistic superdirectory
    /// initialization (§3.1).
    ///
    /// The shadowing discipline (§3.3) guarantees that an object whose
    /// state was flushed before the crash reads back exactly — later
    /// unflushed operations never overwrite the bytes that state
    /// references.
    /// With the allocation log enabled, recovery instead replays the log
    /// to the last committed version: in-place-written pages restored
    /// from their committed images, allocators rebuilt from what the
    /// committed roots reach (see `alloclog.rs`). An open transaction is
    /// aborted; all snapshots are released (they are in-memory handles),
    /// and without the log the frees the last checkpoint deferred for
    /// them are executed.
    ///
    /// A real reboot would have only the disk. This one still takes three
    /// things from memory: the configuration, the log's head page number,
    /// and, without the log, the frees the last checkpoint deferred
    /// (`durable_frees`; no durable record of them exists yet).
    pub fn crash_and_reboot(&mut self) {
        self.pool.crash();
        self.clear_version_state();
        self.txn = None;
        self.interval = Interval::default();
        if self.log.is_some() {
            self.replay_alloc_log();
            return;
        }
        (self.meta_alloc, self.leaf_alloc) = open_allocators(&mut self.pool, &self.cfg);
        // Kept until the next checkpoint: a second crash returns to the
        // same checkpointed state.
        for &ext in &self.durable_frees {
            let alloc = if ext.area == AreaId::META {
                &mut self.meta_alloc
            } else {
                &mut self.leaf_alloc
            };
            alloc.release(&mut self.pool, ext);
        }
    }

    /// Flush everything that is dirty — the "checkpoint" matching the end
    /// of the paper's operations (index shadows are already flushed per
    /// op; this adds the root pages and space directories).
    /// It ends the commit interval (handing its pre-images to the pins),
    /// and with the allocation log enabled it compacts the log to the
    /// live root set (bounding its chain).
    ///
    /// # Panics
    /// If a transaction is open — flushing uncommitted in-place root
    /// updates would break its atomicity.
    pub fn checkpoint(&mut self) {
        assert!(
            !self.txn_active(),
            "checkpoint inside a transaction would make uncommitted state durable"
        );
        self.pool.flush_all();
        self.durable_frees = self.deferred_extents();
        self.end_interval();
        self.compact_alloc_log();
    }

    /// Checkpoint and serialize the whole database to `w` (the disk-image
    /// format of `lobstore-simdisk`). The image holds the committed
    /// state: frees deferred for pinned snapshots are free in it, since a
    /// loaded image has no pin to release them. Images are always
    /// log-less: the allocation log is retired before the image is cut
    /// and restarted from the same roots afterwards, so a loaded database
    /// never sees another session's chain pages.
    pub fn save_image(&mut self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        let roots = self.retire_alloc_log();
        self.checkpoint();
        let deferred = self.deferred_extents();
        for &ext in &deferred {
            self.free_now(ext);
        }
        self.pool.flush_all();
        let r = self.pool.disk().write_image(w);
        // The pins still read these pages.
        for ext in deferred {
            self.adopt(ext);
        }
        if let Some(roots) = roots {
            self.init_alloc_log(roots);
        }
        r
    }

    /// Load a database from an image. The image's cost model is
    /// authoritative; pool/tree/space parameters come from `cfg` and must
    /// match those the image was created with (the space sizes determine
    /// the directory-page positions).
    ///
    /// # Errors
    /// `InvalidInput` if `cfg` turns the allocation log on: an image
    /// carries no root set for it to recover from.
    pub fn load_image(r: &mut impl std::io::Read, cfg: DbConfig) -> std::io::Result<Db> {
        if cfg.alloc_log {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "an image carries no root set: load it with alloc_log off",
            ));
        }
        let disk = SimDisk::read_image(r)?;
        let cfg = DbConfig {
            cost: disk.cost_model(),
            ..cfg
        };
        let mut pool = BufferPool::new(disk, cfg.pool);
        let allocs = open_allocators(&mut pool, &cfg);
        Ok(Db::assemble(pool, allocs, cfg))
    }

    /// A database over `pool` and its (META, LEAF) allocators, with no
    /// version, pin, transaction or log state yet.
    fn assemble(pool: BufferPool, allocs: (BuddyManager, BuddyManager), cfg: DbConfig) -> Db {
        let (meta_alloc, leaf_alloc) = allocs;
        Db {
            pool,
            meta_alloc,
            leaf_alloc,
            cfg,
            ops_total: 0,
            versions: VersionState::new(),
            txn: None,
            log: None,
            interval: Interval::default(),
            durable_frees: Vec::new(),
        }
    }

    /// [`Self::save_image`] to a file path.
    pub fn save_to_path(&mut self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.save_image(&mut w)?;
        use std::io::Write as _;
        w.flush()
    }

    /// [`Self::load_image`] from a file path.
    pub fn load_from_path(path: impl AsRef<std::path::Path>, cfg: DbConfig) -> std::io::Result<Db> {
        let mut r = std::io::BufReader::new(std::fs::File::open(path)?);
        Db::load_image(&mut r, cfg)
    }

    /// Cost-free snapshot of a META page's current content (newest pool
    /// copy if resident, else the disk copy). For verification and metric
    /// code only.
    pub(crate) fn peek_meta(&self, page: u32) -> Box<[u8; PAGE_SIZE]> {
        let mut buf = Box::new([0u8; PAGE_SIZE]);
        self.pool
            .peek_page(PageId::new(AreaId::META, page), &mut buf);
        buf
    }

    /// [`Self::peek_meta`] parsed as a root/descriptor page.
    pub(crate) fn peek_root(&self, page: u32) -> (RootHdr, Node) {
        let bytes = self.peek_meta(page);
        let hdr = RootHdr::read(&bytes[..]);
        let node = Node::read_root(&bytes[..], &hdr);
        (hdr, node)
    }

    /// [`Self::peek_meta`] parsed as a non-root index node.
    pub(crate) fn peek_node(&self, page: u32) -> Node {
        Node::read_page(&self.peek_meta(page)[..])
    }

    /// Cost-free snapshot of a LEAF page (newest pool copy if resident).
    pub(crate) fn peek_leaf_page(&self, page: u32) -> Box<[u8; PAGE_SIZE]> {
        let mut buf = Box::new([0u8; PAGE_SIZE]);
        self.pool
            .peek_page(PageId::new(AreaId::LEAF, page), &mut buf);
        buf
    }

    /// Cost-free fragmentation recount of the LEAF allocator (peeked
    /// directory pages; `IoStats` are untouched).
    pub fn leaf_frag_stats(&self) -> FragStats {
        self.leaf_alloc.frag_stats(&self.pool)
    }

    /// Cost-free fragmentation recount of the META allocator.
    pub fn meta_frag_stats(&self) -> FragStats {
        self.meta_alloc.frag_stats(&self.pool)
    }

    /// Operations observed so far: every operation routed through the
    /// observed wrapper ([`crate::ManagerSpec::create`] /
    /// [`crate::open_object`] objects).
    pub fn health_ops(&self) -> u64 {
        self.ops_total
    }

    /// Take one health sample *now*: recount both allocators cost-free,
    /// publish `health.leaf.*` / `health.meta.*` gauges and histogram the
    /// free-run lengths. Returns the sample for direct inspection.
    pub fn sample_health(&self) -> HealthSample {
        let sample = HealthSample {
            tick: self.ops_total,
            leaf: self.leaf_frag_stats(),
            meta: self.meta_frag_stats(),
        };
        health::publish_area("leaf", &sample.leaf);
        health::publish_area("meta", &sample.meta);
        sample
    }

    /// One observed operation completed: advance the tick. Called by the
    /// observation wrapper after every operation.
    pub(crate) fn note_op(&mut self) {
        self.ops_total += 1;
    }
}

/// The (META, LEAF) allocators, re-attached to the directories the disk
/// under `pool` holds.
fn open_allocators(pool: &mut BufferPool, cfg: &DbConfig) -> (BuddyManager, BuddyManager) {
    let mut open = |area, pages| BuddyManager::open(BuddyConfig::new(area, pages), pool);
    let meta = open(AreaId::META, cfg.meta_space_pages);
    (meta, open(AreaId::LEAF, cfg.leaf_space_pages))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_table_1() {
        let cfg = DbConfig::default();
        assert_eq!(cfg.cost.seek_us, 33_000);
        assert_eq!(cfg.pool.frames, 12);
        assert_eq!(cfg.pool.max_buffered_seg, 4);
        assert_eq!(cfg.tree.root_entries, 507);
        assert_eq!(cfg.tree.node_entries, 511);
        assert!(cfg.shadowing);
    }

    #[test]
    fn meta_and_leaf_allocations_are_independent() {
        let mut db = Db::paper_default();
        let m = db.alloc_meta_page();
        let l = db.alloc_leaf(8);
        assert_eq!(db.meta_pages_allocated(), 1);
        assert_eq!(db.leaf_pages_allocated(), 8);
        db.free_meta_page(m);
        db.free_leaf(l);
        assert_eq!(db.meta_pages_allocated(), 0);
        assert_eq!(db.leaf_pages_allocated(), 0);
    }

    #[test]
    fn meta_page_helpers_roundtrip() {
        let mut db = Db::paper_default();
        let p = db.alloc_meta_page();
        db.with_new_meta_page(p, |page| page[100] = 42);
        let v = db.with_meta_page(p, |page| page[100]);
        assert_eq!(v, 42);
    }

    #[test]
    #[should_panic(expected = "fan-out below 4")]
    fn tiny_tree_config_guards_fanout() {
        TreeConfig::tiny(3);
    }

    #[test]
    fn image_roundtrip_preserves_database() {
        use crate::{EosObject, EosParams, LargeObject};
        let mut db = Db::paper_default();
        let mut obj = EosObject::create(&mut db, EosParams::default()).unwrap();
        obj.append(&mut db, b"image me").unwrap();
        let root = obj.root_page();
        let mut img = Vec::new();
        db.save_image(&mut img).unwrap();

        let mut db2 = Db::load_image(&mut img.as_slice(), DbConfig::default()).unwrap();
        let obj2 = EosObject::open(&mut db2, root).unwrap();
        assert_eq!(obj2.snapshot(&db2), b"image me");
        assert_eq!(db2.leaf_pages_allocated(), db.leaf_pages_allocated());
        assert_eq!(db2.meta_pages_allocated(), db.meta_pages_allocated());
        // The restored database keeps working.
        let mut obj2 = obj2;
        obj2.append(&mut db2, b" again").unwrap();
        assert_eq!(obj2.snapshot(&db2), b"image me again");
    }

    /// An image cut under a pin holds the committed state, in which the
    /// frees deferred for the pin are free: the loaded database has no
    /// pin to release them. The source keeps them for its pin.
    #[test]
    fn an_image_cut_under_a_pin_holds_the_deferred_frees_free() {
        use crate::{ManagerSpec, SnapshotReader};
        for alloc_log in [false, true] {
            let cfg = DbConfig {
                alloc_log,
                ..DbConfig::default()
            };
            let mut db = Db::new(cfg);
            let mut obj = ManagerSpec::esm(4).create(&mut db).unwrap();
            obj.append(&mut db, &[7u8; 60_000]).unwrap();
            let snap = db.snapshot();
            obj.delete(&mut db, 0, 30_000).unwrap();
            assert!(!db.deferred_extents().is_empty());
            let mut img = Vec::new();
            db.save_image(&mut img).unwrap();

            assert_eq!(db.verify(&[("a", obj.as_ref())], &[]), []);
            let mut reader = SnapshotReader::new(&mut db, &snap, obj.root_page()).unwrap();
            assert_eq!(reader.read_to_end(&db), [7u8; 60_000]);
            db.release_snapshot(snap);

            let err = Db::load_image(&mut img.as_slice(), cfg).err();
            assert_eq!(
                err.map(|e| e.kind()),
                alloc_log.then_some(std::io::ErrorKind::InvalidInput),
                "an image has no root set for the log"
            );
            let mut loaded = Db::load_image(&mut img.as_slice(), DbConfig::default()).unwrap();
            let loaded_obj = ManagerSpec::esm(4)
                .open(&mut loaded, obj.root_page())
                .unwrap();
            assert_eq!(loaded_obj.snapshot(&loaded), [7u8; 30_000]);
            assert_eq!(loaded.verify(&[("a", loaded_obj.as_ref())], &[]), []);
        }
    }
}
